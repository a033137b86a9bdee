"""Invariants the paper implies, checked on random valid models as well as the demo."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_valid_spec
from volclust.asymptotics import asymptotic_price, corrected_iv
from volclust.pde import BAND_SLACK, make_grid, price_surface
from volclust.poisson import group_constants_for

seeds = st.integers(0, 2 ** 32 - 1)
small_taus = st.floats(0.01, 0.25)


# derandomized so that the suite's run time, which grows as 1/eps, is the same every run
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=seeds, tau=small_taus)
def test_pde_price_stays_in_the_band_on_random_models(seed, tau):
    spec = random_valid_spec(np.random.default_rng(seed))
    P = price_surface(spec, make_grid(spec, tau, nx=41)).P
    slack = BAND_SLACK * spec.strike
    assert P.min() >= -slack
    assert P.max() <= spec.strike + slack


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=seeds, tau=small_taus)
def test_first_order_terms_do_not_depend_on_gamma(seed, tau):
    spec = random_valid_spec(np.random.default_rng(seed))
    results = []
    for gamma in (0.5, 1.0, 4.0):
        spec_g = spec.with_(gamma=gamma)
        gc = group_constants_for(spec_g)
        civ = corrected_iv(gc, spec_g)
        results.append((asymptotic_price(gc, spec_g, tau, 0.1).P1, civ.a, civ.d))
    assert results[0] == results[1] == results[2]  # bit for bit, as AC-7 asks of the demo

"""Invariants the paper implies, checked on random valid models as well as the demo."""

import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_valid_spec
from volclust.asymptotics import asymptotic_price, corrected_iv
from volclust.calibrate import IVQuote, calibrate_from_surface
from volclust.errors import Unidentifiable
from volclust.model import Constant
from volclust.measure import build_invariant_measure
from volclust.pde import BAND_SLACK, make_grid, price_surface
from volclust.poisson import group_constants_for, model_integrals

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


def test_pde_price_stays_in_the_band_at_long_maturities():
    """Thirty random models, each at a tau in 1-10 and an eps in 0.05-1, on the +-3 span
    at nx = 41: every solve returns, with -1e-6 K <= P <= K.  Over a long tau the put
    spreads to the x-ends, which hold its payoff."""
    rng = np.random.default_rng(7)
    for _ in range(30):
        spec = random_valid_spec(rng)
        tau, eps = rng.uniform(1.0, 10.0), rng.uniform(0.05, 1.0)
        spec = spec.with_(epsilon=eps)
        P = price_surface(spec, make_grid(spec, tau, nx=41)).P
        assert -BAND_SLACK * spec.strike <= P.min() and P.max() <= spec.strike, (tau, eps)


@pytest.mark.parametrize("nx", [11, 21])
@pytest.mark.parametrize("steps", [1, 2, 4])
def test_coarse_solves_trip_no_band_monitor(nx, steps, caplog):
    """Ten random models on coarse grids, with 1, 2 or 4 steps to maturity: no halving
    that the march logs is for the price band."""
    rng = np.random.default_rng(123)
    with caplog.at_level(logging.INFO, logger="volclust.pde"):
        for _ in range(10):
            spec = random_valid_spec(rng)
            price_surface(spec, make_grid(spec, spec.maturity, nx=nx, dt=spec.maturity / steps))
    band = [r.getMessage() for r in caplog.records
            if r.name == "volclust.pde" and "price band" in r.getMessage()]
    assert band == []


@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=seeds, tau=small_taus)
def test_pde_price_moves_with_eta_as_the_sign_of_j_b_says(seed, tau):
    """Raising eta raises P where J_b > 0 and lowers it where J_b < 0, in the bulk.

    To first order P moves by sqrt(eps) tau sqrt(1 - rho^2) J_b d_eta S^2 Gamma,
    the same at every y.  So the sign is asserted where the corrected asymptotics
    move by at least a tenth of their peak (elsewhere the nx = 41 grid's x error,
    about 1% of the peak, can outweigh the move) and within 2 stationary standard
    deviations of m (at a few deviations out and tau ~ eps the start y still
    matters).  With sigma1 constant, J_b and the eta-dependence of P vanish.
    """
    spec = random_valid_spec(np.random.default_rng(seed))
    grid = make_grid(spec, tau, nx=41)
    lo, hi = (spec.with_(eta=spec.eta + d_eta) for d_eta in (-0.25, 0.25))
    rise = price_surface(hi, grid).P - price_surface(lo, grid).P
    if isinstance(spec.sigma1, Constant):
        assert np.abs(rise).max() <= 1e-9 * spec.strike
        return
    measure = build_invariant_measure(spec)
    j_b = model_integrals(spec, measure)[1]
    asym = np.array([asymptotic_price(group_constants_for(hi), hi, tau, x).corrected
                     - asymptotic_price(group_constants_for(lo), lo, tau, x).corrected
                     for x in grid.x])
    moved = np.abs(asym) >= 0.1 * np.abs(asym).max()
    bulk = np.abs(grid.y - spec.m) <= 2.0 * measure.std()
    assert np.all(np.sign(asym[moved]) == np.sign(j_b))
    assert np.all(math.copysign(1.0, j_b) * rise[np.ix_(moved, bulk)] > 0.0)


@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=seeds, tau=small_taus)
def test_pde_price_is_convex_in_strike(seed, tau):
    """P(K2) <= lam P(K1) + (1 - lam) P(K3) at one spot, for strikes K e^(-dx), K, K e^dx.

    On the strikes' shared grid a spot S = K e^(x_i) sits at node i + 1, i and
    i - 1 of the three solves.
    """
    spec = random_valid_spec(np.random.default_rng(seed))
    grid = make_grid(spec, tau, nx=41)
    k1, k2, k3 = (spec.strike * math.exp(s * grid.dx) for s in (-1, 0, 1))
    p1, p2, p3 = (price_surface(spec.with_(strike=k), grid).P for k in (k1, k2, k3))
    lam = (k3 - k2) / (k3 - k1)
    chord = lam * p1[2:] + (1.0 - lam) * p3[:-2]
    assert np.all(p2[1:-1] <= chord + 1e-9 * spec.strike)


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


# every seed in 0..149 once (112 of these models have a varying sigma1), and seed 164,
# a constant-sigma1 model whose J_b is rounding noise (-1.2e-19) that B / J_b magnifies
@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 149))
@example(seed=164)
def test_calibration_round_trip_recovers_eta(seed):
    """Quotes on a model's own corrected smile calibrate back to its eta.

    With sigma1 constant, eta does not move the smile, so calibration must refuse.
    """
    spec = random_valid_spec(np.random.default_rng(seed))
    civ = corrected_iv(group_constants_for(spec), spec)
    quotes = [IVQuote(tau, x, civ.iv(tau, x)) for tau in (0.1, 0.25, 0.5) for x in (-0.2, 0.0, 0.2)]
    if isinstance(spec.sigma1, Constant):
        with pytest.raises(Unidentifiable, match="sigma1 is constant"):
            calibrate_from_surface(quotes, spec.with_(eta=0.0))
    else:
        assert abs(calibrate_from_surface(quotes, spec.with_(eta=0.0)).eta - spec.eta) <= 1.5e-12

import math

import numpy as np
import pytest

from volclust.asymptotics import (asymptotic_price, corrected_iv,
                                  corrected_iv_via_vega,
                                  iv_correction_from_price)
from volclust.bs import bs_put, bs_vega
from volclust.errors import DegenerateVega
from volclust.model import Constant
from volclust.poisson import group_constants_for

# frozen first computation; cross-validated against the PDE in acceptance
DEMO_CORRECTED_ATM = 6.019690881458755


def test_constant_sigma1_gives_pure_black_scholes(demo_spec):
    spec = demo_spec.with_(sigma1=Constant(0.3))
    gc = group_constants_for(spec)
    assert abs(gc.a) < 1e-14 and abs(gc.b) < 1e-14
    ap = asymptotic_price(gc, spec, 0.25, 0.1)
    assert ap.P1 == pytest.approx(0.0, abs=1e-10)
    assert ap.corrected == pytest.approx(ap.P0, abs=1e-10)
    civ = corrected_iv(gc, spec)
    assert civ.a == pytest.approx(0.0, abs=1e-13)
    assert civ.d == pytest.approx(0.3, abs=1e-9)  # flat smile at sigma1


def test_tau_zero_returns_payoff(demo_gc, demo_spec):
    ap = asymptotic_price(demo_gc, demo_spec, 0.0, -0.3)
    assert ap.P1 == 0.0
    assert ap.corrected == pytest.approx(100 - 100 * math.exp(-0.3))


def test_small_tau_correction_vanishes(demo_gc, demo_spec):
    ap = asymptotic_price(demo_gc, demo_spec, 1e-9, -0.3)
    assert abs(ap.P1) < 1e-6
    assert ap.corrected == pytest.approx(100 - 100 * math.exp(-0.3), abs=1e-5)


def test_demo_corrected_price_regression(demo_gc, demo_spec):
    ap = asymptotic_price(demo_gc, demo_spec, 0.25, 0.0)
    assert ap.corrected == pytest.approx(DEMO_CORRECTED_ATM, rel=1e-12)
    assert ap.corrected == ap.P0 + math.sqrt(demo_spec.epsilon) * ap.P1


def test_value_function_diagnostics(demo_gc, demo_spec):
    tau, x = 0.25, 0.1
    ap = asymptotic_price(demo_gc, demo_spec, tau, x)
    shift = demo_gc.avg_b2_over_s2 * tau / (2 * demo_spec.gamma)
    u0_tilde = -shift
    assert ap.u0 == pytest.approx(-ap.P0 - shift, rel=1e-14)
    assert u0_tilde - ap.u0 == pytest.approx(ap.P0, rel=1e-14)
    assert ap.u1_tilde == -demo_gc.a_tilde * tau
    assert ap.u1_tilde - ap.u1 == pytest.approx(ap.P1, rel=1e-12)


def test_demo_smile_slopes_down(demo_gc, demo_spec):
    civ = corrected_iv(demo_gc, demo_spec)
    assert civ.a < 0  # A > 0 forces a negative LMMR slope: skew decreasing in log moneyness
    lm = np.linspace(-0.3, 0.3, 21)  # log moneyness -x
    ivs = civ.iv(0.25, -lm)
    assert np.all(np.diff(ivs) < 0)
    assert civ.iv(0.25, -0.3) < civ.iv(0.25, 0.3)


def test_intercept_decreasing_in_eta(demo_spec, demo_measure, demo_phis):
    from volclust.poisson import compute_group_constants

    ds = []
    for eta in (-0.25, 0.0, 0.25):
        spec = demo_spec.with_(eta=eta)
        gc = compute_group_constants(spec, demo_measure, demo_phis)
        ds.append(corrected_iv(gc, spec).d)
    assert ds[0] > ds[1] > ds[2]


def test_affine_law_exact(demo_gc, demo_spec):
    civ = corrected_iv(demo_gc, demo_spec)
    rng = np.random.default_rng(5)
    for _ in range(50):
        tau = rng.uniform(0.05, 2.0)
        x = rng.uniform(-1.0, 1.0)
        assert abs(civ.iv(tau, x) - (civ.a * (-x / tau) + civ.d)) < 1e-14


def test_iv_correction_from_price_basics():
    assert iv_correction_from_price(0.0, 40.0) == 0.0
    assert iv_correction_from_price(1.0, 40.0) == pytest.approx(0.025)
    with pytest.raises(DegenerateVega):
        iv_correction_from_price(1.0, 0.0)


def test_vega_route_matches_affine_route(demo_gc, demo_spec):
    civ = corrected_iv(demo_gc, demo_spec)
    for tau, x in ((0.25, 0.0), (0.5, -0.2), (1.0, 0.3), (0.1, 0.05)):
        assert corrected_iv_via_vega(demo_gc, demo_spec, tau, x) == pytest.approx(
            civ.iv(tau, x), abs=1e-10)


def test_gamma_independence_bitwise(demo_spec, demo_measure):
    from volclust.poisson import compute_group_constants, solve_phi_derivatives

    results = []
    for gamma in (0.5, 1.0, 4.0):
        spec = demo_spec.with_(gamma=gamma)
        gc = compute_group_constants(spec, demo_measure,
                                     solve_phi_derivatives(spec, demo_measure))
        ap = asymptotic_price(gc, spec, 0.25, 0.1)
        civ = corrected_iv(gc, spec)
        results.append((ap.P1, civ.a, civ.d))
    assert results[0] == results[1] == results[2]


def test_corrected_price_floor(demo_gc, demo_spec):
    # the expansion may dip below zero only within its own correction size
    xs = np.linspace(-1.0, 1.0, 41)
    p1_max = max(abs(asymptotic_price(demo_gc, demo_spec, 0.25, float(x)).P1) for x in xs)
    floor = -math.sqrt(demo_spec.epsilon) * p1_max
    for x in xs:
        assert asymptotic_price(demo_gc, demo_spec, 0.25, float(x)).corrected >= floor


def test_p1_formula_collapses_to_vega_form(demo_gc, demo_spec):
    # tau [ -A Pxxx + (A+B) Pxx - B Px ] == K pdf(d2) (B sqrt(tau)/s + A d2/s^2)
    tau, x = 0.4, -0.15
    s = demo_gc.sigma_bar
    ap = asymptotic_price(demo_gc, demo_spec, tau, x)
    d2 = (x - 0.5 * s * s * tau) / (s * math.sqrt(tau))
    pdf = math.exp(-0.5 * d2 * d2) / math.sqrt(2 * math.pi)
    collapsed = 100 * pdf * (demo_gc.b * math.sqrt(tau) / s + demo_gc.a * d2 / s ** 2)
    assert ap.P1 == pytest.approx(collapsed, rel=1e-10)
    assert bs_vega(tau, x, 100.0, s) == pytest.approx(100 * pdf * math.sqrt(tau), rel=1e-12)

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from conftest import random_valid_spec
from volclust.asymptotics import asymptotic_price, corrected_iv
from volclust.bs import bs_vega
from volclust.model import Constant, arctangent_model
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


def test_p1_is_zero_where_lmmr_overflows(demo_gc, demo_spec):
    # -x / tau is inf at this tau; vega underflows to 0, and P1 with it, not to nan
    ap = asymptotic_price(demo_gc, demo_spec, 1e-310, 0.5)
    assert ap.P1 == 0.0 and ap.corrected == ap.P0


def test_demo_corrected_price_regression(demo_gc, demo_spec):
    ap = asymptotic_price(demo_gc, demo_spec, 0.25, 0.0)
    assert ap.corrected == pytest.approx(DEMO_CORRECTED_ATM, rel=1e-12)
    assert ap.corrected == ap.P0 + math.sqrt(demo_spec.epsilon) * ap.P1


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


def _put_x_derivatives(strike, tau, x, sigma):
    """P, P_x, P_xx, P_xxx of K N(-d2) - K e^x N(-d1) by Leibniz's rule, in mpmath.

    d1 and d2 are linear in x with slope u = 1 / (sigma sqrt(tau)), so the
    k-th x-derivative of N(-d) is (-u)^k N^(k)(-d), where N^(1) = pdf,
    N^(2)(z) = -z pdf(z) and N^(3)(z) = (z^2 - 1) pdf(z).
    """
    u = 1 / (sigma * mp.sqrt(tau))
    d1 = x * u + 1 / (2 * u)

    def n_minus(d):
        z = -d
        pdf = mp.npdf(z)
        return [mp.ncdf(z), -u * pdf, u ** 2 * -z * pdf, -u ** 3 * (z * z - 1) * pdf]

    g2, g1 = n_minus(d1 - 1 / u), n_minus(d1)
    return [strike * (g2[n] - mp.exp(x) * sum(mp.binomial(n, k) * g1[k] for k in range(n + 1)))
            for n in range(4)]


def test_put_x_derivatives_oracle_matches_mpmath_differentiation():
    with mp.workdps(40):
        strike, tau, x, sigma = mp.mpf(100), mp.mpf("0.3"), mp.mpf("-0.2"), mp.mpf("0.25")
        exact = _put_x_derivatives(strike, tau, x, sigma)
        numeric = mp.diffs(lambda z: _put_x_derivatives(strike, tau, z, sigma)[0], x, 3)
        for e, n in zip(exact, numeric):
            assert abs(e - n) <= mp.mpf("1e-35") * abs(n)


@pytest.mark.parametrize("seed", [None, 1, 2, 5], ids=["demo", "seed1", "seed2", "seed5"])
def test_p1_matches_the_operator_form_in_high_precision(seed):
    """P1 against tau [-A P0_xxx + (A + B) P0_xx - B P0_x], evaluated at 320 digits.

    On these points the derivatives stay below 1e3 and |A|, |B| below 1, and
    P1 is compared only above 1e-280, so the cancellation leaves more than 30
    of the 320 digits.  seed 2's A and B are about 1e-20, where a P1 formed
    as (iv - sigma_bar) / sqrt(eps) would round to 0.
    """
    spec = arctangent_model() if seed is None else random_valid_spec(np.random.default_rng(seed))
    gc = group_constants_for(spec)
    rng = np.random.default_rng(2015)
    compared = 0
    for _ in range(40):
        tau, x = float(rng.uniform(0.02, 2.0)), float(rng.uniform(-1.5, 1.5))
        with mp.workdps(320):
            t = mp.mpf(tau)
            _, p_x, p_xx, p_xxx = _put_x_derivatives(mp.mpf(spec.strike), t, mp.mpf(x),
                                                     mp.mpf(gc.sigma_bar))
            a, b = mp.mpf(gc.a), mp.mpf(gc.b)
            exact = t * (-a * p_xxx + (a + b) * p_xx - b * p_x)
            if abs(exact) <= mp.mpf("1e-280"):
                continue
            p1 = asymptotic_price(gc, spec, tau, x).P1
            assert abs(p1 - exact) <= 1e-12 * abs(exact), (tau, x, p1, float(exact))
        compared += 1
    assert compared >= 30


@pytest.mark.parametrize("sigma1_bar_sq", [0.0, math.nan], ids=["zero", "nan"])
def test_the_corrected_smile_needs_a_positive_sigma_bar(demo_gc, demo_spec, sigma1_bar_sq):
    with pytest.raises(ValueError, match="sigma_bar must be positive"):
        corrected_iv(replace(demo_gc, sigma1_bar_sq=sigma1_bar_sq), demo_spec)


@pytest.mark.parametrize("tau", [0.0, -0.1])
def test_the_corrected_iv_is_undefined_at_tau_zero_and_below(demo_gc, demo_spec, tau):
    with pytest.raises(ValueError, match="undefined at tau = 0"):
        corrected_iv(demo_gc, demo_spec).iv(tau, 0.0)

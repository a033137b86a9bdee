import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ndtr

from volclust import bs
from volclust.bs import _cdf, _log_cdf, bs_put, bs_vega, implied_vol, put_payoff
from volclust.errors import ConfigError, NoConvergence, OutOfBand


def test_payoff_at_expiry():
    assert bs_put(0.0, -0.5, 100.0, 0.2) == pytest.approx(100 - 100 * math.exp(-0.5))
    assert bs_put(0.0, 0.5, 100.0, 0.2) == 0.0


def test_atm_price_against_normal_cdf():
    # d1 = 0.1, d2 = -0.1: price = K (N(0.1) - N(-0.1)), N(0.1) = 0.539828
    assert bs_put(1.0, 0.0, 100.0, 0.2) == pytest.approx(7.9656, abs=1e-3)
    assert bs_put(1.0, 0.0, 100.0, 0.2) == pytest.approx(7.965567455405804, rel=1e-12)


def test_deep_out_of_the_money_vanishes():
    assert bs_put(1.0, 6.0, 100.0, 0.2) < 1e-8


def _mp_put(tau, x, strike, sigma):
    """K N(-d2) - K e^x N(-d1) in 50-digit arithmetic."""
    with mp.workdps(50):
        x, srt = mp.mpf(x), mp.mpf(sigma) * mp.sqrt(tau)
        d1 = x / srt + srt / 2
        return float(strike * mp.ncdf(-(d1 - srt)) - strike * mp.exp(x) * mp.ncdf(-d1))


@pytest.mark.parametrize("x, srt", [(709.7, math.sqrt(2 * 709.7)), (710.0, math.sqrt(1420.0)),
                                    (800.0, math.sqrt(1600.0)), (800.0, 0.2)])
def test_put_stays_finite_where_e_to_the_x_overflows(x, srt):
    """At sigma sqrt(tau) = sqrt(2x), K e^x N(-d1) is about K pdf(0) / d1, not small."""
    assert bs_put(1.0, x, 100.0, srt) == pytest.approx(_mp_put(1.0, x, 100.0, srt),
                                                       rel=1e-12, abs=1e-12)


def test_put_at_the_largest_x_is_zero():
    """mpmath's erfc cannot take d ~ 5e308; the reference is the bound 0 <= P <= K pdf(d2) / d2."""
    with mp.workdps(50):
        d2 = mp.mpf(1e308) / mp.mpf(0.2) - mp.mpf(0.1)
        assert 100 * mp.npdf(d2) / d2 < mp.mpf(2) ** -1075  # below the least subnormal
    assert bs_put(1.0, 1e308, 100.0, 0.2) == 0.0


def test_put_keeps_the_plain_formula_where_e_to_the_x_is_finite():
    """Bit for bit the formula with bs's own N: the overflow branch does not run here."""
    rng = np.random.default_rng(7)
    for x, tau, sigma in zip(rng.uniform(-5.0, 705.0, 200), rng.uniform(1e-4, 3.0, 200),
                             rng.uniform(0.01, 2.0, 200)):
        srt = sigma * math.sqrt(tau)
        d1 = x / srt + 0.5 * srt
        plain = 100.0 * _cdf(-(d1 - srt)) - 100.0 * math.exp(x) * _cdf(-d1)
        assert bs_put(tau, x, 100.0, sigma) == plain


def test_normal_cdf_is_as_accurate_as_scipy_ndtr():
    """Largest relative error against 50-digit mpmath over z in [-37, 8], where N is normal."""
    zs = np.linspace(-37.0, 8.0, 901)
    with mp.workdps(50):
        exact = [mp.ncdf(mp.mpf(z)) for z in zs]
        worst = [max(float(abs((cdf(z) - ref) / ref)) for z, ref in zip(zs, exact))
                 for cdf in (_cdf, ndtr)]
    assert worst[0] <= worst[1], worst


@pytest.mark.parametrize("z", [-1e3, -37.67, -25.0, -20.0, -19.9, -5.0, 0.0, 3.0])
def test_log_normal_cdf_against_mpmath(z):
    """The asymptotic series below z = -20 and log N above it, each to a few ulps."""
    with mp.workdps(50):
        exact = float(mp.log(mp.ncdf(mp.mpf(z))))
    assert _log_cdf(z) == pytest.approx(exact, rel=1e-15, abs=1e-15)


@pytest.mark.parametrize("x", [709.7, 710.0, 800.0, 1e308])
def test_payoff_at_expiry_where_e_to_the_x_overflows(x):
    assert bs_put(0.0, x, 100.0, 0.2) == put_payoff(x, 100.0) == 0.0


def test_put_payoff_of_an_array_is_bs_put_at_expiry_node_by_node():
    """One formula for a float and an array: no overflow branch, and the same bits."""
    x = np.array([-800.0, -3.0, -0.5, -1e-3, -0.0, 0.0, 0.25, 709.7, 710.0, 1e308])
    payoff = put_payoff(x, 100.0)
    assert payoff.tobytes() == np.array([bs_put(0.0, v, 100.0, 0.2) for v in x]).tobytes()
    assert payoff[0] == 100.0 and (payoff[4:] == 0.0).all()


def test_payoff_consistency_small_tau():
    # off the payoff kink; at x = 0 the gap is O(sqrt(tau)) by design
    for x in (-0.4, -0.1, 0.05, 0.2):
        assert bs_put(1e-8, x, 100.0, 0.2) == pytest.approx(
            max(100 - 100 * math.exp(x), 0.0), abs=1e-6)


def test_vega_closed_form_and_positivity():
    assert bs_vega(1.0, 0.0, 100.0, 0.2) == pytest.approx(39.6953, abs=1e-3)
    assert bs_vega(1.0, 0.0, 100.0, 0.2) == pytest.approx(
        100 * math.exp(-0.005) / math.sqrt(2 * math.pi), rel=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert bs_vega(rng.uniform(0.01, 3), rng.uniform(-2, 2), 100.0,
                       rng.uniform(0.05, 2)) > 0


@pytest.mark.parametrize("tau, x, sigma", [(1e-310, 0.5, 0.3), (0.02, -1.5, 0.05)])
def test_vega_is_exactly_zero_where_the_density_underflows(tau, x, sigma):
    assert bs_vega(tau, x, 100.0, sigma) == 0.0


def test_vega_vanishes_like_sqrt_tau():
    small = bs_vega(1e-10, 0.0, 100.0, 0.2)
    assert small == pytest.approx(100 * 1e-5 / math.sqrt(2 * math.pi), rel=1e-6)


def test_vega_matches_sigma_finite_difference():
    h = 1e-6
    fd = (bs_put(1.0, 0.1, 100.0, 0.2 + h) - bs_put(1.0, 0.1, 100.0, 0.2 - h)) / (2 * h)
    assert bs_vega(1.0, 0.1, 100.0, 0.2) == pytest.approx(fd, rel=1e-7)


def test_put_increasing_in_sigma():
    sigmas = np.linspace(0.05, 2.0, 40)
    prices = [bs_put(0.7, -0.2, 100.0, s) for s in sigmas]
    assert np.all(np.diff(prices) > 0)


def test_implied_vol_round_trip():
    price = bs_put(1.0, 0.0, 100.0, 0.2)
    assert implied_vol(price, 1.0, 0.0, 100.0) == pytest.approx(0.2, abs=1e-8)


def draw_invertible_points(rng, count):
    """Random (tau, x, sigma) whose prices sit strictly inside the band.

    Deep in-the-money low-vol puts collapse onto the intrinsic value in
    double precision, where inversion is ill-posed by the precondition.
    """
    points = []
    while len(points) < count:
        tau = rng.uniform(0.05, 2.0)
        x = rng.uniform(-1.0, 1.0)
        sigma = rng.uniform(0.05, 1.0)
        lo, hi = put_payoff(x, 100.0), 100.0
        price = bs_put(tau, x, 100.0, sigma)
        if lo + 1e-8 * 100.0 < price < hi - 1e-8 * 100.0:
            points.append((tau, x, sigma, price))
    return points


def test_implied_vol_round_trip_random():
    rng = np.random.default_rng(123)
    for tau, x, sigma, price in draw_invertible_points(rng, 100):
        assert implied_vol(price, tau, x, 100.0) == pytest.approx(sigma, abs=1e-8)


def test_out_of_band_prices_rejected():
    with pytest.raises(OutOfBand):
        implied_vol(100.0, 1.0, 0.0, 100.0)  # price == strike: upper edge
    lo = put_payoff(-0.5, 100.0)
    with pytest.raises(OutOfBand):
        implied_vol(lo - 1e-9, 1.0, -0.5, 100.0)


@pytest.mark.parametrize("tau", [0.0, -0.1, math.nan, math.inf])
def test_implied_vol_rejects_a_bad_tau_by_name(tau):
    """One ConfigError naming tau, before the band check or any iteration."""
    with pytest.raises(ConfigError, match=r"finite tau > 0, got tau = ") as info:
        implied_vol(5.0, tau, 0.0, 100.0)
    assert type(info.value) is ConfigError
    assert str(info.value).endswith(repr(tau))


@pytest.mark.parametrize("tau, sigma", [(0.0, 0.2), (-0.1, 0.2), (0.5, 0.0), (0.5, -0.2)],
                         ids=["tau-zero", "tau-negative", "sigma-zero", "sigma-negative"])
def test_vega_needs_a_positive_tau_and_sigma(tau, sigma):
    with pytest.raises(ValueError, match="vega needs tau > 0 and sigma > 0"):
        bs_vega(tau, 0.0, 100.0, sigma)


def test_implied_vol_raises_no_convergence_when_its_iterations_run_out(monkeypatch):
    """Two iterations are one bisection and one Newton step: too few to settle sigma."""
    monkeypatch.setattr(bs, "MAX_ITERATIONS", 2)
    with pytest.raises(NoConvergence, match="did not converge in 2 iterations"):
        implied_vol(bs_put(1.0, 0.0, 100.0, 0.2), 1.0, 0.0, 100.0)

import math

import numpy as np
import pytest

from volclust.bs import (bs_put, bs_put_dx_derivatives, bs_vega, implied_vol,
                         no_arbitrage_band)
from volclust.errors import ConfigError, OutOfBand


def test_payoff_at_expiry():
    assert bs_put(0.0, -0.5, 100.0, 0.2) == pytest.approx(100 - 100 * math.exp(-0.5))
    assert bs_put(0.0, 0.5, 100.0, 0.2) == 0.0


def test_atm_price_against_normal_cdf():
    # d1 = 0.1, d2 = -0.1: price = K (N(0.1) - N(-0.1)), N(0.1) = 0.539828
    assert bs_put(1.0, 0.0, 100.0, 0.2) == pytest.approx(7.9656, abs=1e-3)
    assert bs_put(1.0, 0.0, 100.0, 0.2) == pytest.approx(7.965567455405804, rel=1e-12)


def test_deep_out_of_the_money_vanishes():
    assert bs_put(1.0, 6.0, 100.0, 0.2) < 1e-8


def test_payoff_consistency_small_tau():
    # off the payoff kink; at x = 0 the gap is O(sqrt(tau)) by design
    for x in (-0.4, -0.1, 0.05, 0.2):
        assert bs_put(1e-8, x, 100.0, 0.2) == pytest.approx(
            max(100 - 100 * math.exp(x), 0.0), abs=1e-6)


def test_derivative_tail_limits():
    deep = bs_put_dx_derivatives(1.0, -6.0, 100.0, 0.2)
    expected = -100 * math.exp(-6.0)
    assert deep.d1x == pytest.approx(expected, rel=1e-9)
    assert deep.d2x == pytest.approx(expected, rel=1e-9)
    assert deep.d3x == pytest.approx(expected, rel=1e-9)
    flat = bs_put_dx_derivatives(1.0, 6.0, 100.0, 0.2)
    assert max(abs(flat.d1x), abs(flat.d2x), abs(flat.d3x)) < 1e-8


def _fd_derivatives(tau, x, strike, sigma, h=1e-3):
    def p(z):
        return bs_put(tau, z, strike, sigma)

    def d3_second_order(step):
        return (p(x + 2 * step) - 2 * p(x + step) + 2 * p(x - step)
                - p(x - 2 * step)) / (2 * step ** 3)

    # 4th-order central stencils (d3 via Richardson on the 2nd-order stencil)
    d1 = (-p(x + 2 * h) + 8 * p(x + h) - 8 * p(x - h) + p(x - 2 * h)) / (12 * h)
    d2 = (-p(x + 2 * h) + 16 * p(x + h) - 30 * p(x) + 16 * p(x - h) - p(x - 2 * h)) / (12 * h * h)
    d3 = (4 * d3_second_order(h) - d3_second_order(2 * h)) / 3
    return d1, d2, d3


def test_derivatives_match_finite_differences():
    d = bs_put_dx_derivatives(0.5, 0.1, 100.0, 0.25)
    fd1, fd2, fd3 = _fd_derivatives(0.5, 0.1, 100.0, 0.25)
    assert d.d1x == pytest.approx(fd1, rel=1e-6)
    assert d.d2x == pytest.approx(fd2, rel=1e-6)
    assert d.d3x == pytest.approx(fd3, rel=1e-6)


def _mp_derivatives(tau, x, strike, sigma):
    """High-precision central differences; immune to double roundoff."""
    import mpmath as mp

    with mp.workdps(40):
        t, xx, k, s = (mp.mpf(repr(v)) for v in (tau, x, strike, sigma))
        srt = s * mp.sqrt(t)

        def p(z):
            d1 = z / srt + srt / 2
            return k * mp.ncdf(-(d1 - srt)) - k * mp.exp(z) * mp.ncdf(-d1)

        h = mp.mpf("1e-8")
        d1 = (p(xx + h) - p(xx - h)) / (2 * h)
        d2 = (p(xx + h) - 2 * p(xx) + p(xx - h)) / h ** 2
        d3 = (p(xx + 2 * h) - 2 * p(xx + h) + 2 * p(xx - h) - p(xx - 2 * h)) / (2 * h ** 3)
        return float(d1), float(d2), float(d3)


def test_derivatives_match_finite_differences_random_points():
    rng = np.random.default_rng(42)
    for _ in range(100):
        tau = rng.uniform(0.05, 2.0)
        x = rng.uniform(-1.0, 1.0)
        sigma = rng.uniform(0.08, 0.9)
        d = bs_put_dx_derivatives(tau, x, 100.0, sigma)
        fd1, fd2, fd3 = _mp_derivatives(tau, x, 100.0, sigma)
        assert d.d1x == pytest.approx(fd1, rel=1e-6, abs=1e-10)
        assert d.d2x == pytest.approx(fd2, rel=1e-6, abs=1e-10)
        assert d.d3x == pytest.approx(fd3, rel=1e-6, abs=1e-10)


def test_vega_closed_form_and_positivity():
    assert bs_vega(1.0, 0.0, 100.0, 0.2) == pytest.approx(39.6953, abs=1e-3)
    assert bs_vega(1.0, 0.0, 100.0, 0.2) == pytest.approx(
        100 * math.exp(-0.005) / math.sqrt(2 * math.pi), rel=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert bs_vega(rng.uniform(0.01, 3), rng.uniform(-2, 2), 100.0,
                       rng.uniform(0.05, 2)) > 0


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
        lo, hi = no_arbitrage_band(x, 100.0)
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
    lo, _ = no_arbitrage_band(-0.5, 100.0)
    with pytest.raises(OutOfBand):
        implied_vol(lo - 1e-9, 1.0, -0.5, 100.0)


@pytest.mark.parametrize("tau", [0.0, -0.1, math.nan, math.inf])
def test_implied_vol_rejects_a_bad_tau_by_name(tau):
    """One ConfigError naming tau, before the band check or any iteration."""
    with pytest.raises(ConfigError, match=r"finite tau > 0, got tau = ") as info:
        implied_vol(5.0, tau, 0.0, 100.0)
    assert type(info.value) is ConfigError
    assert str(info.value).endswith(repr(tau))

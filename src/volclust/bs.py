"""Black-Scholes put pricing in log-moneyness coordinates, plus inversion.

Everything is expressed in ``x = ln(S/K)`` with zero rates:

    put(tau, x; sigma) = K N(-d2) - K e^x N(-d1),
    d1 = (x + sigma^2 tau / 2) / (sigma sqrt(tau)),   d2 = d1 - sigma sqrt(tau).

The vega is closed-form, vega = K pdf(d2) sqrt(tau).  It is the one
sensitivity the asymptotics need: their price correction P1 is vega
times the smile shift (:mod:`volclust.asymptotics`).

The cumulative normal is N(z) = erfc(-z / sqrt 2) / 2 by ``math.erfc``,
which keeps relative accuracy in the lower tail: against 50-digit mpmath
it is as close as scipy's ``ndtr`` on z in [-37, 8].  Where K e^x
overflows, the put takes log N(-d1) from N's asymptotic series instead.

The payoff, the put at tau = 0, is ``put_payoff``, of a float or an array:
the one payoff formula, which ``bs_put``, ``implied_vol``'s band and the
PDE march's start all take.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConfigError, NoConvergence, OutOfBand

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_MAX_FLOAT = math.log(sys.float_info.max)  # math.exp overflows above it

#: search interval and tolerances for implied-vol inversion
VOL_FLOOR = 1e-8
VOL_CEILING = 5.0
MAX_ITERATIONS = 200


def _pdf(z: float) -> float:
    return math.exp(-0.5 * z * z) / _SQRT_2PI


def _cdf(z: float) -> float:
    """The standard normal CDF N(z), by erfc: no cancellation in the lower tail."""
    return 0.5 * math.erfc(-z / _SQRT_2)


def _log_cdf(z: float) -> float:
    """log N(z), finite where N(z) underflows.

    Below z = -20 it is -z^2/2 - log(-z sqrt(2 pi)) + log of the asymptotic
    series 1 - 1/z^2 + 3/z^4 - 15/z^6 + ..., summed until a term no longer
    moves the sum: at most 10 terms.  The series diverges, its terms
    shrinking only while their index is below z^2 / 2 (200 at z = -20),
    which bounds the loop.
    """
    if z > -20.0:
        return math.log(_cdf(z))
    inv_z2, term, total = 1.0 / (z * z), 1.0, 1.0
    for k in range(1, 200):
        term *= -(2 * k - 1) * inv_z2
        if total + term == total:
            break
        total += term
    return -0.5 * z * z - math.log(-z * _SQRT_2PI) + math.log(total)


def _d12(tau: float, x: float, sigma: float) -> tuple[float, float]:
    srt = sigma * math.sqrt(tau)
    d1 = x / srt + 0.5 * srt
    return d1, d1 - srt


def put_payoff(x: float | np.ndarray, strike: float) -> float | np.ndarray:
    """The put's payoff ``max(K - K e^x, 0)``, of a float or an array of x.

    e^x is taken at min(x, 0), so it never overflows and never exceeds 1:
    the payoff is 0.0 for every x >= 0 and K - K e^x >= 0 below it.
    """
    return strike - strike * np.exp(np.minimum(x, 0.0))


def bs_put(tau: float, x: float, strike: float, sigma: float) -> float:
    """Put price; collapses to the payoff at tau = 0.

    Where K e^x overflows, K e^x N(-d1) is taken as K exp(x + log N(-d1)),
    which stays finite: N(-d1) falls faster than e^x grows.
    """
    if tau == 0.0:
        return float(put_payoff(x, strike))
    d1, d2 = _d12(tau, x, sigma)
    if x > _LOG_MAX_FLOAT or math.isinf(forward := strike * math.exp(x)):
        return strike * _cdf(-d2) - strike * math.exp(x + _log_cdf(-d1))
    return strike * _cdf(-d2) - forward * _cdf(-d1)


def bs_vega(tau: float, x: float, strike: float, sigma: float) -> float:
    """d(price)/d(sigma); >= 0, and 0.0 where the normal density of d2 underflows."""
    if tau <= 0 or sigma <= 0:
        raise ValueError("vega needs tau > 0 and sigma > 0")
    _, d2 = _d12(tau, x, sigma)
    return strike * _pdf(d2) * math.sqrt(tau)


def implied_vol(price: float, tau: float, x: float, strike: float) -> float:
    """Invert the put price for sigma by bisection plus a Newton polish.

    tau must be finite and > 0, and the price must lie strictly inside the
    no-arbitrage band (payoff, K).  Converges to |price error| < 1e-10 K;
    the bracket guarantees progress, Newton supplies the terminal rate.
    """
    if not (math.isfinite(tau) and tau > 0.0):
        raise ConfigError(f"implied vol needs a finite tau > 0, got tau = {tau!r}")
    lo_price, hi_price = float(put_payoff(x, strike)), strike
    if not (lo_price < price < hi_price):
        raise OutOfBand(
            f"price {price!r} outside the attainable band ({lo_price!r}, {hi_price!r})"
        )
    tol = 1e-10 * strike
    lo, hi = VOL_FLOOR, VOL_CEILING
    sigma = 0.5 * (lo + hi)
    for _ in range(MAX_ITERATIONS):
        diff = bs_put(tau, x, strike, sigma) - price
        if diff > 0.0:
            hi = sigma
        else:
            lo = sigma
        vega = bs_vega(tau, x, strike, sigma)
        if vega > 0.0:
            newton = sigma - diff / vega
            nxt = newton if lo < newton < hi else 0.5 * (lo + hi)
        else:
            nxt = 0.5 * (lo + hi)
        # converge on the price residual, then polish until sigma settles
        if abs(diff) < tol and abs(nxt - sigma) < 1e-12 * max(1.0, sigma):
            return nxt
        sigma = nxt
    raise NoConvergence(f"implied vol did not converge in {MAX_ITERATIONS} iterations")

"""Corrected asymptotic price and implied volatility.

As the mean-reversion time ``epsilon`` shrinks, the indifference put
price expands as ``P0 + sqrt(epsilon) P1 + o(sqrt(epsilon))`` where P0 is
the Black-Scholes price at the stationary-average volatility and

    P1 = tau [ -A P0_xxx + (A + B) P0_xx - B P0_x ]

with the group constants A, B from :mod:`volclust.poisson`.  Divided by
vega, P1 is affine in the log-moneyness-to-maturity ratio LMMR = -x / tau,

    P1 / vega = -A / sigma_bar^3 * LMMR + (B - A/2) / sigma_bar,

the epsilon-free smile shift.  It is written once, in ``_smile_shift``.
The price takes P1 as vega times the shift, never by differencing the
x-derivatives of P0 (that cancels O(K e^x) terms for an O(K pdf(d2))
result); the tests check it against the operator form above, evaluated
in high precision.  The smile is sigma_bar plus sqrt(epsilon) times the
shift, a line in LMMR:

    iv(tau, x) = a * LMMR + d,
    a = -sqrt(epsilon) A / sigma_bar^3,
    d = sigma_bar + sqrt(epsilon) (B - A/2) / sigma_bar.

Neither A, B nor the correction depends on the risk aversion gamma.
The derivation's value functions u0, u1 and u1-tilde do, through the
constant risk source and the a_tilde term, but those parts cancel in the
price P = u-tilde - u, so no value function is computed here.  Prices are
quoted option-holder positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bs import bs_put, bs_vega
from .model import ModelSpec
from .poisson import GroupConstants


@dataclass(frozen=True)
class AsymptoticPrice:
    """Leading and first-corrected price, accurate to O(-epsilon log epsilon)."""

    P0: float
    P1: float
    corrected: float  # P0 + sqrt(epsilon) P1


def _smile_shift(gc: GroupConstants) -> tuple[float, float]:
    """The epsilon-free shift (iv - sigma_bar) / sqrt(epsilon) as (LMMR slope, intercept)."""
    sigma_bar = gc.sigma_bar
    if not sigma_bar > 0:
        raise ValueError("sigma_bar must be positive")
    return -gc.a / sigma_bar ** 3, (gc.b - gc.a / 2.0) / sigma_bar


def asymptotic_price(gc: GroupConstants, spec: ModelSpec, tau: float, x: float) -> AsymptoticPrice:
    """Evaluate P0, P1 and the corrected price at one (tau, x)."""
    sigma_bar = gc.sigma_bar
    p0 = bs_put(tau, x, spec.strike, sigma_bar)
    if tau > 0.0:
        slope, intercept = _smile_shift(gc)
        vega = bs_vega(tau, x, spec.strike, sigma_bar)
        # vega (slope LMMR + intercept) multiplied out, so that LMMR = -x / tau is never
        # formed: it overflows for a tiny tau, where vega is 0, and vega / tau stays finite
        p1 = vega * intercept - vega / tau * slope * x
    else:
        p1 = 0.0
    return AsymptoticPrice(
        P0=p0,
        P1=p1,
        corrected=p0 + math.sqrt(spec.epsilon) * p1,
    )


@dataclass(frozen=True)
class CorrectedIV:
    """Corrected implied volatility as a line in LMMR."""

    sigma_bar: float
    a: float  # LMMR slope
    d: float  # intercept

    def iv(self, tau: float, x: float) -> float:
        if tau <= 0:
            raise ValueError("implied volatility is undefined at tau = 0")
        return self.a * (-x / tau) + self.d


def corrected_iv(gc: GroupConstants, spec: ModelSpec) -> CorrectedIV:
    """Slope/intercept of the corrected smile for this model."""
    slope, intercept = _smile_shift(gc)
    sqrt_eps = math.sqrt(spec.epsilon)
    return CorrectedIV(sigma_bar=gc.sigma_bar, a=sqrt_eps * slope,
                       d=gc.sigma_bar + sqrt_eps * intercept)

"""Corrected asymptotic price and implied volatility.

As the mean-reversion time ``epsilon`` shrinks, the indifference put
price expands as ``P0 + sqrt(epsilon) P1 + o(sqrt(epsilon))`` where P0 is
the Black-Scholes price at the stationary-average volatility and

    P1 = tau [ -A P0_xxx + (A + B) P0_xx - B P0_x ]

with the group constants A, B from :mod:`volclust.poisson`.  Dividing P1
by vega collapses the corrected implied volatility to a line in the
log-moneyness-to-maturity ratio, LMMR = -x / tau:

    iv(tau, x) = a * LMMR + d,
    a = -sqrt(epsilon) A / sigma_bar^3,
    d = sigma_bar + sqrt(epsilon) (B - A/2) / sigma_bar.

Neither A, B nor the correction depends on the risk aversion gamma; the
value functions below the price do (through the constant risk source and
the a_tilde term), and are kept only as diagnostics.  Prices are quoted
option-holder positive; the underlying value functions carry a negative
payoff, so their signs are flipped here in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bs import bs_put, bs_put_dx_derivatives, bs_vega
from .errors import DegenerateVega
from .model import ModelSpec
from .poisson import GroupConstants


@dataclass(frozen=True)
class AsymptoticPrice:
    """Leading and first-corrected price, accurate to O(-epsilon log epsilon)."""

    P0: float
    P1: float
    corrected: float  # P0 + sqrt(epsilon) P1
    u0: float         # diagnostic value function (negative payoff branch)
    u1: float
    u1_tilde: float


def asymptotic_price(gc: GroupConstants, spec: ModelSpec, tau: float, x: float) -> AsymptoticPrice:
    """Evaluate P0, P1 and the diagnostics at one (tau, x)."""
    sigma_bar = gc.sigma_bar
    p0 = bs_put(tau, x, spec.strike, sigma_bar)
    if tau > 0.0:
        d = bs_put_dx_derivatives(tau, x, spec.strike, sigma_bar)
        p1 = tau * (-gc.a * d.d3x + (gc.a + gc.b) * d.d2x - gc.b * d.d1x)
    else:
        p1 = 0.0
    shift = gc.avg_b2_over_s2 * tau / (2.0 * spec.gamma)
    return AsymptoticPrice(
        P0=p0,
        P1=p1,
        corrected=p0 + math.sqrt(spec.epsilon) * p1,
        u0=-p0 - shift,
        u1=-p1 - gc.a_tilde * tau,
        u1_tilde=-gc.a_tilde * tau,
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
    sigma_bar = gc.sigma_bar
    if not sigma_bar > 0:
        raise ValueError("sigma_bar must be positive")
    sqrt_eps = math.sqrt(spec.epsilon)
    return CorrectedIV(
        sigma_bar=sigma_bar,
        a=-sqrt_eps * gc.a / sigma_bar ** 3,
        d=sigma_bar + sqrt_eps / sigma_bar * (gc.b - gc.a / 2.0),
    )


def iv_correction_from_price(p1: float, vega: float) -> float:
    """Vol correction implied by a price correction: p1 / vega."""
    if vega < 1e-300:
        raise DegenerateVega(f"vega {vega!r} too small to convert a price correction")
    return p1 / vega


def corrected_iv_via_vega(gc: GroupConstants, spec: ModelSpec, tau: float, x: float) -> float:
    """Same corrected vol through the price/vega route (identity check path)."""
    sigma_bar = gc.sigma_bar
    p1 = asymptotic_price(gc, spec, tau, x).P1
    vega = bs_vega(tau, x, spec.strike, sigma_bar)
    return sigma_bar + math.sqrt(spec.epsilon) * iv_correction_from_price(p1, vega)

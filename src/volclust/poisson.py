"""Poisson solves for the corrector derivatives and the group constants.

Two Poisson equations ``(m-y) v' + sigma2^2 v'' / 2 = f`` with centered
right-hand sides

    f1 = h - <h>,  h = b^2 / (2 gamma sigma1^2) = ``ModelSpec.h``, the PDE's source negated,
    f2 = (sigma1^2 - <sigma1^2>) / 2

are solved by the integrating-factor construction: the derivative is

    v'(y) = 2 / (sigma2(y)^2 pi(y)) * integral_{-inf}^y f dpi,

with the equivalent tail-anchored form (sign flipped) used for y > m so
that neither side divides a vanishing cumulative by a vanishing density
(``_tail_anchored``, which ``model_integrals`` shares).  Only the
derivatives are ever needed: the group constants feeding the
sqrt(epsilon) price correction are stationary averages of coefficient
combinations times v', A~ and B scaled by ``ModelSpec.risk_prefactor``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDensity
from .measure import (InvariantMeasure, average, build_invariant_measure, cumulative_trapezoid,
                      trapezoid)
from .model import FrozenArrays, ModelSpec


@dataclass(frozen=True)
class PhiDerivatives(FrozenArrays):
    """Derivatives of the two correctors, tabulated on the measure grid."""

    grid: np.ndarray
    phi1_prime: np.ndarray  # corrector for the drift/risk source
    phi2_prime: np.ndarray  # corrector for the vol-level source

    def __post_init__(self):
        for name in ("grid", "phi1_prime", "phi2_prime"):
            self._freeze(name)


@dataclass(frozen=True)
class GroupConstants:
    """Stationary averages that fully determine the price correction.

    ``a`` multiplies the third x-derivative of the leading price, ``b``
    the first.  ``a_tilde``, which carries the 1/gamma dependence, and
    ``avg_b2_over_s2`` enter the value functions but not the price, and
    only the ``constants`` command prints them.  ``a_alt``/``b_alt`` are
    the same constants evaluated through the double-integral route of
    ``model_integrals`` and are recorded for cross-checking.
    """

    sigma1_bar_sq: float
    avg_b2_over_s2: float
    a: float
    a_tilde: float
    b: float
    a_alt: float
    b_alt: float

    @property
    def sigma_bar(self) -> float:
        return math.sqrt(self.sigma1_bar_sq)


def _centered(values: np.ndarray, measure: InvariantMeasure) -> np.ndarray:
    """Subtract the stationary average so the grid cumulative ends at ~0."""
    mass = trapezoid(measure.density, measure.grid)
    return values - average(measure, values) / mass


def _tail_anchored(cum: np.ndarray, y: np.ndarray, m: float) -> np.ndarray:
    """The cumulative ``cum`` from the left end for y <= m, from the right end beyond."""
    return np.where(y <= m, cum, cum - cum[-1])


def _poisson_derivative(f_centered: np.ndarray, measure: InvariantMeasure,
                        sigma2_sq: np.ndarray, m: float) -> np.ndarray:
    """Integrating-factor solution derivative for a centered rhs."""
    y = measure.grid
    pi = measure.density
    cum = cumulative_trapezoid(f_centered * pi, y)
    cum_switched = _tail_anchored(cum, y, m)

    denom = sigma2_sq * pi
    scale = np.max(np.abs(cum))
    dead = denom == 0.0
    if np.any(dead & (np.abs(cum_switched) > 1e-13 * scale)):
        raise DegenerateDensity(
            "stationary density underflowed before the cumulative integral decayed; "
            "shrink the measure domain or loosen tol"
        )
    out = np.zeros_like(cum)
    live = ~dead
    out[live] = 2.0 * cum_switched[live] / denom[live]
    return out


def solve_phi_derivatives(spec: ModelSpec, measure: InvariantMeasure) -> PhiDerivatives:
    """Solve both Poisson equations for the corrector derivatives."""
    y = measure.grid
    s2sq = spec.sigma2(y) ** 2
    f1 = _centered(spec.h(y), measure)
    f2 = _centered(0.5 * spec.sigma1(y) ** 2, measure)
    return PhiDerivatives(
        grid=y,
        phi1_prime=_poisson_derivative(f1, measure, s2sq, spec.m),
        phi2_prime=_poisson_derivative(f2, measure, s2sq, spec.m),
    )


def compute_group_constants(spec: ModelSpec, measure: InvariantMeasure,
                            phis: PhiDerivatives) -> GroupConstants:
    """Stationary averages of the corrector combinations, both routes."""
    if phis.grid.shape != measure.grid.shape or not np.array_equal(phis.grid, measure.grid):
        raise ValueError("corrector derivatives and measure must share the same grid")
    y = measure.grid
    s1, s2, b = spec.sigma1(y), spec.sigma2(y), spec.b(y)
    sigma1_bar_sq = average(measure, s1 ** 2)
    avg_b2_over_s2 = average(measure, b ** 2 / s1 ** 2)

    a = spec.rho * average(measure, s1 * s2 * phis.phi2_prime)
    a_tilde = spec.risk_prefactor * average(measure, b * s2 / s1 * phis.phi1_prime)
    b_const = spec.risk_prefactor * average(measure, b * s2 / s1 * phis.phi2_prime)
    j_sigma, j_b = model_integrals(spec, measure)

    return GroupConstants(
        sigma1_bar_sq=float(sigma1_bar_sq),
        avg_b2_over_s2=float(avg_b2_over_s2),
        a=float(a),
        a_tilde=float(a_tilde),
        b=float(b_const),
        a_alt=spec.rho * j_sigma,
        b_alt=spec.risk_prefactor * j_b,
    )


def model_integrals(spec: ModelSpec, measure: InvariantMeasure) -> tuple[float, float]:
    """The eta-free integrals J_sigma = A/rho and J_b = B/(rho + eta sqrt(1-rho^2)).

    Double-integral route: the outer integral is in plain dy, the inner one
    is the cumulative stationary integral of the centered vol level.  The
    risk prefactors factor out, so both integrals exist even when rho or
    the prefactor vanishes.
    """
    y = measure.grid
    s1, s2, b = spec.sigma1(y), spec.sigma2(y), spec.b(y)
    inner = _tail_anchored(cumulative_trapezoid(_centered(s1 ** 2, measure) * measure.density, y),
                           y, spec.m)
    return float(trapezoid(s1 / s2 * inner, y)), float(trapezoid(b / (s1 * s2) * inner, y))


def group_constants_for(spec: ModelSpec) -> GroupConstants:
    """Convenience pipeline: measure -> correctors -> constants."""
    measure = build_invariant_measure(spec)
    phis = solve_phi_derivatives(spec, measure)
    return compute_group_constants(spec, measure, phis)

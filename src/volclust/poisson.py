"""Poisson solves for the corrector derivatives and the group constants.

Two Poisson equations ``(m-y) v' + sigma2^2 v'' / 2 = f`` with centered
right-hand sides

    f1 = b^2 / (2 gamma sigma1^2) - <b^2 / (2 gamma sigma1^2)>
    f2 = (sigma1^2 - <sigma1^2>) / 2

are solved by the integrating-factor construction: the derivative is

    v'(y) = 2 / (sigma2(y)^2 pi(y)) * integral_{-inf}^y f dpi,

with the equivalent tail-anchored form (sign flipped) used for y > m so
that neither side divides a vanishing cumulative by a vanishing density.
Only the derivatives are ever needed: the group constants feeding the
sqrt(epsilon) price correction are stationary averages of coefficient
combinations times v'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, trapezoid

from .errors import DegenerateDensity
from .measure import InvariantMeasure, average, build_invariant_measure
from .model import ModelSpec


@dataclass(frozen=True)
class PhiDerivatives:
    """Derivatives of the two correctors, tabulated on the measure grid."""

    grid: np.ndarray
    phi1_prime: np.ndarray  # corrector for the drift/risk source
    phi2_prime: np.ndarray  # corrector for the vol-level source


@dataclass(frozen=True)
class GroupConstants:
    """Stationary averages that fully determine the price correction.

    ``a`` multiplies the third x-derivative of the leading price, ``b``
    the first; ``a_tilde`` only enters the diagnostic value-function
    pieces and carries the 1/gamma dependence.  ``a_alt``/``b_alt`` are
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


def _poisson_derivative(f_centered: np.ndarray, measure: InvariantMeasure,
                        sigma2_sq: np.ndarray, m: float) -> np.ndarray:
    """Integrating-factor solution derivative for a centered rhs."""
    y = measure.grid
    pi = measure.density
    weighted = f_centered * pi
    cum = cumulative_trapezoid(weighted, y, initial=0.0)
    # left-anchored for y <= m, tail-anchored (= cum - total) beyond
    cum_switched = np.where(y <= m, cum, cum - cum[-1])

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
    s1sq = np.asarray(spec.sigma1(y)) ** 2
    s2sq = np.asarray(spec.sigma2(y)) ** 2
    b = np.asarray(spec.b(y))

    f1 = _centered(b ** 2 / (2.0 * spec.gamma * s1sq), measure)
    f2 = _centered(0.5 * s1sq, measure)
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
    s1 = np.asarray(spec.sigma1(y))
    s2 = np.asarray(spec.sigma2(y))
    b = np.asarray(spec.b(y))
    prefactor = spec.rho + spec.eta * math.sqrt(1.0 - spec.rho ** 2)

    sigma1_bar_sq = average(measure, s1 ** 2)
    avg_b2_over_s2 = average(measure, b ** 2 / s1 ** 2)

    a = spec.rho * average(measure, s1 * s2 * phis.phi2_prime)
    a_tilde = prefactor * average(measure, b * s2 / s1 * phis.phi1_prime)
    b_const = prefactor * average(measure, b * s2 / s1 * phis.phi2_prime)
    j_sigma, j_b = model_integrals(spec, measure)

    return GroupConstants(
        sigma1_bar_sq=float(sigma1_bar_sq),
        avg_b2_over_s2=float(avg_b2_over_s2),
        a=float(a),
        a_tilde=float(a_tilde),
        b=float(b_const),
        a_alt=spec.rho * j_sigma,
        b_alt=prefactor * j_b,
    )


def model_integrals(spec: ModelSpec, measure: InvariantMeasure) -> tuple[float, float]:
    """The eta-free integrals J_sigma = A/rho and J_b = B/(rho + eta sqrt(1-rho^2)).

    Double-integral route: the outer integral is in plain dy, the inner one
    is the cumulative stationary integral of the centered vol level.  The
    risk prefactors factor out, so both integrals exist even when rho or
    the prefactor vanishes.
    """
    y = measure.grid
    s1 = np.asarray(spec.sigma1(y))
    s2 = np.asarray(spec.sigma2(y))
    b = np.asarray(spec.b(y))
    inner = cumulative_trapezoid(_centered(s1 ** 2, measure) * measure.density, y, initial=0.0)
    inner = np.where(y <= spec.m, inner, inner - inner[-1])
    return float(trapezoid(s1 / s2 * inner, y)), float(trapezoid(b / (s1 * s2) * inner, y))


def group_constants_for(spec: ModelSpec) -> GroupConstants:
    """Convenience pipeline: measure -> correctors -> constants."""
    measure = build_invariant_measure(spec)
    phis = solve_phi_derivatives(spec, measure)
    return compute_group_constants(spec, measure, phis)

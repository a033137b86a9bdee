"""Stationary distribution of the fast factor and averages against it.

The factor Y (generator ``(m - y) f' + sigma2^2 f'' / 2``) has the unique
stationary density

    pi(y) = exp( integral_m^y 2 (m - z) / sigma2(z)^2 dz ) / (Z sigma2(y)^2),

anchored at ``m`` so the exponent is always computable on the working
domain; the anchor only shifts the normalizing constant Z.  All averages
(overbars) in the asymptotic formulas are trapezoid quadratures against
this density; the integrands decay like a Gaussian, so the trapezoid rule
is effectively spectrally accurate once the tails are resolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.integrate import cumulative_trapezoid, trapezoid

from .errors import NonIntegrable
from .model import ModelSpec

#: hard cap on the half-width of the quadrature domain
MAX_HALF_WIDTH = 200.0
DEFAULT_NODES = 4001


@dataclass(frozen=True)
class InvariantMeasure:
    """Normalized stationary density tabulated on a uniform grid."""

    grid: np.ndarray     # strictly increasing quadrature nodes
    density: np.ndarray  # nonnegative, trapezoid-integrates to 1

    def __post_init__(self):
        self.grid.setflags(write=False)
        self.density.setflags(write=False)

    def mean(self) -> float:
        return float(trapezoid(self.grid * self.density, self.grid))

    def std(self) -> float:
        mu = self.mean()
        var = trapezoid((self.grid - mu) ** 2 * self.density, self.grid)
        return float(np.sqrt(var))


def _unnormalized_density(spec: ModelSpec, grid: np.ndarray) -> np.ndarray:
    """exp(integral_m^y 2(m-z)/sigma2^2 dz) / sigma2(y)^2 on the grid.

    The exponent is a cumulative trapezoid from the node nearest ``m``
    outward; for constant sigma2 the integrand is linear, so the rule is
    exact and the density is exactly Gaussian.
    """
    s2sq = np.asarray(spec.sigma2(grid)) ** 2
    integrand = 2.0 * (spec.m - grid) / s2sq
    anchor = int(np.argmin(np.abs(grid - spec.m)))
    exponent = np.empty_like(grid)
    exponent[anchor:] = cumulative_trapezoid(integrand[anchor:], grid[anchor:], initial=0.0)
    left = cumulative_trapezoid(integrand[anchor::-1], grid[anchor::-1], initial=0.0)
    exponent[: anchor + 1] = left[::-1]
    # shift so the exponent is 0 exactly at m when m is a node
    exponent -= np.interp(spec.m, grid, exponent)
    return np.exp(exponent) / s2sq


def build_invariant_measure(spec: ModelSpec, tol: float = 1e-10,
                            n_nodes: int = DEFAULT_NODES) -> InvariantMeasure:
    """Tabulate the stationary density, expanding the domain until the tails die.

    The half-width L doubles from 1 until the unnormalized integrand at
    both endpoints drops below ``tol`` times its interior maximum, which
    bounds the discarded tail mass by a comparable fraction.  Raises
    NonIntegrable if L exceeds 200 without decay.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    half_width = 1.0
    while True:
        grid = np.linspace(spec.m - half_width, spec.m + half_width, n_nodes)
        w = _unnormalized_density(spec, grid)
        peak = w.max()
        if peak > 0 and np.isfinite(peak) and max(w[0], w[-1]) < tol * peak:
            break
        half_width *= 2.0
        if half_width > MAX_HALF_WIDTH:
            raise NonIntegrable(
                "stationary density integrand does not decay within |y - m| <= 200; "
                "check the sigma2 table"
            )
    return InvariantMeasure(grid=grid, density=w / float(trapezoid(w, grid)))


def average(measure: InvariantMeasure, f: Union[Callable, np.ndarray]) -> float:
    """Trapezoid quadrature of ``f`` against the stationary density.

    ``f`` may be a coefficient function / callable or an array of nodal
    values on ``measure.grid``.
    """
    values = f(measure.grid) if callable(f) else np.asarray(f, dtype=float)
    if values.shape != measure.grid.shape:
        raise ValueError("nodal values must match the measure grid")
    return float(trapezoid(values * measure.density, measure.grid))

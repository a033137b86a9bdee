"""Fit the affine LMMR smile to quotes and recover the model constants.

The corrected smile is a line ``iv = a * LMMR + d`` jointly over maturities
and strikes, so all quotes pool into one weighted least-squares regression
on LMMR = -x / tau.  Given the stationary-average volatility and epsilon,
the fitted line inverts to the group constants:

    A = -sigma_bar^3 a / sqrt(epsilon)
    B = ((d - sigma_bar) sigma_bar - sigma_bar^3 a / 2) / sqrt(epsilon)

and, with the correlation rho fixed by the model, the volatility risk
premium eta solves ``B = (rho + eta sqrt(1 - rho^2)) J_b`` where J_b is a
model integral independent of eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateDesign, Unidentifiable
from .measure import (InvariantMeasure, average, build_invariant_measure, cumulative_trapezoid,
                      trapezoid)
from .model import ModelSpec, read_float_rows
from .poisson import model_integrals


@dataclass(frozen=True)
class IVQuote:
    """One implied-volatility quote in log-moneyness coordinates."""

    tau: float
    x: float
    iv: float
    weight: float = 1.0

    def __post_init__(self):
        for name, ok, requirement in (("tau", self.tau > 0, "finite and > 0"),
                                      ("x", True, "finite"), ("iv", True, "finite"),
                                      ("weight", self.weight >= 0, "finite and >= 0")):
            value = getattr(self, name)
            if not (ok and math.isfinite(value)):
                raise ConfigError(f"quote {name} must be {requirement}, got {value}")

    @property
    def lmmr(self) -> float:
        return -self.x / self.tau


@dataclass(frozen=True)
class AffineFit:
    """Fitted smile line and the constants recovered from it."""

    a: float
    d: float
    r_squared: float
    a_recovered: float
    b_recovered: float


def fit_affine(quotes: Sequence[IVQuote]) -> tuple[float, float, float]:
    """Weighted least squares of iv on LMMR; returns (slope, intercept, r^2)."""
    if len(quotes) < 2:
        raise DegenerateDesign("need at least two quotes to fit a line")
    lmmr = np.array([q.lmmr for q in quotes])
    iv = np.array([q.iv for q in quotes])
    w = np.array([q.weight for q in quotes])
    if w.sum() <= 0:
        raise DegenerateDesign("all quote weights are zero")
    if np.ptp(lmmr[w > 0]) == 0.0:
        raise DegenerateDesign("all quotes share one LMMR; slope is unidentifiable")

    wsum = w.sum()
    xbar = (w * lmmr).sum() / wsum
    ybar = (w * iv).sum() / wsum
    sxx = (w * (lmmr - xbar) ** 2).sum()
    sxy = (w * (lmmr - xbar) * (iv - ybar)).sum()
    slope = sxy / sxx
    intercept = ybar - slope * xbar

    residual = iv - (slope * lmmr + intercept)
    ss_res = (w * residual ** 2).sum()
    ss_tot = (w * (iv - ybar) ** 2).sum()
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r_squared)


def recover_constants(fit: tuple[float, float], sigma_bar: float, epsilon: float) -> tuple[float, float]:
    """Invert the smile line for the group constants (A, B)."""
    if not sigma_bar > 0 or not epsilon > 0:
        raise ConfigError("recover_constants needs sigma_bar > 0 and epsilon > 0")
    a, d = fit
    sqrt_eps = math.sqrt(epsilon)
    big_a = -sigma_bar ** 3 * a / sqrt_eps
    big_b = ((d - sigma_bar) * sigma_bar - sigma_bar ** 3 * a / 2.0) / sqrt_eps
    return big_a, big_b


def fit_smile(quotes: Sequence[IVQuote], sigma_bar: float, epsilon: float) -> AffineFit:
    """The smile line fitted to ``quotes`` and the (A, B) it inverts to at sigma_bar and epsilon."""
    a, d, r_squared = fit_affine(quotes)
    big_a, big_b = recover_constants((a, d), sigma_bar, epsilon)
    return AffineFit(a=a, d=d, r_squared=r_squared, a_recovered=big_a, b_recovered=big_b)


@dataclass(frozen=True)
class SurfaceCalibration:
    """Result of calibrating quotes against a model with unknown eta."""

    fit: AffineFit
    eta: float
    rho_residual: float  # |A_recovered - rho * J_sigma|


def calibrate_from_surface(quotes: Sequence[IVQuote], spec: ModelSpec,
                           sigma_bar: float | None = None) -> SurfaceCalibration:
    """Fit the smile, recover (A, B), and back out eta given rho.

    ``spec`` supplies the coefficient functions, rho and epsilon; its eta
    field is ignored.  sigma_bar defaults to the stationary-average
    volatility computed from the model.
    """
    measure = build_invariant_measure(spec)
    if sigma_bar is None:
        sigma_bar = math.sqrt(average(measure, spec.sigma1(measure.grid) ** 2))
    j_sigma, j_b = model_integrals(spec, measure)
    fit = fit_smile(quotes, sigma_bar, spec.epsilon)

    if abs(j_b) <= 1e-12 * _j_b_scale(spec, measure):
        raise Unidentifiable("J_b = 0 for this model (b vanishes or sigma1 is constant); "
                             "eta has no effect on B")
    eta = (fit.b_recovered / j_b - spec.rho) / math.sqrt(1.0 - spec.rho ** 2)
    rho_residual = abs(fit.a_recovered - spec.rho * j_sigma)
    return SurfaceCalibration(fit=fit, eta=eta, rho_residual=rho_residual)


def _j_b_scale(spec: ModelSpec, measure: InvariantMeasure) -> float:
    """Size of the terms whose cancellation gives J_b: its integral with |b| and s1^2 uncentered.

    J_b integrates b / (s1 s2) against the tail integrals of s1^2 - <s1^2>.
    Where sigma1 is constant that difference is rounding noise, and so is
    J_b: at most about 1e-17 of this scale on the tests' random models,
    where a varying sigma1 gives at least 4e-4 of it.
    """
    y = measure.grid
    s1, s2, b = spec.sigma1(y), spec.sigma2(y), spec.b(y)
    mass = cumulative_trapezoid(s1 ** 2 * measure.density, y)
    return float(trapezoid(np.abs(b / (s1 * s2)) * np.minimum(mass, mass[-1] - mass), y))


def read_quotes_csv(path: str) -> list[IVQuote]:
    """Read quotes from a csv with header tau,x,iv[,weight]; a blank or absent weight is 1."""
    return read_float_rows(path, ("tau", "x", "iv"), lambda row: IVQuote(*row), weight=1.0)

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

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DegenerateDesign, Unidentifiable
from .measure import average, build_invariant_measure
from .model import ModelSpec
from .poisson import model_integrals


@dataclass(frozen=True)
class IVQuote:
    """One implied-volatility quote in log-moneyness coordinates."""

    tau: float
    x: float
    iv: float
    weight: float = 1.0

    def __post_init__(self):
        if not self.tau > 0:
            raise ConfigError(f"quote needs tau > 0, got {self.tau}")
        if self.weight < 0:
            raise ConfigError(f"quote weight must be >= 0, got {self.weight}")

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


@dataclass(frozen=True)
class SurfaceCalibration:
    """Result of calibrating quotes against a model with unknown eta."""

    fit: AffineFit
    eta: float
    rho_residual: float  # |A_recovered - rho * J_sigma|
    j_sigma: float
    j_b: float


def calibrate_from_surface(quotes: Sequence[IVQuote], spec: ModelSpec,
                           sigma_bar: float | None = None) -> SurfaceCalibration:
    """Fit the smile, recover (A, B), and back out eta given rho.

    ``spec`` supplies the coefficient functions, rho and epsilon; its eta
    field is ignored.  sigma_bar defaults to the stationary-average
    volatility computed from the model.
    """
    measure = build_invariant_measure(spec)
    if sigma_bar is None:
        sigma_bar = math.sqrt(average(measure, lambda y: np.asarray(spec.sigma1(y)) ** 2))
    j_sigma, j_b = model_integrals(spec, measure)

    a, d, r_squared = fit_affine(quotes)
    big_a, big_b = recover_constants((a, d), sigma_bar, spec.epsilon)
    fit = AffineFit(a=a, d=d, r_squared=r_squared, a_recovered=big_a, b_recovered=big_b)

    scale = abs(big_b) + abs(spec.rho * j_sigma) + 1e-30
    if abs(j_b) <= 1e-12 * scale:
        raise Unidentifiable("J_b = 0 for this model (b vanishes); eta has no effect on B")
    eta = (big_b / j_b - spec.rho) / math.sqrt(1.0 - spec.rho ** 2)
    rho_residual = abs(big_a - spec.rho * j_sigma)
    return SurfaceCalibration(fit=fit, eta=eta, rho_residual=rho_residual,
                              j_sigma=j_sigma, j_b=j_b)


def read_quotes_csv(path: str) -> list[IVQuote]:
    """Read quotes from a csv with header tau,x,iv[,weight]."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ConfigError(f"quotes file {path!r} is empty")
            names = [n.strip().lower() for n in reader.fieldnames]
            for required in ("tau", "x", "iv"):
                if required not in names:
                    raise ConfigError(f"quotes file {path!r} missing column {required!r}")
            quotes = []
            for row in reader:
                row = {k.strip().lower(): v for k, v in row.items() if k}
                quotes.append(IVQuote(
                    tau=float(row["tau"]),
                    x=float(row["x"]),
                    iv=float(row["iv"]),
                    weight=float(row["weight"]) if row.get("weight") not in (None, "") else 1.0,
                ))
    except OSError as exc:
        raise ConfigError(f"cannot read quotes file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad quote row in {path!r}: {exc}") from exc
    return quotes

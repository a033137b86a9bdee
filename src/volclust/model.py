"""Stochastic volatility model specification and coefficient functions.

The model has a stock-price volatility ``sigma1(y)``, a vol-of-vol
``sigma2(y)`` and a drift ``b(y)``, all driven by a fast mean-reverting
factor Y with mean level ``m`` and time scale ``epsilon``.  Coefficient
functions come from a closed, serializable family: constants, arctangent
ramps and tables with linear interpolation (flat beyond the table, so
boundedness is preserved).
"""

from __future__ import annotations

import configparser
import csv
import math
import os
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np

from .errors import ConfigError

#: probe grid half-width and size used by validate()
PROBE_HALF_WIDTH = 20.0
PROBE_POINTS = 4001


@dataclass(frozen=True)
class Constant:
    """Coefficient that is the same for every factor level."""

    value: float

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        out = np.full_like(y, self.value)
        return out if out.ndim else float(out)

    def config_value(self) -> str:
        return f"constant:{self.value!r}"


@dataclass(frozen=True)
class Arctangent:
    """Monotone ramp ``base + (amplitude / pi) * arctan(y)``.

    Range is the open interval (base - amplitude/2, base + amplitude/2),
    so the function is bounded, and bounded away from zero whenever
    base - |amplitude|/2 >= 0 fails to be crossed.
    """

    base: float
    amplitude: float

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        out = self.base + (self.amplitude / math.pi) * np.arctan(y)
        return out if out.ndim else float(out)

    def config_value(self) -> str:
        return f"atan:{self.base!r},{self.amplitude!r}"


@dataclass(frozen=True)
class Tabulated:
    """Piecewise-linear table; extrapolates flat beyond its grid."""

    grid: np.ndarray
    values: np.ndarray
    source: str = ""  # original csv path, if any; used when serializing

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
            raise ConfigError("tabulated coefficient needs matching 1-d grid/values with >= 2 nodes")
        if not np.all(np.diff(grid) > 0):
            raise ConfigError("tabulated coefficient grid must be strictly increasing")
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        out = np.interp(y, self.grid, self.values)
        return out if out.ndim else float(out)

    def config_value(self) -> str:
        if not self.source:
            raise ConfigError("tabulated coefficient has no backing csv path to serialize")
        return f"table:{self.source}"


CoefficientFunction = Union[Constant, Arctangent, Tabulated]


def coefficient_from_string(text: str, base_dir: str = ".") -> CoefficientFunction:
    """Parse ``constant:<v>``, ``atan:<base>,<amp>`` or ``table:<path.csv>``."""
    kind, _, arg = text.strip().partition(":")
    try:
        if kind == "constant":
            return Constant(float(arg))
        if kind == "atan":
            base, amp = (float(p) for p in arg.split(","))
            return Arctangent(base, amp)
        if kind == "table":
            path = arg if os.path.isabs(arg) else os.path.join(base_dir, arg)
            grid, values = _read_table_csv(path)
            return Tabulated(grid, values, source=arg)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"cannot parse coefficient {text!r}: {exc}") from exc
    raise ConfigError(f"unknown coefficient kind {kind!r} in {text!r}")


def _read_table_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read table csv {path!r}: {exc}") from exc
    if rows and not _is_numeric_row(rows[0]):
        rows = rows[1:]  # header row
    ys, vals = [], []
    for row in rows:
        if not row:
            continue
        ys.append(float(row[0]))
        vals.append(float(row[1]))
    return np.asarray(ys), np.asarray(vals)


def _is_numeric_row(row) -> bool:
    try:
        [float(c) for c in row[:2]]
        return True
    except (ValueError, IndexError):
        return False


@dataclass(frozen=True)
class ModelSpec:
    """Full model + driver + option contract description.

    ``rho`` is the Brownian correlation, ``eta`` the volatility risk
    premium and ``gamma > 0`` the risk aversion of the distorted entropic
    driver.  ``epsilon`` is the mean-reversion time scale of the factor.
    """

    b: CoefficientFunction
    sigma1: CoefficientFunction
    sigma2: CoefficientFunction
    m: float
    rho: float
    eta: float
    gamma: float
    epsilon: float
    strike: float
    maturity: float

    def with_(self, **changes) -> "ModelSpec":
        """Copy with selected fields replaced (specs are immutable)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = field(default=())

    @property
    def is_valid(self) -> bool:
        return not self.violations


def probe_grid(spec: ModelSpec) -> np.ndarray:
    """Grid on which boundedness/positivity of coefficients is checked."""
    return np.linspace(spec.m - PROBE_HALF_WIDTH, spec.m + PROBE_HALF_WIDTH, PROBE_POINTS)


def validate(spec: ModelSpec) -> ValidationReport:
    """Check the model invariants on the probe grid; returns violations, empty if valid."""
    bad: list[str] = []
    if not abs(spec.rho) < 1:
        bad.append(f"correlation must satisfy |rho| < 1, got rho={spec.rho}")
    for name, value in (("gamma", spec.gamma), ("epsilon", spec.epsilon),
                        ("strike", spec.strike), ("maturity", spec.maturity)):
        if not value > 0 or not math.isfinite(value):
            bad.append(f"{name} must be positive and finite, got {value}")
    if not math.isfinite(spec.m):
        bad.append(f"mean level m must be finite, got {spec.m}")

    ys = probe_grid(spec) if math.isfinite(spec.m) else np.linspace(-PROBE_HALF_WIDTH, PROBE_HALF_WIDTH, PROBE_POINTS)
    for name, fn in (("sigma1", spec.sigma1), ("sigma2", spec.sigma2)):
        vals = fn(ys)
        if not np.all(np.isfinite(vals)):
            bad.append(f"{name} is not finite on the probe grid")
        elif vals.min() <= 0:
            bad.append(f"{name} must be bounded away from zero, probe inf = {vals.min():.6g}")
    b_vals = spec.b(ys)
    if not np.all(np.isfinite(b_vals)):
        bad.append("b is not finite on the probe grid")
    return ValidationReport(tuple(bad))


def arctangent_model(eta: float = 0.0, gamma: float = 1.0, epsilon: float = 0.004,
                     strike: float = 100.0, maturity: float = 0.25) -> ModelSpec:
    """Arctangent-volatility demo model used throughout the tests and CLI.

    sigma1 ramps from 0.05 to 0.55 around 0.3, vol-of-vol and drift are
    constant, the factor reverts to 0 and is negatively correlated with
    the stock.
    """
    return ModelSpec(
        b=Constant(1.0),
        sigma1=Arctangent(0.3, 0.5),
        sigma2=Constant(0.2),
        m=0.0,
        rho=-0.2,
        eta=eta,
        gamma=gamma,
        epsilon=epsilon,
        strike=strike,
        maturity=maturity,
    )


# --- config file round trip -------------------------------------------------

#: ini sections and their ModelSpec fields, in file order
_CONFIG_LAYOUT = (
    ("model", ("b", "sigma1", "sigma2", "m", "rho", "epsilon")),
    ("driver", ("eta", "gamma")),
    ("option", ("strike", "maturity")),
)
_COEFFICIENT_FIELDS = ("b", "sigma1", "sigma2")  # stored as config_value() text, the rest as repr


def read_config(path: str) -> ModelSpec:
    """Load a ModelSpec from an ini-style config file."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    base_dir = os.path.dirname(os.path.abspath(path))
    fields = {}
    try:
        for section, keys in _CONFIG_LAYOUT:
            for key in keys:
                text = parser[section][key]
                fields[key] = (coefficient_from_string(text, base_dir)
                               if key in _COEFFICIENT_FIELDS else float(text))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad config file {path!r}: {exc}") from exc
    return ModelSpec(**fields)


def write_config(spec: ModelSpec, path: str) -> None:
    """Serialize a ModelSpec to an ini-style config file."""
    parser = configparser.ConfigParser()
    for section, keys in _CONFIG_LAYOUT:
        parser[section] = {}
        for key in keys:
            value = getattr(spec, key)
            parser[section][key] = value.config_value() if key in _COEFFICIENT_FIELDS else repr(value)
    with open(path, "w") as fh:
        parser.write(fh)

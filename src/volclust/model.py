"""Stochastic volatility model specification and coefficient functions.

The model has a stock-price volatility ``sigma1(y)``, a vol-of-vol
``sigma2(y)`` and a drift ``b(y)``, all driven by a fast mean-reverting
factor Y with mean level ``m`` and time scale ``epsilon``.  Coefficient
functions come from a closed, serializable family: constants, arctangent
ramps and tables with linear interpolation (flat beyond the table, so
boundedness is preserved); each returns a float ndarray of its input's
shape.  ``ModelSpec`` defines the combinations that the PDE and the
asymptotics share: ``risk_prefactor``, ``lam`` and ``h``.  File input
lives here too: the ini config round trip and ``read_float_rows``, the
one reader of numeric CSVs (coefficient tables, quotes and probes).
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

    def __call__(self, y) -> np.ndarray:
        return np.full_like(np.asarray(y, dtype=float), self.value)

    def config_value(self, config_dir: str = ".") -> str:
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

    def __call__(self, y) -> np.ndarray:
        ramp = np.arctan(np.asarray(y, dtype=float))
        return np.asarray(self.base + (self.amplitude / math.pi) * ramp)

    def config_value(self, config_dir: str = ".") -> str:
        return f"atan:{self.base!r},{self.amplitude!r}"


@dataclass(frozen=True)
class Tabulated:
    """Piecewise-linear table; extrapolates flat beyond its grid."""

    grid: np.ndarray
    values: np.ndarray
    source: str = ""  # original csv path, if any; used when serializing
    base_dir: str = "."  # the directory a relative ``source`` is read from

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

    def __call__(self, y) -> np.ndarray:
        return np.asarray(np.interp(np.asarray(y, dtype=float), self.grid, self.values))

    def config_value(self, config_dir: str = ".") -> str:
        """``table:`` and the csv path as a config in ``config_dir`` reads it back."""
        if not self.source:
            raise ConfigError("tabulated coefficient has no backing csv path to serialize")
        if os.path.isabs(self.source):
            return f"table:{self.source}"
        return f"table:{os.path.relpath(os.path.join(self.base_dir, self.source), config_dir)}"


CoefficientFunction = Union[Constant, Arctangent, Tabulated]


def coefficient_from_string(text: str, base_dir: str = ".") -> CoefficientFunction:
    """Parse ``constant:<v>``, ``atan:<base>,<amp>`` or ``table:<path.csv>`` (columns y,value)."""
    kind, _, arg = text.strip().partition(":")
    if kind == "table":
        path = arg if os.path.isabs(arg) else os.path.join(base_dir, arg)
        grid, values = np.array(read_float_rows(path, ("y", "value"))).T
        try:
            return Tabulated(grid, values, source=arg, base_dir=base_dir)
        except ConfigError as exc:
            raise ConfigError(f"{path!r}: {exc}") from exc
    try:
        if kind == "constant":
            return Constant(float(arg))
        if kind == "atan":
            base, amp = (float(p) for p in arg.split(","))
            return Arctangent(base, amp)
    except ValueError as exc:
        raise ConfigError(f"cannot parse coefficient {text!r}: {exc}") from exc
    raise ConfigError(f"unknown coefficient kind {kind!r} in {text!r}")


def read_float_rows(path: str, names: tuple[str, ...], make=tuple, **defaults: float) -> list:
    """``make`` of the finite floats of the named columns, then the ``defaults`` ones, per data row.

    The one reader of numeric CSV input: coefficient tables, quotes and
    probes.  The header row is required; columns are found by name,
    case-insensitive, and blank lines are skipped.  A missing column is a
    ConfigError naming the file and the column.  A column in ``defaults``
    may be absent or blank; any other missing or empty cell, or one that
    is no finite number, is a ConfigError naming the file, the line and
    the column.  A ConfigError from ``make`` is raised again naming the
    file and the line.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = [name.strip().lower() for name in next(reader, [])]
            for name in names:
                if name not in header:
                    raise ConfigError(f"{path!r} has no column {name!r}")
            rows = []
            for cells in filter(None, reader):  # blank lines hold no row
                texts = dict(zip(header, map(str.strip, cells)))
                row = []
                for name in names + tuple(defaults):
                    text = texts.get(name) or defaults.get(name, "")
                    try:
                        row.append(float(text))
                    except ValueError:
                        row.append(math.nan)  # reported below, as a non-finite number is
                    if not math.isfinite(row[-1]):
                        raise ConfigError(f"{path!r} line {reader.line_num}, column {name!r}: "
                                          f"expected a finite number, got {text!r}")
                try:
                    rows.append(make(row))
                except ConfigError as exc:
                    raise ConfigError(f"{path!r} line {reader.line_num}: {exc}") from exc
    except (OSError, UnicodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path!r} has no data rows")
    return rows


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

    @property
    def risk_prefactor(self) -> float:
        """rho + eta sqrt(1 - rho^2): scales the PDE's risk drift in y and A~ and B."""
        return self.rho + self.eta * math.sqrt(1.0 - self.rho ** 2)

    @property
    def lam(self) -> float:
        """lambda = gamma (1 - rho^2): scales the PDE's quadratic term and its oracle."""
        return self.gamma * (1.0 - self.rho ** 2)

    def h(self, y) -> np.ndarray:
        """b^2 / (2 gamma sigma1^2) at ``y``: minus the PDE's source, the first corrector's rhs."""
        return self.b(y) ** 2 / (2.0 * self.gamma * self.sigma1(y) ** 2)

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
    for name, value in (("mean level m", spec.m), ("eta", spec.eta)):
        if not math.isfinite(value):
            bad.append(f"{name} must be finite, got {value}")

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
    config_dir = os.path.dirname(os.path.abspath(path))
    for section, keys in _CONFIG_LAYOUT:
        parser[section] = {}
        for key in keys:
            value = getattr(spec, key)
            parser[section][key] = (value.config_value(config_dir) if key in _COEFFICIENT_FIELDS
                                    else repr(value))
    with open(path, "w") as fh:
        parser.write(fh)

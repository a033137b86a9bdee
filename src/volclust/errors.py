"""Exception hierarchy shared by all volclust modules.

Two branches matter for the CLI exit codes: ``ConfigError`` (bad input,
exit 2) and ``NumericalError`` (a solve or inversion failed, exit 3).
"""


class VolclustError(Exception):
    """Base class for all volclust errors."""


class ConfigError(VolclustError):
    """Invalid configuration, file, or argument."""


class NumericalError(VolclustError):
    """A numerical routine failed to produce a valid result."""


class NonIntegrable(NumericalError):
    """The stationary-density integrand does not decay; bad vol-of-vol table."""


class DegenerateDensity(NumericalError):
    """Stationary density underflowed where the cumulative integral still matters."""


class OutOfBand(ConfigError):
    """Option price outside the static no-arbitrage band."""


class NoConvergence(NumericalError):
    """Root finding exhausted its iteration budget."""


class DegenerateDesign(ConfigError):
    """Regression design matrix is singular (all quotes share one abscissa)."""


class Unidentifiable(ConfigError):
    """Requested parameter has no effect on the observable being fitted."""


class BadGrid(ConfigError):
    """PDE grid violates a resolution or stability precondition."""


class Instability(NumericalError):
    """Time-marching produced NaNs or violated a monitored bound.

    ``monitor`` names the bound that tripped and ``tau`` the time-to-maturity
    of the step that tripped it; both are None for a failure before any step.
    """

    def __init__(self, message: str, *, monitor: str | None = None, tau: float | None = None):
        super().__init__(message)
        self.monitor, self.tau = monitor, tau

"""Independent oracles for the PDE march, kept out of the library.

The exponential substitution linearizes u-tilde's equation exactly, so it
checks the march's quadratic term.  It keeps scipy's ``solve_banded``
(dgtsv) for its y-solves, so it shares no solver with the march.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_banded

from volclust import pde
from volclust.errors import Instability
from volclust.model import ModelSpec


def _banded(dl, d, du) -> np.ndarray:
    """Pack the three diagonals (dl, d, du) into ``solve_banded``'s layout."""
    ab = np.zeros((3, d.size))
    ab[0, 1:] = du
    ab[1, :] = d
    ab[2, :-1] = dl
    return ab


def solve_u_tilde_cole_hopf(spec: ModelSpec, grid: pde.Grid2D) -> np.ndarray:
    """Oracle for u_tilde: the exponential substitution linearizes its equation.

    With w = exp(lambda u) and lambda = gamma (1 - rho^2), the quadratic
    gradient term cancels exactly and w satisfies a linear PDE with
    reaction lambda * source; marching w implicitly and taking log(w) /
    lambda recovers u_tilde through entirely different nonlinear algebra.
    """
    coeffs = pde._Coefficients(spec, grid.y)
    ab = _banded(*pde._build_y_system(coeffs, grid.dt, grid.dy))
    ab[1] -= grid.dt * (spec.lam * coeffs.source)  # the reaction term
    w = np.ones(grid.y.size)
    for _ in range(grid.n_steps):
        w = solve_banded((1, 1), ab, w)
        if w.min() <= 0.0 or not np.all(np.isfinite(w)):
            raise Instability("exponential-substitution march lost positivity")
    return np.log(w) / spec.lam

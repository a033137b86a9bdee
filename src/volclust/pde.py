"""Semilinear pricing PDE solver and the asymptotic-accuracy harness.

The value functions u (payoff start) and u-tilde (zero start) march in
time-to-maturity under

    du/dtau = s1^2/2 u_xx + s2^2/(2 eps) u_yy + rho s1 s2 / sqrt(eps) u_xy
              + [ (m - y)/eps - prefactor b s2 / (s1 sqrt(eps)) ] u_y
              - s1^2/2 u_x - h + lambda s2^2 / (2 eps) (u_y)^2,

and the put price is P = u_tilde - u.  The model combinations in it are
``ModelSpec``'s: ``risk_prefactor`` = rho + eta sqrt(1 - rho^2), shared
with the constants A~ and B; ``lam`` = gamma (1 - rho^2), which also
scales the oracle below; and ``h`` = b^2 / (2 gamma s1^2), the
first corrector's right-hand side.  Discretization: central second
differences for the diffusions and the mixed term, first-order upwind
for every first-order term.  Upwinding keeps every off-diagonal weight
of ``_stencil`` >= 0 whatever the cell Peclet number, so the implicit
y-system is an M-matrix; the x-system is one except in the first interior
row per y-row, which the zero-curvature fold makes [1 - a, +a] with
a = dt |x-drift| / dx.  On the grids ``make_grid`` builds for the demo
model that number peaks at the y-edges, at 0.14 for eps = 0.004 and
0.45 for eps = 1: well below 2, where central differencing is monotone
too.  So the upwind drift is a safety margin paid for with first-order
accuracy in y, not a cure for oscillation.  ``_stencil`` is the one
place the drift differencing is written; the implicit systems and the
tests' consistency check both take their weights from it.

Time stepping is IMEX-BDF2 (Ascher, Ruuth & Wetton 1995, SIAM J.
Numer. Anal. 32) with the Douglas correction of its factored left side
(Hundsdorfer & Verwer 2003, ch. IV); the start-up step is the same step
with an empty history and its implicit passes at dt, which makes it
IMEX Euler.  The diffusions and drifts are implicit, as one tridiagonal
pass in x and one in y at beta dt, beta = 2/3; the implicit y-pass is an
M-matrix, so the stiff drift costs nothing.  Q, the quadratic gradient
term plus the source, and M, the mixed term, are extrapolated to
2 Q^n - Q^{n-1} and 2 M^n - M^{n-1}, and the right side gains the Douglas
term beta^2 dt^2 Lx Ly W^n, which cancels the factored left side's
beta^2 dt^2 Lx Ly W^{n+1} to second order: P converges at second order
in dt.  At wave numbers (thx, thy), with X = beta dt (s1^2 / 2)
4 sin^2(thx / 2) / dx^2 and Y = beta dt (s2^2 / (2 eps)) 4 sin^2(thy / 2)
/ dy^2, the mixed term's symbol beta m satisfies |beta m| <= 2 |rho|
sqrt(X Y) <= X + Y (In 't Hout & Welfert 2007), and a linear step
amplifies a mode by a root xi of

    (1 + X)(1 + Y) xi^2 - (4/3 + X Y + 2 beta m) xi + (1/3 + beta m) = 0.

The Schur-Cohn conditions put both roots in |xi| <= 1 for every |rho| <= 1:
(1 + X)(1 + Y) exceeds |1/3 + beta m|; (1 + X)(1 + Y) + 1/3 + beta m minus
the middle coefficient is X + Y - beta m >= 0; and the sum of all three
is at least 8/3 - 4 s + 2 s^2 > 0, s = sqrt(X Y).  Without the X Y that the
Douglas term brings, the last fails near |rho| = 1.  Upwinding adds
imaginary parts to the implicit symbols; the tests check both roots with
the scheme's own upwind stencils.

The quadratic term is the one explicit term whose stability depends on
the solution.  Linearised at a gradient g it is an explicit y-advection
at speed a = lambda s2^2 g / eps, which only the implicit y-diffusion
D = s2^2 / (2 eps) damps, and near |rho| = 1 only the (1 - rho^2) D that
the mixed term leaves of it.  The march caps max|u_y| at
g* = sqrt(eps / dt) / (2 gamma sup s2), where a^2 dt <= (1 - rho^2)^2 D / 2
at every y-node; the tests' symbol check, with the linearised term's
symbol e = beta dt 2 q g i sin(thy) / dy added to beta m in both places,
finds both roots in |xi| <= 1 at g* at rho = +-0.999 on four models, and
at rho = -0.2 and -0.7 on skew3's grid.  With lambda in
place of gamma, a stays fixed as |rho| -> 1 and that check fails.  So
stability asks nothing of dt, and dt = min(eps, tau / ``MIN_STEPS``) is
set for accuracy: eps resolves the fast relaxation, and ``MIN_STEPS`` = 80
is the least step count of a sweep (63, 72, 80, 90, 100 steps) at which
the benchmark's skew3 surfaces keep their time error at or below that of
the first-order march at 250 steps.  The solver monitors the cap, the
amplitude bound and the price band at every step, each with one
comparison that a NaN fails too, and halves dt when a monitor trips; a
band or amplitude trip that the halved attempt repeats within one step's
tau is raised at once, as halving dt does not move a spatial overshoot.

Both value functions march in one Fortran-ordered (ny, nx + 1) array W:
columns ``:nx`` hold u and the last holds u-tilde, which does not depend
on x and so takes only the y-parts of a step.  Those (the y-differences,
the quadratic term and source, the y-solve) are one pass over all of W;
the mixed term, the x-solve and the x-boundary fold act on u's columns.

Everything fixed during a solve is set up once per attempt, so a step
only subtracts, multiplies and adds; the coefficient ranges behind the
dy cap and g* are evaluated once per ``make_grid`` and once per attempt.
``_explicit_weights`` folds dt and the spacings into the explicit step's
weights.  Each implicit system is factored twice per attempt, at dt for
the start-up step and at beta dt for the rest.  The x-system is
eliminated without row interchanges (``_factor_x_system``, which needs
a <= 1/2) and solved in place as a sweep along x (``_solve_x_system``);
the y-system is symmetrised and factored as L D L^T (``_factor_y_system``)
and solved in place on W by dpttrs (``_solve_y_system``).  Each says how;
the README has why and the timings.  A y-system that cannot be
symmetrised or factored, or a y-solve that returns a copy, is a fault,
raised as RuntimeError and not retried.

Boundary conditions (the continuum problem lives on the whole plane):
zero second x-derivative at the x-ends, which reproduces both payoff
branches, and zero flux in y, far enough out (6 stationary standard
deviations) that the boundary influence is negligible.

An exponential substitution linearizes u-tilde's equation exactly and is
kept as an independent oracle for the quadratic term.  It keeps scipy's
solve_banded (dgtsv) for its y-solves, so it shares no solver with the
march.

``price_surface`` is the one entry point and always returns a
``PriceSurface``; P at the caller's grid steps named in ``snapshot_steps``
comes back in its ``snapshots`` dict, as in
``price_surface(spec, grid, snapshot_steps=[50]).snapshots[50]``.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dpttrf, dpttrs

from .asymptotics import asymptotic_price
from .errors import BadGrid, ConfigError, Instability
from .measure import build_invariant_measure
from .model import ModelSpec, probe_grid
from .poisson import group_constants_for

DEFAULT_NX = 601
DEFAULT_X_SPAN = (-3.0, 3.0)
MIN_NODES = 5  # per direction, on any Grid2D
MIN_NY = 201
MIN_STEPS = 80
BDF2_BETA = 2.0 / 3.0  # the implicit weight of an IMEX-BDF2 step, in units of dt
BAND_SLACK = 1e-6  # relative to strike; explicit mixed term is not exactly monotone
MAX_DT_RETRIES = 6  # dt halvings price_surface tries before it gives up
SPATIAL_MONITORS = ("u", "u_tilde", "band")  # trips that halving dt may not move

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor grid plus the time step, finite and > 0 even with no steps."""

    x: np.ndarray
    y: np.ndarray
    dt: float
    n_steps: int

    def __post_init__(self):
        for name, nodes in (("x", self.x), ("y", self.y)):
            nodes = np.asarray(nodes, dtype=float)
            if nodes.ndim != 1 or nodes.size < MIN_NODES:
                raise BadGrid(f"{name} grid needs at least {MIN_NODES} nodes")
            steps = np.diff(nodes)
            if not np.all(steps > 0) or not np.allclose(steps, steps[0], rtol=1e-9):
                raise BadGrid(f"{name} grid must be uniform and increasing")
            nodes.setflags(write=False)
            object.__setattr__(self, name, nodes)
        if not isinstance(self.n_steps, numbers.Integral) or self.n_steps < 0:
            raise BadGrid(f"n_steps must be an integer >= 0, got {self.n_steps!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise BadGrid(f"dt must be finite and > 0, got {self.dt}")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dy(self) -> float:
        return float(self.y[1] - self.y[0])

    @property
    def tau_final(self) -> float:
        return self.dt * self.n_steps

    def with_halved_dt(self) -> "Grid2D":
        return replace(self, dt=self.dt / 2.0, n_steps=self.n_steps * 2)


@dataclass(frozen=True)
class PriceSurface:
    """Terminal slice of both value functions and the price P = u_tilde - u."""

    grid: Grid2D
    u: np.ndarray        # shape (nx, ny)
    u_tilde: np.ndarray  # shape (ny,)
    P: np.ndarray        # shape (nx, ny)
    tau: float
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)  # requested step -> P


def _coefficient_bounds(spec: ModelSpec) -> tuple[float, float]:
    """(inf sigma2, sup sigma2) on the model's probe grid."""
    s2 = spec.sigma2(probe_grid(spec))
    return float(s2.min()), float(s2.max())


def _max_dy(spec: ModelSpec, s2_min: float) -> float:
    return math.sqrt(spec.epsilon) * s2_min / 4.0


def _gradient_cap(spec: ModelSpec, s2_max: float, dt: float) -> float:
    """g*(dt) = sqrt(eps / dt) / (2 gamma sup sigma2): the gradient monitor's cap on max|u_y|.

    The module docstring says why it suffices.
    """
    return 0.5 * math.sqrt(spec.epsilon / dt) / (spec.gamma * s2_max)


def make_grid(spec: ModelSpec, tau: float, *, nx: int = DEFAULT_NX,
              x_span: tuple[float, float] = DEFAULT_X_SPAN, ny: int | None = None,
              dt: float | None = None) -> Grid2D:
    """Build a grid satisfying the resolution precondition and the dt policy.

    The y-domain spans 6 stationary standard deviations each side of the
    mean level (stretched below when epsilon > 1) and the y-spacing
    resolves the boundary layer: dy <= sqrt(eps) * inf(sigma2) / 4, with
    at least ``MIN_NY`` nodes; a given ``ny`` below either is a ``BadGrid``
    naming the one that binds.  Without a ``dt``, dt = min(eps, tau /
    ``MIN_STEPS``), whatever rho: the step's stability asks nothing of dt
    below the gradient cap, so both candidates are for accuracy (module
    docstring).
    A given ``dt`` must be finite and positive; it is shrunk to divide tau.
    ``tau`` must be finite and >= 0; tau = 0 gives the payoff grid (no steps).
    """
    if not (math.isfinite(tau) and tau >= 0.0):
        raise BadGrid(f"tau must be finite and >= 0, got {tau}")
    if dt is not None and not (math.isfinite(dt) and dt > 0.0):
        raise BadGrid(f"dt must be finite and > 0, got {dt}")
    if nx < MIN_NODES:
        raise BadGrid(f"nx = {nx} too coarse: the x grid needs at least {MIN_NODES} nodes")
    eps = spec.epsilon
    measure = build_invariant_measure(spec)
    std = measure.std()
    y_lo = spec.m - 6.0 * std * max(1.0, math.sqrt(eps))
    y_hi = spec.m + 6.0 * std
    s2_min, _ = _coefficient_bounds(spec)
    ny_cap = int(math.ceil((y_hi - y_lo) / _max_dy(spec, s2_min))) + 1
    ny_required, bound = max((MIN_NY, "the MIN_NY floor"), (ny_cap, "the boundary-layer dy cap"))
    if ny is None:
        ny = ny_required
    elif ny < ny_required:
        raise BadGrid(f"ny = {ny} too coarse: {bound} needs at least {ny_required} nodes")
    if ny % 2 == 0:
        ny += 1  # keep the mean level on a node for symmetric domains

    # the payoff grid; its placeholder dt is never stepped
    grid = Grid2D(x=np.linspace(*x_span, nx), y=np.linspace(y_lo, y_hi, ny), dt=1.0, n_steps=0)
    if tau == 0.0:
        return grid
    if dt is None:
        dt = min(eps, tau / MIN_STEPS)
    n_steps = max(1, int(math.ceil(tau / dt)))
    return replace(grid, dt=tau / n_steps, n_steps=n_steps)


def _stencil(diffusion, drift, h):
    """(sub, diag, sup) weights of L = diffusion d2 + drift d1 with upwind d1.

    The weights act on u_{k-1}, u_k, u_{k+1} along the last axis and take
    the arguments' broadcast shape.  This is the one place the drift
    differencing is written: the implicit systems and the consistency
    tests both use it.
    """
    d_plus = np.maximum(drift, 0.0)
    d_minus = np.minimum(drift, 0.0)
    sub = diffusion / h ** 2 - d_minus / h
    diag = -(2.0 * diffusion / h ** 2 + np.abs(drift) / h)
    sup = diffusion / h ** 2 + d_plus / h
    return sub, diag, sup


def _banded(dl, d, du) -> np.ndarray:
    """Pack the three diagonals (dl, d, du) into ``solve_banded``'s layout."""
    ab = np.zeros((3, d.size))
    ab[0, 1:] = du
    ab[1, :] = d
    ab[2, :-1] = dl
    return ab


class _Coefficients:
    """Nodal PDE coefficients on the y-grid, built from the coefficient functions' arrays."""

    def __init__(self, spec: ModelSpec, y: np.ndarray):
        eps = spec.epsilon
        s1, s2, b = spec.sigma1(y), spec.sigma2(y), spec.b(y)
        self.x_diffusion = 0.5 * s1 ** 2
        self.x_drift = -0.5 * s1 ** 2
        self.y_diffusion = s2 ** 2 / (2.0 * eps)
        self.y_drift = (spec.m - y) / eps - spec.risk_prefactor * b * s2 / (s1 * math.sqrt(eps))
        self.mixed = spec.rho * s1 * s2 / math.sqrt(eps)
        self.quad = spec.lam * s2 ** 2 / (2.0 * eps)
        self.source = -spec.h(y)


def _build_x_system(coeffs: _Coefficients, dt: float, dx: float) -> tuple:
    """(I - dt Lx) on the interior x-nodes as its three distinct rows: first, interior, last.

    Each row is (sub, diag, sup), each (ny,): x-row i of the system holds
    x-node i + 1 of every y-row, so each y-row is its own tridiagonal system
    in x, and every x-row between the first and the last is the same row.
    The zero-curvature boundary condition (u_0 = 2u_1 - u_2 and its mirror)
    is folded into the first and the last row, which leaves the first's sub
    and the last's sup zero.
    """
    sub, diag, sup = _stencil(coeffs.x_diffusion, coeffs.x_drift, dx)
    sub, diag, sup = -dt * sub, 1.0 - dt * diag, -dt * sup
    zero = np.zeros_like(diag)
    return (zero, diag + 2.0 * sub, sup - sub), (sub, diag, sup), (sub - sup, diag + 2.0 * sup, zero)


def _factor_x_system(first, interior, last, n_rows: int) -> tuple[list, list, list]:
    """Eliminate the x-system of ``n_rows`` x-rows from ``_build_x_system``'s rows.

    Returns (mult, recip, upper), lists of one (ny,) array per x-row: the
    row's multiplier (row 0's is its zero sub), 1 / its pivot, and its sup
    over its pivot.  Elimination runs row by row without row interchanges,
    vectorised over the y-rows.  Every interior row is one row, so the
    pivots reach a fixed point: once an interior row's (multiplier, pivot)
    pair repeats the previous row's exactly, so does every later interior
    row's, and those rows share one set of arrays.  Without pivoting,
    elimination is stable for a row diagonally dominant matrix.  Every
    interior row is; the folded first row [1 - a, +a], a = dt |x_drift| / dx,
    is only while a <= 1/2, so a larger a raises ``Instability`` and
    ``price_surface`` halves dt.
    """
    if not all(np.all(np.abs(d) >= np.abs(l) + np.abs(u)) for l, d, u in (first, interior, last)):
        raise Instability(f"x-system is not diagonally dominant: the x-boundary fold has "
                          f"a = dt |x_drift| / dx up to {first[2].max():.3f} > 1/2")
    mult, pivot, sup = first
    rows = [(mult, 1.0 / pivot, sup / pivot)]
    for i in range(1, n_rows):
        sub, diag, next_sup = last if i == n_rows - 1 else interior
        next_mult = sub / pivot
        next_pivot = diag - next_mult * sup
        repeats = (2 <= i < n_rows - 1 and np.array_equal(next_mult, mult)
                   and np.array_equal(next_pivot, pivot))
        rows.append(rows[-1] if repeats else (next_mult, 1.0 / next_pivot, next_sup / next_pivot))
        mult, pivot, sup = next_mult, next_pivot, next_sup
    mults, recips, uppers = (list(factor) for factor in zip(*rows))
    return mults, recips, uppers


def _pivot_runs(recip: list, block: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """One (view, 1/pivot column) pair per run of ``block``'s x-rows that share their 1/pivot.

    ``block`` is (ny, n_rows), x-row i being its column i, as u's interior
    columns are in the march.
    """
    starts = [i for i in range(len(recip)) if i == 0 or recip[i] is not recip[i - 1]]
    return [(block[:, lo:hi], recip[lo][:, None])
            for lo, hi in zip(starts, starts[1:] + [len(recip)])]


def _solve_x_system(mult, upper, runs, cols, tmp) -> None:
    """Solve the factored x-system in place on ``cols``, the x-rows that ``runs`` view.

    A forward loop of two calls per x-row, one scaling by 1/pivot per run
    of rows that share it, then a backward loop of two calls per x-row.
    ``tmp`` is one scratch row.  The row lists and the positional ``out``
    keep the per-call overhead down: it, not the ny-long arithmetic, is
    most of the cost.
    """
    for lower, prev, row in zip(mult[1:], cols, cols[1:]):
        np.multiply(lower, prev, tmp)
        np.subtract(row, tmp, row)
    for block, recip in runs:
        np.multiply(block, recip, block)
    for upper_over_pivot, row, nxt in zip(upper[-2::-1], cols[-2::-1], cols[:0:-1]):
        np.multiply(upper_over_pivot, nxt, tmp)
        np.subtract(row, tmp, row)


def _build_y_system(coeffs: _Coefficients, dt: float, dy: float) -> tuple:
    """(I - dt Ly) with zero-flux ends (ghost mirror folded in), as (dl, d, du)."""
    sub, diag, sup = _stencil(coeffs.y_diffusion, coeffs.y_drift, dy)
    sub, diag, sup = -dt * sub, 1.0 - dt * diag, -dt * sup
    sup[0] += sub[0]
    sub[-1] += sup[-1]
    return sub[1:], diag, sup[:-1]


def _factor_y_system(dl, d, du) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """LDL^T factor of the y-system (dl, d, du), symmetrised by a diagonal scaling s.

    Upwinding makes dl * du > 0, so with s[i + 1] / s[i] = sqrt(dl[i] / du[i])
    the similarity S^-1 A S, S = diag(s), is symmetric with off-diagonal
    e = -sqrt(dl du).  It has A's eigenvalues, which are positive for this
    M-matrix, so it is positive definite and LAPACK's dpttrf factors it
    without pivoting.  log s is centred on the middle of its range.
    Returns (d, e) as dpttrf leaves them, and s and 1 / s as (ny, 1)
    columns: A x = b is x = s * dpttrs(d, e, b / s).  A system that cannot
    be symmetrised or factored is a fault of the code, raised as
    RuntimeError.
    """
    if not np.all(dl * du > 0.0):
        raise RuntimeError("y-system cannot be symmetrised: dl * du <= 0 in some row")
    log_s = np.concatenate(([0.0], np.cumsum(0.5 * np.log(dl / du))))
    log_s -= 0.5 * (log_s.max() + log_s.min())
    d_fact, e_fact, info = dpttrf(d, -np.sqrt(dl * du))
    if info != 0:
        raise RuntimeError(f"y-system is not positive definite once symmetrised "
                           f"(dpttrf info {info})")
    s = np.exp(log_s)[:, None]
    return d_fact, e_fact, s, 1.0 / s


def _solve_y_system(W: np.ndarray, d, e, s, inv_s) -> None:
    """Solve the y-system in place on ``W``'s y-columns with ``_factor_y_system``'s factor.

    ``W`` must be F-contiguous, so that dpttrs works on it in place; a
    copy is a fault of the code, raised as RuntimeError and not as
    ``Instability``, since halving dt would only hide it.
    """
    np.multiply(W, inv_s, out=W)
    if dpttrs(d, e, W, overwrite_b=1)[0] is not W:
        raise RuntimeError("dpttrs returned a copy: the y-solve must run in place on W")
    np.multiply(W, s, out=W)


def _y_diff(W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Raw central y-difference W[j + 1] - W[j - 1] into ``out``, zero at the y-ends, in one flat pass.

    ``W`` and ``out`` are (ny, n) and both F-contiguous, so each is one flat
    vector in which y-neighbours are 1 apart.  The differences that
    straddle two y-columns land in rows 0 and -1, which are zeroed last,
    so every interior value has the bits of ``W[2:] - W[:-2]``.  Any other
    layout raises ``ValueError``: the flat view would be a copy and the
    writes would be lost.
    """
    if W.shape != out.shape or W.ndim != 2 or not (W.flags.f_contiguous and out.flags.f_contiguous):
        raise ValueError(f"_y_diff needs F-contiguous 2-d arrays of one shape, "
                         f"got {W.shape} and {out.shape}")
    flat, flat_out = W.reshape(-1, order="F"), out.reshape(-1, order="F")
    np.subtract(flat[2:], flat[:-2], out=flat_out[1:-1])
    out[0] = 0.0
    out[-1] = 0.0
    return out


def _x_diff(D: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Raw x-difference of ``D`` into ``out``: central inside, twice the one-sided at the x-ends.

    So every column is 2 dx times the x-derivative's estimate.
    """
    np.subtract(D[:, 2:], D[:, :-2], out=out[:, 1:-1])
    out[:, 0] = 2.0 * (D[:, 1] - D[:, 0])
    out[:, -1] = 2.0 * (D[:, -1] - D[:, -2])
    return out


def _explicit_weights(coeffs: _Coefficients, dt: float, dx: float, dy: float) -> tuple:
    """The explicit step's constants folded into (ny, 1) columns (mixed, quad, source).

    With D = ``_y_diff(W)``, the explicit step adds
    mixed * ``_x_diff(D)`` + quad * D^2 + source, which is
    dt (mixed u_xy + quad u_y^2 + source) with central differences.
    """
    return ((dt * coeffs.mixed / (4.0 * dx * dy))[:, None],
            (dt * coeffs.quad / (4.0 * dy ** 2))[:, None],
            (dt * coeffs.source)[:, None])


def _abs_max(a: np.ndarray) -> float:
    """max |a| as max(max a, -min a): two read passes, no abs pass; a NaN propagates."""
    return float(np.maximum(a.max(), -a.min()))


def _price(W: np.ndarray) -> np.ndarray:
    """P = u_tilde - u, shape (nx, ny), from the march's (ny, nx + 1) array ``W``."""
    return W[:, -1] - W[:, :-1].T


def payoff_initial(spec: ModelSpec, grid: Grid2D) -> np.ndarray:
    """Negative put payoff on the grid, shape (ny, nx), by np.exp: for some x that
    differs in the last bit from the math.exp of ``bs``'s scalar payoff."""
    pay = np.maximum(spec.strike - spec.strike * np.exp(grid.x), 0.0)
    return np.tile(-pay, (grid.y.size, 1))


def _march(spec: ModelSpec, grid: Grid2D, U0: np.ndarray,
           snapshot_steps: Iterable[int] = ()) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The IMEX march of both value functions; returns the terminal W and P at ``snapshot_steps``.

    W is (ny, nx + 1) and Fortran-ordered: columns ``:nx`` hold u, started
    from ``U0`` (ny, nx), and column ``nx`` holds u_tilde, started from
    zero.  Set up once per attempt: one ``_coefficient_bounds``, then dy
    against the boundary-layer cap (a ``BadGrid``).  A grid of no steps
    returns W as it starts, before anything that depends on dt.  Otherwise
    come the monitors' caps; the explicit weights; the solution array and
    the history array, which starts at zero; two work arrays and the
    Douglas array, which starts at zero too; and a table of the two step
    kinds, each with its x- and y-factors and its y-solve scale.

    Every step is one IMEX-BDF2 step (Ascher, Ruuth & Wetton 1995) with the
    Douglas term: with E dt (quadratic term + source), M dt times the mixed
    term and k, c the kind's implicit step and scale, it solves

        (I - k Lx)(I - k Ly) W^{n+1} = c [W^n + E^n + M^n + H^{n-1}] + k^2 Lx Ly W^n,
        H^{n-1} = -(W^{n-1} + 2 E^{n-1} + 2 M^{n-1}) / 4.

    After the start-up, (k, c) = (beta dt, 4/3), beta = 2/3, and the right
    side is 4/3 W^n - 1/3 W^{n-1} + beta dt [2 M^n - M^{n-1} + 2 Q^n - Q^{n-1}]
    + beta^2 dt^2 Lx Ly W^n: Q and M extrapolated (see the module docstring).
    The start-up step has H^{-1} = 0, no Douglas term and (k, c) = (dt, 1),
    so it is IMEX Euler, W^1 = W^0 + E^0 + M^0 solved at dt, and it leaves
    H^0 for step 2.  The bracket is formed in the array that held H^{n-1},
    which then holds the solution, and H^n is formed in place of W^n, so
    the two arrays swap roles each step; c goes into the y-solve's scale
    column.  The Douglas term is applied in split form, without a stencil:
    with G = k Ly W^n / c, the x-solve takes the bracket plus G and G is
    taken off its result, which is (I - k Lx)^{-1} of the bracket plus
    k Lx G.  The y-solve's own input X gives G: (I - k' Ly) W^n = c' X
    leaves k' Ly W^n = W^n - c' X for the kind (k', c') that made W^n, so
    each step keeps c X in the Douglas array and turns it into the next
    step's G after the y-solve: three passes, and no stencil.  Each step
    checks max |u_y| over W against the cap g*, |u| and |u_tilde| against
    their caps, and 0 <= u_tilde - u <= K, each in one comparison that a NaN
    fails too; each trip's ``Instability`` names its monitor and tau.  It
    only subtracts, multiplies and adds, apart from dpttrs, in place
    between the two scalings.
    """
    coeffs = _Coefficients(spec, grid.y)
    dt, dx, dy = grid.dt, grid.dx, grid.dy
    nx, ny = grid.x.size, grid.y.size
    s2_min, s2_max = _coefficient_bounds(spec)
    dy_cap = _max_dy(spec, s2_min)
    if dy > dy_cap * (1.0 + 1e-9):
        raise BadGrid(f"y spacing {dy:.3e} exceeds the boundary-layer cap {dy_cap:.3e}")
    wanted = set(snapshot_steps)
    snapshots: dict[int, np.ndarray] = {}
    W = np.zeros((ny, nx + 1), order="F")  # y-columns contiguous: the y-solve works in place
    W[:, :nx] = U0
    if 0 in wanted:
        snapshots[0] = _price(W)
    if grid.n_steps == 0:  # no step is taken, so nothing that depends on dt is set up
        return W, snapshots
    mixed, quad, source = _explicit_weights(coeffs, dt, dx, dy)
    two_dy = 2.0 * dy

    grad_cap = _gradient_cap(spec, s2_max, dt)
    growth = grid.tau_final * np.abs(coeffs.source).max()
    u_cap = (np.abs(U0).max() + growth) * 1.5 + spec.strike
    tilde_cap = growth * 1.5 + spec.strike
    band_lo, band_hi = -BAND_SLACK * spec.strike, spec.strike + BAND_SLACK * spec.strike
    D = np.empty_like(W)  # raw y-differences, then the explicit increment E + M
    D_u = D[:, :nx]
    mixed_u = np.empty((ny, nx), order="F")
    douglas = np.zeros((ny, nx), order="F")  # G = k Ly W^n / c on u; zero for the start-up
    x_tmp = np.empty(ny)
    # (W, u, u_tilde, u's interior y-columns) for the solution and the history, which
    # starts at zero; the views stay valid while the y-solve works in place
    sides = [(array, array[:, :nx], array[:, nx], list(array[:, 1:nx - 1].T))
             for array in (W, np.zeros_like(W))]
    # the step kinds, start-up then BDF2: (x-factor on each side, y-factor, y-solve scale c,
    # next_share), where next_share = (beta dt / (4/3)) / k turns k Ly W^{n+1} into the next
    # step's G; dt first: its fold has the larger a, so a failed dominance guard names it
    kinds = []
    for step_dt, scale in ((dt, 1.0), (BDF2_BETA * dt, 4.0 / 3.0)):
        d_fact, e_fact, s, inv_s = _factor_y_system(*_build_y_system(coeffs, step_dt, dy))
        mult, recip, upper = _factor_x_system(*_build_x_system(coeffs, step_dt, dx), nx - 2)
        x_factors = [(mult, upper, _pivot_runs(recip, u[:, 1:-1])) for _, u, _, _ in sides]
        kinds.append((x_factors, (d_fact, e_fact, s * scale, inv_s), scale,
                      0.75 * BDF2_BETA * dt / step_dt))

    cur = 0  # the side that holds the solution
    for step in range(1, grid.n_steps + 1):
        x_factors, y_factor, scale, next_share = kinds[step > 1]  # start-up for step 1 only
        (W, *_), (H, H_u, *_) = sides[cur], sides[1 - cur]
        # rounding is monotone, so this is max |u_y| of the central u_y to the bit
        grad_max = _abs_max(_y_diff(W, D)) / two_dy
        if not grad_max <= grad_cap:
            raise Instability(f"dt {dt:.3e} exceeds the gradient bound at step {step} "
                              f"(|u_y| = {grad_max:.3e} > {grad_cap:.3e})",
                              monitor="gradient", tau=step * dt)
        # the weights fold in dt and the differences' spacings; u_tilde does not
        # depend on x and takes no mixed term
        np.multiply(_x_diff(D_u, mixed_u), mixed, out=mixed_u)
        np.square(D, out=D)
        np.multiply(D, quad, out=D)
        np.add(D, source, out=D)
        np.add(D_u, mixed_u, out=D_u)
        # H^{n-1} += W^n + E^n + M^n + G, then W^n becomes H^n
        np.add(W, D, out=W)
        np.add(H, W, out=H)
        np.add(H_u, douglas, out=H_u)
        np.add(W, D, out=W)
        np.multiply(W, -0.25, out=W)
        cur = 1 - cur
        W, u, u_tilde, x_cols = sides[cur]

        # the x-solve took the bracket plus G, and G comes off its result
        _solve_x_system(*x_factors[cur], x_cols, x_tmp)
        np.subtract(u, douglas, out=u)
        u[:, 0] = 2.0 * u[:, 1] - u[:, 2]
        u[:, -1] = 2.0 * u[:, -2] - u[:, -3]
        # (I - k Ly) W^{n+1} = c X leaves k Ly W^{n+1} = W^{n+1} - c X: the next step's G
        np.multiply(u, scale, out=douglas)
        _solve_y_system(W, *y_factor)
        np.subtract(u, douglas, out=douglas)
        np.multiply(douglas, next_share, out=douglas)

        # one row-wise pass serves both monitors of u: |u| <= cap and, as rounding
        # is monotone, min/max of u_tilde - u come from the row extremes
        row_max, row_min = u.max(axis=1), u.min(axis=1)
        for name, peak, cap in (("u", float(np.maximum(row_max.max(), -row_min.min())), u_cap),
                                ("u_tilde", _abs_max(u_tilde), tilde_cap)):
            if not peak <= cap:
                raise Instability(f"{name} left the amplitude bound at step {step} "
                                  f"(|{name}| = {peak:.3e})", monitor=name, tau=step * dt)
        price_min, price_max = (u_tilde - row_max).min(), (u_tilde - row_min).max()
        if not (band_lo <= price_min and price_max <= band_hi):
            raise Instability(
                f"price band violated at step {step}: "
                f"[{price_min:.3e}, {price_max:.3e}] vs [0, {spec.strike}]",
                monitor="band", tau=step * dt)
        if step in wanted:
            snapshots[step] = _price(W)
    return W, snapshots


def price_surface(spec: ModelSpec, grid: Grid2D, *,
                  snapshot_steps: Iterable[int] = ()) -> PriceSurface:
    """Solve both value functions and form P = u_tilde - u on the grid.

    Any monitor trip halves dt and restarts the march.  Each halving is
    logged at INFO level with the tripped monitor's message and the new
    step count.  After ``MAX_DT_RETRIES`` halvings, the last monitor's
    message is raised again with that monitor's ``Instability`` as the
    cause.  A band or amplitude trip (``SPATIAL_MONITORS``) gets one halved
    attempt: if that trips the same monitor within one of the earlier
    attempt's steps of its tau, halving dt did not move the trip, and that
    is raised at once, with the later trip as the cause.  P at each of
    ``snapshot_steps``, integer steps of ``grid`` in 0..n_steps, lands in
    ``snapshots``; any other step is a ``BadGrid``.
    """
    steps = tuple(snapshot_steps)
    for s in steps:
        if not isinstance(s, numbers.Integral) or not 0 <= s <= grid.n_steps:
            raise BadGrid(f"snapshot step {s} is not one of the grid's steps 0..{grid.n_steps}")
    attempt_grid = grid
    U0 = payoff_initial(spec, grid)  # halving dt leaves the x-grid as it is
    last = None  # the last attempt's band or amplitude trip
    for attempt in range(MAX_DT_RETRIES + 1):
        factor = 2 ** attempt  # attempt_grid's steps per step of grid
        try:
            W, snapshots = _march(spec, attempt_grid, U0, snapshot_steps=[s * factor for s in steps])
        except Instability as exc:
            if attempt == MAX_DT_RETRIES:
                raise Instability(f"{exc} (still, after {attempt} dt halvings)") from exc
            last_dt = 2.0 * attempt_grid.dt
            if (last is not None and exc.monitor == last.monitor
                    and abs(exc.tau - last.tau) <= last_dt):
                raise Instability(f"{exc}: halving dt did not move the trip from "
                                  f"tau = {last.tau:.4g} at dt {last_dt:.3e}") from exc
            last = exc if exc.monitor in SPATIAL_MONITORS else None
            attempt_grid = attempt_grid.with_halved_dt()
            logger.info("%s; halving dt to %d steps", exc, attempt_grid.n_steps)
            continue
        return PriceSurface(grid=attempt_grid, u=W[:, :-1].T.copy(), u_tilde=W[:, -1].copy(),
                            P=_price(W), tau=attempt_grid.tau_final,
                            snapshots={s: snapshots[s * factor] for s in steps})


def solve_u_tilde_cole_hopf(spec: ModelSpec, grid: Grid2D) -> np.ndarray:
    """Oracle for u_tilde: the exponential substitution linearizes its equation.

    With w = exp(lambda u) and lambda = gamma (1 - rho^2), the quadratic
    gradient term cancels exactly and w satisfies a linear PDE with
    reaction lambda * source; marching w implicitly and taking log(w) /
    lambda recovers u_tilde through entirely different nonlinear algebra.
    """
    coeffs = _Coefficients(spec, grid.y)
    ab = _banded(*_build_y_system(coeffs, grid.dt, grid.dy))
    ab[1] -= grid.dt * (spec.lam * coeffs.source)  # the reaction term
    w = np.ones(grid.y.size)
    for _ in range(grid.n_steps):
        w = solve_banded((1, 1), ab, w)
        if w.min() <= 0.0 or not np.all(np.isfinite(w)):
            raise Instability("exponential-substitution march lost positivity")
    return np.log(w) / spec.lam


@dataclass(frozen=True)
class SweepRow:
    """One epsilon of the asymptotic-accuracy sweep."""

    eps: float
    max_abs_error: float   # max over probes of |P_pde - (P0 + sqrt(eps) P1)|
    normalized: float      # max_abs_error / (-eps log eps)


def accuracy_sweep(spec: ModelSpec, eps_list: Sequence[float],
                   probe_points: Sequence[tuple[float, float, float]], *,
                   grid_factory=None) -> list[SweepRow]:
    """Measure the corrected-asymptotics gap across a decreasing epsilon list.

    Probes are snapped to each epsilon's grid by ``snap_probes``, before
    any march; the asymptotic side is evaluated at the snapped coordinates
    so the comparison is node-exact.
    """
    specs = [spec.with_(epsilon=float(eps)) for eps in eps_list]
    snapped = snap_probes(specs, probe_points, grid_factory=grid_factory)
    gc = group_constants_for(spec)  # epsilon-independent
    rows = []
    for eps, spec_eps, (grid, nodes) in zip(eps_list, specs, snapped):
        snapshots = price_surface(spec_eps, grid,
                                  snapshot_steps=sorted({step for step, _, _ in nodes})).snapshots
        worst = 0.0
        for step, ix, jy in nodes:
            p_num = float(snapshots[step][ix, jy])
            corrected = asymptotic_price(gc, spec_eps, step * grid.dt, float(grid.x[ix])).corrected
            worst = max(worst, abs(p_num - corrected))
        denom = -eps * math.log(eps)
        rows.append(SweepRow(eps=float(eps), max_abs_error=worst,
                             normalized=worst / denom if denom > 0 else math.nan))
    return rows


def snap_probes(specs: Sequence[ModelSpec], probe_points: Sequence[tuple[float, float, float]], *,
                grid_factory=None) -> list[tuple[Grid2D, list[tuple[int, int, int]]]]:
    """Each spec's grid to the latest probe's tau, and the (step, ix, jy) nearest each probe on it.

    Probes are (tau, x, y) triples with tau >= 0; one that is not is a
    ``ValueError`` raised before any grid is built.  Every grid is built
    first, and a probe more than half a cell outside one is a
    ``ConfigError``.
    """
    if not probe_points:
        raise ValueError("need at least one probe point")
    for probe in probe_points:
        if not probe[0] >= 0.0:
            raise ValueError(f"probe {tuple(probe)} needs tau >= 0, got {probe[0]}")
    tau_final = max(p[0] for p in probe_points)
    grids = [grid_factory(s, tau_final) if grid_factory else make_grid(s, tau_final) for s in specs]
    return [(grid, [_snap_probe(p, grid, s.epsilon) for p in probe_points])
            for s, grid in zip(specs, grids)]


def _snap_probe(probe, grid: Grid2D, eps: float) -> tuple[int, int, int]:
    """(step, ix, jy) of the time step and node nearest ``probe``; a probe more than
    half a cell outside the grid is a ``ConfigError``."""
    tau_p, x_p, y_p = probe
    ix, jy = (int(np.argmin(np.abs(nodes - v))) for nodes, v in ((grid.x, x_p), (grid.y, y_p)))
    if not (abs(grid.x[ix] - x_p) <= 0.5 * grid.dx and abs(grid.y[jy] - y_p) <= 0.5 * grid.dy):
        raise ConfigError(f"probe {tuple(probe)} lies outside the eps = {eps:g} grid: "
                          f"x in [{grid.x[0]:g}, {grid.x[-1]:g}], y in [{grid.y[0]:.6g}, {grid.y[-1]:.6g}]")
    return min(grid.n_steps, int(round(tau_p / grid.dt))), ix, jy

"""Semilinear pricing PDE solver and the asymptotic-accuracy harness.

The value functions u (payoff start) and u-tilde (zero start) march in
time-to-maturity under

    du/dtau = s1^2/2 u_xx + s2^2/(2 eps) u_yy + rho s1 s2 / sqrt(eps) u_xy
              + [ (m - y)/eps - prefactor b s2 / (s1 sqrt(eps)) ] u_y
              - s1^2/2 u_x - h + lambda s2^2 / (2 eps) (u_y)^2,

and the put price is P = u_tilde - u.  u starts at minus the put's payoff,
``bs.put_payoff``, the one payoff formula: at tau = 0 P is bit for bit
``bs_put`` and the asymptotic P0.  The model combinations in it are
``ModelSpec``'s: ``risk_prefactor`` = rho + eta sqrt(1 - rho^2), shared
with the constants A~ and B; ``lam`` = gamma (1 - rho^2), which also
scales the oracle below; and ``h`` = b^2 / (2 gamma s1^2), the
first corrector's right-hand side.  Discretization: central second
differences for the diffusions and the mixed term, first-order upwind
for every first-order term.  Upwinding keeps every off-diagonal weight
of ``_stencil`` >= 0 whatever the cell Peclet number, so both implicit
systems are M-matrices.  On the grids ``make_grid`` builds for the demo
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
at rho = -0.2 and -0.7 on skew3's grid, also at eps = 6.25e-4, where
dt = 5 eps.  With lambda in place of gamma, a stays fixed as |rho| -> 1
and that check fails.  So stability asks nothing of dt, and
dt = tau / ``MIN_STEPS`` at every eps is set for accuracy:
``MIN_STEPS`` = 80 is the least step count of a sweep (63, 72, 80, 90,
100 steps) at which the benchmark's skew3 surfaces keep their time error
at or below that of the first-order march at 250 steps.  dt may exceed
eps, because the implicit y-pass damps the fast relaxation whatever dt
is: on the demo at tau = 0.25 and nx = 101, the 80-step P at
x = -0.9, -0.6, ..., 0.9 lies within 5.83e-5, 5.25e-5 and 5.38e-5 of the
Richardson value from 160 and 320 steps at eps = 0.0025, 6.25e-4 and
1.5625e-4 (dt = 1.25, 5 and 20 eps), so a surface's step count does not
grow as eps falls.  The solver monitors the cap, the amplitude bound and
the price band at every step, each with one comparison that a NaN fails
too, and halves dt when a monitor trips.

Both value functions march in one Fortran-ordered (ny, nx + 1) array W:
columns ``:nx`` hold u and the last holds u-tilde, which does not depend
on x and so takes only the y-parts of a step.  Those (the y-differences,
the quadratic term and source, the y-solve) act on all of W; the mixed
term and the x-solve act on u's columns.  Between steps a march keeps
three full arrays: W, the BDF2 history and the Douglas term.  Everything
else a step needs is sized by one block of ``X_BLOCK`` x-columns, over
which the explicit part runs, or by one chunk of y-columns, on which the
y-solve runs in place: its products read and write W's own columns, and
NumPy copies the inputs of the two that write back.  A solve hands back
one array: ``price_surface`` writes P over u's columns, beside u-tilde,
and ``PriceSurface.u`` is derived from the two.

Everything fixed during a solve is set up once per attempt, so a step
only subtracts, multiplies and adds; the coefficient ranges behind the
dy cap and g* are evaluated once per ``make_grid`` and once per attempt.
``_explicit_weights`` folds dt and the spacings into the explicit step's
weights.  Each implicit system is factored once per step kind, at dt for
the start-up step and at beta dt for the rest, and only the kind in use
is held: the start-up kind's factors go before the BDF2 kind's are
built.  The x-system is eliminated without row interchanges until its
rows reach their fixed point, each distinct row kept once
(``_factor_x_system``), and solved in place as a sweep along u's
interior x-nodes that scales them by 1/pivot in two products
(``_solve_x_system``); both of a march's arrays share the one factor.
The y-system is cut into blocks of ``Y_BLOCK`` y-nodes, whose inverses,
and that of the small system coupling the blocks' end values, are
formed once (``_factor_y_system``); a step's y-solve is then four
matrix products on each chunk of W's columns (``_solve_y_system``), a
partition solve in the manner of Polizzi & Sameh's SPIKE (2006,
Parallel Computing 32).
The chunks keep every product small enough that OpenBLAS runs it on the
calling thread: threaded, its idle threads spin, which slows the worker
processes of ``parallel_map`` when they share the cores.  Each function
says how; the README has why and the timings.  A y-system whose blocks
cannot be inverted is a fault, raised as RuntimeError and not retried.

Boundary conditions (the continuum problem lives on the whole plane,
where the put tends to its payoff deep in and out of the money): the
payoff at the x-ends, and zero flux in y, far enough out (6 stationary
standard deviations) that the boundary influence is negligible.  The
x-system is its interior row alone: its elimination and its sweep run
over x-nodes 1 ... nx - 2 and read the x-ends as fixed neighbours, which
is bit for bit a system with identity rows at the ends.  The x-ends take
no mixed term either, so they take only the y-parts of a step, as
u_tilde does: each evolves as u_tilde minus the payoff there, and P
stays at the payoff to rounding.

An exponential substitution linearizes u-tilde's equation exactly; the
tests keep it as an independent oracle for the quadratic term, on a
solver the march does not use.

``price_surface`` is the one entry point and always returns a
``PriceSurface`` at the grid's last step.  P at an earlier step k is the
solve of the prefix grid, ``price_surface(spec, replace(grid, n_steps=k)).P``:
when neither solve halves dt, it is bit for bit the whole march's P at step k.

``accuracy_sweep`` checks its probes and builds every grid here, through
its ``grid_factory`` (``make_grid`` unless one is given), then solves
each epsilon in a worker process of ``parallel_map``, largest march
first; its rows are the same bits whatever the worker count.
"""

from __future__ import annotations

import logging
import math
import numbers
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .asymptotics import asymptotic_price
from .bs import put_payoff
from .errors import BadGrid, ConfigError, Instability
from .measure import build_invariant_measure
from .model import FrozenArrays, ModelSpec, probe_grid
from .poisson import group_constants_for

DEFAULT_NX = 601
DEFAULT_X_SPAN = (-3.0, 3.0)
MIN_NODES = 5  # per direction, on any Grid2D
MIN_NY = 201
MIN_STEPS = 80
Y_BLOCK = 32  # y-nodes per block of the y-solve (``_factor_y_system``)
X_BLOCK = 32  # x-columns per block of a step's explicit part (``_march``)
SERIAL_GEMM = 2 ** 18  # OpenBLAS runs a product of m n k multiply-adds up to this on one thread
BDF2_BETA = 2.0 / 3.0  # the implicit weight of an IMEX-BDF2 step, in units of dt
BAND_SLACK = 1e-6  # relative to strike; explicit mixed term is not exactly monotone
MAX_DT_RETRIES = 6  # dt halvings price_surface tries before it gives up

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Grid2D(FrozenArrays):
    """Uniform tensor grid plus the time step, finite and > 0 even with no steps."""

    x: np.ndarray
    y: np.ndarray
    dt: float
    n_steps: int

    def __post_init__(self):
        for name in ("x", "y"):
            nodes = self._freeze(name)
            if nodes.ndim != 1 or nodes.size < MIN_NODES:
                raise BadGrid(f"{name} grid needs at least {MIN_NODES} nodes")
            steps = np.diff(nodes)
            if not np.all(steps > 0) or not np.allclose(steps, steps[0], rtol=1e-9):
                raise BadGrid(f"{name} grid must be uniform and increasing")
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


@dataclass(frozen=True)
class PriceSurface:
    """Terminal slice of u_tilde and the price P = u_tilde - u, from which ``u`` is derived.

    Not a ``FrozenArrays``: u_tilde and P are views of the march's own array,
    P written in place of u, and a frozen copy would hold one more surface of
    memory per surface held.
    """

    grid: Grid2D
    u_tilde: np.ndarray  # shape (ny,)
    P: np.ndarray        # shape (nx, ny)
    tau: float

    @property
    def u(self) -> np.ndarray:
        """u = u_tilde - P, shape (nx, ny), formed on each read: the march's u to about an ulp."""
        return self.u_tilde[None, :] - self.P


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
    mean level m, at every eps: the invariant law does not depend on eps.
    The y-spacing resolves the boundary layer: dy <= sqrt(eps) * inf(sigma2)
    / 4, with at least ``MIN_NY`` nodes; a given ``ny`` below either is a
    ``BadGrid`` naming the one that binds.  An even ny, given or not, is
    raised by one, which puts m on the middle node.  Without
    a ``dt``, dt = tau / ``MIN_STEPS``, whatever eps and rho: the step's
    stability asks nothing of dt below the gradient cap, and at dt above
    eps the implicit y-pass still damps the fast relaxation, so dt is set
    for accuracy alone (module docstring).
    A given ``dt`` must be finite and positive; it is shrunk to divide tau.
    ``tau`` must be finite and >= 0; tau = 0 gives the payoff grid (no
    steps).  nx, ny and tau / dt must lie within
    ``np.iinfo(np.intp).max // 8``, the most doubles an array can hold; a
    count above it is a ``BadGrid`` naming it, and a smaller node count
    that does not fit in memory ends in ``MemoryError``.
    """
    if not (math.isfinite(tau) and tau >= 0.0):
        raise BadGrid(f"tau must be finite and >= 0, got {tau}")
    if dt is not None and not (math.isfinite(dt) and dt > 0.0):
        raise BadGrid(f"dt must be finite and > 0, got {dt}")
    if nx < MIN_NODES:
        raise BadGrid(f"nx = {nx} too coarse: the x grid needs at least {MIN_NODES} nodes")
    std = build_invariant_measure(spec).std()
    y_lo, y_hi = spec.m - 6.0 * std, spec.m + 6.0 * std
    s2_min, _ = _coefficient_bounds(spec)
    ny_cap = int(math.ceil((y_hi - y_lo) / _max_dy(spec, s2_min))) + 1
    ny_required, bound = max((MIN_NY, "the MIN_NY floor"), (ny_cap, "the boundary-layer dy cap"))
    if ny is None:
        ny = ny_required
    elif ny < ny_required:
        raise BadGrid(f"ny = {ny} too coarse: {bound} needs at least {ny_required} nodes")
    if ny % 2 == 0:
        ny += 1  # puts m on the middle node
    limit = np.iinfo(np.intp).max // 8  # the most doubles an array's byte count can index
    holds = f"nodes: an array holds at most {limit} doubles"
    # no step count without a dt; an infinite tau / dt fails the same comparison
    for name, count, reason in (("nx", nx, holds), ("ny", ny, holds),
                                ("tau / dt", tau / dt if dt else 0.0,
                                 f"steps: a grid takes at most {limit}")):
        if not count <= limit:
            raise BadGrid(f"{name} = {count:.3g} {reason}")

    if tau == 0.0:
        n_steps = 0  # the payoff grid; its dt of 1.0 is never stepped
    else:
        n_steps = MIN_STEPS if dt is None else max(1, int(math.ceil(tau / dt)))
    return Grid2D(x=np.linspace(*x_span, nx), y=np.linspace(y_lo, y_hi, ny),
                  dt=tau / n_steps if n_steps else 1.0, n_steps=n_steps)


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
    """(I - dt Lx) on an interior x-node as its row (sub, diag, sup), each (ny,).

    x-row i of the system holds x-node i of every y-row, so each y-row is
    its own tridiagonal system in x, and every x-row between the x-ends is
    this row.  The x-ends have no row: they take no x-part of a step, so P
    stays at the payoff there (module docstring).
    """
    sub, diag, sup = _stencil(coeffs.x_diffusion, coeffs.x_drift, dx)
    return -dt * sub, 1.0 - dt * diag, -dt * sup


def _factor_x_system(sub, diag, sup, n_rows: int) -> tuple[list, list, np.ndarray]:
    """Eliminate ``n_rows`` x-rows 1 ... nx - 2, each the interior row (``sub``, ``diag``, ``sup``).

    Returns (mult, upper, recip): lists of one (ny,) array per interior
    x-row, the row's multiplier and its sup over its pivot, and 1 / pivot
    of each distinct row as one (ny, k) column-major array.  Row 1 starts
    from multiplier ``sub`` and pivot ``diag``, the bits that elimination
    through an identity row 0 gives; x-node 0 is a fixed neighbour.
    Elimination runs row by row without row interchanges, vectorised over
    the y-rows.  Every row is one row, so the pivots reach a fixed point:
    once a row's (multiplier, pivot) pair repeats the previous row's
    exactly, so does every later row's.  The elimination stops there, the
    later rows share the lists' last arrays, and ``recip``'s last column,
    that of x-row k, serves x-rows k ... nx - 2.  Without pivoting,
    elimination is stable for a row diagonally dominant matrix, and the
    row is, at any dt: its diag - |sub| - |sup| is 1.
    """
    mult, pivot = sub, diag
    rows = [(mult, 1.0 / pivot, sup / pivot)]
    while len(rows) < n_rows:
        next_mult = sub / pivot
        next_pivot = diag - next_mult * sup
        if np.array_equal(next_mult, mult) and np.array_equal(next_pivot, pivot):
            break
        rows.append((next_mult, 1.0 / next_pivot, sup / next_pivot))
        mult, pivot = next_mult, next_pivot
    mults, recips, uppers = zip(*rows)
    tail = n_rows - len(rows)
    return list(mults) + [mults[-1]] * tail, list(uppers) + [uppers[-1]] * tail, np.array(recips).T


def _solve_x_system(mult, upper, recip, u, cols, tmp) -> None:
    """Solve the factored x-system in place on u's interior columns ``u[:, 1:-1]``.

    ``u`` is (ny, nx), and ``cols`` lists its columns, one per x-node; the
    first and the last are fixed neighbours, read and left as they are.  A
    forward loop of two calls per interior x-row; two scalings by 1/pivot,
    of x-rows 1 ... k - 1 by ``recip``'s head and of x-rows k ... nx - 2 by
    its last column; then a backward loop of two calls per interior x-row.
    ``tmp`` is one scratch row.  The row lists and the positional ``out``
    keep the per-call overhead down: it, not the ny-long arithmetic, is
    most of the cost.
    """
    for lower, prev, row in zip(mult, cols, cols[1:-1]):
        np.multiply(lower, prev, tmp)
        np.subtract(row, tmp, row)
    k = recip.shape[1]
    np.multiply(u[:, 1:k], recip[:, :-1], u[:, 1:k])
    np.multiply(u[:, k:-1], recip[:, -1:], u[:, k:-1])
    for upper_over_pivot, row, nxt in zip(upper[::-1], cols[-2:0:-1], cols[:1:-1]):
        np.multiply(upper_over_pivot, nxt, tmp)
        np.subtract(row, tmp, row)


def _build_y_system(coeffs: _Coefficients, dt: float, dy: float) -> tuple:
    """(I - dt Ly) with zero-flux ends (ghost mirror folded in), as (dl, d, du)."""
    sub, diag, sup = _stencil(coeffs.y_diffusion, coeffs.y_drift, dy)
    sub, diag, sup = -dt * sub, 1.0 - dt * diag, -dt * sup
    sup[0] += sub[0]
    sub[-1] += sup[-1]
    return sub[1:], diag, sup[:-1]


def _factor_y_system(dl, d, du, scale: float) -> tuple:
    """The y-system A = (dl, d, du) cut into blocks and inverted, for ``_solve_y_system``.

    The ny y-nodes split into blocks of ``Y_BLOCK``.  The last block takes
    the remainder, so it has ``Y_BLOCK`` to 2 ``Y_BLOCK`` - 1 nodes, or all
    ny below 2 ``Y_BLOCK``: a block's first and last nodes differ.  With
    G_k the inverse of A's diagonal block k, block k's values are G_k
    applied to its right side less dl z and du z, its couplings to the end
    values z of its neighbours.  The first and last of those values give
    R z = g, 2 * blocks equations in z alone, where g is the first and
    last rows of each G_k applied to the right side.

    Returns (width, ends, last_ends, R^-1, dl_seam, du_seam, scaled,
    last_scaled):
    - ``width``, the most columns a product may take and stay within
      ``SERIAL_GEMM`` multiply-adds;
    - the first and last rows of each full block's G_k, (blocks - 1, 2,
      ``Y_BLOCK``), and of the last block's;
    - R^-1;
    - dl and du where block k + 1 meets block k, as (blocks - 1, 1)
      columns;
    - ``scale`` G_k for the full blocks and for the last, so the solve of
      A x = ``scale`` b takes the scale in its final products only.  Each
      is column-major, as W's y-columns are, so BLAS multiplies without a
      transposed copy.

    Upwinding makes every off-diagonal <= 0 (0 where a weight underflows,
    as the y-diffusion does at a huge eps) and leaves every row
    diag - |sub| - |sup| = 1 at any dt, so A and each block are nonsingular
    M-matrices; det A is det R times the blocks' determinants, so R is
    nonsingular too.  A block or R that cannot be inverted is a fault of
    the code, raised as RuntimeError; a NaN weight passes through to the
    march, whose monitors fail on it.
    """
    ny = d.size
    bounds = list(range(0, max(ny // Y_BLOCK - 1, 0) * Y_BLOCK + 1, Y_BLOCK)) + [ny]
    try:
        inverses = [np.linalg.inv(np.diag(d[lo:hi]) + np.diag(dl[lo:hi - 1], -1)
                                  + np.diag(du[lo:hi - 1], 1))
                    for lo, hi in zip(bounds, bounds[1:])]
        interface = np.eye(2 * len(inverses))
        for k, lo in enumerate(bounds[1:-1]):  # block k + 1 starts at lo
            interface[2 * k:2 * k + 2, 2 * k + 2] = du[lo - 1] * inverses[k][[0, -1], -1]
            interface[2 * k + 2:2 * k + 4, 2 * k + 1] = dl[lo - 1] * inverses[k + 1][[0, -1], 0]
        interface_inv = np.linalg.inv(interface)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"y-system cannot be inverted block by block: {exc}") from exc
    *full, last = inverses
    n_full = len(full)
    seams = np.array(bounds[1:-1], dtype=int) - 1  # dl, du index where block k + 1 meets k
    ends = np.array([inv[[0, -1]] for inv in full]).reshape(n_full, 2, Y_BLOCK)
    # c G_k column-major: the transposes stacked C-ordered, then viewed transposed
    scaled = scale * np.array([inv.T for inv in full]).reshape(n_full, Y_BLOCK, Y_BLOCK)
    width = max(1, SERIAL_GEMM // max(last.shape[0], interface.shape[0]) ** 2)
    return (width, ends, last[[0, -1]], interface_inv, dl[seams, None], du[seams, None],
            scaled.transpose(0, 2, 1), np.asfortranarray(scale * last))


def _solve_y_system(W: np.ndarray, width, ends, last_ends, interface_inv, dl_seam, du_seam,
                    scaled, last_scaled) -> None:
    """Solve the y-system in place for ``W``'s y-columns, with ``_factor_y_system``'s factors.

    ``W`` is (ny, nc) and F-ordered, so its y-columns are contiguous and
    BLAS takes the blocks of a chunk as they lie.  The columns go ``width``
    at a time, each chunk a view of ``W``'s columns.  On each chunk, four steps: g, as
    (blocks - 1, 2, Y_BLOCK) @ (blocks - 1, Y_BLOCK, width), plus the last
    block on its own; z = R^-1 g; dl z and du z off the first and last row
    of each block, in place; and the scaled block inverses, written back
    over the chunk.  Those two products read the memory they write, so
    NumPy copies each one's input first (the ufunc overlap rule): a copy of
    the full blocks, then one of the last block, each smaller than a chunk.
    """
    n_full = scaled.shape[0]
    cut = n_full * Y_BLOCK
    for lo in range(0, W.shape[1], width):
        cols = W[:, lo:lo + width]
        nc = cols.shape[1]
        full, rest = cols[:cut].reshape(n_full, Y_BLOCK, nc), cols[cut:]  # views, for any strides
        g = np.empty((n_full + 1, 2, nc))
        np.matmul(ends, full, out=g[:-1])
        np.matmul(last_ends, rest, out=g[-1])
        z = (interface_inv @ g.reshape(-1, nc)).reshape(-1, 2, nc)
        cols[Y_BLOCK:cut + 1:Y_BLOCK] -= dl_seam * z[:-1, 1]  # the first row of blocks 1, 2, ...
        cols[Y_BLOCK - 1:cut:Y_BLOCK] -= du_seam * z[1:, 0]   # the last row of blocks 0, 1, ...
        np.matmul(scaled, full, out=full)
        np.matmul(last_scaled, rest, out=rest)


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


def _explicit_weights(coeffs: _Coefficients, dt: float, dx: float, dy: float) -> tuple:
    """The explicit step's constants folded into (ny, 1) columns (mixed, quad, source).

    With D = ``_y_diff(W)`` and D_x its raw central x-difference
    D[:, i + 1] - D[:, i - 1], the explicit step adds
    mixed * D_x + quad * D^2 + source, which is
    dt (mixed u_xy + quad u_y^2 + source) with central differences, on
    u's interior x-nodes; ``_march`` adds no mixed term at the x-ends,
    which take only the y-parts of a step.
    """
    return ((dt * coeffs.mixed / (4.0 * dx * dy))[:, None],
            (dt * coeffs.quad / (4.0 * dy ** 2))[:, None],
            (dt * coeffs.source)[:, None])


def _march(spec: ModelSpec, grid: Grid2D, U0: np.ndarray) -> np.ndarray:
    """The IMEX march of both value functions; returns W at the grid's last step.

    W is (ny, nx + 1) and Fortran-ordered: columns ``:nx`` hold u, started
    from ``U0``, an (ny, nx) array or an (nx,) row broadcast to every y,
    and column ``nx`` holds u_tilde, started from zero.  Set up once per
    attempt: one ``_coefficient_bounds``, then dy against the
    boundary-layer cap (a ``BadGrid``); the explicit weights and the
    monitors' caps; the three full arrays, the solution, the history and
    the Douglas array, the last two starting at zero; and two buffers of
    one block of ``X_BLOCK`` columns.  Each step kind's x-factor, which
    both arrays share, and its y-factor, with c folded in, are built at its
    first step, the start-up kind's released first.  A grid of no steps,
    whose dt is a placeholder, sets up the same and takes no step, so it
    factors nothing, runs no monitor and returns W as it started.

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
    H^0 for step 2.

    The explicit part runs over blocks of ``X_BLOCK`` columns of W, u_tilde's
    included.  A block takes the raw y-differences of its columns and of its
    right neighbour; its left neighbour's were kept from the block before,
    before that block turned them into E + M.  It then adds its share to
    the gradient monitor, forms the mixed term in a block buffer, turns its
    differences into E + M, and updates its columns of the solution and the
    history.  Each element sees the operations and the order of one pass
    over W, so the block width changes no bit.  The bracket is formed in the
    array that held H^{n-1}, H^n in place of W^n, and the y-solve runs in
    place on the bracket, so the solution and history arrays swap roles
    each step, with no copy; c goes into the y-solve's block inverses.  The
    x-solve runs over u's interior columns and reads the x-ends as fixed
    neighbours, which leaves them the y-parts of the step alone.
    The Douglas term is applied in split form, without a stencil: with
    G = k Ly W^n / c, the x-solve takes the bracket plus G and G is taken
    off its result, which is (I - k Lx)^{-1} of the bracket plus k Lx G.
    The y-solve's own input X gives G: (I - k' Ly) W^n = c' X leaves
    k' Ly W^n = W^n - c' X for the kind (k', c') that made W^n, so each
    step keeps c X in the Douglas array and turns it into the next step's
    G after the y-solve: three passes, and no stencil.  Each step checks
    max |u_y| over W against the cap g*, once, after the blocks and before
    the x-solve, |u| and |u_tilde| against their caps, and
    0 <= u_tilde - u <= K, each in one comparison that a NaN fails too;
    each trip's ``Instability`` names its monitor and tau.  It only
    subtracts, multiplies and adds: the y-solve's products included.
    """
    coeffs = _Coefficients(spec, grid.y)
    dt, dx, dy = grid.dt, grid.dx, grid.dy
    nx, ny = grid.x.size, grid.y.size
    s2_min, s2_max = _coefficient_bounds(spec)
    dy_cap = _max_dy(spec, s2_min)
    if dy > dy_cap * (1.0 + 1e-9):
        raise BadGrid(f"y spacing {dy:.3e} exceeds the boundary-layer cap {dy_cap:.3e}")
    W = np.zeros((ny, nx + 1), order="F")  # y-columns contiguous: the y-solve works in place
    W[:, :nx] = U0
    mixed, quad, source = _explicit_weights(coeffs, dt, dx, dy)
    two_dy = 2.0 * dy

    grad_cap = _gradient_cap(spec, s2_max, dt)
    growth = grid.tau_final * np.abs(coeffs.source).max()
    u_cap = (np.abs(U0).max() + growth) * 1.5 + spec.strike
    tilde_cap = growth * 1.5 + spec.strike
    band_lo, band_hi = -BAND_SLACK * spec.strike, spec.strike + BAND_SLACK * spec.strike
    douglas = np.zeros((ny, nx), order="F")  # G = k Ly W^n / c on u; zero for the start-up
    x_tmp = np.empty(ny)
    # a block of nb columns: its raw y-differences in columns 1 ... nb, its neighbours' in 0
    # and nb + 1, then its E + M; and its mixed term
    raw = np.empty((ny, X_BLOCK + 2), order="F")
    mixed_block = np.empty((ny, X_BLOCK), order="F")
    blocks = [(lo, min(lo + X_BLOCK, nx + 1)) for lo in range(0, nx + 1, X_BLOCK)]
    # (W, u, u_tilde, u's y-columns) for the solution and the history, which starts at zero
    sides = [(array, array[:, :nx], array[:, nx], list(array[:, :nx].T))
             for array in (W, np.zeros_like(W))]

    sol, hist = 0, 1  # the sides that hold W^n and H^{n-1}
    for step in range(1, grid.n_steps + 1):
        if step <= 2:  # the start-up kind for step 1 only; its factors go before BDF2's are built
            x_factor = y_factor = None
            step_dt, scale = (dt, 1.0) if step == 1 else (BDF2_BETA * dt, 4.0 / 3.0)
            y_factor = _factor_y_system(*_build_y_system(coeffs, step_dt, dy), scale)
            x_factor = _factor_x_system(*_build_x_system(coeffs, step_dt, dx), nx - 2)
            # (beta dt / (4/3)) / k turns k Ly W^{n+1} into the next step's G
            next_share = 0.75 * BDF2_BETA * dt / step_dt
        (W, *_), (H, H_u, *_) = sides[sol], sides[hist]
        grad_max = 0.0
        for lo, hi in blocks:
            nb, right = hi - lo, min(hi + 1, nx + 1)
            # the block's raw y-differences and its right neighbour's; the left neighbour's
            # are in column 0 from the block before
            block_max = np.abs(_y_diff(W[:, lo:right], raw[:, 1:1 + right - lo])).max()
            grad_max = np.maximum(grad_max, block_max)  # not max(): np.maximum passes a NaN on
            # the weights fold in dt and the differences' spacings; the mixed term goes on u's
            # interior x-nodes: the x-ends and u_tilde take none
            m_lo = max(lo, 1)
            m_hi = max(min(hi, nx - 1), m_lo)  # the block's mixed columns are m_lo ... m_hi - 1
            mix = mixed_block[:, :m_hi - m_lo]
            np.subtract(raw[:, m_lo - lo + 2:m_hi - lo + 2], raw[:, m_lo - lo:m_hi - lo], out=mix)
            np.multiply(mix, mixed, out=mix)
            raw[:, 0] = raw[:, nb]  # the next block's left neighbour, before it turns into E + M
            E, E_mix = raw[:, 1:nb + 1], raw[:, m_lo - lo + 1:m_hi - lo + 1]
            np.square(E, out=E)
            np.multiply(E, quad, out=E)
            np.add(E, source, out=E)
            np.add(E_mix, mix, out=E_mix)
            # H^{n-1} += W^n + E^n + M^n + G, then W^n becomes H^n
            W_b, H_b, H_ub = W[:, lo:hi], H[:, lo:hi], H_u[:, lo:hi]
            np.add(W_b, E, out=W_b)
            np.add(H_b, W_b, out=H_b)
            np.add(W_b, E, out=W_b)
            np.multiply(W_b, -0.25, out=W_b)
            np.add(H_ub, douglas[:, lo:hi], out=H_ub)
        # rounding is monotone, so this is max |u_y| of the central u_y to the bit
        grad_max = grad_max / two_dy
        if not grad_max <= grad_cap:
            raise Instability(f"dt {dt:.3e} exceeds the gradient bound at step {step} "
                              f"(|u_y| = {grad_max:.3e} > {grad_cap:.3e})",
                              monitor="gradient", tau=step * dt)
        # the bracket, in the array that held H^{n-1}, becomes W^{n+1} in place
        sol, hist = hist, sol
        W, u, u_tilde, x_cols = sides[sol]

        # the x-solve took the bracket plus G, and G comes off its result
        _solve_x_system(*x_factor, u, x_cols, x_tmp)
        np.subtract(u, douglas, out=u)
        # (I - k Ly) W^{n+1} = c X leaves k Ly W^{n+1} = W^{n+1} - c X: the next step's G
        np.multiply(u, scale, out=douglas)
        _solve_y_system(W, *y_factor)
        np.subtract(u, douglas, out=douglas)
        np.multiply(douglas, next_share, out=douglas)

        # one row-wise pass serves both monitors of u: |u| <= cap and, as rounding
        # is monotone, min/max of u_tilde - u come from the row extremes
        row_max, row_min = u.max(axis=1), u.min(axis=1)
        for name, peak, cap in (("u", float(np.maximum(row_max.max(), -row_min.min())), u_cap),
                                ("u_tilde", float(np.abs(u_tilde).max()), tilde_cap)):
            if not peak <= cap:
                raise Instability(f"{name} left the amplitude bound at step {step} "
                                  f"(|{name}| = {peak:.3e})", monitor=name, tau=step * dt)
        price_min, price_max = (u_tilde - row_max).min(), (u_tilde - row_min).max()
        if not (band_lo <= price_min and price_max <= band_hi):
            raise Instability(
                f"price band violated at step {step}: "
                f"[{price_min:.3e}, {price_max:.3e}] vs [0, {spec.strike}]",
                monitor="band", tau=step * dt)
    return W


def price_surface(spec: ModelSpec, grid: Grid2D) -> PriceSurface:
    """Solve both value functions and form P = u_tilde - u at the grid's last step.

    Any monitor trip halves dt and restarts the march.  Each halving is
    logged at INFO level with the tripped monitor's message and the new
    step count.  After ``MAX_DT_RETRIES`` halvings, the last monitor's
    message, monitor and tau are raised again with that monitor's
    ``Instability`` as the cause.  The surface's P, written over u's
    columns, and u_tilde are views of the march's own array.  P at an
    earlier step k is the solve of ``replace(grid, n_steps=k)``, which
    halves dt on its own.
    """
    attempt_grid = grid
    # u starts at minus the payoff, one (nx,) row for every y; halving dt leaves x as it is
    U0 = -put_payoff(grid.x, spec.strike)
    for attempt in range(MAX_DT_RETRIES + 1):
        try:
            W = _march(spec, attempt_grid, U0)
        except Instability as exc:
            if attempt == MAX_DT_RETRIES:
                raise Instability(f"{exc} (still, after {attempt} dt halvings)",
                                  monitor=exc.monitor, tau=exc.tau) from exc
            attempt_grid = replace(attempt_grid, dt=attempt_grid.dt / 2.0,
                                   n_steps=attempt_grid.n_steps * 2)
            logger.info("%s; halving dt to %d steps", exc, attempt_grid.n_steps)
            continue
        # P in place of u, with the bits of W[:, -1] - W[:, :-1].T; W is this solve's own,
        # and W[:, :-1].T is C-contiguous
        np.subtract(W[:, -1:], W[:, :-1], out=W[:, :-1])
        return PriceSurface(grid=attempt_grid, u_tilde=W[:, -1], P=W[:, :-1].T,
                            tau=attempt_grid.tau_final)


@dataclass(frozen=True)
class SweepRow:
    """One epsilon of the asymptotic-accuracy sweep."""

    eps: float
    max_abs_error: float   # max over probes of |P_pde - (P0 + sqrt(eps) P1)|
    normalized: float      # max_abs_error / (-eps log eps)


def accuracy_sweep(spec: ModelSpec, eps_list: Sequence[float],
                   probe_points: Sequence[tuple[float, float, float]], *,
                   grid_factory=make_grid) -> list[SweepRow]:
    """Measure the corrected-asymptotics gap across a decreasing epsilon list.

    Probes are (tau, x, y) triples with tau >= 0; one that is not is a
    ``ValueError`` raised before any grid is built.  Each epsilon's grid
    runs to the latest probe's tau, and every grid is built before any
    probe is snapped to the time step and node nearest it
    (``_snap_probe``), so a probe more than half a cell outside a grid is
    a ``ConfigError`` raised before any march.  The asymptotic side is
    evaluated at the snapped coordinates so the comparison is node-exact.
    P at a snapped step is the solve of the grid's prefix to that step,
    one solve per distinct step.

    Every grid is built by ``grid_factory(spec_eps, tau_final)``, which is
    ``make_grid`` unless one is given, in this process, where it runs (it
    is never pickled), and so are the group constants.  Each epsilon's
    solves and gap are then one task of ``parallel_map``, the largest
    march (nx ny times the last probe step) first.  The rows come back in
    ``eps_list`` order; when marches fail, the error raised is the
    earliest failing epsilon's, as a loop would raise it.
    """
    if not probe_points:
        raise ValueError("need at least one probe point")
    for probe in probe_points:
        if not probe[0] >= 0.0:
            raise ValueError(f"probe {tuple(probe)} needs tau >= 0, got {probe[0]}")
    tau_final = max(p[0] for p in probe_points)
    specs = [spec.with_(epsilon=float(eps)) for eps in eps_list]
    grids = [grid_factory(s, tau_final) for s in specs]
    snapped = [(grid, [_snap_probe(p, grid, s.epsilon) for p in probe_points])
               for s, grid in zip(specs, grids)]
    gc = group_constants_for(spec)  # epsilon-independent
    tasks = [(s, grid, nodes, gc) for s, (grid, nodes) in zip(specs, snapped)]
    costs = [grid.x.size * grid.y.size * max(step for step, _, _ in nodes)
             for grid, nodes in snapped]
    return parallel_map(_sweep_member, tasks, costs)


def _sweep_member(task) -> SweepRow:
    """One epsilon's row of ``accuracy_sweep``, from (spec, grid, snapped probes, constants)."""
    spec, grid, nodes, gc = task
    prices = {step: price_surface(spec, replace(grid, n_steps=step)).P
              for step in {step for step, _, _ in nodes}}
    worst = 0.0
    for step, ix, jy in nodes:
        corrected = asymptotic_price(gc, spec, step * grid.dt, float(grid.x[ix])).corrected
        worst = max(worst, abs(float(prices[step][ix, jy]) - corrected))
    denom = -spec.epsilon * math.log(spec.epsilon)
    return SweepRow(eps=spec.epsilon, max_abs_error=worst,
                    normalized=worst / denom if denom > 0 else math.nan)


def parallel_map(fn, tasks: list, costs: Sequence[float] | None = None) -> list:
    """``[fn(t) for t in tasks]``, each call in a worker process when this process may use more
    than one CPU.

    There is one worker per CPU in the process's affinity set
    (``os.sched_getaffinity``, or ``os.cpu_count()`` where the platform
    lacks it), so ``taskset`` or a cpuset caps them, and at most one per
    task, started by the platform's default method.  With one, the calls
    run here, in order, and no pool starts.  Otherwise the tasks go to the
    pool in decreasing ``costs``, ties in order: the largest job first
    (Graham 1969, SIAM J. Appl. Math. 17).  Either way the results come back
    in task order, and a failure raises the exception of the earliest task
    that failed.  ``fn`` and the tasks must pickle.  ``logging`` records a
    worker emits, such as ``price_surface``'s halvings, go to the worker's
    own handlers: a forked worker inherits this process's, and a spawned
    one has none set up.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # here: it costs ~10 ms to import

    order = sorted(range(len(tasks)), key=lambda i: -costs[i]) if costs else range(len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {i: pool.submit(fn, tasks[i]) for i in order}
        return [futures[i].result() for i in range(len(tasks))]


def _snap_probe(probe, grid: Grid2D, eps: float) -> tuple[int, int, int]:
    """(step, ix, jy) of the time step and node nearest ``probe``; a probe more than
    half a cell outside the grid is a ``ConfigError``."""
    tau_p, x_p, y_p = probe
    ix, jy = (int(np.argmin(np.abs(nodes - v))) for nodes, v in ((grid.x, x_p), (grid.y, y_p)))
    if not (abs(grid.x[ix] - x_p) <= 0.5 * grid.dx and abs(grid.y[jy] - y_p) <= 0.5 * grid.dy):
        raise ConfigError(f"probe {tuple(probe)} lies outside the eps = {eps:g} grid: "
                          f"x in [{grid.x[0]:g}, {grid.x[-1]:g}], y in [{grid.y[0]:.6g}, {grid.y[-1]:.6g}]")
    return min(grid.n_steps, int(round(tau_p / grid.dt))), ix, jy

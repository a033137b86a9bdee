"""Semilinear pricing PDE solver and the asymptotic-accuracy harness.

The value functions u (payoff start) and u-tilde (zero start) march in
time-to-maturity under

    du/dtau = s1^2/2 u_xx + s2^2/(2 eps) u_yy + rho s1 s2 / sqrt(eps) u_xy
              + [ (m - y)/eps - (rho + eta sqrt(1-rho^2)) b s2 / (s1 sqrt(eps)) ] u_y
              - s1^2/2 u_x - b^2/(2 gamma s1^2)
              + gamma (1 - rho^2) s2^2 / (2 eps) (u_y)^2,

and the put price is P = u_tilde - u.  Discretization: central second
differences for the diffusions and the mixed term, first-order upwind for
every first-order term (the 1/eps drift makes central differencing
oscillatory).  Time stepping is a first-order IMEX Lie splitting: the
mixed term, the quadratic gradient term and the constant source step
explicitly, then one implicit tridiagonal pass in x and one in y.  Both
implicit passes are M-matrices, so the stiff drift costs nothing; a
frozen-coefficient von Neumann argument shows the implicit passes
dominate the explicit mixed term for any |rho| < 1, so the time step is
set by the quadratic term (through a running gradient bound), by
resolving the fast relaxation (dt <= eps/4), and by a baseline step
count.  The solver monitors NaNs, the amplitude bound, the gradient
bound and the price band, and halves dt when a monitor trips.

Per attempt, everything fixed during a solve is set up before the time
loop.  The x-system (every y-row stacked into one tridiagonal matrix) is
factored once with LAPACK dgttrf and each step solves it with dgttrs;
the 1-d march treats its y-system the same way.  The 2-d y-solve, one
matrix with nx right-hand sides, stays on scipy's solve_banded: a
factor-once multi-right-hand-side dgttrs measured slower (about 1.6-1.7
ms against 1.3 ms per step on 201 x 539).  The gradient monitor's
coefficient bounds and the explicit step's work arrays are made once per
solve, and the amplitude and price-band monitors share one row-wise
max/min pass over U per step.  None of this changes a bit of the output.

Boundary conditions (the continuum problem lives on the whole plane):
zero second x-derivative at the x-ends, which reproduces both payoff
branches, and zero flux in y, far enough out (6 stationary standard
deviations) that the boundary influence is negligible.

Since u-tilde is x-independent, its march collapses to one dimension in
y; an exponential substitution linearizes that equation exactly and is
kept as an independent oracle for the quadratic term.

``price_surface`` is the one entry point and always returns a
``PriceSurface``; P at the caller's grid steps named in ``snapshot_steps``
comes back in its ``snapshots`` dict, as in
``price_surface(spec, grid, snapshot_steps=[50]).snapshots[50]``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgttrf, dgttrs

from .asymptotics import asymptotic_price
from .errors import BadGrid, Instability
from .measure import build_invariant_measure
from .model import ModelSpec, probe_grid
from .poisson import group_constants_for

DEFAULT_NX = 601
DEFAULT_X_SPAN = (-3.0, 3.0)
MIN_NY = 201
MIN_STEPS = 200
SAFETY = 0.5
BAND_SLACK = 1e-6  # relative to strike; explicit mixed term is not exactly monotone
MAX_DT_RETRIES = 6  # dt halvings price_surface tries before it gives up

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor grid plus the time step."""

    x: np.ndarray
    y: np.ndarray
    dt: float
    n_steps: int

    def __post_init__(self):
        for name, nodes in (("x", self.x), ("y", self.y)):
            nodes = np.asarray(nodes, dtype=float)
            if nodes.ndim != 1 or nodes.size < 5:
                raise BadGrid(f"{name} grid needs at least 5 nodes")
            steps = np.diff(nodes)
            if not np.all(steps > 0) or not np.allclose(steps, steps[0], rtol=1e-9):
                raise BadGrid(f"{name} grid must be uniform and increasing")
            nodes.setflags(write=False)
            object.__setattr__(self, name, nodes)
        if self.n_steps < 0 or (self.n_steps > 0 and not self.dt > 0):
            raise BadGrid("need dt > 0 and n_steps >= 0")

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


def _coefficient_bounds(spec: ModelSpec) -> tuple[float, float, float]:
    ys = probe_grid(spec)
    s1 = np.asarray(spec.sigma1(ys))
    s2 = np.asarray(spec.sigma2(ys))
    return float(s1.max()), float(s2.min()), float(s2.max())


def _max_dy(spec: ModelSpec) -> float:
    _, s2_min, _ = _coefficient_bounds(spec)
    return math.sqrt(spec.epsilon) * s2_min / 4.0


def gradient_dt_bound(spec: ModelSpec, s2_max: float, dy: float, grad_max: float) -> float:
    """dt bound keeping the explicit quadratic-gradient step contractive.

    ``s2_max`` is the sup of sigma2 from ``_coefficient_bounds``, evaluated
    once per solve by the callers.
    """
    scale = spec.gamma * (1.0 - spec.rho ** 2) * s2_max ** 2 * max(grad_max, 1e-300)
    return spec.epsilon * dy / scale


def _gradient_tripped(spec: ModelSpec, s2_max: float, dt: float, dy: float,
                      grad_max: float) -> bool:
    """Gradient monitor: a non-finite |u_y| or a dt above the gradient bound."""
    return not math.isfinite(grad_max) or (
        grad_max > 0.0 and dt > gradient_dt_bound(spec, s2_max, dy, grad_max))


def make_grid(spec: ModelSpec, tau: float, *, nx: int = DEFAULT_NX,
              x_span: tuple[float, float] = DEFAULT_X_SPAN, ny: int | None = None,
              dt: float | None = None) -> Grid2D:
    """Build a grid satisfying the resolution precondition and the dt policy.

    The y-domain spans 6 stationary standard deviations each side of the
    mean level (stretched below when epsilon > 1) and the y-spacing
    resolves the boundary layer: dy <= sqrt(eps) * inf(sigma2) / 4.  A
    given ``dt`` must be finite and positive; it is shrunk to divide tau.
    ``tau`` must be finite and >= 0; tau = 0 gives the payoff grid (no steps).
    """
    if not (math.isfinite(tau) and tau >= 0.0):
        raise BadGrid(f"tau must be finite and >= 0, got {tau}")
    if dt is not None and not (math.isfinite(dt) and dt > 0.0):
        raise BadGrid(f"dt must be finite and > 0, got {dt}")
    eps = spec.epsilon
    measure = build_invariant_measure(spec)
    std = measure.std()
    y_lo = spec.m - 6.0 * std * max(1.0, math.sqrt(eps))
    y_hi = spec.m + 6.0 * std
    dy_cap = _max_dy(spec)
    ny_required = max(MIN_NY, int(math.ceil((y_hi - y_lo) / dy_cap)) + 1)
    if ny is None:
        ny = ny_required
    elif ny < ny_required:
        raise BadGrid(f"ny = {ny} too coarse: boundary layer needs at least {ny_required} nodes")
    if ny % 2 == 0:
        ny += 1  # keep the mean level on a node for symmetric domains

    x = np.linspace(x_span[0], x_span[1], nx)
    y = np.linspace(y_lo, y_hi, ny)
    dy = float(y[1] - y[0])
    dx = float(x[1] - x[0])

    if tau == 0.0:
        return Grid2D(x=x, y=y, dt=1.0, n_steps=0)
    if dt is None:
        s1_max, _, s2_max = _coefficient_bounds(spec)
        gmax0 = 0.05 * spec.strike * math.sqrt(eps)  # estimate of max |u_y|
        candidates = [
            gradient_dt_bound(spec, s2_max, dy, gmax0),
            0.25 * eps,            # resolve the fast relaxation
            tau / MIN_STEPS,       # baseline time resolution
        ]
        if abs(spec.rho) > 0.95:
            # near-degenerate correlation: fall back to the raw explicit
            # bound on the mixed term rather than trusting the implicit damping
            candidates.append(math.sqrt(eps) * dx * dy / (2.0 * abs(spec.rho) * s1_max * s2_max))
        dt = SAFETY * min(candidates)
    n_steps = max(1, int(math.ceil(tau / dt)))
    return Grid2D(x=x, y=y, dt=tau / n_steps, n_steps=n_steps)


def _upwind_tridiag(diffusion, drift, dt, h, shape):
    """(I - dt L) coefficients for L = diffusion d2 + drift d1 with upwind d1.

    Returns new (sub, diag, sup) arrays of the given shape (per-node
    coefficients on u_{k-1}, u_k, u_{k+1} along the last axis); boundary
    folding is done by the callers.
    """
    diffusion = np.broadcast_to(np.asarray(diffusion, dtype=float), shape)
    drift = np.broadcast_to(np.asarray(drift, dtype=float), shape)
    d_plus = np.maximum(drift, 0.0)
    d_minus = np.minimum(drift, 0.0)
    sub = -dt * (diffusion / h ** 2 - d_minus / h)
    diag = 1.0 + dt * (2.0 * diffusion / h ** 2 + np.abs(drift) / h)
    sup = -dt * (diffusion / h ** 2 + d_plus / h)
    return sub, diag, sup


def _banded(sub, diag, sup) -> np.ndarray:
    ab = np.zeros((3, diag.size))
    ab[0, 1:] = sup[:-1]
    ab[1, :] = diag
    ab[2, :-1] = sub[1:]
    return ab


def _factor(ab: np.ndarray) -> tuple:
    """LU factors of a banded tridiagonal matrix, for repeated solves with ``dgttrs``."""
    *lu, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info != 0:
        raise Instability(f"implicit system is singular at row {info}")
    return tuple(lu)


class _Coefficients:
    """Nodal PDE coefficients on the y-grid."""

    def __init__(self, spec: ModelSpec, y: np.ndarray):
        eps = spec.epsilon
        s1 = np.asarray(spec.sigma1(y))
        s2 = np.asarray(spec.sigma2(y))
        b = np.asarray(spec.b(y))
        prefactor = spec.rho + spec.eta * math.sqrt(1.0 - spec.rho ** 2)
        self.x_diffusion = 0.5 * s1 ** 2
        self.x_drift = -0.5 * s1 ** 2
        self.y_diffusion = s2 ** 2 / (2.0 * eps)
        self.y_drift = (spec.m - y) / eps - prefactor * b * s2 / (s1 * math.sqrt(eps))
        self.mixed = spec.rho * s1 * s2 / math.sqrt(eps)
        self.quad = spec.gamma * (1.0 - spec.rho ** 2) * s2 ** 2 / (2.0 * eps)
        self.source = -(b ** 2) / (2.0 * spec.gamma * s1 ** 2)


def _build_x_system(coeffs: _Coefficients, dt: float, dx: float, nx: int, ny: int) -> np.ndarray:
    """Banded (I - dt Lx) over all y-rows at once, interior x unknowns.

    Per y-row the matrix is tridiagonal in x; concatenating rows keeps it
    tridiagonal because the zero-curvature boundary condition is folded
    into the first and last interior rows (u_0 = 2u_1 - u_2 and its
    mirror), which also decouples the blocks.
    """
    sub, diag, sup = _upwind_tridiag(coeffs.x_diffusion[:, None], coeffs.x_drift[:, None],
                                     dt, dx, (ny, nx - 2))
    diag[:, 0] += 2.0 * sub[:, 0]
    sup[:, 0] -= sub[:, 0]
    diag[:, -1] += 2.0 * sup[:, -1]
    sub[:, -1] -= sup[:, -1]
    sub[:, 0] = 0.0
    sup[:, -1] = 0.0
    return _banded(sub.ravel(), diag.ravel(), sup.ravel())


def _build_y_system(coeffs: _Coefficients, dt: float, dy: float, ny: int,
                    reaction: np.ndarray | None = None) -> np.ndarray:
    """Banded (I - dt Ly) with zero-flux ends (ghost mirror folded in)."""
    sub, diag, sup = _upwind_tridiag(coeffs.y_diffusion, coeffs.y_drift, dt, dy, (ny,))
    if reaction is not None:
        diag -= dt * reaction
    sup[0] += sub[0]
    sub[-1] += sup[-1]
    sub[0] = 0.0
    sup[-1] = 0.0
    return _banded(sub, diag, sup)


def _central_y(U: np.ndarray, dy: float, out: np.ndarray) -> np.ndarray:
    """Central y-derivative with zero-flux ends into ``out``; 1-d or 2-d arrays."""
    out[0] = 0.0
    out[-1] = 0.0
    np.subtract(U[2:], U[:-2], out=out[1:-1])
    np.divide(out[1:-1], 2.0 * dy, out=out[1:-1])
    return out


def _mixed_xy(U: np.ndarray, dx: float, dy: float, ux: np.ndarray, out: np.ndarray) -> np.ndarray:
    """d2/dxdy into ``out``: central inside, one-sided in x at the ends, zero at y-ends.

    ``ux`` is scratch space that receives the x-derivative.
    """
    np.subtract(U[:, 2:], U[:, :-2], out=ux[:, 1:-1])
    np.divide(ux[:, 1:-1], 2.0 * dx, out=ux[:, 1:-1])
    np.subtract(U[:, 1], U[:, 0], out=ux[:, 0])
    np.divide(ux[:, 0], dx, out=ux[:, 0])
    np.subtract(U[:, -1], U[:, -2], out=ux[:, -1])
    np.divide(ux[:, -1], dx, out=ux[:, -1])
    return _central_y(ux, dy, out)


def payoff_initial(spec: ModelSpec, grid: Grid2D) -> np.ndarray:
    """Negative put payoff on the grid, shape (ny, nx)."""
    pay = np.maximum(spec.strike - spec.strike * np.exp(grid.x), 0.0)
    return np.tile(-pay, (grid.y.size, 1))


def apply_discrete_operator(spec: ModelSpec, grid: Grid2D, U: np.ndarray,
                            parts: str = "all") -> np.ndarray:
    """Apply the scheme's spatial operator to nodal values U (shape ny, nx).

    Returns the full operator by default; ``parts`` may restrict it to the
    "centered" pieces (diffusions and mixed term, second-order stencils)
    or the "upwind" first-order advection pieces.  Values are only
    meaningful on interior nodes.  Used by the consistency tests.
    """
    coeffs = _Coefficients(spec, grid.y)
    dx, dy = grid.dx, grid.dy
    out = np.zeros_like(U)
    inner = (slice(1, -1), slice(1, -1))
    if parts in ("all", "centered"):
        uxx = (U[:, 2:] - 2.0 * U[:, 1:-1] + U[:, :-2])[1:-1] / dx ** 2
        uyy = (U[2:] - 2.0 * U[1:-1] + U[:-2])[:, 1:-1] / dy ** 2
        uxy = (U[2:, 2:] - U[2:, :-2] - U[:-2, 2:] + U[:-2, :-2]) / (4.0 * dx * dy)
        u_y = (U[2:] - U[:-2])[:, 1:-1] / (2.0 * dy)
        c = coeffs
        out[inner] += (c.x_diffusion[1:-1, None] * uxx + c.y_diffusion[1:-1, None] * uyy
                       + c.mixed[1:-1, None] * uxy + c.quad[1:-1, None] * u_y ** 2
                       + c.source[1:-1, None])
    if parts in ("all", "upwind"):
        dxp = np.maximum(coeffs.x_drift, 0.0)[1:-1, None]
        dxm = np.minimum(coeffs.x_drift, 0.0)[1:-1, None]
        fwd_x = (U[:, 2:] - U[:, 1:-1])[1:-1] / dx
        bwd_x = (U[:, 1:-1] - U[:, :-2])[1:-1] / dx
        dyp = np.maximum(coeffs.y_drift, 0.0)[1:-1, None]
        dym = np.minimum(coeffs.y_drift, 0.0)[1:-1, None]
        fwd_y = (U[2:] - U[1:-1])[:, 1:-1] / dy
        bwd_y = (U[1:-1] - U[:-2])[:, 1:-1] / dy
        out[inner] += dxp * fwd_x + dxm * bwd_x + dyp * fwd_y + dym * bwd_y
    return out


def _march_2d(spec: ModelSpec, grid: Grid2D, U0: np.ndarray,
              snapshot_steps: Iterable[int] = (),
              u_tilde_steps: np.ndarray | None = None) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Core 2-d IMEX march; returns terminal U (ny, nx) and requested snapshots.

    When ``u_tilde_steps`` (shape (n_steps + 1, ny)) is given, the price
    band 0 <= u_tilde - u <= K is monitored every step.  Everything fixed
    during the solve (the x-factorization, the coefficient bounds, the
    work arrays) is set up once before the time loop.
    """
    coeffs = _Coefficients(spec, grid.y)
    dt, dx, dy = grid.dt, grid.dx, grid.dy
    nx, ny = grid.x.size, grid.y.size
    lu_x = _factor(_build_x_system(coeffs, dt, dx, nx, ny))
    ab_y = _build_y_system(coeffs, dt, dy, ny)
    _, _, s2_max = _coefficient_bounds(spec)
    mixed, quad, source = coeffs.mixed[:, None], coeffs.quad[:, None], coeffs.source[:, None]

    amplitude_cap = (np.abs(U0).max() + grid.tau_final * np.abs(coeffs.source).max()) * 1.5 + spec.strike
    slack = BAND_SLACK * spec.strike
    wanted = set(snapshot_steps)
    snapshots: dict[int, np.ndarray] = {}
    U = np.array(U0, order="F")  # y-columns contiguous: the y-solve works in place
    if 0 in wanted:
        snapshots[0] = U.copy()
    u_y = np.empty_like(U)
    u_x = np.empty_like(U)
    work = np.empty_like(U)
    rhs = np.empty((ny, nx - 2))  # x-solve right-hand side, one contiguous block per y-row
    rhs_flat = rhs.reshape(-1)

    for step in range(1, grid.n_steps + 1):
        _central_y(U, dy, u_y)
        grad_max = float(np.abs(u_y, out=work).max())
        if _gradient_tripped(spec, s2_max, dt, dy, grad_max):
            raise Instability(
                f"dt {dt:.3e} exceeds the gradient bound at step {step} (|u_y| = {grad_max:.3e})"
            )
        # U += dt * (mixed u_xy + quad u_y^2 + source), in that expression's order
        explicit = np.multiply(mixed, _mixed_xy(U, dx, dy, u_x, work), out=work)
        quad_term = np.multiply(quad, np.square(u_y, out=u_x), out=u_x)
        np.add(explicit, quad_term, out=explicit)
        np.add(explicit, source, out=explicit)
        np.multiply(explicit, dt, out=explicit)
        np.add(U, explicit, out=U)

        np.copyto(rhs, U[:, 1:-1])
        dgttrs(*lu_x, rhs_flat, overwrite_b=True)  # in place: rhs_flat is contiguous
        U[:, 1:-1] = rhs
        U[:, 0] = 2.0 * U[:, 1] - U[:, 2]
        U[:, -1] = 2.0 * U[:, -2] - U[:, -3]

        U = solve_banded((1, 1), ab_y, U, overwrite_b=True, check_finite=False)

        # one row-wise pass serves both monitors: |U| <= cap and, as rounding
        # is monotone, min/max of u_tilde - U come from the row extremes
        row_max, row_min = U.max(axis=1), U.min(axis=1)
        peak = float(np.maximum(row_max.max(), -row_min.min()))
        if not np.isfinite(peak) or peak > amplitude_cap:
            raise Instability(f"solution left the amplitude bound at step {step} (|u| = {peak:.3e})")
        if u_tilde_steps is not None:
            ut = u_tilde_steps[step]
            price_min, price_max = (ut - row_max).min(), (ut - row_min).max()
            if price_min < -slack or price_max > spec.strike + slack:
                raise Instability(
                    f"price band violated at step {step}: "
                    f"[{price_min:.3e}, {price_max:.3e}] vs [0, {spec.strike}]"
                )
        if step in wanted:
            snapshots[step] = U.copy()
    return U, snapshots


def _march_1d(spec: ModelSpec, grid: Grid2D) -> np.ndarray:
    """March the x-independent value function; returns all steps, shape (n_steps + 1, ny)."""
    coeffs = _Coefficients(spec, grid.y)
    dt, dy = grid.dt, grid.dy
    ny = grid.y.size
    lu_y = _factor(_build_y_system(coeffs, dt, dy, ny))
    _, _, s2_max = _coefficient_bounds(spec)
    amplitude_cap = grid.tau_final * np.abs(coeffs.source).max() * 1.5 + spec.strike

    v = np.zeros(ny)
    v_y = np.empty(ny)
    all_steps = np.zeros((grid.n_steps + 1, ny))
    for step in range(1, grid.n_steps + 1):
        _central_y(v, dy, v_y)
        grad_max = float(np.abs(v_y).max())
        if _gradient_tripped(spec, s2_max, dt, dy, grad_max):
            raise Instability(f"dt {dt:.3e} exceeds the gradient bound in the 1-d march at step {step}")
        v += dt * (coeffs.quad * v_y ** 2 + coeffs.source)
        dgttrs(*lu_y, v, overwrite_b=True)
        peak = float(np.abs(v).max())
        if not np.isfinite(peak) or peak > amplitude_cap:
            raise Instability(f"1-d march left the amplitude bound at step {step}")
        all_steps[step] = v
    return all_steps


def price_surface(spec: ModelSpec, grid: Grid2D, *,
                  snapshot_steps: Iterable[int] = ()) -> PriceSurface:
    """Solve both value functions and form P = u_tilde - u on the grid.

    The x-independent function is marched first and kept at every step so
    the 2-d march can monitor the price band as it goes; any monitor trip
    halves dt and restarts both marches.  Each halving is logged at INFO
    level with the tripped monitor's message and the new step count.  After
    ``MAX_DT_RETRIES`` halvings, the last monitor's message is raised again
    with that monitor's ``Instability`` as the cause.  P at each of
    ``snapshot_steps``, steps of ``grid`` in 0..n_steps, lands in ``snapshots``.
    """
    cap = _max_dy(spec)
    if grid.dy > cap * (1.0 + 1e-9):
        raise BadGrid(f"y spacing {grid.dy:.3e} exceeds the boundary-layer cap {cap:.3e}")
    steps = tuple(snapshot_steps)
    for s in steps:
        if not 0 <= s <= grid.n_steps:
            raise BadGrid(f"snapshot step {s} is outside the grid's steps 0..{grid.n_steps}")
    attempt_grid = grid
    for attempt in range(MAX_DT_RETRIES + 1):
        factor = attempt_grid.n_steps // grid.n_steps if grid.n_steps else 1
        try:
            tilde_steps = _march_1d(spec, attempt_grid)
            U, u_snaps = _march_2d(spec, attempt_grid, payoff_initial(spec, attempt_grid),
                                   snapshot_steps=[s * factor for s in steps],
                                   u_tilde_steps=tilde_steps)
        except Instability as exc:
            if attempt == MAX_DT_RETRIES:
                raise Instability(f"{exc} (still, after {attempt} dt halvings)") from exc
            attempt_grid = attempt_grid.with_halved_dt()
            logger.info("%s; halving dt to %d steps", exc, attempt_grid.n_steps)
            continue
        u_tilde = tilde_steps[-1].copy()  # the surface must not keep every step alive
        snapshots = {s: tilde_steps[s * factor][None, :] - u_snaps[s * factor].T for s in steps}
        return PriceSurface(grid=attempt_grid, u=U.T.copy(), u_tilde=u_tilde,
                            P=u_tilde[None, :] - U.T, tau=attempt_grid.tau_final,
                            snapshots=snapshots)


def solve_u_tilde_cole_hopf(spec: ModelSpec, grid: Grid2D) -> np.ndarray:
    """Oracle for the 1-d march: exponential substitution linearizes it.

    With w = exp(lambda u) and lambda = gamma (1 - rho^2), the quadratic
    gradient term cancels exactly and w satisfies a linear PDE with
    reaction lambda * source; marching w implicitly and taking log(w) /
    lambda recovers u_tilde through entirely different nonlinear algebra.
    """
    coeffs = _Coefficients(spec, grid.y)
    lam = spec.gamma * (1.0 - spec.rho ** 2)
    ab = _build_y_system(coeffs, grid.dt, grid.dy, grid.y.size, reaction=lam * coeffs.source)
    w = np.ones(grid.y.size)
    for _ in range(grid.n_steps):
        w = solve_banded((1, 1), ab, w)
        if w.min() <= 0.0 or not np.all(np.isfinite(w)):
            raise Instability("exponential-substitution march lost positivity")
    return np.log(w) / lam


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

    Probes are (tau, x, y) triples, snapped to the nearest node and time
    step of each epsilon's grid; the asymptotic side is evaluated at the
    snapped coordinates so the comparison is node-exact.
    """
    if not probe_points:
        raise ValueError("need at least one probe point")
    gc = group_constants_for(spec)  # epsilon-independent
    tau_final = max(p[0] for p in probe_points)
    rows = []
    for eps in eps_list:
        spec_eps = spec.with_(epsilon=float(eps))
        grid = grid_factory(spec_eps, tau_final) if grid_factory else make_grid(spec_eps, tau_final)
        steps = sorted({_snap_step(p[0], grid) for p in probe_points})
        snapshots = price_surface(spec_eps, grid, snapshot_steps=steps).snapshots
        worst = 0.0
        for tau_p, x_p, y_p in probe_points:
            step = _snap_step(tau_p, grid)
            ix = int(np.argmin(np.abs(grid.x - x_p)))
            jy = int(np.argmin(np.abs(grid.y - y_p)))
            p_num = float(snapshots[step][ix, jy])
            corrected = asymptotic_price(gc, spec_eps, step * grid.dt, float(grid.x[ix])).corrected
            worst = max(worst, abs(p_num - corrected))
        denom = -eps * math.log(eps)
        rows.append(SweepRow(eps=float(eps), max_abs_error=worst,
                             normalized=worst / denom if denom > 0 else math.nan))
    return rows


def _snap_step(tau: float, grid: Grid2D) -> int:
    return max(0, min(grid.n_steps, int(round(tau / grid.dt))))

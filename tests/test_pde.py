import logging
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrs

from conftest import random_valid_spec
from volclust import pde
from volclust.bs import bs_put
from volclust.errors import BadGrid, ConfigError, Instability, NumericalError
from volclust.model import Constant, ModelSpec, arctangent_model
from volclust.pde import (Grid2D, _march, accuracy_sweep, make_grid, payoff_initial,
                          price_surface, solve_u_tilde_cole_hopf)

DATA = Path(__file__).parent / "data"
GOLDEN = ("P", "u_tilde")  # fields of the nx=41 surface pinned under DATA


def _golden_surface(spec):
    return price_surface(spec, make_grid(spec, 0.25, nx=41))


@pytest.fixture(scope="module")
def bs_degenerate_spec():
    """sigma1 constant and b = 0: the pricing PDE collapses to Black-Scholes."""
    return ModelSpec(b=Constant(0.0), sigma1=Constant(0.2), sigma2=Constant(0.2),
                     m=0.0, rho=-0.2, eta=0.3, gamma=1.0, epsilon=1.0,
                     strike=100.0, maturity=0.5)


@pytest.fixture(scope="module")
def fast_spec():
    """Demo coefficients at a cheap epsilon for solver behavior tests."""
    return arctangent_model(epsilon=0.04)


def test_make_grid_respects_boundary_layer(fast_spec):
    grid = make_grid(fast_spec, 0.25)
    assert grid.dy <= math.sqrt(fast_spec.epsilon) * 0.2 / 4 * (1 + 1e-12)
    assert grid.n_steps * grid.dt == pytest.approx(0.25)
    with pytest.raises(BadGrid):
        make_grid(fast_spec, 0.25, ny=11)


def test_a_coarse_ny_is_rejected_naming_the_bound_that_binds(fast_spec):
    """At eps = 0.04 the MIN_NY floor binds and a grid of 181 y-nodes meets the dy cap;
    at the demo's eps = 0.004 the dy cap binds."""
    with pytest.raises(BadGrid) as info:
        make_grid(fast_spec, 0.25, nx=41, ny=181)
    assert str(info.value) == "ny = 181 too coarse: the MIN_NY floor needs at least 201 nodes"
    grid = make_grid(fast_spec, 0.25, nx=41)
    grid = replace(grid, y=np.linspace(grid.y[0], grid.y[-1], 181))
    assert price_surface(fast_spec, grid).grid.n_steps == grid.n_steps  # no halving either
    with pytest.raises(BadGrid) as info:
        make_grid(arctangent_model(), 0.25, nx=41, ny=537)
    assert str(info.value) == ("ny = 537 too coarse: the boundary-layer dy cap needs at least "
                               "538 nodes")


def test_price_surface_rejects_a_hand_built_grid_above_the_dy_cap(fast_spec, monkeypatch):
    """dy > sqrt(eps) inf sigma2 / 4 is a BadGrid naming both spacings, before any step."""
    def no_step(*args):
        raise AssertionError("the march stepped before checking dy")

    monkeypatch.setattr(pde, "_y_diff", no_step)
    grid = make_grid(fast_spec, 0.25, nx=21)
    coarse = replace(grid, y=grid.y[::2])
    cap = math.sqrt(fast_spec.epsilon) * 0.2 / 4
    assert coarse.dy > cap
    with pytest.raises(BadGrid) as info:
        price_surface(fast_spec, coarse)
    assert str(info.value) == f"y spacing {coarse.dy:.3e} exceeds the boundary-layer cap {cap:.3e}"


@pytest.mark.parametrize("rho", [-0.95, -0.96, -0.99, 0.99, -0.999])
def test_near_degenerate_correlation_keeps_the_relaxation_step(rho):
    """No dt candidate depends on rho: the demo takes the dt rule's 80 steps up to |rho| -> 1."""
    assert make_grid(arctangent_model().with_(rho=rho), 0.25, nx=201).n_steps == 80


def test_near_degenerate_correlation_solves_at_the_relaxation_step(caplog):
    """At rho = +-0.99 the demo takes 80 steps with no halving, stays in the band, and
    its dt against dt/4 gap is at most 2e-4 (K = 100), 7e-5 at the demo's own rho.

    The mixed term's time error grows with |rho|, so the bounds are absolute."""
    def time_gap(spec):
        grid = make_grid(spec, 0.25, nx=201)
        with caplog.at_level(logging.INFO, logger="volclust.pde"):
            surface = price_surface(spec, grid)
        assert [r for r in caplog.records if r.name == "volclust.pde"] == []
        assert surface.grid.n_steps == 80
        assert -1e-6 * spec.strike <= surface.P.min() <= surface.P.max() <= spec.strike
        finer = price_surface(spec, make_grid(spec, 0.25, nx=201, dt=grid.dt / 4))
        return np.abs(surface.P - finer.P).max()

    demo = arctangent_model()
    assert time_gap(demo) <= 7e-5
    for rho in (-0.99, 0.99):
        assert time_gap(demo.with_(rho=rho)) <= 2e-4


def _max_amplification(spec: ModelSpec, grid: Grid2D, g: float) -> float:
    """max |xi| of a linear BDF2 step at frozen gradient ``g``, at each y-node, over 65 x 65 wave numbers.

    For the mode exp(i (k thx + j thy)) the mixed term is m = mixed (2i sin thx)(2i sin thy),
    from the raw differences its weight multiplies; the quadratic term linearised about
    u_y = g is e = beta dt 2 q g i sin thy / dy, from the central u_y; and each implicit
    pass at beta dt is a = 1 - beta dt (sub e^-i th + diag + sup e^i th), from its
    ``_stencil``.  With M and Q extrapolated and the Douglas term c = (1 - ax)(1 - ay), a
    step amplifies by a root xi of

        ax ay xi^2 - (4/3 + c + 2 beta m + 2 e) xi + (1/3 + beta m + e) = 0;

    both roots are taken, the larger in magnitude from the quadratic formula and the other
    as their product over it.
    """
    coeffs = pde._Coefficients(spec, grid.y)
    beta, beta_dt = pde.BDF2_BETA, pde.BDF2_BETA * grid.dt
    mixed = pde._explicit_weights(coeffs, grid.dt, grid.dx, grid.dy)[0][:, 0]
    theta = np.linspace(-np.pi, np.pi, 65)
    shift = np.exp(1j * theta)

    def implicit(diffusion, drift, h):
        sub, diag, sup = pde._stencil(diffusion[:, None], drift[:, None], h)
        return 1.0 - beta_dt * (sub / shift + diag + sup * shift)  # (ny, 65)

    ix = implicit(coeffs.x_diffusion, coeffs.x_drift, grid.dx)
    iy = implicit(coeffs.y_diffusion, coeffs.y_drift, grid.dy)
    diff = 2j * np.sin(theta)
    e = beta_dt * 2.0 * coeffs.quad * g / (2.0 * grid.dy)  # times the raw difference diff
    worst = 0.0
    for m, ej, gx, gy in zip(mixed, e, ix, iy):
        a = np.outer(gx, gy)
        bm_e = beta * m * np.outer(diff, diff) + ej * diff[None, :]
        b = 4.0 / 3.0 + (1.0 - gx)[:, None] * (1.0 - gy)[None, :] + 2.0 * bm_e
        const = 1.0 / 3.0 + bm_e
        root = np.sqrt(b * b - 4.0 * a * const)
        big = np.where(np.abs(b + root) >= np.abs(b - root), b + root, b - root)
        worst = max(worst, float(np.abs(big / (2.0 * a)).max()),
                    float(np.abs(2.0 * const / big).max()))
    return worst


def _gradient_cap(spec: ModelSpec, grid: Grid2D) -> float:
    return pde._gradient_cap(spec, pde._coefficient_bounds(spec)[1], grid.dt)


def test_implicit_passes_dominate_the_explicit_mixed_term_up_to_rho_one():
    """Both roots of the BDF2 step have |xi| <= 1 up to |rho| = 0.999 at the gradient cap: the
    bound that lets make_grid's dt ignore rho, checked at 1x and 64x its dt on two x-spacings."""
    rng = np.random.default_rng(18)
    models = [arctangent_model()] + [random_valid_spec(rng) for _ in range(3)]
    for spec in (model.with_(rho=rho) for model in models for rho in (-0.999, 0.999)):
        for nx in (41, 601):
            grid = make_grid(spec, 0.25, nx=nx)
            for scale in (1, 64):
                scaled = replace(grid, dt=grid.dt * scale)
                assert _max_amplification(spec, scaled, _gradient_cap(spec, scaled)) <= 1 + 1e-10


@pytest.mark.parametrize("eps, rho, unstable", [(0.004, -0.2, 3.0), (0.004, -0.7, 5.0),
                                                 (0.04, -0.2, 2.0)])
def test_gradient_cap_lies_below_the_symbol_limit(eps, rho, unstable):
    """On skew3's grid at the dt rule's step, the largest frozen gradient with both roots in
    |xi| <= 1 lies between the cap and ``unstable`` times it: 2.5, 4.8 and 1.5 times the cap
    here, so at eps = 0.04 the cap's factor 1/2 is needed."""
    spec = arctangent_model(epsilon=eps).with_(rho=rho)
    grid = make_grid(spec, 0.25, nx=201, x_span=(-1.0, 1.0))
    cap = _gradient_cap(spec, grid)
    assert _max_amplification(spec, grid, cap) <= 1 + 1e-10 < _max_amplification(
        spec, grid, unstable * cap)


@pytest.mark.parametrize("eps, tau, binding, n_steps", [
    (0.0025, 0.25, "relaxation", 100), (0.04, 0.25, "baseline", 80)])
def test_each_dt_candidate_binds_somewhere(eps, tau, binding, n_steps):
    """dt is the lesser of two candidates, and each is the lesser somewhere."""
    spec = arctangent_model(epsilon=eps)
    grid = make_grid(spec, tau, nx=41)
    candidates = {"relaxation": eps, "baseline": tau / pde.MIN_STEPS}
    assert min(candidates, key=candidates.get) == binding
    assert grid.n_steps == math.ceil(tau / candidates[binding]) == n_steps


def test_grid_validation():
    nodes = np.linspace(0, 1, 5)
    with pytest.raises(BadGrid):
        Grid2D(x=np.array([0.0, 1.0, 3.0, 4.0, 5.0]), y=nodes, dt=0.1, n_steps=1)
    for dt, n_steps in ((-0.1, 1), (math.inf, 1), (math.nan, 1), (0.1, 2.5), (0.0, 0), (-0.1, 0)):
        with pytest.raises(BadGrid):  # a ConfigError: exit code 2, not a march's 3
            Grid2D(x=nodes, y=nodes, dt=dt, n_steps=n_steps)


def test_degenerate_black_scholes(bs_degenerate_spec):
    spec = bs_degenerate_spec
    grid = make_grid(spec, 0.5)
    surface = price_surface(spec, grid)
    interior = np.abs(grid.x) <= 2.0
    worst = 0.0
    for i in np.where(interior)[0][::10]:
        ref = bs_put(0.5, float(grid.x[i]), spec.strike, 0.2)
        worst = max(worst, np.abs(surface.P[i, :] - ref).max())
    assert worst < 2e-3 * spec.strike
    assert np.abs(surface.u_tilde).max() == 0.0  # b = 0 keeps the zero start at zero


def test_zero_initial_is_fixed_point_without_drift(fast_spec):
    spec = fast_spec.with_(b=Constant(0.0))
    grid = make_grid(spec, 0.25, nx=61)
    W, _ = _march(spec, grid, payoff_initial(spec, grid))
    assert np.abs(W[:, -1]).max() == 0.0  # u_tilde, the zero start


def test_price_is_payoff_at_tau_zero(fast_spec):
    grid = make_grid(fast_spec, 0.0, nx=61)
    surface = price_surface(fast_spec, grid)
    payoff = np.maximum(100 - 100 * np.exp(grid.x), 0.0)
    assert np.array_equal(surface.P, np.tile(payoff[:, None], (1, grid.y.size)))


@pytest.mark.parametrize("nx", [601, 2401])
def test_tau_zero_on_the_demo_is_the_payoff_without_a_halving(nx, caplog):
    """A grid of no steps sets up nothing from its placeholder dt, so it never halves it."""
    spec = arctangent_model()
    grid = make_grid(spec, 0.0, nx=nx)
    with caplog.at_level(logging.INFO, logger="volclust.pde"):
        surface = price_surface(spec, grid, snapshot_steps=[0])
    assert [r for r in caplog.records if r.name == "volclust.pde"] == []
    assert surface.grid is grid
    payoff = np.tile(np.maximum(100 - 100 * np.exp(grid.x), 0.0)[:, None], (1, grid.y.size))
    assert surface.P.tobytes() == surface.snapshots[0].tobytes() == payoff.tobytes()


def test_price_band(fast_spec):
    grid = make_grid(fast_spec, 0.25, nx=121)
    surface = price_surface(fast_spec, grid)
    assert surface.P.min() >= -1e-6 * fast_spec.strike
    assert surface.P.max() <= fast_spec.strike * (1 + 1e-6)


def test_u_tilde_is_x_independent_on_full_grid(fast_spec):
    """u from a zero start marches on the full grid; every x-column equals u_tilde's column."""
    grid = make_grid(fast_spec, 0.25, nx=61)
    W, _ = _march(fast_spec, grid, np.zeros((grid.y.size, grid.x.size)))
    assert np.abs(W[:, -1]).max() > 0.1  # b != 0: u_tilde moves off zero
    assert np.abs(W[:, :-1] - W[:, -1:]).max() < 1e-12


def test_ordered_initial_data_stay_ordered(fast_spec):
    grid = make_grid(fast_spec, 0.25, nx=101, dt=0.25 / 100)
    every_tenth = range(0, grid.n_steps + 1, 10)
    _, hist_pay = _march(fast_spec, grid, payoff_initial(fast_spec, grid),
                         snapshot_steps=every_tenth)
    _, hist_zero = _march(fast_spec, grid, np.zeros((grid.y.size, grid.x.size)),
                          snapshot_steps=every_tenth)
    assert sorted(hist_pay) == sorted(hist_zero) == list(every_tenth)
    # the snapshots hold P = u_tilde - u with one u_tilde, so P_pay - P_zero = u_zero - u_pay
    worst = min(float((hist_pay[k] - hist_zero[k]).min()) for k in every_tenth)
    assert worst > -1e-9 * fast_spec.strike


def test_cole_hopf_oracle_for_u_tilde(fast_spec):
    spec = fast_spec.with_(eta=0.15)
    gaps = []
    for n_steps in (100, 400):
        grid = make_grid(spec, 0.25, nx=61, dt=0.25 / n_steps)
        u_tilde = _march(spec, grid, payoff_initial(spec, grid))[0][:, -1]
        gaps.append(np.abs(u_tilde - solve_u_tilde_cole_hopf(spec, grid)).max())
    assert gaps[1] < 5e-3              # both converge to the same function
    assert gaps[0] / gaps[1] > 2.5     # gap shrinks ~first order in dt


def test_self_convergence_under_halving(fast_spec):
    coarse = make_grid(fast_spec, 0.25, nx=151, dt=0.25 / 100)
    ny_fine = 2 * (coarse.y.size - 1) + 1
    fine = make_grid(fast_spec, 0.25, nx=301, ny=ny_fine, dt=0.25 / 200)
    s_coarse = price_surface(fast_spec, coarse)
    s_fine = price_surface(fast_spec, fine)
    # node-aligned probes: coarse (i, j) lands on fine (2i, 2j)
    for i, j in ((75, 100), (90, 80), (60, 120), (100, 100)):
        diff = abs(s_coarse.P[i, j] - s_fine.P[2 * i, 2 * j])
        assert diff < 1e-3 * fast_spec.strike


@pytest.mark.parametrize("rho", [-0.2, -0.7])
def test_second_order_convergence_in_time(fast_spec, rho):
    spec = fast_spec.with_(rho=rho)
    surfaces = {}
    for n_steps in (50, 100, 200):
        grid = make_grid(spec, 0.25, nx=121, dt=0.25 / n_steps)
        surfaces[n_steps] = price_surface(spec, grid).P
    d1 = np.abs(surfaces[50] - surfaces[100]).max()
    d2 = np.abs(surfaces[100] - surfaces[200]).max()
    assert math.log2(d1 / d2) >= 1.9


def _dense_step(spec, grid, step_dt, rhs):
    """W with (I - step_dt Lx)(I - step_dt Ly) W = ``rhs``, by dense solves, in the march's layout.

    Lx and Ly are assembled from ``_build_x_system``'s and ``_build_y_system``'s rows; the
    x-end extrapolation comes between the two solves and u_tilde's column has no x-part.
    """
    nx = grid.x.size
    sub, diag, sup = _tiled_x_system(pde._Coefficients(spec, grid.y), replace(grid, dt=step_dt))
    W = rhs.copy()
    for j in range(grid.y.size):
        A = np.diag(diag[:, j]) + np.diag(sub[1:, j], -1) + np.diag(sup[:-1, j], 1)
        W[j, 1:nx - 1] = np.linalg.solve(A, rhs[j, 1:nx - 1])
    W[:, 0] = 2.0 * W[:, 1] - W[:, 2]
    W[:, nx - 1] = 2.0 * W[:, nx - 2] - W[:, nx - 3]
    dl, d, du = pde._build_y_system(pde._Coefficients(spec, grid.y), step_dt, grid.dy)
    return np.linalg.solve(np.diag(d) + np.diag(dl, -1) + np.diag(du, 1), W)


def _douglas(spec, grid, step_dt, W):
    """step_dt^2 Lx Ly W on u's interior x-nodes and zero elsewhere, from the dense systems:
    step_dt Ly W = (I - A_y) W with the zero-flux ends, then step_dt Lx the same way with
    the zero-curvature fold that the x-system's first and last rows hold."""
    nx = grid.x.size
    coeffs = pde._Coefficients(spec, grid.y)
    dl, d, du = pde._build_y_system(coeffs, step_dt, grid.dy)
    Y = (W - (np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)) @ W)[:, 1:nx - 1].T
    sub, diag, sup = _tiled_x_system(coeffs, replace(grid, dt=step_dt))
    AY = diag * Y
    AY[1:] += sub[1:] * Y[:-1]
    AY[:-1] += sup[:-1] * Y[1:]
    out = np.zeros_like(W)
    out[:, 1:nx - 1] = (Y - AY).T
    return out


def test_first_three_steps_follow_the_scheme():
    """Step 1 is IMEX Euler, later steps IMEX-BDF2 with Q and M extrapolated and the Douglas term:

        (I - dt Lx)(I - dt Ly) W^1 = W^0 + dt (Q^0 + M^0),
        (I - b dt Lx)(I - b dt Ly) W^{n+1}
            = 4/3 W^n - 1/3 W^{n-1} + b dt (2 M^n - M^{n-1} + 2 Q^n - Q^{n-1})
              + (b dt)^2 Lx Ly W^n,  b = 2/3,

    with central u_y, u_xy one-sided at the x-ends, and a start that depends on y, so M^0 != 0
    and Lx Ly W^n != 0.
    """
    spec = arctangent_model(epsilon=0.25).with_(rho=-0.7)
    x, y = np.linspace(-1.0, 1.0, 9), 0.02 * np.arange(-5, 6)  # dy under the cap 0.025
    grid = Grid2D(x=x, y=y, dt=1e-3, n_steps=3)
    c = pde._Coefficients(spec, y)
    nx = x.size
    W0 = np.zeros((y.size, nx + 1))
    W0[:, :nx] = payoff_initial(spec, grid) * (1.0 + 0.2 * y[:, None])

    def u_y(W):
        out = np.zeros_like(W)
        out[1:-1] = (W[2:] - W[:-2]) / (2.0 * grid.dy)
        return out

    def Q(W):
        return c.quad[:, None] * u_y(W) ** 2 + c.source[:, None]

    def M(W):
        out = np.zeros_like(W)
        out[:, :nx] = c.mixed[:, None] * np.gradient(u_y(W)[:, :nx], grid.dx, axis=1, edge_order=1)
        return out

    dt, beta_dt = grid.dt, pde.BDF2_BETA * grid.dt
    levels = [W0, _dense_step(spec, grid, dt, W0 + dt * (Q(W0) + M(W0)))]
    for _ in range(2):
        prev, now = levels[-2:]
        rhs = (4.0 / 3.0 * now - prev / 3.0
               + beta_dt * (2.0 * M(now) - M(prev) + 2.0 * Q(now) - Q(prev))
               + _douglas(spec, grid, beta_dt, now))
        levels.append(_dense_step(spec, grid, beta_dt, rhs))
    assert np.abs(M(W0)).max() > 1.0
    assert np.abs(_douglas(spec, grid, beta_dt, levels[1])).max() > 1e-6
    for n in (1, 2, 3):
        W, _ = _march(spec, replace(grid, n_steps=n), W0[:, :nx])
        np.testing.assert_allclose(W, levels[n], rtol=1e-12)


def _march_operator(spec, x, y, U, drift_scale):
    """The march's own spatial operator on interior nodes; drift_scale=0 keeps the centred part."""
    c = pde._Coefficients(spec, y)
    dx, dy = x[1] - x[0], y[1] - y[0]
    sub, diag, sup = pde._stencil(c.x_diffusion[:, None], drift_scale * c.x_drift[:, None], dx)
    lx = sub * U[:, :-2] + diag * U[:, 1:-1] + sup * U[:, 2:]
    sub, diag, sup = pde._stencil(c.y_diffusion[1:-1, None], drift_scale * c.y_drift[1:-1, None], dy)
    ly = sub * U[:-2] + diag * U[1:-1] + sup * U[2:]
    F = np.asfortranarray(U)  # the march's layout, which the flat y-differences need
    D = pde._y_diff(F, np.empty_like(F))
    mixed, quad, source = pde._explicit_weights(c, 1.0, dx, dy)  # dt = 1: the rates
    explicit = mixed * pde._x_diff(D, np.empty_like(F)) + quad * D ** 2 + source
    return lx[1:-1] + ly[:, 1:-1] + explicit[1:-1, 1:-1]


def test_spatial_consistency_orders():
    rng = np.random.default_rng(7)
    specs = [arctangent_model(eta=0.1, epsilon=0.5)] + [random_valid_spec(rng) for _ in range(3)]

    def sup_errors(spec, n):
        x = np.linspace(-2, 2, n)
        y = np.linspace(-1, 1, n)
        X, Y = np.meshgrid(x, y)
        v = np.sin(X) * np.cos(Y)
        vx, vxx = np.cos(X) * np.cos(Y), -v
        vy, vyy = -np.sin(X) * np.sin(Y), -v
        vxy = -np.cos(X) * np.sin(Y)
        eps = spec.epsilon
        s1, s2, b = (np.asarray(f(Y)) for f in (spec.sigma1, spec.sigma2, spec.b))
        pref = spec.rho + spec.eta * math.sqrt(1 - spec.rho ** 2)
        advect = (((spec.m - Y) / eps - pref * b * s2 / (s1 * math.sqrt(eps))) * vy
                  - 0.5 * s1 ** 2 * vx)
        centered = (0.5 * s1 ** 2 * vxx + s2 ** 2 / (2 * eps) * vyy
                    + spec.rho * s1 * s2 / math.sqrt(eps) * vxy
                    + spec.gamma * (1 - spec.rho ** 2) * s2 ** 2 / (2 * eps) * vy ** 2
                    - b ** 2 / (2 * spec.gamma * s1 ** 2))[1:-1, 1:-1]
        e_cen = np.abs(_march_operator(spec, x, y, v, 0.0) - centered).max()
        e_full = np.abs(_march_operator(spec, x, y, v, 1.0) - centered - advect[1:-1, 1:-1]).max()
        return e_cen, e_full

    for spec in specs:
        cen1, full1 = sup_errors(spec, 81)
        cen2, full2 = sup_errors(spec, 161)
        assert math.log2(cen1 / cen2) > 1.8   # diffusions, mixed and quadratic terms
        assert math.log2(full1 / full2) > 0.9  # upwind advection caps the full operator at one


@pytest.mark.parametrize("shape", [(5, 5), (201, 41), (539, 201)])
def test_flat_stencils_match_per_axis_expressions(shape):
    """The raw differences give the bits of the per-axis expressions, and 0 at the y-ends."""
    rng = np.random.default_rng(shape[0])
    U = np.asfortranarray(rng.standard_normal(shape))

    def fresh():
        return np.full(shape, np.nan, order="F")  # every cell must be written

    d_y = np.zeros(shape)
    d_y[1:-1] = U[2:] - U[:-2]
    d_xy = np.empty(shape)
    d_xy[:, 1:-1] = d_y[:, 2:] - d_y[:, :-2]
    d_xy[:, 0] = (d_y[:, 1] - d_y[:, 0]) * 2.0
    d_xy[:, -1] = (d_y[:, -1] - d_y[:, -2]) * 2.0

    got_y = pde._y_diff(U, fresh())
    got_xy = pde._x_diff(got_y, fresh())
    for got, want in ((got_y, d_y), (got_xy, d_xy)):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert not got[[0, -1]].view(np.uint64).any()  # +0.0 exactly


@pytest.mark.parametrize("shape", [(5, 5), (201, 42), (539, 202)])
def test_gradient_monitor_reads_max_abs_central_u_y_to_the_bit(shape):
    """max |D| / (2 dy) is max |(U[j + 1] - U[j - 1]) / (2 dy)|: rounding is monotone."""
    rng = np.random.default_rng(shape[1])
    for dy in (0.003, 0.1 / 3.0, 1.0 / 539.0):
        U = np.asfortranarray(rng.standard_normal(shape) * rng.uniform(1e-3, 1e3))
        u_y = np.zeros(shape)
        u_y[1:-1] = (U[2:] - U[:-2]) / (2.0 * dy)
        got = pde._abs_max(pde._y_diff(U, np.empty_like(U))) / (2.0 * dy)
        assert np.float64(got).view(np.uint64) == np.float64(pde._abs_max(u_y)).view(np.uint64)
    U[shape[0] // 2, shape[1] // 2] = np.nan
    assert math.isnan(pde._abs_max(pde._y_diff(U, np.empty_like(U))) / (2.0 * dy))


def test_central_y_rejects_layouts_it_cannot_write_flat():
    U = np.asfortranarray(np.ones((7, 4)))
    for arr, out in ((np.ascontiguousarray(U), np.empty_like(U)),   # C-ordered input
                     (U, np.empty((7, 4))),                         # C-ordered out
                     (U[:, ::2], np.empty((7, 2), order="F")),      # strided view
                     (U, np.empty((7, 3), order="F")),              # shapes differ
                     (U[:, 0].copy(), np.empty(7)),                 # 1-d
                     (np.ones((3, 3, 3), order="F"), np.empty((3, 3, 3), order="F"))):
        with pytest.raises(ValueError, match="_y_diff needs"):
            pde._y_diff(arr, out)


def test_y_solve_that_returns_a_copy_is_a_fault_not_an_instability(monkeypatch, caplog):
    """The column views made before the loop need the y-solve in place; no dt halving hides it."""
    def copying(*args, **kwargs):
        x, info = dpttrs(*args, **kwargs)
        return x.copy(), info

    monkeypatch.setattr(pde, "dpttrs", copying)
    spec = arctangent_model(epsilon=0.25, maturity=0.05)
    grid = make_grid(spec, spec.maturity, nx=21)
    with caplog.at_level(logging.INFO, logger="volclust.pde"):
        with pytest.raises(RuntimeError, match="dpttrs returned a copy"):
            price_surface(spec, grid)
    assert [r for r in caplog.records if r.name == "volclust.pde"] == []


def _thomas_longdouble(dl, d, du, rhs):
    """Tridiagonal solve without pivoting in extended precision, column by column of ``rhs``."""
    dl, d, du, x = (np.asarray(a, dtype=np.longdouble) for a in (dl, d, du, rhs))
    x, pivot = x.copy(), d.copy()
    for i in range(1, d.size):
        mult = dl[i - 1] / pivot[i - 1]
        pivot[i] -= mult * du[i - 1]
        x[i] -= mult * x[i - 1]
    x[-1] /= pivot[-1]
    for i in range(d.size - 2, -1, -1):
        x[i] = (x[i] - du[i] * x[i + 1]) / pivot[i]
    return x


def test_y_solve_matches_extended_precision_thomas():
    """The symmetrised LDL^T solve is the y-system's solution to rounding.

    The diagonal scaling s that symmetrises the system spans 9.2 nats of
    log s on skew3's grid and 524 at eps = 1000; centred, it stays finite.
    """
    rng = np.random.default_rng(5)
    demo = arctangent_model()
    cases = [(demo, make_grid(demo, 0.25, nx=201, x_span=(-1.0, 1.0)))]
    cases += [(spec, make_grid(spec, 0.25, nx=41))
              for spec in (arctangent_model(epsilon=eps) for eps in (0.25, 1.0, 1000.0))]
    cases += [(spec, make_grid(spec, spec.maturity, nx=41))
              for spec in (random_valid_spec(rng) for _ in range(3))]
    for spec, grid in cases:
        dl, d, du = pde._build_y_system(pde._Coefficients(spec, grid.y), grid.dt, grid.dy)
        y = (grid.y - grid.y[0]) / (grid.y[-1] - grid.y[0])
        rhs = np.asfortranarray(np.column_stack(  # constant, smooth, random
            [np.ones_like(y), np.cos(3.0 * y) + y, rng.standard_normal(y.size)]))
        factor = pde._factor_y_system(dl, d, du)
        log_s = np.log(factor[2])
        assert log_s.shape == (y.size, 1) and np.all(np.isfinite(log_s))
        assert log_s.max() + log_s.min() == pytest.approx(0.0, abs=1e-12 * np.ptp(log_s))
        solved = rhs.copy(order="F")
        pde._solve_y_system(solved, *factor)
        expected = _thomas_longdouble(dl, d, du, rhs)
        err = np.abs(solved - expected).max(axis=0) / np.abs(expected).max(axis=0)
        assert err.max() <= 5e-14, (spec.epsilon, err)


def test_y_system_that_cannot_be_factored_is_a_fault():
    """Off-diagonals of opposite sign, or a symmetrised form that is not positive definite."""
    d = np.full(3, 2.0)
    with pytest.raises(RuntimeError, match="y-system cannot be symmetrised"):
        pde._factor_y_system(np.array([-1.0, 0.5]), d, np.array([-1.0, -1.0]))
    with pytest.raises(RuntimeError, match="y-system cannot be symmetrised"):
        pde._factor_y_system(np.array([-1.0, 0.0]), d, np.array([-1.0, -1.0]))
    with pytest.raises(RuntimeError, match="y-system is not positive definite"):
        pde._factor_y_system(np.array([-3.0, -3.0]), np.ones(3), np.array([-3.0, -3.0]))


def test_implicit_systems_sign_pattern():
    """Where the implicit systems are M-matrices, and the one place the x-system is not.

    Upwinding keeps every off-diagonal weight of ``_stencil`` >= 0 for either
    sign of drift at any cell Peclet number, so I - dt L has off-diagonals
    <= 0 and a dominant diagonal.  The exception is the first interior x-row
    of each y-row: folding u_0 = 2 u_1 - u_2 into it leaves [1 - a, +a] with
    a = dt |x_drift| / dx, and the inverse of an x-block has negative entries.
    """
    rng = np.random.default_rng(11)
    specs = [arctangent_model()] + [random_valid_spec(rng) for _ in range(3)]
    for spec in specs:
        grid = make_grid(spec, spec.maturity)
        c = pde._Coefficients(spec, grid.y)
        for diffusion, drift, h in ((c.x_diffusion, c.x_drift, grid.dx),
                                    (c.y_diffusion, c.y_drift, grid.dy)):
            for peclet in (0.0, 0.5, 2.0, 50.0):
                for sign in (1.0, -1.0):
                    sub, _, sup = pde._stencil(diffusion, sign * peclet * diffusion / h, h)
                    assert sub.min() >= 0.0 and sup.min() >= 0.0, (peclet, sign)
            sub, _, sup = pde._stencil(diffusion, drift, h)
            assert sub.min() >= 0.0 and sup.min() >= 0.0

        dl, d, du = pde._build_y_system(c, grid.dt, grid.dy)
        assert dl.max() <= 0.0 and du.max() <= 0.0
        assert np.all(d > np.abs(np.r_[0.0, dl]) + np.abs(np.r_[du, 0.0]))

        first, interior, last = pde._build_x_system(c, grid.dt, grid.dx)
        assert all(w.shape == (grid.y.size,) for w in first + interior + last)
        assert np.all(first[0] == 0.0) and np.all(last[2] == 0.0)  # the y-rows decouple
        for sub, diag, sup in (interior, last):
            assert sub.max() <= 0.0 and sup.max() <= 0.0
            assert np.all(diag > np.abs(sub) + np.abs(sup))
        a = grid.dt * np.abs(c.x_drift) / grid.dx
        assert a.min() > 0.0
        np.testing.assert_allclose(first[2], a, rtol=1e-12)
        np.testing.assert_allclose(first[1], 1.0 - a, rtol=1e-12)

        j = int(np.argmax(a))
        sub, diag, sup = (w[:, j] for w in _tiled_x_system(c, grid))
        block = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
        assert np.linalg.inv(block).min() < 0.0


def _tiled_x_system(coeffs, grid):
    """``_build_x_system``'s three rows as the full (nx - 2, ny) sub, diag and sup."""
    first, interior, last = pde._build_x_system(coeffs, grid.dt, grid.dx)
    return tuple(np.vstack([f, np.tile(i, (grid.x.size - 4, 1)), l])
                 for f, i, l in zip(first, interior, last))


def _lapack_x_solve(spec, grid, rhs):
    """The x-system stacked into one chain of y-row blocks, solved by dgttrf and dgttrs.

    Returns the solution in ``rhs``'s (nx - 2, ny) layout and whether dgttrf pivoted.
    """
    sub, diag, sup = _tiled_x_system(pde._Coefficients(spec, grid.y), grid)
    dl, d, du, du2, ipiv, info = dgttrf(sub.T.ravel()[1:], diag.T.ravel(), sup.T.ravel()[:-1])
    assert info == 0
    x, info = dgttrs(dl, d, du, du2, ipiv, rhs.T.ravel())
    assert info == 0
    return x.reshape(rhs.shape[::-1]).T, not np.array_equal(ipiv, np.arange(1, d.size + 1))


def _x_factor(spec, grid):
    rows = pde._build_x_system(pde._Coefficients(spec, grid.y), grid.dt, grid.dx)
    return pde._factor_x_system(*rows, grid.x.size - 2)


def _sweep_x_solve(spec, grid, rhs):
    """``_march``'s x-solve: factor once, then the column sweep on a copy of ``rhs``."""
    mult, recip, upper = _x_factor(spec, grid)
    cols = rhs.copy()  # (nx - 2, ny): x-row i is cols[i], and cols.T is the march's block
    pde._solve_x_system(mult, upper, pde._pivot_runs(recip, cols.T), list(cols),
                        np.empty(grid.y.size))
    return cols


def test_x_sweep_matches_lapack():
    """The sweep is dgttrf + dgttrs to rounding, whether or not dgttrf pivots."""
    rng = np.random.default_rng(5)
    demo = arctangent_model()
    default = make_grid(demo, demo.maturity)
    cases = [(demo, replace(default, dt=0.001), False),
             (demo, make_grid(demo, 0.25, nx=201, x_span=(-1.0, 1.0), dt=0.001), False)]
    cases += [(spec, make_grid(spec, spec.maturity), None)  # either way
              for spec in (random_valid_spec(rng) for _ in range(3))]
    cases += [(demo, replace(default, dt=dt), True) for dt in (default.dt, 0.002, 0.01, 0.05)]
    for spec, grid, pivots in cases:
        rhs = rng.standard_normal((grid.x.size - 2, grid.y.size))
        expected, pivoted = _lapack_x_solve(spec, grid, rhs)
        assert pivots in (None, pivoted), grid.dt
        swept = _sweep_x_solve(spec, grid, rhs)
        # reciprocal pivots round differently from dgttrs's divisions
        assert np.abs(swept - expected).max() <= 1e-14 * np.abs(expected).max()


def test_x_factor_shares_the_fixed_point_rows_bit_for_bit():
    """The shared rows are what a plain row-by-row elimination gives, and few are distinct."""
    rng = np.random.default_rng(3)
    demo = arctangent_model()
    skew3 = make_grid(demo, 0.25, nx=201, x_span=(-1.0, 1.0))
    cases = [(demo, skew3), (demo, make_grid(demo, 0.25, nx=41))]
    cases += [(spec, make_grid(spec, spec.maturity, nx=61))
              for spec in (random_valid_spec(rng) for _ in range(3))]
    for spec, grid in cases:
        sub, diag, sup = _tiled_x_system(pde._Coefficients(spec, grid.y), grid)
        factor = _x_factor(spec, grid)
        pivot = diag[0]
        plain = [(sub[0], 1.0 / pivot, sup[0] / pivot)]
        for i in range(1, diag.shape[0]):
            mult = sub[i] / pivot
            pivot = diag[i] - mult * sup[i - 1]
            plain.append((mult, 1.0 / pivot, sup[i] / pivot))
        for got, want in zip(factor, zip(*plain)):
            assert len(got) == len(want) == grid.x.size - 2
            assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))
    mult, recip, upper = _x_factor(demo, skew3)
    distinct = {id(r) for r in recip}
    assert len(distinct) < 40  # 17 of 199 rows
    assert len({id(m) for m in mult}) == len({id(u) for u in upper}) == len(distinct)
    assert len(pde._pivot_runs(recip, np.empty((skew3.y.size, len(recip))))) == len(distinct)


def test_x_system_without_dominance_halves_dt(caplog):
    """The fold's row [1 - a, +a] needs a <= 1/2 for elimination without pivoting."""
    spec = arctangent_model(epsilon=1.0)
    default = make_grid(spec, 0.25)
    grid = replace(default, dt=0.0625, n_steps=4)
    a = grid.dt * np.abs(pde._Coefficients(spec, grid.y).x_drift).max() / grid.dx
    assert a == pytest.approx(0.53, abs=0.005)
    with pytest.raises(Instability) as info:
        _march(spec, grid, payoff_initial(spec, grid))
    assert str(info.value) == ("x-system is not diagonally dominant: the x-boundary fold "
                               f"has a = dt |x_drift| / dx up to {a:.3f} > 1/2")  # before step 1

    with caplog.at_level(logging.INFO, logger="volclust.pde"):
        surface = price_surface(spec, grid)
    assert surface.grid.n_steps == 8
    records = [r.getMessage() for r in caplog.records if r.name == "volclust.pde"]
    assert records == [f"{info.value}; halving dt to 8 steps"]


def test_instability_raised_for_reckless_dt():
    # at eps = 1 the gradient grows large enough for the cap to bite at 40 times the rule's dt
    spec = arctangent_model(epsilon=1.0)
    grid = make_grid(spec, 1.0, nx=41)
    reckless = replace(grid, dt=0.5, n_steps=2)
    U0 = payoff_initial(spec, reckless)
    with pytest.raises(Instability) as info:
        _march(spec, reckless, U0)
    # step 1 starts from a y-independent payoff and a zero u_tilde, so |u_y| = 0 there;
    # the monitor reports the largest |u_y| over u and u_tilde after it, against
    # sqrt(eps / dt) / (2 gamma sup sigma2)
    first, _ = _march(spec, replace(reckless, n_steps=1), U0)
    grad = np.abs((first[2:] - first[:-2]) / (2.0 * grid.dy)).max()
    cap = math.sqrt(1.0 / 0.5) / (2.0 * 1.0 * 0.2)
    assert str(info.value) == (f"dt 5.000e-01 exceeds the gradient bound at step 2 "
                               f"(|u_y| = {grad:.3e} > {cap:.3e})")
    assert (info.value.monitor, info.value.tau) == ("gradient", 1.0)


def _too_big_dt():
    """The demo at eps = 1 on 4 steps to tau = 1: the gradient monitor trips once."""
    spec = arctangent_model(epsilon=1.0)
    return spec, make_grid(spec, 1.0, nx=41, dt=0.25)


def test_price_surface_recovers_by_halving_dt():
    spec, too_big = _too_big_dt()
    surface = price_surface(spec, too_big)
    assert surface.grid.dt < too_big.dt  # at least one halving happened
    assert surface.P.min() >= -1e-6 * spec.strike
    assert surface.snapshots == {}


def test_snapshots_map_caller_steps_onto_the_halved_grid():
    spec, too_big = _too_big_dt()
    steps = [too_big.n_steps, 1, too_big.n_steps // 2]
    surface = price_surface(spec, too_big, snapshot_steps=steps)
    factor = surface.grid.n_steps // too_big.n_steps
    assert factor > 1
    assert sorted(surface.snapshots) == sorted(steps)
    assert np.array_equal(surface.snapshots[too_big.n_steps], surface.P)
    for k in steps:
        prefix = price_surface(spec, replace(surface.grid, n_steps=k * factor))
        assert prefix.grid.n_steps == k * factor  # no halving of its own
        assert np.array_equal(surface.snapshots[k], prefix.P)


def test_snapshot_steps_off_the_grid_are_rejected_before_any_march(monkeypatch):
    def no_march(*args, **kwargs):
        raise AssertionError("price_surface marched before checking snapshot_steps")

    monkeypatch.setattr(pde, "_march", no_march)
    spec = arctangent_model(epsilon=0.25, maturity=0.05)
    grid = make_grid(spec, spec.maturity, nx=21)
    for step in (grid.n_steps + 1, -1, 2.5):
        with pytest.raises(BadGrid, match=rf"snapshot step {step} .* 0\.\.{grid.n_steps}$"):
            price_surface(spec, grid, snapshot_steps=[0, step])


def test_accuracy_sweep_single_member(fast_spec):
    probes = [(0.25, 0.0, 0.0), (0.25, -0.5, 0.1)]
    rows = accuracy_sweep(fast_spec, [0.04], probes)
    assert len(rows) == 1
    assert rows[0].eps == 0.04
    assert 0.0 < rows[0].max_abs_error < 1.0
    assert rows[0].normalized == pytest.approx(
        rows[0].max_abs_error / (-0.04 * math.log(0.04)))


def test_accuracy_sweep_rejects_a_negative_probe_tau_before_any_grid():
    spec = arctangent_model(epsilon=0.25, maturity=0.05)
    grids = []

    def factory(spec_eps, tau):
        grids.append(tau)
        return make_grid(spec_eps, tau, nx=41)

    with pytest.raises(ValueError, match=r"probe \(-0\.2, 0, 0\) needs tau >= 0, got -0\.2"):
        accuracy_sweep(spec, [0.25], [(-0.2, 0, 0), (0.05, 0, 0)], grid_factory=factory)
    with pytest.raises(ValueError, match=r"needs tau >= 0, got nan"):
        accuracy_sweep(spec, [0.25], [(0.05, 0, 0), (math.nan, 0, 0)], grid_factory=factory)
    assert grids == []
    (row,) = accuracy_sweep(spec, [0.25], [(0.0, 0, 0), (0.05, 0, 0)], grid_factory=factory)
    assert grids == [0.05] and math.isfinite(row.max_abs_error)


@pytest.mark.parametrize("probe", [(0.05, 9.0, 0.0), (0.05, 0.0, 50.0)], ids=["x", "y"])
def test_accuracy_sweep_rejects_a_probe_outside_a_grid_before_any_march(probe, monkeypatch):
    """A probe over half a cell past the grid's edge would be compared at the edge node:
    at x = 9 that reads as agreement to 2e-15.  Every grid is built and checked first."""
    spec = arctangent_model(epsilon=0.25, maturity=0.05)
    grids = []

    def factory(spec_eps, tau):
        grids.append(spec_eps.epsilon)
        return make_grid(spec_eps, tau, nx=41)

    def no_march(*args, **kwargs):
        raise AssertionError("a march ran before every probe was checked")

    monkeypatch.setattr(pde, "price_surface", no_march)
    with pytest.raises(ConfigError) as info:
        accuracy_sweep(spec, [0.25, 0.2], [(0.05, 0.0, 0.0), probe], grid_factory=factory)
    assert str(info.value) == (f"probe {probe} lies outside the eps = 0.25 grid: "
                               "x in [-3, 3], y in [-0.848528, 0.848528]")
    assert grids == [0.25, 0.2]


def test_payoff_initial_matches_contract(fast_spec):
    grid = make_grid(fast_spec, 0.25, nx=61)
    u0 = payoff_initial(fast_spec, grid)
    assert u0.shape == (grid.y.size, grid.x.size)
    assert u0.max() == 0.0
    assert u0.min() == pytest.approx(-(100 - 100 * math.exp(grid.x[0])))


def test_surface_matches_golden_output(fast_spec):
    """Pins the march's output at the speed-up tolerance.

    The files hold ``_golden_surface(fast_spec)`` of the IMEX-BDF2
    march (``np.save`` of ``.P`` and ``.u_tilde``); a change of scheme must
    regenerate them on purpose, with ``python tests/test_pde.py``.
    """
    surface = _golden_surface(fast_spec)
    for name in GOLDEN:
        np.testing.assert_allclose(getattr(surface, name),
                                   np.load(DATA / f"golden_fast_nx41_{name}.npy"),
                                   rtol=1e-12, atol=0.0)


def test_nan_in_initial_data_raises_instability(fast_spec):
    grid = make_grid(fast_spec, 0.25, nx=41)
    U0 = payoff_initial(fast_spec, grid)
    U0[grid.y.size // 2, grid.x.size // 2] = np.nan
    with pytest.raises(Instability, match="gradient bound at step 1"):
        _march(fast_spec, grid, U0)
    assert issubclass(Instability, NumericalError)  # the CLI maps it to exit code 3


def test_coarse_demo_logs_one_halving(caplog):
    """The demo at eps = 1 asked for 4 steps trips the gradient monitor once."""
    spec, grid = _too_big_dt()
    assert grid.n_steps == 4
    with caplog.at_level(logging.INFO, logger="volclust.pde"):
        surface = price_surface(spec, grid)
    assert surface.grid.n_steps == 8
    records = [r for r in caplog.records if r.name == "volclust.pde"]
    assert len(records) == 1
    message = records[0].getMessage()
    assert message.startswith("dt 2.500e-01 exceeds the gradient bound at step 4 ")
    assert message.endswith("halving dt to 8 steps")


def test_out_of_retries_names_the_monitor_that_tripped(monkeypatch):
    """With no retries left the final error carries the last monitor's cause."""
    monkeypatch.setattr(pde, "MAX_DT_RETRIES", 0)
    spec, grid = _too_big_dt()
    with pytest.raises(Instability, match="gradient bound at step 4") as info:
        price_surface(spec, grid)
    assert "price band" not in str(info.value)
    assert isinstance(info.value.__cause__, Instability)
    assert str(info.value.__cause__) in str(info.value)


def test_a_band_trip_that_halving_does_not_move_fails_fast(caplog):
    """At eps = 1, tau = 10 the zero-curvature fold undershoots at x = +3, which no dt cures:
    the band monitor trips at tau ~ 2.2 at 160 steps and again at 320, and the solve gives up
    there instead of halving four more times.  At the dt rule's 80 steps the gradient monitor
    trips first, at step 16, and halving cures that trip."""
    spec = arctangent_model(epsilon=1.0)
    for grid, gradient_trips in ((make_grid(spec, 10.0, nx=41, dt=10.0 / 160), 0),
                                 (make_grid(spec, 10.0, nx=41), 1)):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="volclust.pde"), \
                pytest.raises(Instability) as info:
            price_surface(spec, grid)
        records = [r.getMessage() for r in caplog.records if r.name == "volclust.pde"]
        assert len(records) == gradient_trips + 1  # one halved attempt after the band trip
        assert all("gradient bound" in r for r in records[:gradient_trips])
        band = records[-1]
        assert band.startswith("price band violated at step 35: ") and band.endswith(
            "halving dt to 320 steps")
        first, second = 35 * 10.0 / 160, info.value.__cause__
        assert second.monitor == "band" and abs(second.tau - first) <= 10.0 / 160
        assert str(info.value) == (f"{second}: halving dt did not move the trip from "
                                   f"tau = {first:.4g} at dt 6.250e-02")


def test_amplitude_monitor_trips_when_u_and_u_tilde_move_together(monkeypatch, caplog):
    """A source 1e6 times too strong moves u and u_tilde alike, and the amplitude cap trips."""
    weights = pde._explicit_weights

    def loud_source(*args):
        mixed, quad, source = weights(*args)
        return mixed, quad, source * 1e6

    monkeypatch.setattr(pde, "_explicit_weights", loud_source)
    spec = arctangent_model(epsilon=0.25, maturity=0.05)
    grid = make_grid(spec, spec.maturity, nx=21)
    first = "u left the amplitude bound at step 1 (|u| = 8.869e+03)"
    with pytest.raises(Instability) as info:
        _march(spec, grid, payoff_initial(spec, grid))
    assert str(info.value) == first

    monkeypatch.setattr(pde, "MAX_DT_RETRIES", 1)
    with caplog.at_level(logging.INFO, logger="volclust.pde"), \
            pytest.raises(Instability) as info:
        price_surface(spec, grid)
    records = [r.getMessage() for r in caplog.records if r.name == "volclust.pde"]
    assert records == [f"{first}; halving dt to 160 steps"]
    assert str(info.value) == ("u left the amplitude bound at step 1 (|u| = 4.495e+03) "
                               "(still, after 1 dt halvings)")


def test_price_band_monitor_trips_on_either_side(fast_spec, monkeypatch):
    """A constant shift of u's start shifts P = u_tilde - u out of [0, K] at step 1."""
    grid = make_grid(fast_spec, 0.25, nx=41)
    one_step = Grid2D(x=grid.x, y=grid.y, dt=grid.dt, n_steps=1)
    for shift in (1.0, -(fast_spec.strike + 1.0)):  # P below 0, then above K
        U0 = payoff_initial(fast_spec, grid) + shift
        with monkeypatch.context() as unbanded:  # the step the tripping march takes, unchecked
            unbanded.setattr(pde, "BAND_SLACK", math.inf)
            W1, _ = _march(fast_spec, one_step, U0)
        price = W1[:, -1:] - W1[:, :-1]
        with pytest.raises(Instability) as info:
            _march(fast_spec, grid, U0)
        assert str(info.value) == (f"price band violated at step 1: [{price.min():.3e}, "
                                   f"{price.max():.3e}] vs [0, {fast_spec.strike}]")


if __name__ == "__main__":
    # rewrites the golden arrays that test_surface_matches_golden_output reads
    surface = _golden_surface(arctangent_model(epsilon=0.04))
    for name in GOLDEN:
        np.save(DATA / f"golden_fast_nx41_{name}.npy", getattr(surface, name))

import concurrent.futures
import logging
import math
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import dgttrf, dgttrs

from conftest import forbid_pool, pin_cpus, random_valid_spec
from oracles import solve_u_tilde_cole_hopf
from volclust import pde
from volclust.asymptotics import asymptotic_price
from volclust.bs import bs_put
from volclust.errors import BadGrid, ConfigError, Instability, NumericalError
from volclust.measure import InvariantMeasure
from volclust.model import Constant, ModelSpec, Tabulated, arctangent_model
from volclust.pde import Grid2D, _march, accuracy_sweep, make_grid, payoff_initial, price_surface
from volclust.poisson import PhiDerivatives, group_constants_for

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
    """dt does not depend on rho: the demo takes the dt rule's 80 steps up to |rho| -> 1."""
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
                                                 (0.04, -0.2, 2.0), (6.25e-4, -0.2, 15.0)])
def test_gradient_cap_lies_below_the_symbol_limit(eps, rho, unstable):
    """On skew3's grid at the dt rule's step, the largest frozen gradient with both roots in
    |xi| <= 1 lies between the cap and ``unstable`` times it: 2.5, 4.8, 1.5 and 14.3 times
    the cap here, so at eps = 0.04 the cap's factor 1/2 is needed, and at eps = 6.25e-4,
    where dt = 5 eps, the cap stays below the limit."""
    spec = arctangent_model(epsilon=eps).with_(rho=rho)
    grid = make_grid(spec, 0.25, nx=201, x_span=(-1.0, 1.0))
    cap = _gradient_cap(spec, grid)
    assert _max_amplification(spec, grid, cap) <= 1 + 1e-10 < _max_amplification(
        spec, grid, unstable * cap)


@pytest.mark.parametrize("eps", [0.04, 0.0025, 6.25e-4, 1.5625e-4])
def test_a_grid_without_a_dt_takes_min_steps_at_every_eps(eps):
    """dt = tau / MIN_STEPS whatever eps, above eps for the last three here."""
    assert make_grid(arctangent_model(epsilon=eps), 0.25, nx=41).n_steps == pde.MIN_STEPS


def test_min_steps_keeps_its_time_error_target_with_dt_above_eps(caplog):
    """At eps = 6.25e-4, where dt = 5 eps, the 80-step P at x = -0.9, -0.6, ..., 0.9 and
    every y lies within 6.83e-5 (the target MIN_STEPS was chosen for) of the Richardson
    value from 160 and 320 steps, with no halving: 5.25e-5 when written.  The bound holds
    at these nodes of nx = 101; over every node of nx = 41 the error is about 1.0e-4."""
    spec = arctangent_model(epsilon=6.25e-4)
    grid = make_grid(spec, 0.25, nx=101)
    assert grid.n_steps == 80 and grid.dt == 5 * spec.epsilon
    cols = slice(35, 66, 5)
    np.testing.assert_allclose(grid.x[cols], np.linspace(-0.9, 0.9, 7), atol=1e-12)
    P = {}
    with caplog.at_level(logging.INFO, logger="volclust.pde"):
        for n in (80, 160, 320):
            P[n] = price_surface(spec, replace(grid, dt=0.25 / n, n_steps=n)).P[cols]
    assert [r for r in caplog.records if r.name == "volclust.pde"] == []
    richardson = P[320] + (P[320] - P[160]) / 3.0
    assert np.abs(P[80] - richardson).max() <= 6.83e-5


@pytest.mark.parametrize("tau, dt, named", [
    (math.nan, None, "tau"), (-1.0, None, "tau"), (0.25, 0.0, "dt"), (0.25, math.inf, "dt"),
], ids=["tau-nan", "tau-negative", "dt-zero", "dt-inf"])
def test_make_grid_refuses_a_bad_tau_or_dt(fast_spec, tau, dt, named):
    with pytest.raises(BadGrid, match=f"{named} must be finite"):
        make_grid(fast_spec, tau, nx=41, dt=dt)


# (make from two arrays, the array fields, the other fields and their values)
FROZEN = pytest.mark.parametrize("make, names, others", [
    (lambda a, b: Grid2D(x=a, y=b, dt=0.125, n_steps=3), ("x", "y"), {"dt": 0.125, "n_steps": 3}),
    (lambda a, b: Tabulated(a, b, source="table.csv", base_dir="tables"), ("grid", "values"),
     {"source": "table.csv", "base_dir": "tables"}),
    (InvariantMeasure, ("grid", "density"), {}),
    (lambda a, b: PhiDerivatives(a, b, b), ("grid", "phi1_prime", "phi2_prime"), {}),
], ids=["Grid2D", "Tabulated", "InvariantMeasure", "PhiDerivatives"])


@FROZEN
def test_a_frozen_object_freezes_a_copy_of_the_callers_arrays(make, names, others):
    """The object's arrays are read-only; the caller's stay writeable, and writing to them
    leaves the object as it was."""
    a, b = np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 1.5, 5)
    made = make(a, b)
    held = [getattr(made, name) for name in names]
    assert not any(array.flags.writeable for array in held)
    a[:], b[:] = 7.0, 9.0  # raises if the caller's arrays were frozen
    np.testing.assert_array_equal(held[0], np.linspace(-1.0, 1.0, 5))
    np.testing.assert_array_equal(held[1], np.linspace(0.5, 1.5, 5))


@FROZEN
def test_a_frozen_object_stays_frozen_through_pickle(make, names, others):
    """A pickle round trip, as a worker process gets its tasks, returns equal arrays that are
    still read-only, and the other fields as they were."""
    made = make(np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 1.5, 5))
    copy = pickle.loads(pickle.dumps(made))
    for name in names:
        assert not getattr(copy, name).flags.writeable
        np.testing.assert_array_equal(getattr(copy, name), getattr(made, name))
    assert {name: getattr(copy, name) for name in others} == others


def test_grid_validation():
    nodes = np.linspace(0, 1, 5)
    with pytest.raises(BadGrid):
        Grid2D(x=np.array([0.0, 1.0, 3.0, 4.0, 5.0]), y=nodes, dt=0.1, n_steps=1)
    with pytest.raises(BadGrid, match="x grid needs at least 5 nodes"):
        Grid2D(x=np.linspace(0, 1, 4), y=nodes, dt=0.1, n_steps=1)
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


def test_a_solve_marches_in_three_arrays_and_its_surface_holds_one(fast_spec):
    """Three steps, so both step kinds run.  A full array is ny (nx + 1) doubles; the march
    keeps three (the solution, the BDF2 history and the Douglas term), and the rest of a
    step is sized by one block of x-columns or one chunk of y-columns.  The surface holds
    one: P lies in place of u, beside u_tilde."""
    import tracemalloc

    grid = make_grid(fast_spec, 0.25, nx=201, dt=0.1)
    assert grid.n_steps == 3
    full = grid.y.size * (grid.x.size + 1) * 8
    tracemalloc.start()
    try:
        surface = price_surface(fast_spec, grid)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert surface.grid.n_steps == 3
    assert peak < 6.5 * full, peak / full
    assert held < 1.1 * full, held / full


def test_zero_initial_is_fixed_point_without_drift(fast_spec):
    spec = fast_spec.with_(b=Constant(0.0))
    grid = make_grid(spec, 0.25, nx=61)
    W = _march(spec, grid, payoff_initial(spec, grid))
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
        surface = price_surface(spec, grid)
    assert [r for r in caplog.records if r.name == "volclust.pde"] == []
    assert surface.grid is grid
    payoff = np.tile(np.maximum(100 - 100 * np.exp(grid.x), 0.0)[:, None], (1, grid.y.size))
    assert surface.P.tobytes() == payoff.tobytes()


def test_price_band(fast_spec):
    grid = make_grid(fast_spec, 0.25, nx=121)
    surface = price_surface(fast_spec, grid)
    assert surface.P.min() >= -1e-6 * fast_spec.strike
    assert surface.P.max() <= fast_spec.strike * (1 + 1e-6)


def test_u_tilde_is_x_independent_on_full_grid(fast_spec):
    """u from a zero start marches on the full grid; every x-column equals u_tilde's column."""
    grid = make_grid(fast_spec, 0.25, nx=61)
    W = _march(fast_spec, grid, np.zeros((grid.y.size, grid.x.size)))
    assert np.abs(W[:, -1]).max() > 0.1  # b != 0: u_tilde moves off zero
    assert np.abs(W[:, :-1] - W[:, -1:]).max() < 1e-12


def test_ordered_initial_data_stay_ordered(fast_spec):
    """Checked at every tenth step, each the last step of a prefix of the grid."""
    grid = make_grid(fast_spec, 0.25, nx=101, dt=0.25 / 100)
    starts = payoff_initial(fast_spec, grid), np.zeros((grid.y.size, grid.x.size))
    worst = math.inf
    for k in range(0, grid.n_steps + 1, 10):
        marched = (_march(fast_spec, replace(grid, n_steps=k), U0) for U0 in starts)
        # P = u_tilde - u with one u_tilde, so P_pay - P_zero = u_zero - u_pay
        P_pay, P_zero = (W[:, -1:] - W[:, :-1] for W in marched)
        worst = min(worst, float((P_pay - P_zero).min()))
    assert worst > -1e-9 * fast_spec.strike


def test_cole_hopf_oracle_for_u_tilde(fast_spec):
    spec = fast_spec.with_(eta=0.15)
    gaps = []
    for n_steps in (100, 400):
        grid = make_grid(spec, 0.25, nx=61, dt=0.25 / n_steps)
        u_tilde = _march(spec, grid, payoff_initial(spec, grid))[:, -1]
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

    Lx and Ly are assembled from ``_build_x_system``'s and ``_build_y_system``'s rows, and
    the x-ends are identity rows of the x-solve, built here; u_tilde's column has no x-part.
    """
    nx = grid.x.size
    sub, diag, sup = _with_identity_ends(
        *_tiled_x_system(pde._Coefficients(spec, grid.y), replace(grid, dt=step_dt)))
    W = rhs.copy()
    for j in range(grid.y.size):
        A = np.diag(diag[:, j]) + np.diag(sub[1:, j], -1) + np.diag(sup[:-1, j], 1)
        W[j, :nx] = np.linalg.solve(A, rhs[j, :nx])
    dl, d, du = pde._build_y_system(pde._Coefficients(spec, grid.y), step_dt, grid.dy)
    return np.linalg.solve(np.diag(d) + np.diag(dl, -1) + np.diag(du, 1), W)


def _douglas(spec, grid, step_dt, W):
    """step_dt^2 Lx Ly W on u's x-nodes and zero on u_tilde's column, from the dense systems:
    step_dt Ly W = (I - A_y) W with the zero-flux ends, then step_dt Lx the same way with
    the x-system's identity end rows, which leave it zero at the x-ends."""
    nx = grid.x.size
    coeffs = pde._Coefficients(spec, grid.y)
    dl, d, du = pde._build_y_system(coeffs, step_dt, grid.dy)
    Y = (W - (np.diag(d) + np.diag(dl, -1) + np.diag(du, 1)) @ W)[:, :nx].T
    sub, diag, sup = _with_identity_ends(*_tiled_x_system(coeffs, replace(grid, dt=step_dt)))
    AY = diag * Y
    AY[1:] += sub[1:] * Y[:-1]
    AY[:-1] += sup[:-1] * Y[1:]
    out = np.zeros_like(W)
    out[:, :nx] = (Y - AY).T
    return out


def test_first_three_steps_follow_the_scheme(monkeypatch):
    """Step 1 is IMEX Euler, later steps IMEX-BDF2 with Q and M extrapolated and the Douglas term:

        (I - dt Lx)(I - dt Ly) W^1 = W^0 + dt (Q^0 + M^0),
        (I - b dt Lx)(I - b dt Ly) W^{n+1}
            = 4/3 W^n - 1/3 W^{n-1} + b dt (2 M^n - M^{n-1} + 2 Q^n - Q^{n-1})
              + (b dt)^2 Lx Ly W^n,  b = 2/3,

    with central u_y and u_xy, and a start that depends on y, so M^0 != 0 and Lx Ly W^n != 0.
    The x-ends take no mixed term: their x-rows are identity rows, and they take only the
    y-parts of a step, as u_tilde does.
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
        out[:, :nx] = c.mixed[:, None] * np.gradient(u_y(W)[:, :nx], grid.dx, axis=1)
        out[:, [0, nx - 1]] = 0.0  # the x-ends take no mixed term
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
        W = _march(spec, replace(grid, n_steps=n), W0[:, :nx])
        np.testing.assert_allclose(W, levels[n], rtol=1e-12)
    # the explicit part's column blocks change no bit: one column, two, three, or all at once
    for width in (1, 2, 3, nx + 1):
        monkeypatch.setattr(pde, "X_BLOCK", width)
        assert _march(spec, grid, W0[:, :nx]).tobytes() == W.tobytes(), width


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
    explicit = mixed[1:-1] * (D[1:-1, 2:] - D[1:-1, :-2]) + (quad * D ** 2 + source)[1:-1, 1:-1]
    return lx[1:-1] + ly[:, 1:-1] + explicit


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
    """The flat raw y-difference gives the bits of the per-axis expression, and 0 at the y-ends."""
    rng = np.random.default_rng(shape[0])
    U = np.asfortranarray(rng.standard_normal(shape))
    d_y = np.zeros(shape)
    d_y[1:-1] = U[2:] - U[:-2]

    got = pde._y_diff(U, np.full(shape, np.nan, order="F"))  # every cell must be written
    assert np.array_equal(got.view(np.uint64), d_y.view(np.uint64))
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
    """The blocked y-solve is the y-system's solution to rounding, scale included.

    The cases cover skew3's grid (ny = 539: 15 blocks of ``Y_BLOCK`` and a
    last block of 59), eps up to 1000, random models, a system below one
    block and one that leaves a last block of ``Y_BLOCK`` + 1 nodes.
    """
    rng = np.random.default_rng(5)
    demo = arctangent_model()
    cases = [(demo, make_grid(demo, 0.25, nx=201, x_span=(-1.0, 1.0)))]
    cases += [(spec, make_grid(spec, 0.25, nx=41))
              for spec in (arctangent_model(epsilon=eps) for eps in (0.25, 1.0, 1000.0))]
    cases += [(spec, make_grid(spec, spec.maturity, nx=41))
              for spec in (random_valid_spec(rng) for _ in range(3))]
    systems = [pde._build_y_system(pde._Coefficients(spec, grid.y), grid.dt, grid.dy)
               for spec, grid in cases]
    dl, d, du = systems[0]
    systems += [(dl[:ny - 1], d[:ny], du[:ny - 1]) for ny in (pde.Y_BLOCK - 5, 3 * pde.Y_BLOCK + 1)]
    for dl, d, du in systems:
        factors = pde._factor_y_system(dl, d, du, 0.75)
        width, interface_inv, last_scaled = factors[0], factors[3], factors[-1]
        # every product of a chunk stays small enough to run on one BLAS thread
        assert width * max(last_scaled.shape[0], interface_inv.shape[0]) ** 2 <= pde.SERIAL_GEMM
        y = np.linspace(0.0, 1.0, d.size)
        rhs = np.asfortranarray(np.column_stack(  # constant, smooth, random: two column chunks
            [np.ones_like(y), np.cos(3.0 * y) + y, rng.standard_normal((y.size, factors[0]))]))
        given, solved = rhs.copy(order="F"), np.empty_like(rhs)
        pde._solve_y_system(given, solved, *factors)
        assert given.tobytes() == rhs.tobytes()  # out of place, X is only read
        in_place = rhs.copy(order="F")
        pde._solve_y_system(in_place, in_place, *factors)
        assert in_place.tobytes() == solved.tobytes()
        expected = 0.75 * _thomas_longdouble(dl, d, du, rhs)
        err = np.abs(solved - expected).max(axis=0) / np.abs(expected).max(axis=0)
        assert err.max() <= 5e-14, (d.size, err)


def test_y_system_with_a_wrong_signed_off_diagonal_or_a_singular_block_is_a_fault():
    """An off-diagonal >= 0 breaks the M-matrix pattern; a singular block cannot be inverted."""
    d = np.full(3, 2.0)
    with pytest.raises(RuntimeError, match="not an M-matrix"):
        pde._factor_y_system(np.array([-1.0, 0.5]), d, np.array([-1.0, -1.0]), 1.0)
    with pytest.raises(RuntimeError, match="not an M-matrix"):
        pde._factor_y_system(np.array([-1.0, -1.0]), d, np.array([0.0, -1.0]), 1.0)
    d = np.full(2 * pde.Y_BLOCK, 2.0)
    d[[0, pde.Y_BLOCK - 1]] = 1.0  # every row of the first block sums to zero
    with pytest.raises(RuntimeError, match="cannot be inverted"):
        pde._factor_y_system(-np.ones(d.size - 1), d, -np.ones(d.size - 1), 1.0)


def test_implicit_systems_sign_pattern():
    """Both implicit systems are M-matrices.

    Upwinding keeps every off-diagonal weight of ``_stencil`` >= 0 for either
    sign of drift at any cell Peclet number, so I - dt L has off-diagonals
    <= 0 and a dominant diagonal.  The x-system's interior row has
    diag - |sub| - |sup| = 1, at any dt, and the x-ends are identity rows,
    which the x-solve leaves as they are, so every x-block's inverse is >= 0.
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

        for dt in (grid.dt, 100.0 * grid.dt):
            sub, diag, sup = pde._build_x_system(c, dt, grid.dx)
            assert all(w.shape == (grid.y.size,) for w in (sub, diag, sup))
            rhs = rng.standard_normal((grid.x.size, grid.y.size))
            ends = _sweep_x_solve(spec, replace(grid, dt=dt), rhs)[[0, -1]]
            assert ends.tobytes() == rhs[[0, -1]].tobytes()  # the identity end rows
            assert sub.max() < 0.0 and sup.max() < 0.0
            np.testing.assert_allclose(diag - np.abs(sub) - np.abs(sup), 1.0, rtol=1e-12)

        a = np.abs(c.x_drift)
        sub, diag, sup = _with_identity_ends(*_tiled_x_system(c, grid))
        for j in {0, int(np.argmin(a)), int(np.argmax(a)), grid.y.size - 1}:
            block = np.diag(diag[:, j]) + np.diag(sub[1:, j], -1) + np.diag(sup[:-1, j], 1)
            inverse = np.linalg.inv(block)
            assert inverse.min() >= -1e-15 * inverse.max()  # >= 0 to rounding


def _tiled_x_system(coeffs, grid):
    """``_build_x_system``'s row at every interior x-node, as (nx - 2, ny) sub, diag and sup."""
    return tuple(np.tile(w, (grid.x.size - 2, 1))
                 for w in pde._build_x_system(coeffs, grid.dt, grid.dx))


def _with_identity_ends(sub, diag, sup):
    """The interior rows between identity rows at the x-ends: the whole (nx, ny) x-system."""
    zero, one = np.zeros_like(diag[:1]), np.ones_like(diag[:1])
    return np.vstack([zero, sub, zero]), np.vstack([one, diag, one]), np.vstack([zero, sup, zero])


def _lapack_x_solve(spec, grid, rhs):
    """The x-system stacked into one chain of y-row blocks, solved by dgttrf and dgttrs.

    Returns the solution in ``rhs``'s (nx, ny) layout and whether dgttrf pivoted.
    """
    sub, diag, sup = _with_identity_ends(*_tiled_x_system(pde._Coefficients(spec, grid.y), grid))
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
    cols = rhs.copy()  # (nx, ny): x-row i is cols[i], and cols.T is the march's block
    pde._solve_x_system(mult, upper, pde._pivot_runs(recip, cols.T[:, 1:-1]), list(cols),
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
        rhs = rng.standard_normal((grid.x.size, grid.y.size))
        expected, pivoted = _lapack_x_solve(spec, grid, rhs)
        assert pivots in (None, pivoted), grid.dt
        swept = _sweep_x_solve(spec, grid, rhs)
        # reciprocal pivots round differently from dgttrs's divisions
        assert np.abs(swept - expected).max() <= 1e-14 * np.abs(expected).max()


def test_x_factor_shares_the_fixed_point_rows_bit_for_bit():
    """The shared rows are what a plain row-by-row elimination of the whole system, identity
    end rows included, gives on the interior rows, and few are distinct."""
    rng = np.random.default_rng(3)
    demo = arctangent_model()
    skew3 = make_grid(demo, 0.25, nx=201, x_span=(-1.0, 1.0))
    cases = [(demo, skew3), (demo, make_grid(demo, 0.25, nx=41))]
    cases += [(spec, make_grid(spec, spec.maturity, nx=61))
              for spec in (random_valid_spec(rng) for _ in range(3))]
    for spec, grid in cases:
        sub, diag, sup = _with_identity_ends(*_tiled_x_system(pde._Coefficients(spec, grid.y), grid))
        factor = _x_factor(spec, grid)
        pivot = diag[0]
        plain = [(sub[0], 1.0 / pivot, sup[0] / pivot)]
        for i in range(1, diag.shape[0]):
            mult = sub[i] / pivot
            pivot = diag[i] - mult * sup[i - 1]
            plain.append((mult, 1.0 / pivot, sup[i] / pivot))
        for got, want in zip(factor, zip(*plain[1:-1])):
            assert len(got) == len(want) == grid.x.size - 2
            assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))
    mult, recip, upper = _x_factor(demo, skew3)
    distinct = {id(r) for r in recip}
    assert len(distinct) < 40  # 32 of 199 rows
    assert len({id(m) for m in mult}) == len({id(u) for u in upper}) == len(distinct)
    assert len(pde._pivot_runs(recip, np.empty((skew3.y.size, len(recip))))) == len(distinct)


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
    first = _march(spec, replace(reckless, n_steps=1), U0)
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


def test_accuracy_sweep_single_member(fast_spec):
    probes = [(0.25, 0.0, 0.0), (0.25, -0.5, 0.1)]
    rows = accuracy_sweep(fast_spec, [0.04], probes)
    assert len(rows) == 1
    assert rows[0].eps == 0.04
    assert 0.0 < rows[0].max_abs_error < 1.0
    assert rows[0].normalized == pytest.approx(
        rows[0].max_abs_error / (-0.04 * math.log(0.04)))


def test_accuracy_sweep_compares_a_probe_between_steps_at_its_snapped_step(fast_spec):
    """A probe 0.4 dt short of the last step is compared at that step on both sides: the
    PDE's P there and the asymptotics at step * dt, not at the probe's own tau."""
    factory = lambda spec_eps, tau: make_grid(spec_eps, tau, nx=61)
    grid = factory(fast_spec, 0.25)
    probes = [(0.25 - 0.4 * grid.dt, 0.0, 0.0), (0.25, -0.5, 0.1)]
    assert round(probes[0][0] / grid.dt) == grid.n_steps
    (row,) = accuracy_sweep(fast_spec, [0.04], probes, grid_factory=factory)
    P = price_surface(fast_spec, grid).P
    gc = group_constants_for(fast_spec)

    def gap(tau, x, y):
        ix, jy = (int(np.argmin(np.abs(nodes - v))) for nodes, v in ((grid.x, x), (grid.y, y)))
        return abs(float(P[ix, jy]) - asymptotic_price(gc, fast_spec, tau, float(grid.x[ix])).corrected)

    snapped = [gap(grid.n_steps * grid.dt, x, y) for _, x, y in probes]
    assert snapped[0] > snapped[1]  # the probe between steps sets the row
    assert row.max_abs_error == max(snapped)
    assert row.max_abs_error != gap(*probes[0])


def test_accuracy_sweep_on_two_probe_taus_is_pinned(fast_spec):
    """Probes at two taus are compared at two steps of each epsilon's grid.  The earlier
    probe's gap is the larger, so the pin covers a solve that stops before the last step."""
    rows = accuracy_sweep(fast_spec, [0.04, 0.01], [(0.125, 0.0, 0.0), (0.25, -0.5, 0.1)],
                          grid_factory=lambda spec_eps, tau: make_grid(spec_eps, tau, nx=61))
    assert [(r.max_abs_error, r.normalized) for r in rows] == [
        (0.5053704519645827, 3.9250539587471938), (0.48047068987622943, 10.433288466474753)]


def _sweep_on(monkeypatch, cpus: int, submitted: list, *args, **kwargs):
    """``accuracy_sweep(*args, **kwargs)`` on ``cpus`` CPUs; the epsilons go onto ``submitted``
    in the order they go to a worker pool, which one CPU forbids."""
    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, task):
            submitted.append(task[0].epsilon)
            return super().submit(fn, task)

    with monkeypatch.context() as patch:
        pin_cpus(patch, cpus)
        if cpus == 1:
            forbid_pool(patch)
        else:
            patch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return accuracy_sweep(*args, **kwargs)


def test_accuracy_sweep_in_workers_returns_the_rows_of_one_process(monkeypatch):
    """With the largest march in the middle of the list, two CPUs send it to the pool first
    and return the same rows, bit for bit and in list order, as one CPU, which starts no
    pool."""
    spec = arctangent_model(epsilon=0.25, maturity=0.05)
    factory = lambda spec_eps, tau: make_grid(spec_eps, tau, nx=41)
    eps_list = [0.25, 0.01, 0.2]
    assert [factory(spec.with_(epsilon=eps), 0.05).y.size for eps in eps_list] == [201, 341, 201]
    probes = [(0.05, 0.0, 0.0), (0.025, -0.3, 0.1)]
    submitted = {1: [], 2: []}
    serial, pooled = (_sweep_on(monkeypatch, cpus, submitted[cpus], spec, eps_list, probes,
                                grid_factory=factory) for cpus in (1, 2))
    assert submitted == {1: [], 2: [0.01, 0.25, 0.2]}
    assert [r.eps for r in serial] == eps_list
    assert pooled == serial


def test_accuracy_sweep_in_workers_raises_the_earliest_members_instability(monkeypatch):
    """At tau = 100 in 8 steps, eps = 1 and 4 trip the gradient monitor after every halving,
    and eps = 0.25 solves.  eps = 4 has the finer x-grid, so two CPUs send it to the pool
    first.  Whatever the CPU count, the caller gets eps = 1's ``Instability``, with its
    message, monitor and tau."""
    spec = arctangent_model(maturity=100.0)
    factory = lambda spec_eps, tau: make_grid(spec_eps, tau, nx=41 if spec_eps.epsilon > 2 else 21,
                                              dt=tau / 8)
    raised = {}
    for eps in (1.0, 4.0):
        with pytest.raises(Instability, match="after 6 dt halvings") as raised[eps]:
            price_surface(spec.with_(epsilon=eps), factory(spec.with_(epsilon=eps), 100.0))
    earliest = raised[1.0].value
    assert str(earliest) != str(raised[4.0].value)
    for cpus, order in ((1, []), (2, [4.0, 0.25, 1.0])):
        submitted = []
        with pytest.raises(Instability) as info:
            _sweep_on(monkeypatch, cpus, submitted, spec, [0.25, 1.0, 4.0], [(100.0, 0.0, 0.0)],
                      grid_factory=factory)
        assert submitted == order
        assert str(info.value) == str(earliest)
        assert (info.value.monitor, info.value.tau) == ("gradient", earliest.tau)


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
    assert u0.shape == (grid.x.size,)  # one row: the payoff does not depend on y
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
    # u is derived from them, and it is the march's u to about one ulp
    assert surface.u.tobytes() == (surface.u_tilde[None, :] - surface.P).tobytes()
    grid = surface.grid
    marched = _march(fast_spec, grid, payoff_initial(fast_spec, grid))[:, :-1].T
    np.testing.assert_allclose(surface.u, marched, rtol=0.0, atol=1e-13 * fast_spec.strike)


def test_nan_in_initial_data_raises_instability(fast_spec):
    """A NaN in any column block reaches the gradient monitor, which the blocks' maxima share."""
    grid = make_grid(fast_spec, 0.25, nx=41)
    nx = grid.x.size
    assert pde.X_BLOCK < nx  # more than one block
    for column in (1, nx // 2, nx - 2):
        U0 = np.tile(payoff_initial(fast_spec, grid), (grid.y.size, 1))
        U0[grid.y.size // 2, column] = np.nan
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
    assert (info.value.monitor, info.value.tau) == ("gradient", 1.0)


def test_the_demo_at_eps_one_and_tau_ten_solves_in_band(caplog):
    """At eps = 1, tau = 10 on the +-3 span the deep in-the-money end holds the payoff, so
    the solve stays in the band: at 160 steps no monitor trips, and at the dt rule's 80 the
    gradient monitor trips once, at step 16, and the solve halves to 160."""
    spec = arctangent_model(epsilon=1.0)
    for grid, halvings in ((make_grid(spec, 10.0, nx=41, dt=10.0 / 160), 0),
                           (make_grid(spec, 10.0, nx=41), 1)):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="volclust.pde"):
            surface = price_surface(spec, grid)
        assert surface.grid.n_steps == 160
        records = [r.getMessage() for r in caplog.records if r.name == "volclust.pde"]
        assert len(records) == halvings
        assert all(r.startswith("dt 1.250e-01 exceeds the gradient bound at step 16 ")
                   for r in records)
        assert -pde.BAND_SLACK * spec.strike <= surface.P.min() <= surface.P.max() <= spec.strike


def test_a_random_model_asked_for_one_step_solves_in_it(caplog):
    """A random model asked for one step to maturity at nx = 21 takes that one step, in
    band, with no monitor trip."""
    rng = np.random.default_rng(123)
    spec = [random_valid_spec(rng) for _ in range(22)][-1]
    grid = make_grid(spec, spec.maturity, nx=21, dt=spec.maturity)
    assert grid.n_steps == 1
    with caplog.at_level(logging.INFO, logger="volclust.pde"):
        surface = price_surface(spec, grid)
    assert surface.grid.n_steps == 1
    assert [r for r in caplog.records if r.name == "volclust.pde"] == []
    assert -pde.BAND_SLACK * spec.strike <= surface.P.min() <= surface.P.max() <= spec.strike


@pytest.mark.parametrize("nx, x_span", [(pde.DEFAULT_NX, pde.DEFAULT_X_SPAN), (201, (-1.0, 1.0))],
                         ids=["default", "skew3"])
def test_price_is_the_payoff_at_both_x_ends(nx, x_span):
    """The x-ends' identity rows give them only the y-parts of a step, which u_tilde takes
    too, so P = u_tilde - u stays at the put's payoff there, to rounding."""
    spec = arctangent_model()
    grid = make_grid(spec, spec.maturity, nx=nx, x_span=x_span)
    surface = price_surface(spec, grid)
    payoff = -payoff_initial(spec, grid)
    for end in (0, -1):
        assert np.abs(surface.P[end] - payoff[end]).max() <= 1e-10 * spec.strike


def test_amplitude_monitor_trips_when_u_and_u_tilde_move_together(monkeypatch, caplog):
    """A source 1e6 times too strong moves u and u_tilde alike, and the amplitude cap trips."""
    weights = pde._explicit_weights

    def loud_source(*args):
        mixed, quad, source = weights(*args)
        return mixed, quad, source * 1e6

    monkeypatch.setattr(pde, "_explicit_weights", loud_source)
    spec = arctangent_model(epsilon=0.25, maturity=0.05)
    grid = make_grid(spec, spec.maturity, nx=21)
    first = "u left the amplitude bound at step 1 (|u| = 8.868e+03)"
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
            W1 = _march(fast_spec, one_step, U0)
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

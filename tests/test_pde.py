import logging
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from volclust import pde
from volclust.bs import bs_put
from volclust.errors import BadGrid, Instability, NumericalError
from volclust.model import Constant, ModelSpec, arctangent_model
from volclust.pde import (Grid2D, _march_1d, _march_2d, accuracy_sweep,
                          apply_discrete_operator, make_grid, payoff_initial,
                          price_surface, solve_u_tilde_cole_hopf)

DATA = Path(__file__).parent / "data"


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


def test_grid_validation():
    with pytest.raises(BadGrid):
        Grid2D(x=np.array([0.0, 1.0, 3.0, 4.0, 5.0]), y=np.linspace(0, 1, 5),
               dt=0.1, n_steps=1)
    with pytest.raises(BadGrid):
        Grid2D(x=np.linspace(0, 1, 5), y=np.linspace(0, 1, 5), dt=-0.1, n_steps=1)


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
    assert np.abs(_march_1d(spec, grid)[-1]).max() == 0.0


def test_price_is_payoff_at_tau_zero(fast_spec):
    grid = make_grid(fast_spec, 0.0, nx=61)
    surface = price_surface(fast_spec, grid)
    payoff = np.maximum(100 - 100 * np.exp(grid.x), 0.0)
    assert np.array_equal(surface.P, np.tile(payoff[:, None], (1, grid.y.size)))


def test_price_band(fast_spec):
    grid = make_grid(fast_spec, 0.25, nx=121)
    surface = price_surface(fast_spec, grid)
    assert surface.P.min() >= -1e-6 * fast_spec.strike
    assert surface.P.max() <= fast_spec.strike * (1 + 1e-6)


def test_u_tilde_is_x_independent_on_full_grid(fast_spec):
    grid = make_grid(fast_spec, 0.25, nx=61)
    flat = _march_1d(fast_spec, grid)[-1]
    full = _march_2d(fast_spec, grid, np.zeros((grid.y.size, grid.x.size)))[0].T
    assert np.abs(full - full.mean(axis=0, keepdims=True)).max() < 1e-12
    assert np.abs(full - flat[None, :]).max() < 1e-12


def test_ordered_initial_data_stay_ordered(fast_spec):
    grid = make_grid(fast_spec, 0.25, nx=101, dt=0.25 / 100)
    every_tenth = range(0, grid.n_steps + 1, 10)
    _, hist_pay = _march_2d(fast_spec, grid, payoff_initial(fast_spec, grid),
                            snapshot_steps=every_tenth)
    _, hist_zero = _march_2d(fast_spec, grid, np.zeros((grid.y.size, grid.x.size)),
                             snapshot_steps=every_tenth)
    assert sorted(hist_pay) == sorted(hist_zero) == list(every_tenth)
    worst = min(float((hist_zero[k] - hist_pay[k]).min()) for k in every_tenth)
    assert worst > -1e-9 * fast_spec.strike


def test_cole_hopf_oracle_for_u_tilde(fast_spec):
    spec = fast_spec.with_(eta=0.15)
    gaps = []
    for n_steps in (100, 400):
        grid = make_grid(spec, 0.25, nx=61, dt=0.25 / n_steps)
        gaps.append(np.abs(_march_1d(spec, grid)[-1]
                           - solve_u_tilde_cole_hopf(spec, grid)).max())
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


def test_first_order_convergence_in_time(fast_spec):
    surfaces = {}
    for n_steps in (50, 100, 200):
        grid = make_grid(fast_spec, 0.25, nx=121, dt=0.25 / n_steps)
        surfaces[n_steps] = price_surface(fast_spec, grid).P
    d1 = np.abs(surfaces[50] - surfaces[100]).max()
    d2 = np.abs(surfaces[100] - surfaces[200]).max()
    assert math.log2(d1 / d2) > 0.9


def test_spatial_consistency_orders():
    spec = arctangent_model(eta=0.1, epsilon=0.5)

    def sup_errors(n):
        x = np.linspace(-2, 2, n)
        y = np.linspace(-1, 1, n)
        grid = Grid2D(x=x, y=y, dt=1.0, n_steps=1)
        X, Y = np.meshgrid(x, y)
        v = np.sin(X) * np.cos(Y)
        vx, vxx = np.cos(X) * np.cos(Y), -v
        vy, vyy = -np.sin(X) * np.sin(Y), -v
        vxy = -np.cos(X) * np.sin(Y)
        eps = spec.epsilon
        s1, s2, b = (np.asarray(spec.sigma1(Y)), np.asarray(spec.sigma2(Y)),
                     np.asarray(spec.b(Y)))
        pref = spec.rho + spec.eta * math.sqrt(1 - spec.rho ** 2)
        advect = (((spec.m - Y) / eps - pref * b * s2 / (s1 * math.sqrt(eps))) * vy
                  - 0.5 * s1 ** 2 * vx)
        centered = (0.5 * s1 ** 2 * vxx + s2 ** 2 / (2 * eps) * vyy
                    + spec.rho * s1 * s2 / math.sqrt(eps) * vxy
                    + spec.gamma * (1 - spec.rho ** 2) * s2 ** 2 / (2 * eps) * vy ** 2
                    - b ** 2 / (2 * spec.gamma * s1 ** 2))
        inner = (slice(1, -1), slice(1, -1))
        e_cen = np.abs((apply_discrete_operator(spec, grid, v, "centered") - centered)[inner]).max()
        e_full = np.abs((apply_discrete_operator(spec, grid, v, "all")
                         - (centered + advect))[inner]).max()
        return e_cen, e_full

    cen1, full1 = sup_errors(81)
    cen2, full2 = sup_errors(161)
    assert math.log2(cen1 / cen2) > 1.8   # diffusions and mixed term are second order
    assert math.log2(full1 / full2) > 0.9  # upwind advection caps the full operator at one


def test_instability_raised_for_reckless_dt():
    # fast enough mean reversion that the quadratic gradient term bites
    spec = arctangent_model(epsilon=0.01)
    grid = make_grid(spec, 0.25, nx=61)
    reckless = Grid2D(x=grid.x, y=grid.y, dt=grid.dt * 100,
                      n_steps=max(1, grid.n_steps // 100))
    with pytest.raises(Instability):
        _march_2d(spec, reckless, payoff_initial(spec, reckless))


def test_price_surface_recovers_by_halving_dt():
    spec = arctangent_model(epsilon=0.01)
    grid = make_grid(spec, 0.25, nx=61)
    too_big = Grid2D(x=grid.x, y=grid.y, dt=grid.dt * 16,
                     n_steps=int(math.ceil(grid.n_steps / 16)))
    surface = price_surface(spec, too_big)
    assert surface.grid.dt < too_big.dt  # at least one halving happened
    assert surface.P.min() >= -1e-6 * spec.strike
    assert surface.snapshots == {}


def test_snapshots_map_caller_steps_onto_the_halved_grid():
    spec = arctangent_model(epsilon=0.01)
    grid = make_grid(spec, 0.25, nx=61)
    too_big = Grid2D(x=grid.x, y=grid.y, dt=grid.dt * 16,
                     n_steps=int(math.ceil(grid.n_steps / 16)))
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
    def no_march(*args):
        raise AssertionError("price_surface marched before checking snapshot_steps")

    monkeypatch.setattr(pde, "_march_1d", no_march)
    spec = arctangent_model(epsilon=0.25, maturity=0.05)
    grid = make_grid(spec, spec.maturity, nx=21)
    for step in (grid.n_steps + 1, -1):
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


def test_payoff_initial_matches_contract(fast_spec):
    grid = make_grid(fast_spec, 0.25, nx=61)
    u0 = payoff_initial(fast_spec, grid)
    assert u0.shape == (grid.y.size, grid.x.size)
    assert u0.max() == 0.0
    assert u0.min() == pytest.approx(-(100 - 100 * math.exp(grid.x[0])))


def test_surface_matches_golden_output(fast_spec):
    """Pins the march's output at the speed-up tolerance.

    The files hold ``price_surface(fast_spec, make_grid(fast_spec, 0.25,
    nx=41))`` of the first-order IMEX march (``np.save`` of ``.P`` and
    ``.u_tilde``); a change of scheme must regenerate them on purpose.
    """
    surface = price_surface(fast_spec, make_grid(fast_spec, 0.25, nx=41))
    np.testing.assert_allclose(surface.P, np.load(DATA / "golden_fast_nx41_P.npy"),
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(surface.u_tilde, np.load(DATA / "golden_fast_nx41_u_tilde.npy"),
                               rtol=1e-12, atol=0.0)


def test_nan_in_initial_data_raises_instability(fast_spec):
    grid = make_grid(fast_spec, 0.25, nx=41)
    U0 = payoff_initial(fast_spec, grid)
    U0[grid.y.size // 2, grid.x.size // 2] = np.nan
    with pytest.raises(Instability, match="gradient bound at step 1"):
        _march_2d(fast_spec, grid, U0)
    assert issubclass(Instability, NumericalError)  # the CLI maps it to exit code 3


def test_coarse_demo_logs_one_halving(caplog):
    """The demo asked for 125 steps trips the 2-d gradient monitor once."""
    spec = arctangent_model()
    grid = make_grid(spec, 0.25, nx=201, dt=0.002)
    assert grid.n_steps == 125
    with caplog.at_level(logging.INFO, logger="volclust.pde"):
        surface = price_surface(spec, grid)
    assert surface.grid.n_steps == 250
    records = [r for r in caplog.records if r.name == "volclust.pde"]
    assert len(records) == 1
    message = records[0].getMessage()
    assert message.startswith("dt 2.000e-03 exceeds the gradient bound at step 3 ")
    assert message.endswith("halving dt to 250 steps")


def test_out_of_retries_names_the_monitor_that_tripped(monkeypatch):
    """With no retries left the final error carries the last monitor's cause."""
    monkeypatch.setattr(pde, "MAX_DT_RETRIES", 0)
    spec = arctangent_model()
    grid = make_grid(spec, 0.25, nx=201, dt=0.002)
    with pytest.raises(Instability, match="gradient bound at step 3") as info:
        price_surface(spec, grid)
    assert "price band" not in str(info.value)
    assert isinstance(info.value.__cause__, Instability)
    assert str(info.value.__cause__) in str(info.value)


def test_price_band_monitor_trips_on_either_side(fast_spec):
    grid = make_grid(fast_spec, 0.25, nx=41)
    tilde_steps = _march_1d(fast_spec, grid)
    U0 = payoff_initial(fast_spec, grid)
    one_step = Grid2D(x=grid.x, y=grid.y, dt=grid.dt, n_steps=1)
    U1, _ = _march_2d(fast_spec, one_step, U0)
    for shift in (-1.0, fast_spec.strike + 1.0):  # below 0, then above K
        price = tilde_steps[1][:, None] + shift - U1
        with pytest.raises(Instability) as info:
            _march_2d(fast_spec, grid, U0, u_tilde_steps=tilde_steps + shift)
        assert str(info.value) == (f"price band violated at step 1: [{price.min():.3e}, "
                                   f"{price.max():.3e}] vs [0, {fast_spec.strike}]")

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, trapezoid

from conftest import random_valid_spec
from volclust.errors import DegenerateDensity
from volclust.measure import build_invariant_measure
from volclust.model import Constant
from volclust.poisson import (compute_group_constants, group_constants_for,
                              solve_phi_derivatives)

# frozen first-computation values for the demo model (eta = 0, gamma = 1),
# cross-validated against the 8001/16001-node double-integral oracle
DEMO_A = 0.0005635944576194125
DEMO_B = 0.006263240170466461
DEMO_A_TILDE = -0.8071150328486131


def constants_on(spec, n_nodes):
    """group_constants_for(spec) on a measure of ``n_nodes`` quadrature nodes."""
    measure = build_invariant_measure(spec, n_nodes=n_nodes)
    return compute_group_constants(spec, measure, solve_phi_derivatives(spec, measure))


def poisson_residual(spec, measure, phi_prime, rhs_centered):
    """Sup-norm of (generator applied to integrated phi) - rhs on the interior 80%."""
    y = measure.grid
    dy = y[1] - y[0]
    phi = cumulative_trapezoid(phi_prime, y, initial=0.0)
    d1 = np.zeros_like(phi)
    d2 = np.zeros_like(phi)
    d1[1:-1] = (phi[2:] - phi[:-2]) / (2 * dy)
    d2[1:-1] = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / dy ** 2
    s2sq = np.asarray(spec.sigma2(y)) ** 2
    applied = (spec.m - y) * d1 + 0.5 * s2sq * d2
    lo, hi = int(0.1 * y.size), int(0.9 * y.size)
    return np.abs((applied - rhs_centered)[lo:hi]).max()


def centered_rhs(spec, measure, which):
    y = measure.grid
    s1sq = np.asarray(spec.sigma1(y)) ** 2
    if which == 1:
        f = np.asarray(spec.b(y)) ** 2 / (2 * spec.gamma * s1sq)
    else:
        f = 0.5 * s1sq
    mass = trapezoid(measure.density, y)
    return f - trapezoid(f * measure.density, y) / mass


def test_constant_sigma1_kills_phi2(demo_spec):
    spec = demo_spec.with_(sigma1=Constant(0.3))
    measure = build_invariant_measure(spec)
    phis = solve_phi_derivatives(spec, measure)
    assert np.abs(phis.phi2_prime).max() < 1e-12


def test_constant_everything_kills_phi1(demo_spec):
    spec = demo_spec.with_(sigma1=Constant(0.3), b=Constant(1.0))
    measure = build_invariant_measure(spec)
    phis = solve_phi_derivatives(spec, measure)
    assert np.abs(phis.phi1_prime).max() < 1e-12


def test_demo_poisson_residuals():
    from volclust.model import arctangent_model

    spec = arctangent_model()
    measure = build_invariant_measure(spec, n_nodes=16001)
    phis = solve_phi_derivatives(spec, measure)
    assert poisson_residual(spec, measure, phis.phi2_prime, centered_rhs(spec, measure, 2)) < 1e-4
    assert poisson_residual(spec, measure, phis.phi1_prime, centered_rhs(spec, measure, 1)) < 1e-4


def test_phi_prime_bounded_with_tail_decay(demo_phis, demo_measure):
    assert np.all(np.isfinite(demo_phis.phi2_prime))
    y = demo_measure.grid
    tail = np.abs(y) > 0.8  # ~5.7 stationary standard deviations out
    assert np.abs(demo_phis.phi2_prime[tail]).max() < np.abs(demo_phis.phi2_prime).max()


def test_demo_constants_regression(demo_gc):
    assert demo_gc.a == pytest.approx(DEMO_A, rel=1e-12)
    assert demo_gc.b == pytest.approx(DEMO_B, rel=1e-12)
    assert demo_gc.a_tilde == pytest.approx(DEMO_A_TILDE, rel=1e-12)
    assert demo_gc.a > 0  # increasing vol level and rho < 0 force this sign


def test_demo_constants_against_fine_grid_oracle(demo_gc):
    from volclust.model import arctangent_model

    oracle = constants_on(arctangent_model(), 8001)
    assert demo_gc.a == pytest.approx(oracle.a_alt, rel=1e-7)
    assert demo_gc.b == pytest.approx(oracle.b_alt, rel=1e-7)


def test_two_routes_agree(demo_gc):
    assert abs(demo_gc.a - demo_gc.a_alt) <= 1e-5 * (1 + abs(demo_gc.a))
    assert abs(demo_gc.b - demo_gc.b_alt) <= 1e-5 * (1 + abs(demo_gc.b))


def test_two_routes_agree_randomized():
    rng = np.random.default_rng(314)
    for _ in range(3):
        spec = random_valid_spec(rng)
        gc = group_constants_for(spec)
        assert abs(gc.a - gc.a_alt) <= 1e-5 * (1 + abs(gc.a))
        assert abs(gc.b - gc.b_alt) <= 1e-5 * (1 + abs(gc.b))


def test_zero_prefactors_kill_constants(demo_spec):
    spec = demo_spec.with_(rho=0.0, eta=0.0)
    gc = group_constants_for(spec)
    assert gc.a == 0.0
    assert gc.b == 0.0


def test_prefactor_linearity_in_eta(demo_spec, demo_measure, demo_phis):
    def ratio(eta):
        gc = compute_group_constants(demo_spec.with_(eta=eta), demo_measure, demo_phis)
        return gc.b / (demo_spec.rho + eta * math.sqrt(1 - demo_spec.rho ** 2))

    assert ratio(0.4) == pytest.approx(ratio(-0.4), abs=1e-10)


def test_gamma_scaling(demo_spec, demo_measure):
    def constants(gamma):
        spec = demo_spec.with_(gamma=gamma)
        return compute_group_constants(spec, demo_measure, solve_phi_derivatives(spec, demo_measure))

    gc1, gc2 = constants(1.0), constants(2.0)
    assert gc2.a_tilde == pytest.approx(gc1.a_tilde / 2, abs=1e-10)
    assert gc2.a == gc1.a      # bit-identical: phi2 carries no gamma
    assert gc2.b == gc1.b


def test_grid_refinement_stability():
    from volclust.model import arctangent_model

    coarse = constants_on(arctangent_model(), 4001)
    fine = constants_on(arctangent_model(), 8001)
    for name in ("a", "a_tilde", "b"):
        c, f = getattr(coarse, name), getattr(fine, name)
        assert abs(c - f) <= 1e-6 * abs(f)


def test_degenerate_density_guard(demo_spec, demo_measure):
    dead = demo_measure.density.copy()
    dead[len(dead) // 3] = 0.0  # kill a node where the cumulative is far from zero
    broken = replace(demo_measure, density=dead)
    with pytest.raises(DegenerateDensity):
        solve_phi_derivatives(demo_spec, broken)


def test_mismatched_grids_rejected(demo_spec, demo_measure, demo_phis):
    other = build_invariant_measure(demo_spec, n_nodes=2001)
    with pytest.raises(ValueError):
        compute_group_constants(demo_spec, other, demo_phis)

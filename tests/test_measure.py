import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, quad, trapezoid

from volclust import measure
from volclust.errors import NonIntegrable
from volclust.measure import average, build_invariant_measure
from volclust.model import Arctangent, Constant, Tabulated, arctangent_model

# E[sigma1^2] for the demo model under N(0, 0.02), by adaptive quadrature
# of (0.3 + 0.5/pi * atan y)^2 against the Gaussian density (abs err < 5e-15)
DEMO_AVG_SIGMA1_SQ = 0.09048774002216012


@pytest.mark.parametrize("n", [1, 2, 4001])
def test_trapezoid_rules_match_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    uniform = np.linspace(-1.5, 2.5, n)
    ragged = np.cumsum(rng.uniform(0.01, 1.0, n)) - 3.0
    for grid in (uniform, ragged):
        # forward, and the reversed slices _unnormalized_density integrates
        # outward from its anchor node
        anchors = sorted({0, n // 2, n - 1})
        slices = [grid] + [grid[a:] for a in anchors] + [grid[a::-1] for a in anchors]
        for x in slices:
            y = rng.normal(size=x.size) * np.exp(rng.uniform(-3, 3, x.size))
            own, ref = measure.trapezoid(y, x), trapezoid(y, x)
            assert np.asarray(own).tobytes() == np.asarray(ref).tobytes()
            own, ref = measure.cumulative_trapezoid(y, x), cumulative_trapezoid(y, x, initial=0.0)
            assert own.dtype == ref.dtype and own.shape == ref.shape == x.shape
            assert own.tobytes() == ref.tobytes()


def test_ou_density_is_gaussian(demo_spec):
    m = build_invariant_measure(demo_spec)
    c = 0.2
    gauss = np.exp(-m.grid ** 2 / (c * c)) / math.sqrt(math.pi * c * c)
    assert np.abs(m.density - gauss).max() < 1e-8


def test_ou_standard_deviation(demo_spec, demo_measure):
    assert demo_measure.std() == pytest.approx(0.2 / math.sqrt(2), abs=1e-6)


def test_normalization(demo_measure):
    mass = trapezoid(demo_measure.density, demo_measure.grid)
    assert abs(mass - 1.0) < 1e-8
    assert average(demo_measure, Constant(1.0)(demo_measure.grid)) == pytest.approx(1.0, abs=1e-8)


def test_average_sigma1_sq_against_quadrature_oracle(demo_spec, demo_measure):
    value = average(demo_measure, demo_spec.sigma1(demo_measure.grid) ** 2)
    assert value > 0.09  # symmetry: 0.09 + (0.5/pi)^2 E[atan^2 Y]
    assert value == pytest.approx(DEMO_AVG_SIGMA1_SQ, abs=1e-10)


def test_centered_average_is_zero(demo_spec, demo_measure):
    s1sq = np.asarray(demo_spec.sigma1(demo_measure.grid)) ** 2
    centered = s1sq - average(demo_measure, s1sq)
    assert abs(average(demo_measure, centered)) < 1e-10


@pytest.mark.parametrize("f,fp,fpp", [
    (lambda y: y ** 2, lambda y: 2 * y, lambda y: 2 + 0 * y),
    (np.sin, np.cos, lambda y: -np.sin(y)),
    (lambda y: np.exp(-y ** 2), lambda y: -2 * y * np.exp(-y ** 2),
     lambda y: (4 * y ** 2 - 2) * np.exp(-y ** 2)),
])
def test_generator_annihilation(demo_spec, demo_measure, f, fp, fpp):
    y = demo_measure.grid
    s2sq = np.asarray(demo_spec.sigma2(y)) ** 2
    generator_f = (demo_spec.m - y) * fp(y) + 0.5 * s2sq * fpp(y)
    assert abs(average(demo_measure, generator_f)) < 5e-6


def test_nonconstant_sigma2_density_ratio_matches_quadrature():
    table = Tabulated(np.linspace(-3, 3, 25),
                      0.2 + 0.05 * np.sin(np.linspace(-3, 3, 25)))
    spec = arctangent_model().with_(sigma2=table)
    m = build_invariant_measure(spec, tol=1e-10)
    assert abs(trapezoid(m.density, m.grid) - 1.0) < 1e-10

    def log_unnormalized(y):
        integral, _ = quad(lambda z: -2.0 * z / float(table(z)) ** 2, 0.0, y,
                           epsabs=1e-13, epsrel=1e-13)
        return integral - 2.0 * math.log(float(table(y)))

    rng = np.random.default_rng(7)
    nodes = rng.choice(m.grid[(np.abs(m.grid) < 0.6)], size=10, replace=False)
    ref = nodes[0]
    for y in nodes[1:]:
        expected = math.exp(log_unnormalized(float(y)) - log_unnormalized(float(ref)))
        iy, ir = np.searchsorted(m.grid, y), np.searchsorted(m.grid, ref)
        assert m.density[iy] / m.density[ir] == pytest.approx(expected, rel=1e-5)


def test_doubling_resolution_is_quadrature_stable(demo_spec):
    coarse = build_invariant_measure(demo_spec, n_nodes=4001)
    fine = build_invariant_measure(demo_spec, n_nodes=8001)
    for f in (lambda y: np.asarray(demo_spec.sigma1(y)) ** 2,
              lambda y: 1.0 / np.asarray(demo_spec.sigma1(y)) ** 2,
              np.cos):
        assert abs(average(coarse, f(coarse.grid)) - average(fine, f(fine.grid))) < 1e-7


def test_doubling_resolution_nonconstant_sigma2(demo_spec):
    # with a nonconstant vol-of-vol the exponent itself is quadrature-limited;
    # bounded integrands still hold the refinement tolerance
    spec = demo_spec.with_(sigma2=Arctangent(0.25, 0.1))
    coarse = build_invariant_measure(spec, n_nodes=4001)
    fine = build_invariant_measure(spec, n_nodes=8001)
    for f in (lambda y: np.asarray(spec.sigma1(y)) ** 2, np.cos):
        assert abs(average(coarse, f(coarse.grid)) - average(fine, f(fine.grid))) < 1e-7


def test_density_nonnegative(demo_measure):
    assert demo_measure.density.min() >= 0.0


def test_huge_vol_of_vol_is_nonintegrable_on_capped_domain(demo_spec):
    with pytest.raises(NonIntegrable):
        build_invariant_measure(demo_spec.with_(sigma2=Constant(100.0)))


def test_average_rejects_wrong_length(demo_measure):
    with pytest.raises(ValueError):
        average(demo_measure, np.ones(7))


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan], ids=["zero", "negative", "nan"])
def test_the_measure_needs_a_positive_tolerance(demo_spec, tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        build_invariant_measure(demo_spec, tol=tol)

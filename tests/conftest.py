import concurrent.futures
import os
from pathlib import Path

import numpy as np
import pytest

from volclust import (arctangent_model, build_invariant_measure,
                      compute_group_constants, solve_phi_derivatives)
from volclust.model import Arctangent, Constant, ModelSpec, Tabulated, validate


def pytest_collection_modifyitems(items):
    """Fail every test under tests/ on a RuntimeWarning (overflow, nan, divide by zero).

    Prepended, so a test's own filterwarnings mark still takes precedence.
    """
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"), append=False)


def pin_cpus(monkeypatch, count: int) -> None:
    """Make ``count`` CPUs the process's affinity set, as ``pde.parallel_map`` sizes its worker
    pool from it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def forbid_pool(monkeypatch) -> None:
    """Fail a test that starts a worker pool: ``pde.parallel_map`` imports its executor when it
    starts one."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool started on one CPU")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)


@pytest.fixture()
def one_cpu(monkeypatch):
    """One CPU in the affinity set: ``pde.parallel_map`` runs every solve in this process."""
    pin_cpus(monkeypatch, 1)


@pytest.fixture(scope="session")
def demo_spec():
    """Arctangent demo model: eta = 0, gamma = 1, eps = 0.004, K = 100, T = 0.25."""
    return arctangent_model()


@pytest.fixture(scope="session")
def demo_measure(demo_spec):
    return build_invariant_measure(demo_spec)


@pytest.fixture(scope="session")
def demo_phis(demo_spec, demo_measure):
    return solve_phi_derivatives(demo_spec, demo_measure)


@pytest.fixture(scope="session")
def demo_gc(demo_spec, demo_measure, demo_phis):
    return compute_group_constants(demo_spec, demo_measure, demo_phis)


def random_valid_spec(rng: np.random.Generator) -> ModelSpec:
    """Draw a random bounded/positive model; used by the randomized checks."""
    def coeff(lo, hi, positive):
        kind = rng.integers(0, 3)
        if kind == 0:
            return Constant(float(rng.uniform(lo, hi)))
        if kind == 1:
            base = rng.uniform(lo, hi)
            amp_cap = 1.8 * (base - lo) if positive else (hi - lo)
            return Arctangent(float(base), float(rng.uniform(0.05, max(0.06, amp_cap))))
        grid = np.linspace(-8.0, 8.0, 33)
        wobble = rng.uniform(0.2, 0.8) * np.sin(rng.uniform(0.3, 1.5) * grid + rng.uniform(0, 6))
        values = lo + (hi - lo) * (0.55 + 0.35 * wobble)
        return Tabulated(grid, values)

    spec = ModelSpec(
        b=coeff(0.3, 1.2, positive=False),
        sigma1=coeff(0.2, 0.45, positive=True),
        sigma2=coeff(0.15, 0.35, positive=True),
        m=float(rng.uniform(-0.5, 0.5)),
        rho=float(rng.uniform(-0.7, 0.7)),
        eta=float(rng.uniform(-0.5, 0.5)),
        gamma=float(rng.uniform(0.8, 3.0)),
        epsilon=float(rng.uniform(0.002, 0.05)),
        strike=float(rng.uniform(50.0, 150.0)),
        maturity=float(rng.uniform(0.1, 1.0)),
    )
    assert validate(spec).is_valid
    return spec

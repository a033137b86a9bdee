"""Acceptance suite: every criterion asserts its stated tolerance and
prints one PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from conftest import random_valid_spec
from test_poisson import centered_rhs, poisson_residual
from volclust.asymptotics import asymptotic_price, corrected_iv
from volclust.bs import bs_put, implied_vol, put_payoff
from volclust.calibrate import (IVQuote, calibrate_from_surface, fit_affine,
                                recover_constants)
from volclust.measure import build_invariant_measure
from volclust.model import Constant, ModelSpec, arctangent_model
from volclust.pde import accuracy_sweep, make_grid, price_surface
from volclust.poisson import (compute_group_constants, group_constants_for,
                              solve_phi_derivatives)

EPS_SWEEP = (0.04, 0.01, 0.0025)
SKEW_ETAS = (-0.25, 0.0, 0.25)
SKEW_EPS = 0.004
TAU = 0.25


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"{criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    return passed


def probe_points(spec):
    std = build_invariant_measure(spec).std()
    return [(TAU, x, y)
            for x in (-1.0, -0.5, 0.0, 0.5, 1.0)
            for y in (spec.m - 2 * std, spec.m - std, spec.m, spec.m + std, spec.m + 2 * std)]


@pytest.fixture(scope="module")
def demo():
    return arctangent_model()


@pytest.fixture(scope="module")
def sweep_rows(demo):
    return accuracy_sweep(demo, EPS_SWEEP, probe_points(demo))


@pytest.fixture(scope="module")
def skew_surfaces(demo):
    """One PDE price surface per risk premium at the skew epsilon."""
    surfaces = {}
    for eta in SKEW_ETAS:
        spec = demo.with_(eta=eta, epsilon=SKEW_EPS)
        grid = make_grid(spec, TAU)
        surfaces[eta] = (spec, grid, price_surface(spec, grid))
    return surfaces


def test_ac1_accuracy_scaling(sweep_rows):
    errs = [r.max_abs_error for r in sweep_rows]
    norms = [r.normalized for r in sweep_rows]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    ratio = max(norms) / min(norms)
    detail = ("E = " + ", ".join(f"{e:.4f}" for e in errs)
              + f"; max/min normalized = {ratio:.3f}")
    assert report("AC-1 accuracy scaling", decreasing and ratio < 3.0, detail)


def test_ac2_skew_reproduction(skew_surfaces):
    lm_grid = np.linspace(-0.3, 0.3, 61)
    curves = {}
    for eta, (spec, grid, surface) in skew_surfaces.items():
        jy = int(np.argmin(np.abs(grid.y - spec.m)))
        ivs = []
        for lm in lm_grid:
            ix = int(np.argmin(np.abs(grid.x + lm)))
            ivs.append(implied_vol(float(surface.P[ix, jy]), TAU,
                                   float(grid.x[ix]), spec.strike))
        curves[eta] = np.array(ivs)

    monotone = all(np.all(np.diff(curves[eta]) < 0) for eta in SKEW_ETAS)
    ordered = (np.all(curves[-0.25] > curves[0.0])
               and np.all(curves[0.0] > curves[0.25]))
    r2s = []
    design = np.vstack([lm_grid, np.ones_like(lm_grid)]).T
    for eta in SKEW_ETAS:
        _, res, *_ = np.linalg.lstsq(design, curves[eta], rcond=None)
        r2s.append(1 - res[0] / ((curves[eta] - curves[eta].mean()) ** 2).sum())
    linear = all(r2 > 0.98 for r2 in r2s)
    detail = (f"monotone={monotone}, ordered={ordered}, "
              f"r2 = {', '.join(f'{v:.4f}' for v in r2s)}")
    assert report("AC-2 skew reproduction", monotone and ordered and linear, detail)


def test_ac3_asymptotics_vs_pde(demo, skew_surfaces):
    spec, grid, surface = skew_surfaces[0.0]
    gc = group_constants_for(spec)
    worst = 0.0
    for _, x, y in probe_points(demo):
        ix = int(np.argmin(np.abs(grid.x - x)))
        jy = int(np.argmin(np.abs(grid.y - y)))
        corrected = asymptotic_price(gc, spec, TAU, float(grid.x[ix])).corrected
        worst = max(worst, abs(float(surface.P[ix, jy]) - corrected))
    bound = 0.02 * spec.strike
    assert report("AC-3 asymptotics vs PDE", worst < bound,
                  f"max gap {worst:.5f} < {bound}")


def test_ac4_degenerate_black_scholes():
    spec = ModelSpec(b=Constant(0.0), sigma1=Constant(0.2), sigma2=Constant(0.2),
                     m=0.0, rho=-0.2, eta=0.3, gamma=1.7, epsilon=1.0,
                     strike=100.0, maturity=0.5)
    grid = make_grid(spec, spec.maturity)
    surface = price_surface(spec, grid)
    worst = 0.0
    for i in np.where(np.abs(grid.x) <= 2.0)[0][::5]:
        ref = bs_put(spec.maturity, float(grid.x[i]), spec.strike, 0.2)
        worst = max(worst, float(np.abs(surface.P[i, :] - ref).max()))
    gc = group_constants_for(spec)
    ap = asymptotic_price(gc, spec, spec.maturity, 0.1)
    civ = corrected_iv(gc, spec)
    pde_ok = worst < 2e-3 * spec.strike
    flat_ok = abs(ap.P1) < 1e-10 and abs(civ.a) < 1e-13 and abs(civ.d - 0.2) < 1e-9
    assert report("AC-4 degenerate Black-Scholes", pde_ok and flat_ok,
                  f"max |P - BS| = {worst:.5f}, P1 = {ap.P1:.2e}, "
                  f"a = {civ.a:.2e}, d - sigma1 = {civ.d - 0.2:.2e}")


def test_ac5_constants_cross_check():
    rng = np.random.default_rng(987)
    worst = 0.0
    for _ in range(5):
        spec = random_valid_spec(rng)
        gc = group_constants_for(spec)
        worst = max(worst,
                    abs(gc.a - gc.a_alt) / (1 + abs(gc.a)),
                    abs(gc.b - gc.b_alt) / (1 + abs(gc.b)))
    assert report("AC-5 constants cross-check", worst <= 1e-5,
                  f"worst relative disagreement {worst:.2e}")


def test_ac6_poisson_residuals():
    rng = np.random.default_rng(555)
    specs = [arctangent_model()] + [random_valid_spec(rng) for _ in range(3)]
    worst = 0.0
    for spec in specs:
        measure = build_invariant_measure(spec, n_nodes=20001)
        phis = solve_phi_derivatives(spec, measure)
        worst = max(
            worst,
            poisson_residual(spec, measure, phis.phi1_prime, centered_rhs(spec, measure, 1)),
            poisson_residual(spec, measure, phis.phi2_prime, centered_rhs(spec, measure, 2)),
        )
    assert report("AC-6 Poisson residuals", worst < 1e-4, f"sup residual {worst:.2e}")


def test_ac7_gamma_independence(demo):
    measure = build_invariant_measure(demo)
    results = []
    for gamma in (0.5, 1.0, 4.0):
        spec = demo.with_(gamma=gamma)
        gc = compute_group_constants(spec, measure, solve_phi_derivatives(spec, measure))
        ap = asymptotic_price(gc, spec, TAU, 0.1)
        civ = corrected_iv(gc, spec)
        results.append((ap.P1, civ.a, civ.d))
    identical = results[0] == results[1] == results[2]
    assert report("AC-7 gamma independence", identical,
                  f"(P1, a, d) = {results[0]} for gamma in {{0.5, 1, 4}}")


def test_ac8_calibration_round_trip(demo):
    gc = group_constants_for(demo)
    civ = corrected_iv(gc, demo)
    quotes = [IVQuote(tau=t, x=x, iv=civ.iv(t, x))
              for t in (0.1, 0.25, 0.5) for x in (-0.3, -0.1, 0.1, 0.3)]
    a, d, _ = fit_affine(quotes)
    big_a, big_b = recover_constants((a, d), civ.sigma_bar, demo.epsilon)
    round_trip = abs(big_a - gc.a) < 1e-10 and abs(big_b - gc.b) < 1e-10

    spec_eta = arctangent_model(eta=0.25)
    civ_eta = corrected_iv(group_constants_for(spec_eta), spec_eta)
    eta_quotes = [IVQuote(tau=t, x=x, iv=civ_eta.iv(t, x))
                  for t in (0.1, 0.25) for x in (-0.3, 0.0, 0.3)]
    eta = calibrate_from_surface(eta_quotes, spec_eta.with_(eta=0.0)).eta
    eta_ok = abs(eta - 0.25) < 1e-3

    line = [IVQuote(tau=t, x=x, iv=-0.154 * (-x / t) + 0.149)
            for t in (0.25, 0.5) for x in (-0.2, 0.0, 0.2)]
    a_line, d_line, r2 = fit_affine(line)
    exact = abs(a_line + 0.154) < 1e-12 and abs(d_line - 0.149) < 1e-12 and r2 > 1 - 1e-12
    assert report("AC-8 calibration round trip", round_trip and eta_ok and exact,
                  f"|dA| = {abs(big_a - gc.a):.1e}, |dB| = {abs(big_b - gc.b):.1e}, "
                  f"eta = {eta:.6f}, line fit = ({a_line:.6f}, {d_line:.6f})")


def test_ac9_inversion_and_measure_invariants(demo):
    rng = np.random.default_rng(321)
    worst_iv = 0.0
    count = 0
    while count < 100:
        tau = rng.uniform(0.05, 2.0)
        x = rng.uniform(-1.0, 1.0)
        sigma = rng.uniform(0.05, 1.0)
        lo, hi = put_payoff(x, 100.0), 100.0
        price = bs_put(tau, x, 100.0, sigma)
        if not (lo + 1e-8 * 100 < price < hi - 1e-8 * 100):
            continue
        worst_iv = max(worst_iv, abs(implied_vol(price, tau, x, 100.0) - sigma))
        count += 1

    measure = build_invariant_measure(demo)
    mass_err = abs(trapezoid(measure.density, measure.grid) - 1.0)
    gauss = np.exp(-measure.grid ** 2 / 0.04) / math.sqrt(math.pi * 0.04)
    gauss_err = float(np.abs(measure.density - gauss).max())
    ok = worst_iv < 1e-8 and mass_err < 1e-8 and gauss_err < 1e-8
    assert report("AC-9 inversion and measure invariants", ok,
                  f"iv round trip {worst_iv:.1e}, mass {mass_err:.1e}, gaussian {gauss_err:.1e}")

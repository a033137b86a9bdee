import math

import numpy as np
import pytest

from volclust.asymptotics import corrected_iv
from volclust.calibrate import (AffineFit, IVQuote, calibrate_from_surface, fit_affine,
                                fit_smile, read_quotes_csv, recover_constants)
from volclust.errors import ConfigError, DegenerateDesign, Unidentifiable
from volclust.model import Constant, arctangent_model
from volclust.poisson import group_constants_for


def line_quotes(a, d, taus=(0.1, 0.25, 0.5, 1.0), xs=(-0.3, -0.1, 0.0, 0.1, 0.3)):
    return [IVQuote(tau=t, x=x, iv=a * (-x / t) + d) for t in taus for x in xs]


def test_exact_line_recovered():
    a, d, r2 = fit_affine(line_quotes(-0.154, 0.149))
    assert a == pytest.approx(-0.154, abs=1e-12)
    assert d == pytest.approx(0.149, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_two_quotes_interpolate_exactly():
    quotes = [IVQuote(tau=0.5, x=-0.1, iv=0.25), IVQuote(tau=0.5, x=0.2, iv=0.21)]
    a, d, r2 = fit_affine(quotes)
    for q in quotes:
        assert a * q.lmmr + d == pytest.approx(q.iv, abs=1e-14)
    assert r2 == 1.0


def test_noisy_slope_within_three_standard_errors():
    rng = np.random.default_rng(2024)
    n = 10_000
    taus = rng.uniform(0.1, 1.0, n)
    xs = rng.uniform(-0.4, 0.4, n)
    noise = 0.004 * rng.choice([-1.0, 1.0], n)  # symmetric +-delta noise
    true_a, true_d = -0.154, 0.149
    quotes = [IVQuote(tau=t, x=x, iv=true_a * (-x / t) + true_d + e)
              for t, x, e in zip(taus, xs, noise)]
    a, d, _ = fit_affine(quotes)
    lmmr = -xs / taus
    se = 0.004 / math.sqrt(((lmmr - lmmr.mean()) ** 2).sum())
    assert abs(a - true_a) < 3 * se


def test_weight_scale_equivariance():
    quotes = line_quotes(-0.1, 0.2)
    bumped = [IVQuote(q.tau, q.x, q.iv + 0.01 * math.sin(i), weight=1.0 + (i % 3))
              for i, q in enumerate(quotes)]
    scaled = [IVQuote(q.tau, q.x, q.iv, weight=q.weight * 7.5) for q in bumped]
    assert fit_affine(bumped)[:2] == pytest.approx(fit_affine(scaled)[:2], abs=1e-14)


def test_degenerate_design_rejected():
    quotes = [IVQuote(tau=0.5, x=-0.1, iv=0.2), IVQuote(tau=1.0, x=-0.2, iv=0.22)]
    with pytest.raises(DegenerateDesign):
        fit_affine(quotes)  # both quotes share LMMR = 0.2
    with pytest.raises(DegenerateDesign):
        fit_affine([IVQuote(tau=0.5, x=0.0, iv=0.2)])
    with pytest.raises(DegenerateDesign, match="all quote weights are zero"):
        fit_affine([IVQuote(q.tau, q.x, q.iv, weight=0.0) for q in line_quotes(-0.154, 0.149)])
    with pytest.raises(DegenerateDesign, match="weighted sums are not finite"):
        fit_affine([IVQuote(1e-200, 0.3, 0.2), IVQuote(1e-200, -0.3, 0.21), IVQuote(0.2, -0.1, 0.19)])


def test_recover_constants_flat_smile():
    assert recover_constants((0.0, 0.2), 0.2, 0.004) == (0.0, 0.0)


def test_recover_constants_arithmetic():
    big_a, big_b = recover_constants((-0.154, 0.149), 0.2, 0.004)
    sqrt_eps = math.sqrt(0.004)
    assert big_a == pytest.approx(-0.2 ** 3 * -0.154 / sqrt_eps, rel=1e-14)
    assert big_a == pytest.approx(0.0194796, abs=1e-7)
    assert big_b == pytest.approx(((0.149 - 0.2) * 0.2 - 0.2 ** 3 * -0.154 / 2) / sqrt_eps, rel=1e-14)
    assert big_b == pytest.approx(-0.1515363, abs=1e-7)


def test_round_trip_through_corrected_iv(demo_gc, demo_spec):
    civ = corrected_iv(demo_gc, demo_spec)
    quotes = line_quotes(civ.a, civ.d)
    a, d, _ = fit_affine(quotes)
    big_a, big_b = recover_constants((a, d), civ.sigma_bar, demo_spec.epsilon)
    assert big_a == pytest.approx(demo_gc.a, abs=1e-10)
    assert big_b == pytest.approx(demo_gc.b, abs=1e-10)


def test_fit_smile_is_the_fit_and_the_recovery_it_names(demo_spec):
    quotes = line_quotes(-0.154, 0.149)[:-1] + [IVQuote(tau=1.0, x=0.3, iv=0.1, weight=2.0)]
    a, d, r2 = fit_affine(quotes)
    big_a, big_b = recover_constants((a, d), 0.2, 0.004)
    assert fit_smile(quotes, 0.2, 0.004) == AffineFit(a, d, r2, big_a, big_b)
    assert calibrate_from_surface(quotes, demo_spec, sigma_bar=0.2).fit == AffineFit(
        a, d, r2, big_a, big_b)


@pytest.mark.parametrize("true_eta", [0.25, 0.0])
def test_eta_recovery_closed_loop(true_eta):
    spec = arctangent_model(eta=true_eta)
    civ = corrected_iv(group_constants_for(spec), spec)
    quotes = line_quotes(civ.a, civ.d)
    result = calibrate_from_surface(quotes, spec.with_(eta=123.0))  # eta field ignored
    assert result.eta == pytest.approx(true_eta, abs=1e-3)
    assert result.rho_residual < 1e-8


def test_eta_unidentifiable_without_drift():
    spec = arctangent_model().with_(b=Constant(0.0))
    quotes = line_quotes(-0.01, 0.3)
    with pytest.raises(Unidentifiable):
        calibrate_from_surface(quotes, spec)


def test_quotes_csv_round_trip(tmp_path):
    path = tmp_path / "quotes.csv"
    path.write_text("tau,x,iv,weight\n0.25,-0.1,0.31,1\n0.25,0.1,0.29,2\n0.5,0.0,0.3,\n")
    quotes = read_quotes_csv(str(path))
    assert len(quotes) == 3
    assert quotes[1].weight == 2.0
    assert quotes[2].weight == 1.0  # blank weight defaults to 1


def test_quotes_csv_errors(tmp_path):
    missing = tmp_path / "bad.csv"
    missing.write_text("tau,iv\n0.25,0.3\n")
    with pytest.raises(ConfigError):
        read_quotes_csv(str(missing))
    with pytest.raises(ConfigError):
        read_quotes_csv(str(tmp_path / "nope.csv"))


def test_quote_headers_are_case_insensitive_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "quotes.csv"
    path.write_text(" Tau ,X,IV,Weight\n0.25,-0.1,0.31,2\n\n0.5,0.0,0.3,\n")
    assert read_quotes_csv(str(path)) == [IVQuote(0.25, -0.1, 0.31, 2.0), IVQuote(0.5, 0.0, 0.3)]


@pytest.mark.parametrize("text,named", [
    ("tau,iv\n0.25,0.3\n", "has no column 'x'"),
    ("", "has no column 'tau'"),
    ("tau,x,iv\n", "has no data rows"),
    ("tau,x,iv\n0.25,0.1,0.3\n0.25,nan,0.3\n", "line 3, column 'x'"),
    ("tau,x,iv\n0.25,0.1,inf\n", "line 2, column 'iv'"),
    ("tau,x,iv\n0.25,abc,0.3\n", "line 2, column 'x'"),
    ("tau,x,iv\n0.25,,0.3\n", "line 2, column 'x'"),
    ("tau,x,iv\n0.25,0.1\n", "line 2, column 'iv'"),
    ("tau,x,iv,weight\n0.25,0.1,0.3,-inf\n", "line 2, column 'weight'"),
    ("tau,x,iv\n0.25,0.1,0.3\n\n0.0,0.1,0.3\n", "line 4: quote tau must be finite and > 0, got 0.0"),
    ("tau,x,iv,weight\n0.25,0.1,0.3,-1\n", "line 2: quote weight must be finite and >= 0, got -1.0"),
    ("tau,x,iv\n5e-324,0.3,0.2\n", "line 2: quote lmmr must be finite, got -inf"),
], ids=["missing-column", "empty-file", "no-rows", "nan", "inf", "text", "blank", "short-row",
        "weight-inf", "tau-zero", "weight-negative", "lmmr-inf"])
def test_bad_quote_files_name_the_file_and_column(tmp_path, text, named):
    path = tmp_path / "quotes.csv"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        read_quotes_csv(str(path))
    assert str(info.value).startswith(repr(str(path))) and named in str(info.value)


@pytest.mark.parametrize("field, value", [
    ("tau", math.inf), ("x", math.inf), ("iv", math.nan), ("weight", math.nan), ("weight", math.inf),
], ids=["tau-inf", "x-inf", "iv-nan", "weight-nan", "weight-inf"])
def test_a_quote_refuses_a_non_finite_field_naming_it(field, value):
    """A non-finite field would turn the fit's sums to NaN, or put a quote at LMMR 0."""
    with pytest.raises(ConfigError, match=f"quote {field} must be finite.*, got {value}"):
        IVQuote(**{"tau": 0.25, "x": 0.0, "iv": 0.2, field: value})


def test_quote_validation():
    with pytest.raises(ConfigError):
        IVQuote(tau=0.0, x=0.1, iv=0.2)
    with pytest.raises(ConfigError):
        IVQuote(tau=0.5, x=0.1, iv=0.2, weight=-1.0)


@pytest.mark.parametrize("sigma_bar, epsilon", [(0.0, 0.004), (-0.2, 0.004), (math.nan, 0.004),
                                                (0.2, 0.0), (0.2, -0.004), (0.2, math.nan)],
                         ids=["sigma-bar-zero", "sigma-bar-negative", "sigma-bar-nan",
                              "eps-zero", "eps-negative", "eps-nan"])
def test_recover_constants_needs_a_positive_sigma_bar_and_epsilon(sigma_bar, epsilon):
    with pytest.raises(ConfigError, match="needs sigma_bar > 0 and epsilon > 0"):
        recover_constants((-0.154, 0.149), sigma_bar, epsilon)

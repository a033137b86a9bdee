import argparse
import csv
import logging
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy._core._exceptions import _ArrayMemoryError

import volclust
from conftest import pin_cpus
from volclust.cli import CELL_FORMAT, build_parser, main
from volclust.model import arctangent_model, write_config
from volclust.pde import make_grid


@pytest.fixture()
def demo_config(tmp_path):
    path = tmp_path / "model.cfg"
    write_config(arctangent_model(), str(path))
    return str(path)


@pytest.fixture()
def cheap_config(tmp_path):
    """Same coefficients at a slow mean reversion so PDE commands run in seconds."""
    path = tmp_path / "cheap.cfg"
    write_config(arctangent_model(epsilon=0.25, maturity=0.05), str(path))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def test_constants_roundtrip_and_agreement(demo_config, tmp_path, capsys):
    out = tmp_path / "constants.csv"
    assert main(["constants", "--config", demo_config, "--out", str(out)]) == 0
    (row,) = read_rows(str(out))
    assert set(row) == {"sigma1_bar_sq", "avg_b2_over_s2", "A", "A_tilde", "B", "A_alt", "B_alt"}
    assert abs(float(row["A"]) - float(row["A_alt"])) <= 1e-5 * (1 + abs(float(row["A"])))
    assert abs(float(row["B"]) - float(row["B_alt"])) <= 1e-5 * (1 + abs(float(row["B"])))


def test_reruns_are_byte_identical(demo_config, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["constants", "--config", demo_config, "--out", str(out1)])
    main(["constants", "--config", demo_config, "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_price_command(demo_config, capsys):
    assert main(["price", "--config", demo_config, "--tau", "0.25",
                 "--x", "0.0", "--x", "-0.2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "tau,x,P0,P1,corrected"
    assert len(lines) == 3
    corrected = float(lines[1].split(",")[4])
    assert corrected == pytest.approx(6.019690881458755, rel=1e-12)


@pytest.mark.parametrize("tau", ["0.25", "0"])
def test_price_far_above_the_strike_is_zero(demo_config, capsys, tau):
    """e^x overflows a float from x = 709.79 on; the put there is worth 0."""
    assert main(["price", "--config", demo_config, "--tau", tau, "--x", "800"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"{tau},800,0,0,0"


def test_figure1_rows_sit_on_the_line(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["figure1", "--a", "-0.154", "--d", "0.149", "--out", str(out)]) == 0
    rows = read_rows(str(out))
    assert len(rows) == 10 * 41
    for row in rows:
        expected = -0.154 * float(row["lmmr"]) + 0.149
        assert abs(float(row["iv"]) - expected) < 1e-14
    assert (tmp_path / "fig1.gp").exists()


def test_iv_surface_direct_coefficients(capsys):
    assert main(["iv-surface", "--a", "-0.154", "--d", "0.149",
                 "--tau", "0.5", "--nx", "11"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "tau,x,lmmr,iv"
    for line in lines[1:]:
        tau, x, lmmr, iv = map(float, line.split(","))
        assert lmmr == pytest.approx(-x / tau, abs=1e-15)
        assert iv == pytest.approx(-0.154 * lmmr + 0.149, abs=1e-14)


@pytest.mark.parametrize("argv,name,value", [
    (["price", "--config", "m.cfg", "--x", "-1e-3"], "x", [-1e-3]),
    (["figure1", "--a", "-1.54e-1", "--d", "0.149"], "a", -0.154),
    (["iv-surface", "--x-min", "-5e-1"], "x_min", -0.5),
    (["iv-surface", "--x-max", "-1E+0"], "x_max", -1.0),
], ids=["price-x", "figure1-a", "iv-surface-x-min", "iv-surface-x-max"])
def test_a_negative_number_with_an_exponent_is_a_value_not_a_flag(argv, name, value):
    assert getattr(build_parser().parse_args(argv), name) == value


@pytest.mark.parametrize("flag,partner", [("--a", "--d"), ("--d", "--a")])
@pytest.mark.parametrize("with_config", [True, False], ids=["config", "no-config"])
def test_iv_surface_refuses_a_lone_line_flag_naming_its_partner(demo_config, tmp_path, capsys,
                                                                flag, partner, with_config):
    out = tmp_path / "out.csv"
    config = ["--config", demo_config] if with_config else []
    assert main(["iv-surface", *config, flag, "-9", "--tau", "0.5", "--nx", "2",
                 "--out", str(out)]) == 2
    assert f"{flag} needs {partner}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would be a second stderr line
@pytest.mark.parametrize("command,with_config,message", [
    (["iv-surface", "--tau", "5e-324", "--nx", "3"], True,
     "--tau, --x-min and --x-max give an LMMR that is not finite"),
    (["figure1", "--a", "1e308", "--d", "1e308"], False,
     "--a and --d with --lmmr-min and --lmmr-max give an implied vol that is not finite"),
    (["iv-surface", "--a", "1e308", "--d", "1e308", "--tau", "0.1"], False,
     "--a and --d with --tau, --x-min and --x-max give an implied vol that is not finite"),
], ids=["iv-surface-tiny-tau", "figure1-steep-line", "iv-surface-steep-line"])
def test_a_smile_that_is_not_finite_exits_2_before_writing(demo_config, tmp_path, capsys, command,
                                                           with_config, message):
    out = tmp_path / "out.csv"
    config = ["--config", demo_config] if with_config else []
    assert main(command + config + ["--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: {message}"
    assert list(tmp_path.glob("out.*")) == []


def test_measure_dump(demo_config, capsys):
    assert main(["measure-dump", "--config", demo_config]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "y,density"
    assert len(lines) == 4002
    density = np.array([float(line.split(",")[1]) for line in lines[1:]])
    assert density.min() >= 0


def test_calibrate_command(tmp_path, demo_config, capsys):
    quotes = tmp_path / "quotes.csv"
    with open(quotes, "w") as fh:
        fh.write("tau,x,iv\n")
        for tau in (0.1, 0.25, 0.5):
            for x in (-0.2, 0.0, 0.2):
                fh.write(f"{tau},{x},{-0.154 * (-x / tau) + 0.149}\n")
    assert main(["calibrate", "--quotes", str(quotes),
                 "--sigma-bar", "0.2", "--epsilon", "0.004"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "a,d,r_squared,A,B"
    a, d, r2, big_a, big_b = map(float, lines[1].split(","))
    assert (a, d) == pytest.approx((-0.154, 0.149), abs=1e-12)
    assert r2 == pytest.approx(1.0)


def test_calibrate_with_eta_recovery(tmp_path, capsys):
    spec = arctangent_model(eta=0.25)
    from volclust.asymptotics import corrected_iv
    from volclust.poisson import group_constants_for

    civ = corrected_iv(group_constants_for(spec), spec)
    quotes = tmp_path / "quotes.csv"
    with open(quotes, "w") as fh:
        fh.write("tau,x,iv\n")
        for tau in (0.1, 0.25):
            for x in (-0.2, 0.0, 0.2):
                fh.write(f"{tau},{x},{civ.iv(tau, x)}\n")
    config = tmp_path / "model.cfg"
    write_config(spec.with_(eta=0.0), str(config))
    assert main(["calibrate", "--quotes", str(quotes), "--sigma-bar", str(civ.sigma_bar),
                 "--epsilon", "0.004", "--config", str(config)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "a,d,r_squared,A,B,eta,rho_residual"
    eta = float(lines[1].split(",")[5])
    assert eta == pytest.approx(0.25, abs=1e-3)


def test_calibrate_takes_sigma_bar_and_epsilon_from_its_config(tmp_path, capsys):
    """With --config, sigma-bar is the model's <sigma1^2>^1/2 and epsilon the config's, as if
    given; each flag given overrides its model value."""
    spec = arctangent_model(eta=0.25)
    from volclust.asymptotics import corrected_iv
    from volclust.poisson import group_constants_for

    civ = corrected_iv(group_constants_for(spec), spec)
    quotes, config = tmp_path / "quotes.csv", tmp_path / "model.cfg"
    quotes.write_text("tau,x,iv\n" + "".join(f"{tau},{x},{civ.iv(tau, x)!r}\n"
                                             for tau in (0.1, 0.25) for x in (-0.2, 0.0, 0.2)))
    write_config(spec.with_(eta=0.0), str(config))

    def run(*flags):
        assert main(["calibrate", "--quotes", str(quotes), "--config", str(config), *flags]) == 0
        return capsys.readouterr().out

    from_model = run()
    assert from_model == run("--sigma-bar", repr(civ.sigma_bar), "--epsilon", "0.004")
    assert run("--sigma-bar", "0.2") != from_model
    assert run("--epsilon", "0.01") != from_model


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would be a second stderr line
@pytest.mark.parametrize("rows,message", [
    ("5e-324,0.3,0.2\n0.25,0.1,0.21\n0.5,-0.1,0.19\n", "line 2: quote lmmr must be finite, got -inf"),
    ("1e-200,0.3,0.2\n1e-200,-0.3,0.21\n0.2,-0.1,0.19\n", "the fit's weighted sums are not finite"),
], ids=["lmmr-inf", "sums-overflow"])
def test_calibrate_refuses_quotes_whose_fit_is_not_finite(tmp_path, capsys, rows, message):
    quotes, out = tmp_path / "quotes.csv", tmp_path / "out.csv"
    quotes.write_text("tau,x,iv\n" + rows)
    assert main(["calibrate", "--quotes", str(quotes), "--sigma-bar", "0.2", "--epsilon", "0.01",
                 "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and message in line
    assert not out.exists()


@pytest.mark.parametrize("given,missing", [
    ([], "--sigma-bar and --epsilon"),
    (["--sigma-bar", "0.2"], "--epsilon"),
    (["--epsilon", "0.004"], "--sigma-bar"),
], ids=["neither", "sigma-bar-only", "epsilon-only"])
def test_calibrate_without_a_config_needs_sigma_bar_and_epsilon(tmp_path, capsys, given, missing):
    _, quotes = _input_files(tmp_path)
    out = tmp_path / "out.csv"
    assert main(["calibrate", "--quotes", quotes, *given, "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: calibrate needs {missing}, or --config to take them from"
    assert not out.exists()


def test_iv_surface_tau_defaults_to_the_models_maturity(cheap_config, capsys):
    """Without --tau the rows are at the maturity of --config, or the demo's 0.25 without one."""
    for model, tau in ((["--config", cheap_config], 0.05),
                       (["--a", "-0.154", "--d", "0.149"], 0.25)):
        assert main(["iv-surface", *model, "--nx", "3"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [tau] * 3


def _figure2_bytes(directory, argv):
    """figure2's CSV and gnuplot script, written as figure2.csv in ``directory``."""
    directory.mkdir()
    out = directory / "figure2.csv"
    assert main(["figure2", "--nx", "41", *argv, "--out", str(out)]) == 0
    return out.read_bytes(), out.with_suffix(".gp").read_bytes()


def test_figure2_reads_epsilon_and_tau_from_its_config_unless_a_flag_is_given(tmp_path, one_cpu):
    """A config of the demo's coefficients at eps = 0.5 and maturity 0.5 writes what its two
    values given as flags write; both flags given over it win, as over the demo model."""
    path = tmp_path / "model.cfg"
    write_config(arctangent_model(epsilon=0.5, maturity=0.5), str(path))
    config = ["--config", str(path)]
    assert (_figure2_bytes(tmp_path / "config", config)
            == _figure2_bytes(tmp_path / "flags", ["--epsilon", "0.5", "--tau", "0.5"]))
    assert (_figure2_bytes(tmp_path / "over", config + ["--epsilon", "0.25", "--tau", "0.25"])
            == _figure2_bytes(tmp_path / "demo", ["--epsilon", "0.25"]))


def test_pde_solve_command(cheap_config, tmp_path):
    out = tmp_path / "pde.csv"
    assert main(["pde-solve", "--config", cheap_config, "--nx", "21",
                 "--xmin", "-2", "--xmax", "2", "--out", str(out)]) == 0
    rows = read_rows(str(out))
    assert set(rows[0]) == {"tau", "x", "y", "u", "u_tilde", "P"}
    ps = np.array([float(r["P"]) for r in rows])
    assert ps.min() >= -1e-6 * 100 and ps.max() <= 100 * (1 + 1e-6)


def test_pde_solve_on_a_coarse_grid_takes_its_two_steps(tmp_path, caplog):
    """The demo at eps = 0.25 asked for 2 steps at nx = 11 solves in those 2 steps, with no
    monitor trip, and P stays in the band."""
    config, out = tmp_path / "model.cfg", tmp_path / "pde.csv"
    write_config(arctangent_model(epsilon=0.25), str(config))
    with caplog.at_level(logging.INFO, logger="volclust.pde"):
        assert main(["pde-solve", "--config", str(config), "--tau", "0.25", "--nx", "11",
                     "--dt", "0.125", "--out", str(out)]) == 0
    assert [r for r in caplog.records if r.name == "volclust.pde"] == []
    ps = np.array([float(r["P"]) for r in read_rows(str(out))])
    assert ps.min() >= -1e-6 * 100 and ps.max() <= 100 * (1 + 1e-6)


@pytest.mark.parametrize("dt", ["0", "-0.1", "nan", "inf"])
def test_pde_solve_rejects_a_bad_dt(cheap_config, tmp_path, capsys, dt):
    out = tmp_path / "pde.csv"
    assert main(["pde-solve", "--config", cheap_config, "--nx", "21", "--dt", dt,
                 "--out", str(out)]) == 2
    assert "dt must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


def _input_files(tmp_path):
    """A valid probes file and a valid quotes file."""
    probes, quotes = tmp_path / "probes.csv", tmp_path / "quotes.csv"
    probes.write_text("tau,x,y\n0.05,0.0,0.0\n0.05,-0.3,0.1\n")
    quotes.write_text("tau,x,iv\n0.1,-0.2,0.3\n0.1,0.2,0.25\n0.5,0.0,0.27\n")
    return str(probes), str(quotes)


@pytest.mark.parametrize("command,message", [
    (["price", "--tau", "-1", "--x", "0.0"], "--tau must be finite and >= 0, got -1.0"),
    (["measure-dump", "--tol", "0"], "--tol must be finite and > 0, got 0.0"),
    (["iv-surface", "--a", "-0.1", "--d", "0.2", "--tau", "0"], "--tau must be finite and > 0, got 0.0"),
    (["pde-solve", "--nx", "21", "--tau", "-1"], "tau must be finite and >= 0, got -1.0"),
    (["figure2", "--epsilon", "-1"], "--epsilon must be finite and > 0, got -1.0"),
    (["figure2", "--epsilon", "0"], "--epsilon must be finite and > 0, got 0.0"),
    (["figure2", "--epsilon", "nan"], "--epsilon must be finite and > 0, got nan"),
    (["figure2", "--tau", "0"], "--tau must be finite and > 0, got 0.0"),
    (["pde-sweep", "--eps-list", "-1"], "--eps-list must be finite and > 0, got -1.0"),
    (["pde-sweep", "--eps-list", "0"], "--eps-list must be finite and > 0, got 0.0"),
    (["pde-sweep", "--eps-list", "nan"], "--eps-list must be finite and > 0, got nan"),
    (["pde-sweep", "--eps-list", ","], "--eps-list invalid positive_list value: ','"),
    (["iv-surface", "--a", "-0.1", "--d", "0.2", "--x-min", "nan"], "--x-min must be finite, got nan"),
    (["figure1", "--a", "nan", "--d", "0.2"], "--a must be finite, got nan"),
    (["calibrate", "--sigma-bar", "0.2", "--epsilon", "inf"], "--epsilon must be finite and > 0, got inf"),
    (["calibrate", "--sigma-bar", "inf", "--epsilon", "0.004"], "--sigma-bar must be finite and > 0, got inf"),
    (["iv-surface", "--tau", "0.5"], "need either --a and --d, or --config to derive them"),
    (["pde-solve", "--nx", "4"], "nx = 4 too coarse: the x grid needs at least 5 nodes"),
    (["figure2", "--nx", "4"], "nx = 4 too coarse: the x grid needs at least 5 nodes"),
    (["pde-solve", "--dt", "1e-320"], "tau / dt = inf steps: a grid takes at most"),
    (["pde-solve", "--tau", "1e308", "--dt", "1e-10"], "tau / dt = inf steps: a grid takes at most"),
    (["pde-solve", "--nx", "99999999999999999999"], "nx = 1e+20 nodes: an array holds at most"),
    (["pde-solve", "--ny", "99999999999999999999"], "ny = 1e+20 nodes: an array holds at most"),
    (["pde-sweep", "--eps-list", "1e-300"], "ny = 3.39e+151 nodes: an array holds at most"),
    (["figure2", "--epsilon", "1e-300"], "ny = 3.39e+151 nodes: an array holds at most"),
    (["price", "--tau", "0.1", "--x", "-inf"], "--x must be finite, got -inf"),
    (["figure2", "--epsilon", "-Infinity"], "--epsilon must be finite and > 0, got -inf"),
    (["iv-surface", "--a", "-0.1", "--d", "0.2", "--x-min", "-NaN"], "--x-min must be finite, got nan"),
], ids=["price", "measure-dump", "iv-surface", "pde-solve", "figure2-eps-neg", "figure2-eps-0",
        "figure2-eps-nan", "figure2-tau-0", "pde-sweep-eps-neg", "pde-sweep-eps-0", "pde-sweep-eps-nan",
        "pde-sweep-eps-empty", "iv-surface-x-min-nan", "figure1-a-nan", "calibrate-eps-inf",
        "calibrate-sigma-bar-inf", "iv-surface-no-line", "pde-solve-nx-4", "figure2-nx-4",
        "pde-solve-dt-subnormal", "pde-solve-tau-over-dt-inf", "pde-solve-nx-huge", "pde-solve-ny-huge",
        "pde-sweep-eps-tiny", "figure2-eps-tiny", "price-x-minus-inf", "figure2-eps-minus-infinity",
        "iv-surface-x-min-minus-nan"])
def test_bad_numbers_exit_with_2_naming_the_flag(cheap_config, tmp_path, capsys, command, message):
    out = tmp_path / "out.csv"
    probes, quotes = _input_files(tmp_path)
    inputs = {"iv-surface": [], "figure1": [], "calibrate": ["--quotes", quotes],
              "pde-sweep": ["--config", cheap_config, "--probes", probes]
              }.get(command[0], ["--config", cheap_config])
    assert main(command + inputs + ["--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()  # one error line, no traceback
    assert line.startswith("error: ") and message in line
    assert not out.exists()


@pytest.mark.parametrize("command,name,column", [
    (["pde-sweep", "--eps-list", "0.25", "--probes"], "probes.csv", "x"),
    (["calibrate", "--sigma-bar", "0.2", "--epsilon", "0.004", "--quotes"], "quotes.csv", "x"),
], ids=["probes", "quotes"])
def test_non_finite_cells_exit_with_2_naming_the_file_and_column(cheap_config, tmp_path, capsys,
                                                                 command, name, column):
    path, out = tmp_path / name, tmp_path / "out.csv"
    third = "y" if name == "probes.csv" else "iv"
    path.write_text(f"tau,x,{third}\n0.05,0.1,0.1\n0.05,nan,0.1\n0.1,0.2,0.1\n")
    config = ["--config", cheap_config] if command[0] == "pde-sweep" else []
    assert main(command + [str(path)] + config + ["--out", str(out)]) == 2
    assert f"{str(path)!r} line 3, column {column!r}" in capsys.readouterr().err
    assert not out.exists()


def test_pde_sweep_rejects_a_negative_probe_tau_naming_the_file_and_line(cheap_config, tmp_path,
                                                                          capsys):
    probes, out = tmp_path / "probes.csv", tmp_path / "out.csv"
    probes.write_text("tau,x,y\n-0.2,0.0,0.0\n0.05,0.0,0.0\n")
    assert main(["pde-sweep", "--config", cheap_config, "--eps-list", "0.25",
                 "--probes", str(probes), "--out", str(out)]) == 2
    assert f"{str(probes)!r} line 2: probe needs tau >= 0, got -0.2" in capsys.readouterr().err
    assert not out.exists()


def test_pde_sweep_rejects_a_probe_outside_a_grid_before_any_march(cheap_config, tmp_path, capsys,
                                                                   monkeypatch, one_cpu):
    """y = 0.8515 lies within half a cell of the eps = 4 grid's top node (dy 0.0085) and
    outside the finer eps = 0.01 grid (dy 0.0050); every member is checked before the
    first one marches."""
    def no_march(*args, **kwargs):
        raise AssertionError("a member marched before every probe was checked")

    monkeypatch.setattr(volclust.pde, "price_surface", no_march)
    probes, out = tmp_path / "probes.csv", tmp_path / "out.csv"
    probes.write_text("tau,x,y\n0.05,0.0,0.0\n0.05,0.0,0.8515\n")
    assert main(["pde-sweep", "--config", cheap_config, "--eps-list", "4,0.01",
                 "--probes", str(probes), "--out", str(out)]) == 2
    assert ("error: probe (0.05, 0.0, 0.8515) lies outside the eps = 0.01 grid: "
            "x in [-3, 3], y in [-0.848528, 0.848528]") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["1e163", "1.7e308"])
def test_figure2_at_a_huge_eps_prices_in_band(tmp_path, one_cpu, eps):
    """The y-span does not grow with eps, and at 1.7e308 the y-diffusion weight underflows
    to 0, which leaves an M-matrix; every PDE price lies inside the band that its implied
    vol inverts from, so exit 0."""
    out = tmp_path / "figure2.csv"
    assert main(["figure2", "--epsilon", eps, "--nx", "41", "--out", str(out)]) == 0
    vols = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1:]
    assert np.all(np.isfinite(vols)) and vols.min() > 0.0


def test_figure2_at_a_huge_eps_and_a_tiny_tau_exits_3(tmp_path, capsys, one_cpu):
    """At tau = 1e-200 the price out of the money is its payoff, 0, which no vol inverts:
    a numerical failure, exit 3, not a traceback."""
    out = tmp_path / "figure2.csv"
    assert main(["figure2", "--epsilon", "1e100", "--tau", "1e-200", "--nx", "41",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "outside the attainable band" in err
    assert "--nx" not in err  # no grid lifts a price that is its payoff to the bit


def test_an_output_that_cannot_be_opened_exits_2_naming_it(tmp_path, capsys):
    out = tmp_path / "missing" / "fig1.csv"
    assert main(["figure1", "--a", "-0.1", "--d", "0.2", "--out", str(out)]) == 2
    assert f"cannot write {out}: No such file or directory" in capsys.readouterr().err
    (tmp_path / "fig1.gp").mkdir()  # the CSV opens, the gnuplot script next to it cannot
    out = tmp_path / "fig1.csv"
    assert main(["figure1", "--a", "-0.1", "--d", "0.2", "--out", str(out)]) == 2
    assert f"cannot write {tmp_path / 'fig1.gp'}: Is a directory" in capsys.readouterr().err
    out = tmp_path / ("p" * 256 + ".csv")  # its directory exists: only opening it fails
    assert main(["figure1", "--a", "-0.1", "--d", "0.2", "--out", str(out)]) == 2
    assert f"cannot write {out}: " in capsys.readouterr().err


@pytest.fixture()
def no_solve(monkeypatch, one_cpu):
    """Make any PDE solve fail; one CPU keeps every solve in this process."""
    def solve(*args, **kwargs):
        raise AssertionError("solved before the output was checked")
    monkeypatch.setattr("volclust.pde.price_surface", solve)


@pytest.mark.parametrize("command", [
    ["pde-solve", "--nx", "41"],
    ["figure2", "--nx", "41", "--epsilon", "0.25", "--tau", "0.05"],
    ["pde-sweep", "--eps-list", "0.25"],
], ids=["pde-solve", "figure2", "pde-sweep"])
@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_an_unwritable_out_is_refused_before_any_solve(cheap_config, tmp_path, capsys, no_solve,
                                                       command, where):
    probes, _ = _input_files(tmp_path)
    out = tmp_path / "missing" / "out.csv" if where == "missing-dir" else tmp_path
    inputs = ["--probes", probes] if command[0] == "pde-sweep" else []
    assert main(command + ["--config", cheap_config, *inputs, "--out", str(out)]) == 2
    reason = "No such file or directory" if where == "missing-dir" else "Is a directory"
    assert f"cannot write {out}: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", [
    ["figure1", "--a", "-0.1", "--d", "0.2"],
    ["figure2", "--nx", "41", "--epsilon", "0.25", "--tau", "0.05"],
], ids=["figure1", "figure2"])
def test_a_figure_whose_plot_script_is_a_directory_writes_nothing(tmp_path, capsys, no_solve,
                                                                   command):
    out = tmp_path / "fig.csv"
    out.write_text("kept\n")
    (tmp_path / "fig.gp").mkdir()
    assert main(command + ["--out", str(out)]) == 2
    assert f"cannot write {tmp_path / 'fig.gp'}: Is a directory" in capsys.readouterr().err
    assert out.read_text() == "kept\n"  # neither truncated nor rewritten


def test_constants_refuses_a_non_finite_eta_naming_it(tmp_path, capsys):
    config, out = tmp_path / "model.cfg", tmp_path / "out.csv"
    write_config(arctangent_model(eta=math.nan), str(config))
    assert main(["constants", "--config", str(config), "--out", str(out)]) == 2
    assert "eta must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


def test_price_rejects_a_non_finite_x(demo_config, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["price", "--config", demo_config, "--x", "0.0", "--x", "nan",
                 "--out", str(out)]) == 2
    assert "--x must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,message", [
    (["iv-surface", "--nx", "0"], "--nx must be >= 1, got 0"),
    (["iv-surface", "--nx", "-1"], "--nx must be >= 1, got -1"),
    (["figure1", "--n-tau", "0"], "--n-tau must be >= 1, got 0"),
    (["figure1", "--n-lmmr", "0"], "--n-lmmr must be >= 1, got 0"),
    (["figure2", "--nx", "0"], "nx = 0 too coarse"),
], ids=["iv-surface-nx-0", "iv-surface-nx-neg", "figure1-n-tau", "figure1-n-lmmr", "figure2-nx"])
def test_bad_counts_exit_with_2_naming_the_flag(tmp_path, capsys, command, message):
    out = tmp_path / "out.csv"
    line = [] if command[0] == "figure2" else ["--a", "-0.1", "--d", "0.2"]
    assert main(command + line + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,name", [
    (["constants"], "--config"),
    (["constants", "--config", "d.cfg", "--bogus", "1"], "--bogus"),
], ids=["missing", "unknown"])
def test_a_missing_or_unknown_flag_exits_2_on_one_line(capsys, command, name):
    assert main(command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and name in err
    assert "usage:" not in err


def test_no_numeric_flag_is_a_bare_float():
    """Every number a subcommand takes goes through one of the CLI's checked types."""
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    bare = [f"{name} {action.option_strings[0]}" for name, sub in subparsers.choices.items()
            for action in sub._actions if action.type is float]
    assert bare == []


def test_console_entry_exits_2_without_a_traceback(tmp_path):
    """``python -m volclust.cli`` is the path the ``volclust`` script takes."""
    src = str(Path(volclust.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-m", "volclust.cli", "figure2", "--epsilon", "-1"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert "--epsilon must be finite and > 0, got -1.0" in run.stderr
    assert len(run.stderr.splitlines()) == 1


def _loaded_by_import(module: str, packages: tuple[str, ...]) -> list[str]:
    """The modules of ``packages`` that ``import module`` loads in a fresh interpreter."""
    src = str(Path(volclust.__file__).resolve().parents[1])
    probe = (f"import sys; sys.path.insert(0, {src!r}); import {module}; "
             f"print(' '.join(m for m in sys.modules if m.split('.')[0] in {packages!r}))")
    return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120).stdout.split()


@pytest.mark.parametrize("module", ["volclust", "volclust.cli"])
def test_import_loads_no_scipy(module):
    """The library runs on numpy alone: scipy would cost every process its import."""
    assert _loaded_by_import(module, ("scipy",)) == []


@pytest.mark.parametrize("module", ["volclust", "volclust.cli"])
def test_import_loads_no_process_pool(module):
    """``pde.parallel_map`` imports its executor when it starts a pool, so a command that
    starts none does not pay for ``concurrent.futures`` and ``multiprocessing``."""
    assert _loaded_by_import(module, ("concurrent", "multiprocessing")) == []


def test_pde_sweep_command(cheap_config, tmp_path, capsys):
    probes = tmp_path / "probes.csv"
    probes.write_text("tau,x,y\n0.05,0.0,0.0\n0.05,-0.3,0.1\n")
    assert main(["pde-sweep", "--config", cheap_config, "--eps-list", "0.25",
                 "--probes", str(probes)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "eps,max_abs_error,normalized"
    eps, err, norm = map(float, lines[1].split(","))
    assert eps == 0.25 and err > 0 and norm > 0


def test_probe_headers_are_case_insensitive(cheap_config, tmp_path):
    outputs = []
    for header in ("tau,x,y", "Tau, X ,Y"):
        probes, out = tmp_path / "probes.csv", tmp_path / f"{len(outputs)}.csv"
        probes.write_text(f"{header}\n0.05,0.0,0.0\n0.05,-0.3,0.1\n")
        assert main(["pde-sweep", "--config", cheap_config, "--eps-list", "0.25",
                     "--probes", str(probes), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_figure2_cheap_epsilon(tmp_path):
    # slow mean reversion keeps the three solves cheap; tau stays at 0.25
    # so deep in-the-money prices keep enough vega margin to invert
    out = tmp_path / "fig2.csv"
    assert main(["figure2", "--epsilon", "0.25",
                 "--nx", "121", "--out", str(out)]) == 0
    rows = read_rows(str(out))
    assert len(rows) == 61
    assert list(rows[0]) == ["log_moneyness", "iv_eta_m025", "iv_eta_0", "iv_eta_p025"]
    for row in rows:
        assert float(row["iv_eta_m025"]) > float(row["iv_eta_0"]) > float(row["iv_eta_p025"])
    assert (tmp_path / "fig2.gp").exists()
    # each row reads the node Grid2D.nearest(-lm, m) picks for its point lm, and is labelled
    # 0.0 - x of that node
    spec = arctangent_model(epsilon=0.25)
    grid = make_grid(spec, spec.maturity, nx=121)
    picked = [grid.nearest(-lm, spec.m)[0] for lm in np.linspace(-0.3, 0.3, 61)]
    assert [float(row["log_moneyness"]) for row in rows] == (0.0 - grid.x[picked]).tolist()


def test_figure2_labels_each_row_with_the_node_its_vols_came_from(tmp_path, one_cpu):
    """Each log-moneyness is -x of the x-node nearest the point asked for, where the three
    vols inverted; at nx = 41 (dx = 0.15) several rows share a node and so a label."""
    out = tmp_path / "fig2.csv"
    assert main(["figure2", "--epsilon", "0.25", "--nx", "41", "--out", str(out)]) == 0
    labels = np.array([float(row["log_moneyness"]) for row in read_rows(str(out))])
    grid = make_grid(arctangent_model(epsilon=0.25), 0.25, nx=41)
    assert set(labels.tolist()) <= set((-grid.x).tolist())
    asked = np.linspace(-0.3, 0.3, 61)
    assert np.all(np.abs(labels - asked) <= 0.5 * grid.dx + 1e-12)
    assert "\n-0," not in out.read_text()  # the node x = 0 reads 0


def test_figure2_price_outside_the_band_on_a_coarse_grid_is_a_numerical_failure(tmp_path, capsys,
                                                                              one_cpu):
    """At nx = 15 the x error puts a PDE price below the put's intrinsic value.  The price
    came from the solve, not from the input, so it exits 3 and names where it was; it gives
    no advice, since a price out of the band can have a cause that no --nx mends."""
    out = tmp_path / "fig2.csv"
    assert main(["figure2", "--nx", "15", "--epsilon", "0.25", "--tau", "0.05",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: eta = -0.25, log-moneyness 0.428571, tau = 0.05: the PDE price 34.829630314225454 "
        "outside the attainable band (34.85609424689446, 100.0)\n")
    assert not out.exists()


def test_a_step_count_above_the_bound_exits_2_before_any_march(cheap_config, tmp_path, capsys,
                                                              monkeypatch):
    def no_march(*args, **kwargs):
        raise AssertionError("a march started")

    monkeypatch.setattr(volclust.pde, "price_surface", no_march)
    out = tmp_path / "pde.csv"
    assert main(["pde-solve", "--config", cheap_config, "--dt", "1e-300", "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: tau / dt = 5e+298 steps: a grid takes at most {np.iinfo(np.intp).max // 8}"
    assert not out.exists()


def _out_of_memory(*args, **kwargs):
    """Raise what NumPy raises for an array no memory can serve, without allocating it."""
    raise _ArrayMemoryError((10 ** 12 + 1,), np.dtype(float))


@pytest.mark.parametrize("command, cpus", [
    (["pde-solve", "--nx", "41"], 1),
    (["figure2", "--nx", "41", "--epsilon", "0.25", "--tau", "0.05"], 1),
    (["figure2", "--nx", "41", "--epsilon", "0.25", "--tau", "0.05"], 2),
    (["pde-sweep", "--eps-list", "0.25"], 1),
], ids=["pde-solve", "figure2", "figure2-in-workers", "pde-sweep"])
def test_a_failed_allocation_exits_2_on_one_line_with_numpys_size(cheap_config, tmp_path, capsys,
                                                                  monkeypatch, command, cpus):
    if cpus > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("only a forked worker inherits the patched march")
    pin_cpus(monkeypatch, cpus)
    monkeypatch.setattr(volclust.pde, "_march", _out_of_memory)
    probes, _ = _input_files(tmp_path)
    inputs = ["--probes", probes] if command[0] == "pde-sweep" else []
    out = tmp_path / "out.csv"
    assert main(command + ["--config", cheap_config, *inputs, "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()  # no traceback
    assert line == ("error: out of memory: Unable to allocate 7.28 TiB for an array with shape "
                    "(1000000000001,) and data type float64")
    assert not out.exists()


def test_exit_codes(tmp_path):
    assert main(["constants", "--config", "/nonexistent.cfg"]) == 2
    quotes = tmp_path / "one.csv"
    quotes.write_text("tau,x,iv\n0.5,0.0,0.2\n")
    assert main(["calibrate", "--quotes", str(quotes),
                 "--sigma-bar", "0.2", "--epsilon", "0.004"]) == 2


def test_seventeen_significant_digits(demo_config, capsys):
    main(["measure-dump", "--config", demo_config])
    line = capsys.readouterr().out.strip().splitlines()[2001]  # center node
    y, density = line.split(",")
    assert len(density.replace("-", "").replace(".", "").lstrip("0")) >= 16


# --- the columnar CSV writer --------------------------------------------------

def _oracle_csv(path, header, rows):
    """The row-at-a-time writer the columnar one replaced: csv.writer over CELL_FORMAT."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([CELL_FORMAT % float(v) for v in row])


SPECIAL_VALUES = (-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308,
                  0.1 + 0.2)


def _broadcast_rows(columns):
    """The rows of ``_write_csv(..., columns)``: the broadcast elements in C order."""
    arrays = [np.asarray(c, dtype=float) for c in columns]
    shape = np.broadcast_shapes((1,), *(a.shape for a in arrays))
    return list(zip(*(np.broadcast_to(a, shape).ravel() for a in arrays)))


def test_text_is_fmt_of_each_element():
    from volclust.cli import _text

    values = np.array(SPECIAL_VALUES + (-1.2345678901234567e300, 2.0 ** 53 + 2, 3))
    assert _text(values).tolist() == [CELL_FORMAT % float(v) for v in values]
    grid = values[:10].reshape(2, 5)
    assert _text(grid).tolist() == [[CELL_FORMAT % float(v) for v in row] for row in grid]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), block_rows=st.integers(1, 12),
       shapes=hnp.mutually_broadcastable_shapes(num_shapes=4, min_dims=0, max_dims=3,
                                                max_side=5))
def test_writer_matches_row_oracle_on_random_broadcast_shapes(tmp_path_factory, data,
                                                              block_rows, shapes):
    from volclust import cli

    cells = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats())
    n_columns = data.draw(st.integers(1, 4))
    columns = [data.draw(hnp.arrays(float, shape, elements=cells))
               for shape in shapes.input_shapes[:n_columns]]
    header = [f"c{i}" for i in range(n_columns)]
    folder = tmp_path_factory.mktemp("writer")
    got, want = folder / "got.csv", folder / "want.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
        cli._write_csv(str(got), header, columns)
    _oracle_csv(str(want), header, _broadcast_rows(columns))
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("out", ["-", None])
def test_writer_stdout_matches_row_oracle(tmp_path, capsys, out):
    from volclust.cli import _write_csv

    x, y = np.linspace(-1, 1, 4), np.array(SPECIAL_VALUES)
    columns = [0.5, x[:, None], y[None, :], x[:, None] * y]
    want = tmp_path / "want.csv"
    _write_csv(out, ["tau", "x", "y", "xy"], columns)
    _oracle_csv(str(want), ["tau", "x", "y", "xy"], _broadcast_rows(columns))
    assert capsys.readouterr().out == want.read_text()


def test_writer_special_values_match_row_oracle(tmp_path):
    from volclust.cli import _write_csv

    values = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324, 0.1 + 0.2,
                       -1.2345678901234567e300, 2.0 ** 53 + 2, 3])
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    _write_csv(str(got), ["v", "neg", "c"], [values, -values, 7])
    _oracle_csv(str(want), ["v", "neg", "c"], [(v, -v, 7) for v in values])
    assert got.read_bytes() == want.read_bytes()
    assert got.read_text().splitlines()[1:4] == ["-0,0,7", "0,-0,7", "nan,nan,7"]


# 6 rows a block puts 2 leading indices of the (7, 3) case in each block, so the
# (7, 1) column is broadcast inside a block and the last, partial block needs a
# template of its own
@pytest.mark.parametrize("block_rows", [1, 5, 6, 1024])
def test_writer_broadcasts_columns_in_c_order(tmp_path, monkeypatch, block_rows):
    from volclust import cli

    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(3)
    a, b, grid = rng.normal(size=(7, 1)), rng.normal(size=(1, 3)), rng.normal(size=(7, 3))
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    cli._write_csv(str(got), ["s", "a", "b", "grid"], [0.5, a, b, grid])
    _oracle_csv(str(want), ["s", "a", "b", "grid"],
                [(0.5, a[i, 0], b[0, j], grid[i, j]) for i in range(7) for j in range(3)])
    assert got.read_bytes() == want.read_bytes()

    cli._write_csv(str(got), ["k", "k2"], [np.arange(13.0), np.arange(13.0) ** 2])
    _oracle_csv(str(want), ["k", "k2"], [(k, k * k) for k in range(13)])
    assert got.read_bytes() == want.read_bytes()

    cli._write_csv(str(got), ["one", "two"], [1.5, 2])  # scalars only: a single row
    assert got.read_text() == "one,two\n1.5,2\n"
    for empty in (np.empty(0), np.empty((2, 0))):
        cli._write_csv(str(got), ["empty", "one"], [empty, 1])
        assert got.read_text() == "empty,one\n"


def test_writer_rejects_columns_that_do_not_broadcast(tmp_path):
    from volclust.cli import _write_csv

    out = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        _write_csv(str(out), ["a", "b"], [np.zeros(3), np.zeros(4)])
    assert not out.exists()  # nothing is opened before the shapes agree


def test_writer_streams_in_bounded_memory(tmp_path):
    import tracemalloc

    from volclust.cli import _write_csv

    rng = np.random.default_rng(5)
    x, y = np.linspace(-3, 3, 100), np.linspace(-1, 1, 400)
    u, u_tilde = rng.normal(size=(100, 400)), rng.normal(size=400)
    P = u_tilde - u
    out = tmp_path / "surface.csv"
    tracemalloc.start()
    try:
        _write_csv(str(out), ["tau", "x", "y", "u", "u_tilde", "P"],
                   [0.25, x[:, None], y[None, :], u, u_tilde[None, :], P])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = out.stat().st_size
    assert written > 40000 * 6 * 10
    assert peak < written / 4, (peak, written)

import csv
import math

import numpy as np
import pytest

from volclust.cli import main
from volclust.model import arctangent_model, write_config


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


def test_pde_solve_command(cheap_config, tmp_path):
    out = tmp_path / "pde.csv"
    assert main(["pde-solve", "--config", cheap_config, "--nx", "21",
                 "--xmin", "-2", "--xmax", "2", "--out", str(out)]) == 0
    rows = read_rows(str(out))
    assert set(rows[0]) == {"tau", "x", "y", "u", "u_tilde", "P"}
    ps = np.array([float(r["P"]) for r in rows])
    assert ps.min() >= -1e-6 * 100 and ps.max() <= 100 * (1 + 1e-6)


@pytest.mark.parametrize("dt", ["0", "-0.1", "nan", "inf"])
def test_pde_solve_rejects_a_bad_dt(cheap_config, tmp_path, capsys, dt):
    out = tmp_path / "pde.csv"
    assert main(["pde-solve", "--config", cheap_config, "--nx", "21", "--dt", dt,
                 "--out", str(out)]) == 2
    assert "dt must be finite and > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,message", [
    (["price", "--tau", "-1", "--x", "0.0"], "--tau must be finite and >= 0, got -1.0"),
    (["measure-dump", "--tol", "0"], "--tol must be > 0, got 0.0"),
    (["iv-surface", "--a", "-0.1", "--d", "0.2", "--tau", "0"], "--tau must be finite and > 0, got 0.0"),
    (["pde-solve", "--nx", "21", "--tau", "-1"], "tau must be finite and >= 0, got -1.0"),
], ids=["price", "measure-dump", "iv-surface", "pde-solve"])
def test_bad_numbers_exit_with_2_naming_the_flag(cheap_config, tmp_path, capsys, command, message):
    out = tmp_path / "out.csv"
    config = [] if command[0] == "iv-surface" else ["--config", cheap_config]
    assert main(command + config + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_pde_sweep_command(cheap_config, tmp_path, capsys):
    probes = tmp_path / "probes.csv"
    probes.write_text("tau,x,y\n0.05,0.0,0.0\n0.05,-0.3,0.1\n")
    assert main(["pde-sweep", "--config", cheap_config, "--eps-list", "0.25",
                 "--probes", str(probes)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "eps,max_abs_error,normalized"
    eps, err, norm = map(float, lines[1].split(","))
    assert eps == 0.25 and err > 0 and norm > 0


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


def test_worker_cap_env(monkeypatch):
    from volclust.cli import _worker_count
    from volclust.errors import ConfigError

    monkeypatch.setenv("VOLCLUST_THREADS", "1")
    assert _worker_count(8) == 1
    monkeypatch.setenv("VOLCLUST_THREADS", "64")
    assert _worker_count(3) <= 3  # never more workers than tasks
    monkeypatch.setenv("VOLCLUST_THREADS", "lots")
    with pytest.raises(ConfigError):
        _worker_count(2)


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
    """The row-at-a-time writer the columnar one replaced: csv.writer over _fmt."""
    from volclust.cli import _fmt

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def test_writer_special_values_match_row_oracle(tmp_path):
    from volclust.cli import _write_csv

    values = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 1e-300, 5e-324, 0.1 + 0.2,
                       -1.2345678901234567e300, 2.0 ** 53 + 2, 3])
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    _write_csv(str(got), ["v", "neg", "c"], [values, -values, 7])
    _oracle_csv(str(want), ["v", "neg", "c"], [(v, -v, 7) for v in values])
    assert got.read_bytes() == want.read_bytes()
    assert got.read_text().splitlines()[1:4] == ["-0,0,7", "0,-0,7", "nan,nan,7"]


@pytest.mark.parametrize("block_rows", [1, 5, 1024])
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

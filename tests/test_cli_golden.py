"""Byte-for-byte golden outputs of every CLI subcommand.

The files under ``tests/data/golden_cli/`` were written by the CLI before
its CSV writer became columnar; any change to what a subcommand writes,
down to the last digit or byte, fails here.  To regenerate them on
purpose, run ``PYTHONPATH=src python tests/test_cli_golden.py`` and say
why in CHANGES.md.
"""

import sys
from pathlib import Path

import pytest

from conftest import forbid_pool, pin_cpus
from volclust.asymptotics import corrected_iv
from volclust.cli import main
from volclust.model import arctangent_model, write_config
from volclust.poisson import group_constants_for

GOLDEN_DIR = Path(__file__).parent / "data" / "golden_cli"


def _inputs(tmp: Path) -> dict:
    """Write the configs, probes and quotes the cases read; return their paths."""
    paths = {name: str(tmp / name) for name in
             ("demo.cfg", "cheap.cfg", "eta0.cfg", "probes.csv", "quotes.csv", "eta_quotes.csv")}
    write_config(arctangent_model(), paths["demo.cfg"])
    write_config(arctangent_model(epsilon=0.25, maturity=0.05), paths["cheap.cfg"])
    (tmp / "probes.csv").write_text("tau,x,y\n0.05,0.0,0.0\n0.05,-0.3,0.1\n")
    with open(paths["quotes.csv"], "w") as fh:
        fh.write("tau,x,iv,weight\n")
        for tau in (0.1, 0.25, 0.5):
            for x in (-0.2, 0.0, 0.2):
                fh.write(f"{tau},{x},{-0.154 * (-x / tau) + 0.149 + 1e-3 * x * x},{1 + x}\n")
    spec = arctangent_model(eta=0.25)
    civ = corrected_iv(group_constants_for(spec), spec)
    with open(paths["eta_quotes.csv"], "w") as fh:
        fh.write("tau,x,iv\n")
        for tau in (0.1, 0.25):
            for x in (-0.2, 0.0, 0.2):
                fh.write(f"{tau},{x},{civ.iv(tau, x)!r}\n")
    write_config(spec.with_(eta=0.0), paths["eta0.cfg"])
    paths["sigma_bar"] = repr(civ.sigma_bar)
    return paths


# name -> (argv given the input paths, files written next to --out besides it)
CASES = {
    "constants": (lambda p: ["constants", "--config", p["demo.cfg"]], ()),
    "price": (lambda p: ["price", "--config", p["demo.cfg"], "--tau", "0.25", "--tau", "0.5",
                         "--x", "0.0", "--x", "-0.2", "--x", "0.3"], ()),
    "iv_surface": (lambda p: ["iv-surface", "--config", p["demo.cfg"], "--tau", "0.1",
                              "--tau", "0.5", "--nx", "7"], ()),
    "figure1": (lambda p: ["figure1", "--a", "-0.154", "--d", "0.149",
                           "--n-tau", "4", "--n-lmmr", "9"], (".gp",)),
    "figure2": (lambda p: ["figure2", "--epsilon", "0.25", "--nx", "121"], (".gp",)),
    "measure_dump": (lambda p: ["measure-dump", "--config", p["cheap.cfg"]], ()),
    "pde_solve": (lambda p: ["pde-solve", "--config", p["cheap.cfg"], "--nx", "21",
                             "--xmin", "-2", "--xmax", "2"], ()),
    "pde_sweep": (lambda p: ["pde-sweep", "--config", p["cheap.cfg"], "--eps-list", "0.25,0.2",
                             "--probes", p["probes.csv"]], ()),
    "calibrate": (lambda p: ["calibrate", "--quotes", p["quotes.csv"],
                             "--sigma-bar", "0.2", "--epsilon", "0.004"], ()),
    "calibrate_config": (lambda p: ["calibrate", "--quotes", p["eta_quotes.csv"],
                                    "--sigma-bar", p["sigma_bar"], "--epsilon", "0.004",
                                    "--config", p["eta0.cfg"]], ()),
}

STDOUT_CASE = "iv_surface_stdout"
STDOUT_ARGV = ["iv-surface", "--a", "-0.154", "--d", "0.149", "--tau", "0.5", "--nx", "11",
               "--out", "-"]


def _run(name: str, tmp: Path) -> dict[str, bytes]:
    """Run one case in ``tmp``; return the bytes of each file it wrote."""
    argv, extras = CASES[name]
    out = tmp / f"{name}.csv"
    assert main(argv(_inputs(tmp)) + ["--out", str(out)]) == 0
    files = {out.name: out.read_bytes()}
    for suffix in extras:
        extra = out.with_suffix(suffix)
        files[extra.name] = extra.read_bytes()
    return files


# the subcommands that fan out over worker processes also run on 2 CPUs, and so
# 2 workers, and must write the same bytes
WORKER_CASES = [pytest.param(name, 1, id=name) for name in sorted(CASES)] + [
    pytest.param(name, 2, id=f"{name}-2workers") for name in ("figure2", "pde_sweep")]


@pytest.mark.parametrize("name, cpus", WORKER_CASES)
def test_subcommand_output_matches_golden(name, cpus, tmp_path, monkeypatch):
    """On an affinity set of one CPU every solve runs in this process: no pool starts."""
    pin_cpus(monkeypatch, cpus)
    if cpus == 1:
        forbid_pool(monkeypatch)
    for filename, data in _run(name, tmp_path).items():
        assert data == (GOLDEN_DIR / filename).read_bytes(), filename


def test_stdout_output_matches_golden(capsysbinary):
    assert main(STDOUT_ARGV) == 0
    assert capsysbinary.readouterr().out == (GOLDEN_DIR / f"{STDOUT_CASE}.csv").read_bytes()


if __name__ == "__main__":
    import subprocess
    import tempfile

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for filename, data in _run(case, Path(tmp)).items():
                (GOLDEN_DIR / filename).write_bytes(data)
    stdout = subprocess.run([sys.executable, "-m", "volclust.cli", *STDOUT_ARGV],
                            check=True, capture_output=True).stdout
    (GOLDEN_DIR / f"{STDOUT_CASE}.csv").write_bytes(stdout)

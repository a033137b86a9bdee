"""Tests of the benchmark itself, at sizes that run in about a minute.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run._import_library()

import make_refs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Small instances that still pass every correctness gate.
SMALL = {
    "skew3": lambda: workloads.Skew3(epsilon=0.02),
    "eps_sweep": lambda: workloads.EpsSweep(nx=61, eps_list=(0.08, 0.04, 0.02)),
    "calib_batch": lambda: workloads.CalibBatch(n_models=6, taus=(0.05, 0.5), zs=(-1.0, 0.0, 1.0)),
    "coarse_solve_csv": lambda: workloads.CoarseSolveCsv(nx=41),
}

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _small_refs(workload):
    if not hasattr(workload, "cases"):
        return None
    return make_refs.build_reference(workload, fine_factor=0.25, min_fine_steps=0)


@pytest.fixture(scope="module")
def results():
    """Untraced and traced runs of every small workload, made once."""
    cache = {}

    def get(name):
        if name not in cache:
            workload = SMALL[name]()
            refs = _small_refs(workload)
            cache[name] = {trace: run.run(workload, 3, 0.01, trace, refs=refs)
                           for trace in (False, True)}
        return cache[name]
    return get


def test_benchmark_json_names_known_workloads():
    assert set(workloads.WORKLOADS) == set(SMALL)
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_smoke_pass_is_correct(results, name):
    for trace, (result, record) in results(name).items():
        assert record["gate_failures"] == [], (trace, record["gate_failures"])
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert len(record["output_sha256"]) == 64


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_benchmark_metric_is_emitted(results, name):
    untraced, _ = results(name)[False]
    traced, _ = results(name)[True]
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == e2e
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == layers
    for metric, value in untraced["metrics"].items():
        assert value["value"] > 0, metric  # end-to-end metrics are never 0
    json.dumps(untraced, allow_nan=False)
    json.dumps(traced, allow_nan=False)


def test_pde_counts_are_zero_on_calib_batch(results):
    traced, _ = results("calib_batch")[True]
    pde_metrics = {k: v["value"] for k, v in traced["metrics"].items() if k.startswith("pde.")}
    assert pde_metrics and all(v == 0 for v in pde_metrics.values()), pde_metrics
    assert traced["metrics"]["bs.iv_calls"]["value"] > 0


def test_traced_skew3_accounts_for_the_surface_time(results):
    traced, _ = results("skew3")[True]
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    assert m["pde.solves"] > 0 and m["pde.xsolve_s"] > 0 and m["pde.ysolve_s"] > 0
    assert m["pde.xsolve_s"] + m["pde.ysolve_s"] < m["pde.surface_s"]
    assert m["pde.steps_taken"] == m["pde.steps_requested"] > 0


def test_solve_spans_nest_inside_the_surface_span():
    """Solves are timed once, inside the surface that makes them.

    The surface span's own time, kept by the tracer's nesting bookkeeping,
    must equal its total minus the solves; a solve timed outside the
    surface, or twice, breaks that.  The traced surface also fits inside
    the caller's own clock.
    """
    case = workloads.Skew3(epsilon=0.02).cases()[0]
    with tracing.Tracer() as tracer:
        start = time.perf_counter()
        workloads.pde.price_surface(case.spec, case.grid)
        wall = time.perf_counter() - start
    m = tracer.layer_metrics(1)
    solves = m["pde.xsolve_s"] + m["pde.ysolve_s"]
    assert 0 < solves < m["pde.surface_s"] <= wall
    assert tracer.spans["pde.surface"][0] == 1
    assert tracer.spans["pde.surface"][2] == pytest.approx(m["pde.self_s"], rel=1e-9)
    assert m["pde.self_s"] > 0


def test_calib_batch_inputs_repeat_for_a_seed():
    workload = SMALL["calib_batch"]()
    first = [repr(spec) for spec in workload.setup(11)["models"]]
    again = [repr(spec) for spec in workload.setup(11)["models"]]
    other = [repr(spec) for spec in workload.setup(12)["models"]]
    assert first == again
    assert first != other
    for spec in workload.setup(11)["models"]:
        assert not isinstance(spec.sigma1, workloads.model.Constant)


def test_tracer_wrappers_are_removed():
    import scipy.linalg
    import volclust

    original_call = volclust.model.Constant.__call__
    tracer = tracing.Tracer().install()
    try:
        wrapped = tracing.wrapped_bindings()
        for name in ("volclust.pde.price_surface", "volclust.pde.solve_banded",
                     "volclust.asymptotics.bs_put", "volclust.bs.bs_put",
                     "volclust.calibrate.build_invariant_measure", "volclust.price_surface",
                     "model.Constant.__call__"):
            assert name in wrapped
        with pytest.raises(RuntimeError):
            tracing.assert_unwrapped()
        with pytest.raises(RuntimeError):  # untraced timing refuses to start
            run.run(SMALL["calib_batch"](), 1, 0.01, False)
    finally:
        tracer.remove()
    assert tracing.wrapped_bindings() == []
    assert volclust.pde.solve_banded is scipy.linalg.solve_banded
    assert volclust.model.Constant.__call__ is original_call


def test_runs_leave_no_wrappers_behind(results):
    results("calib_batch")
    tracing.assert_unwrapped()


def test_reference_on_another_grid_is_refused(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = workloads.CoarseSolveCsv(nx=41)
    refs = make_refs.build_reference(workload, fine_factor=0.25, min_fine_steps=0)
    refs["cases"][0]["grid"]["nx"] = 43
    with pytest.raises(workloads.ReferenceMismatch):
        workload.setup(1, refs)
    assert list(tmp_path.iterdir()) == []  # refused before making its scratch directory


def test_failed_cli_pass_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = workloads.CoarseSolveCsv(nx=41)
    refs = make_refs.build_reference(workload, fine_factor=0.25, min_fine_steps=0)
    state = workload.setup(1, refs)
    try:
        assert workload.run_pass(state).failed == 0  # leaves a CSV behind
        monkeypatch.setattr(workloads.cli, "main", lambda argv: 1)
        result = workload.run_pass(state)
        assert (result.attempted, result.failed, result.outputs["rows"]) == (1, 1, 0)
        assert workload.check(state, result) == ["coarse_solve_csv: exit code 1"]
    finally:
        workload.teardown(state)


def test_stored_references_match_the_full_workloads():
    for name, cls in workloads.WORKLOADS.items():
        if hasattr(cls, "cases"):
            workloads.load_reference(name, cls().cases())


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "calib_batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

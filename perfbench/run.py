"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload skew3 --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``, timed with no
wrappers installed.  With ``--trace 1`` the same untraced passes run
first, then the tracer wraps the library and the passes run again; the
metrics are the per-layer ones, plus ``trace.overhead_s``.  The line
before it, prefixed ``record``, holds the machine, the versions, the seed,
each surface's grid and step counts, and a hash of the outputs.

The run builds nothing: it imports ``volclust`` from ``src/`` of the
checkout and exits with code 2, printing no result, when that is missing.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from typing import Sequence  # noqa: E402

# One thread everywhere: the machine has few cores, and the numbers should
# measure the program, not the scheduler.  This leaves the CLI's
# process-pool fan-out unmeasured.
for _var in ("VOLCLUST_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5


def _import_library():
    """Import volclust from the checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "volclust", "__init__.py")):
        raise ImportError(f"no volclust sources under {SRC}")
    sys.path.insert(0, SRC)
    import volclust
    if not os.path.abspath(volclust.__file__).startswith(SRC + os.sep):
        raise ImportError(f"volclust imported from {volclust.__file__}, not from {SRC}")
    return volclust


def import_seconds() -> list[float]:
    """Import time of the library and the benchmark in fresh interpreters.

    The import is the largest part of set-up and happens once per
    process, so besides the run's own import it is sampled in
    ``SETUP_REPEATS`` child processes.
    """
    probe = ("import sys, time; t = time.perf_counter(); "
             f"sys.path[:0] = [{SRC!r}, {HERE!r}]; import workloads, tracing; "
             "print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                 check=True, timeout=120).stdout)
            for _ in range(SETUP_REPEATS)]


def measure_passes(workload, state, seconds: float, warnings_log: list) -> list:
    """Run passes for about ``seconds``, never fewer than ``workload.min_passes``.

    A pass starts only when the median pass so far fits in the time left.
    """
    passes = []
    start = time.perf_counter()
    while True:
        if passes:
            passes[-1].outputs = None  # keep memory independent of the pass count
        mark = len(warnings_log)
        passes.append(workload.run_pass(state))
        passes[-1].layer["warnings"] = len(warnings_log) - mark
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall_s for p in passes)
        if len(passes) >= workload.min_passes and elapsed + typical > seconds:
            return passes


def end_to_end_metrics(passes, setup_s: float, error: float) -> dict:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "result_err": (error, "abs"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def layer_units(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def machine_record() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for level in ("LEVEL1_DCACHE", "LEVEL2_CACHE", "LEVEL3_CACHE"):
        try:
            caches[level.lower()] = os.sysconf(f"SC_{level}_SIZE")
        except (ValueError, OSError):
            caches[level.lower()] = None
    return {"cpu": cpu, "nproc": os.cpu_count(), "cache_bytes": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def source_hash() -> str:
    """sha256 over the library sources: the commit's identity where git is absent."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "volclust")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def run(workload, seed: int, seconds: float, trace: bool, imports: Sequence[float] = (0.0,),
        refs: dict | None = None) -> tuple[dict, dict]:
    """Set up, measure, check; returns (result, record).

    ``imports`` are import-time samples; set-up time is their median plus
    the median of ``SETUP_REPEATS`` set-ups of the workload.
    """
    from tracing import Tracer, assert_unwrapped

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(seed, refs)
        setups.append(time.perf_counter() - t0)
        if hasattr(workload, "teardown") and len(setups) < SETUP_REPEATS:
            workload.teardown(state)
    setup_s = statistics.median(imports) + statistics.median(setups)

    try:
        with warnings.catch_warnings(record=True) as warnings_log:
            # record every warning (an overflow in implied_vol on tiny vega,
            # say) instead of printing it; the counts go into the record
            warnings.simplefilter("always")
            assert_unwrapped()
            passes = measure_passes(workload, state, seconds, warnings_log)
            traced, tracer = [], None
            if trace:
                with Tracer(warnings_log) as tracer:
                    traced = measure_passes(workload, state, seconds, warnings_log)
        last = (traced or passes)[-1]
        problems = workload.check(state, last)
        if len({p.digest for p in passes + traced}) != 1:
            problems.append(f"{workload.name}: outputs differ between passes")
        try:
            error = workload.error(state, last)
        except KeyError:  # an operation failed, so its output is missing
            error = math.inf
        record = {"workload": workload.name, "seed": seed, "output_sha256": last.digest,
                  **workload.describe(state, last)}
    finally:
        if hasattr(workload, "teardown"):
            workload.teardown(state)

    attempted = sum(p.attempted for p in passes + traced)
    failed = sum(p.failed for p in passes + traced)
    if trace:
        layers = tracer.layer_metrics(len(traced))
        for key in ("cli.rows", "cli.bytes"):
            layers[key] = statistics.mean(p.layer.get(key, 0) for p in traced)
        layers["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                      - statistics.median(p.wall_s for p in passes))
        metrics = {name: {"value": value, "unit": layer_units(name)} for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end_metrics(passes, setup_s, error).items()}

    record.update({
        "passes": len(passes), "traced_passes": len(traced), "pass_wall_s": [p.wall_s for p in passes],
        "setup_samples_s": setups, "import_samples_s": list(imports), "result_err": error,
        "warnings": sum(p.layer["warnings"] for p in passes),
        "gate_failures": problems,
    })
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    imports = [time.perf_counter() - PROCESS_START, *import_seconds()]
    try:
        result, record = run(workloads.WORKLOADS[args.workload](), args.seed, args.seconds,
                             bool(args.trace), imports=imports)
    except workloads.ReferenceMismatch as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    record.update(machine_record())
    record["source_sha256"] = source_hash()
    print("record " + json.dumps(record, sort_keys=True))
    for problem in record["gate_failures"]:
        print(f"perfbench: GATE FAILED: {problem}", file=sys.stderr)
    for metric in result["metrics"].values():
        if not math.isfinite(metric["value"]):  # only when an operation failed
            metric["value"] = None
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

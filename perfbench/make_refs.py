"""Write the fine-dt references behind ``result_err`` of the PDE workloads.

Usage, from the root of a checkout:

    python3 perfbench/make_refs.py

It writes the reference of every PDE workload.  For every PDE solve of a
workload the reference is a Richardson extrapolation in time on the
workload's own spatial grid: with the scheme first order in dt,
``P_ref = 2 P(2N) - P(N)`` at the probed nodes, where N is four times the
requested step count (at least 1000).  Each file records the grid, the step counts, the source commit and
``fine_gap = max |P(2N) - P(N)|``, which bounds the error of P(N) and so
is far above that of P_ref.  The whole set takes several minutes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np

from run import ROOT, _import_library, source_hash

FINE_FACTOR = 4
MIN_FINE_STEPS = 1000


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def build_reference(workload, fine_factor: float = FINE_FACTOR,
                    min_fine_steps: int = MIN_FINE_STEPS) -> dict:
    """Reference prices at the probed nodes of every case of ``workload``."""
    from volclust import pde
    from workloads import grid_signature

    cases = []
    for case in workload.cases():
        n = max(int(fine_factor * case.grid.n_steps), min_fine_steps)
        fine = {}
        for steps in (n, 2 * n):
            grid = dataclasses.replace(case.grid, dt=case.grid.tau_final / steps, n_steps=steps)
            P = pde.price_surface(case.spec, grid).P
            fine[steps] = np.array([P[ix, jy] for ix, jy in case.nodes])
        p_ref = 2.0 * fine[2 * n] - fine[n]
        cases.append({"label": case.label, "grid": grid_signature(case.grid),
                      "steps_requested": case.grid.n_steps, "fine_steps": [n, 2 * n],
                      "fine_gap": float(np.abs(fine[2 * n] - fine[n]).max()),
                      "nodes": [list(node) for node in case.nodes], "P_ref": p_ref.tolist()})
    return {"workload": workload.name, "commit": _commit(), "source_sha256": source_hash(),
            "generated_by": "perfbench/make_refs.py", "scheme_order_in_dt": 1, "cases": cases}


def main() -> int:
    _import_library()
    from workloads import REFS_DIR, WORKLOADS

    os.makedirs(REFS_DIR, exist_ok=True)
    for name, cls in WORKLOADS.items():
        if not hasattr(cls, "cases"):  # calib_batch solves no PDE
            continue
        ref = build_reference(cls())
        path = os.path.join(REFS_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads; BENCHMARK.json lists all but calib_batch.

Each workload is a closed loop: one caller starts the next operation only
after the previous one has returned.  A workload builds its inputs from
the seed (``setup``), runs one timed pass over them (``run_pass``), and
afterwards checks the outputs of its last pass (``check``) and measures
their error against a reference (``error``).  ``README.md`` in this
directory says why each workload exists.

The library is called through module attributes (``pde.price_surface``,
never a name imported from it), so the wrappers of a traced run see
every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from volclust import asymptotics, bs, calibrate, cli, measure, model, pde, poisson
from volclust.errors import VolclustError

REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")

TAU = 0.25
LMMR = tuple(float(v) for v in np.linspace(-0.3, 0.3, 61))  # the paper's Figure 2 abscissa
SKEW_ETAS = (-0.25, 0.0, 0.25)
SWEEP_EPS = (0.04, 0.01, 0.0025)  # decreasing, as AC-1 requires
# skew3's grid: dx = 0.01, as on the default grid.  nx = 201 on the default
# span gives dx = 0.03, which snaps neighbouring LMMR points to one node.
SKEW_NX = 201
SKEW_X_SPAN = (-1.0, 1.0)
# coarse_solve_csv asks for 125 steps; the band monitor trips and the
# solver halves dt once, to 250 steps.
CSV_DT = 0.002
SPAN_TOL = 1e-12
# The solver monitors the price band with this slack (relative to the
# strike), because its explicit mixed term is not exactly monotone.
BAND_TOL = 1e-6


class ReferenceMismatch(RuntimeError):
    """The grid a workload gets is not the grid its reference was made on."""


@dataclass
class PassResult:
    """What one timed pass produced."""

    wall_s: float
    attempted: int
    failed: int
    outputs: dict       # read by check(), error() and describe(); kept for the last pass only
    digest: str         # sha256 of the outputs, so passes and runs can be compared bit for bit
    layer: dict = field(default_factory=dict)  # per-layer numbers the workload measures itself


def output_hash(*items) -> str:
    """sha256 over float64 arrays (C order) or raw bytes, in the given order."""
    digest = hashlib.sha256()
    for item in items:
        if isinstance(item, bytes):
            digest.update(item)
        else:
            digest.update(np.ascontiguousarray(item, dtype=np.float64).tobytes())
    return digest.hexdigest()


def seed_order(seed: int, values: list) -> list:
    """The values in a seed-chosen order, so that runs vary which goes first."""
    return [values[i] for i in np.random.default_rng(seed).permutation(len(values))]


def _in_band(P: np.ndarray, strike: float) -> bool:
    slack = BAND_TOL * strike
    return bool(np.all(np.isfinite(P)) and P.min() >= -slack and P.max() <= strike + slack)


# --- PDE cases and their references -----------------------------------------

@dataclass(frozen=True)
class Case:
    """One PDE solve of a workload: a model, its grid and the probed nodes."""

    label: str
    spec: model.ModelSpec
    grid: pde.Grid2D
    nodes: tuple[tuple[int, int], ...]  # (ix, jy) at which the error is measured


def grid_signature(grid: pde.Grid2D) -> dict:
    return {"nx": int(grid.x.size), "ny": int(grid.y.size),
            "x_span": [float(grid.x[0]), float(grid.x[-1])],
            "y_span": [float(grid.y[0]), float(grid.y[-1])],
            "tau": float(grid.tau_final)}


def _same_grid(a: dict, b: dict) -> bool:
    spans_a = a["x_span"] + a["y_span"] + [a["tau"]]
    spans_b = b["x_span"] + b["y_span"] + [b["tau"]]
    return (a["nx"] == b["nx"] and a["ny"] == b["ny"]
            and all(abs(p - q) <= SPAN_TOL for p, q in zip(spans_a, spans_b)))


def nearest_node(grid: pde.Grid2D, x: float, y: float) -> tuple[int, int]:
    return int(np.argmin(np.abs(grid.x - x))), int(np.argmin(np.abs(grid.y - y)))


def ac1_probes(spec: model.ModelSpec) -> list[tuple[float, float, float]]:
    """The 25 (tau, x, y) probes of the paper's AC-1 accuracy sweep."""
    std = measure.build_invariant_measure(spec).std()
    return [(TAU, x, spec.m + k * std)
            for x in (-1.0, -0.5, 0.0, 0.5, 1.0) for k in (-2, -1, 0, 1, 2)]


def load_reference(name: str, cases: list[Case], refs: dict | None = None) -> dict:
    """The stored fine-dt reference of a workload, checked against its grids.

    Refuses (``ReferenceMismatch``) when a case's spatial grid, tau or
    probe nodes differ from those the reference was made on: a time-step
    error is only defined against a reference on the same spatial grid.
    The step count may differ; that is what the error measures.
    """
    if refs is None:
        with open(os.path.join(REFS_DIR, f"{name}.json")) as fh:
            refs = json.load(fh)
    stored = {c["label"]: c for c in refs["cases"]}
    for case in cases:
        ref = stored.get(case.label)
        if ref is None:
            raise ReferenceMismatch(f"{name}: no reference for case {case.label}")
        if not _same_grid(ref["grid"], grid_signature(case.grid)):
            raise ReferenceMismatch(
                f"{name}/{case.label}: grid {grid_signature(case.grid)} differs from the "
                f"reference grid {ref['grid']}; regenerate with perfbench/make_refs.py")
        if [list(n) for n in case.nodes] != ref["nodes"]:
            raise ReferenceMismatch(f"{name}/{case.label}: probe nodes differ from the reference")
    return stored


def _case_info(case: Case, steps_taken: int | None = None) -> dict:
    return {**grid_signature(case.grid), "steps_requested": case.grid.n_steps,
            "steps_taken": steps_taken}


# --- skew3 -------------------------------------------------------------------

class Skew3:
    """Figure 2 / AC-2: three PDE surfaces, implied vols on the LMMR grid at y = m.

    Each smile is then calibrated back to an eta, as a user fitting the
    model to an observed smile would.
    """

    name = "skew3"
    min_passes = 1

    def __init__(self, epsilon: float = 0.004):
        self.epsilon = epsilon

    def cases(self) -> list[Case]:
        out = []
        for eta in SKEW_ETAS:
            spec = model.arctangent_model(eta=eta, epsilon=self.epsilon, maturity=TAU)
            grid = pde.make_grid(spec, TAU, nx=SKEW_NX, x_span=SKEW_X_SPAN)
            jy = nearest_node(grid, 0.0, spec.m)[1]
            nodes = tuple((nearest_node(grid, -lm, spec.m)[0], jy) for lm in LMMR)
            out.append(Case(label=f"eta={eta:g}", spec=spec, grid=grid, nodes=nodes))
        return out

    def setup(self, seed: int, refs: dict | None = None) -> dict:
        cases = self.cases()
        return {"cases": cases, "order": seed_order(seed, cases),
                "refs": load_reference(self.name, cases, refs)}

    def run_pass(self, state: dict) -> PassResult:
        surfaces, curves, etas = {}, {}, {}
        attempted = failed = 0
        start = time.perf_counter()
        for case in state["order"]:
            attempted += 2 + len(case.nodes)
            try:
                surface = pde.price_surface(case.spec, case.grid)
            except VolclustError:
                failed += 2 + len(case.nodes)
                continue
            ivs = np.full(len(case.nodes), math.nan)
            quotes = []
            for k, (ix, jy) in enumerate(case.nodes):
                x = float(case.grid.x[ix])
                try:
                    ivs[k] = bs.implied_vol(float(surface.P[ix, jy]), surface.tau, x,
                                            case.spec.strike)
                except VolclustError:
                    failed += 1
                    continue
                quotes.append(calibrate.IVQuote(tau=surface.tau, x=x, iv=float(ivs[k])))
            try:
                etas[case.label] = calibrate.calibrate_from_surface(quotes, case.spec).eta
            except VolclustError:
                failed += 1
            surfaces[case.label], curves[case.label] = surface, ivs
        wall = time.perf_counter() - start
        labels = sorted(surfaces)
        return PassResult(wall_s=wall, attempted=attempted, failed=failed,
                          outputs={"surfaces": surfaces, "curves": curves, "etas": etas},
                          digest=output_hash(*[surfaces[lb].P for lb in labels],
                                             *[curves[lb] for lb in labels],
                                             [etas.get(lb, math.nan) for lb in labels]))

    def check(self, state: dict, result: PassResult) -> list[str]:
        out = result.outputs
        if len(out["curves"]) != len(state["cases"]):
            return ["skew3: a price surface failed"]
        problems = []
        lm = np.array(LMMR)
        design = np.vstack([lm, np.ones_like(lm)]).T
        curves = [out["curves"][case.label] for case in state["cases"]]  # eta ascending
        for case, curve in zip(state["cases"], curves):
            if not _in_band(out["surfaces"][case.label].P, case.spec.strike):
                problems.append(f"skew3 {case.label}: P outside [0, K]")
            if not np.all(np.isfinite(curve)):
                problems.append(f"skew3 {case.label}: an implied vol failed")
                continue
            if not np.all(np.diff(curve) < 0):
                problems.append(f"skew3 {case.label}: smile not decreasing in log-moneyness (AC-2)")
            _, res, *_ = np.linalg.lstsq(design, curve, rcond=None)
            r2 = 1.0 - res[0] / ((curve - curve.mean()) ** 2).sum()
            if not r2 > 0.98:
                problems.append(f"skew3 {case.label}: r^2 = {r2:.4f}, not > 0.98 (AC-2)")
        if not all(np.all(hi > lo) for hi, lo in zip(curves, curves[1:])):
            problems.append("skew3: smiles not ordered in eta (AC-2)")
        etas = [out["etas"].get(case.label, math.nan) for case in state["cases"]]
        if not all(a < b for a, b in zip(etas, etas[1:])):
            problems.append(f"skew3: etas calibrated from the smiles {etas} are not increasing")
        return problems

    def error(self, state: dict, result: PassResult) -> float:
        """max |P - P_ref| over the quote nodes of all three surfaces."""
        worst = 0.0
        for case in state["cases"]:
            P = result.outputs["surfaces"][case.label].P
            got = np.array([P[ix, jy] for ix, jy in case.nodes])
            worst = max(worst, float(np.abs(got - state["refs"][case.label]["P_ref"]).max()))
        return worst

    def describe(self, state: dict, result: PassResult) -> dict:
        surfaces = result.outputs["surfaces"]
        return {"surfaces": {c.label: _case_info(c, surfaces[c.label].grid.n_steps)
                             for c in state["cases"] if c.label in surfaces},
                "calibrated_eta": result.outputs["etas"]}


# --- eps_sweep -----------------------------------------------------------------

class EpsSweep:
    """AC-1: one asymptotic-accuracy sweep over three epsilons."""

    name = "eps_sweep"
    min_passes = 1

    def __init__(self, nx: int = 201, eps_list=SWEEP_EPS):
        self.nx, self.eps_list = nx, tuple(eps_list)

    def grid_factory(self, spec, tau):
        return pde.make_grid(spec, tau, nx=self.nx, x_span=pde.DEFAULT_X_SPAN)

    def cases(self) -> list[Case]:
        base = model.arctangent_model()
        probes = ac1_probes(base)
        out = []
        for eps in self.eps_list:
            spec = base.with_(epsilon=eps)
            grid = self.grid_factory(spec, TAU)
            nodes = tuple(nearest_node(grid, x, y) for _, x, y in probes)
            out.append(Case(label=f"eps={eps:g}", spec=spec, grid=grid, nodes=nodes))
        return out

    def setup(self, seed: int, refs: dict | None = None) -> dict:
        cases = self.cases()
        base = model.arctangent_model()
        return {"cases": cases, "order": seed_order(seed, cases), "base": base,
                "probes": ac1_probes(base), "refs": load_reference(self.name, cases, refs)}

    def run_pass(self, state: dict) -> PassResult:
        start = time.perf_counter()
        try:
            swept = pde.accuracy_sweep(state["base"], [c.spec.epsilon for c in state["order"]],
                                       state["probes"], grid_factory=self.grid_factory)
        except VolclustError:
            swept = []
        wall = time.perf_counter() - start
        rows = {case.label: row for case, row in zip(state["order"], swept)}
        return PassResult(wall_s=wall, attempted=1, failed=int(not rows), outputs={"rows": rows},
                          digest=output_hash([[r.eps, r.max_abs_error, r.normalized]
                                              for _, r in sorted(rows.items())]))

    def check(self, state: dict, result: PassResult) -> list[str]:
        rows = result.outputs["rows"]
        if len(rows) != len(state["cases"]):
            return ["eps_sweep: the sweep failed"]
        ordered = [rows[c.label] for c in state["cases"]]  # epsilon decreasing
        errs = [r.max_abs_error for r in ordered]
        norms = [r.normalized for r in ordered]
        problems = []
        if not all(a > b for a, b in zip(errs, errs[1:])):
            problems.append(f"eps_sweep: errors {errs} do not decrease with epsilon (AC-1)")
        if not max(norms) / min(norms) < 3.0:
            problems.append(f"eps_sweep: max/min normalized error {max(norms) / min(norms):.3f} "
                            "not < 3 (AC-1)")
        return problems

    def error(self, state: dict, result: PassResult) -> float:
        """max over epsilon of |E - E_ref|, the time-step error of the reported gap.

        E is the sweep's reported max |P_pde - P_corrected| over the probes;
        E_ref is the same quantity from the fine-dt reference prices.
        """
        gc = poisson.group_constants_for(state["base"])
        worst = 0.0
        for case in state["cases"]:
            corrected = np.array([asymptotics.asymptotic_price(gc, case.spec, case.grid.tau_final,
                                                               float(case.grid.x[ix])).corrected
                                  for ix, _ in case.nodes])
            e_ref = float(np.abs(np.array(state["refs"][case.label]["P_ref"]) - corrected).max())
            worst = max(worst, abs(result.outputs["rows"][case.label].max_abs_error - e_ref))
        return worst

    def describe(self, state: dict, result: PassResult) -> dict:
        return {"surfaces": {c.label: _case_info(c) for c in state["cases"]}}


# --- calib_batch ---------------------------------------------------------------

def random_model(rng: np.random.Generator) -> model.ModelSpec:
    """A random valid model of the test suite's family, with sigma1 never constant.

    A constant sigma1 makes J_b = 0, so eta would be unidentifiable.
    """
    def coeff(lo, hi, positive, allow_constant=True):
        kind = int(rng.integers(0 if allow_constant else 1, 3))
        if kind == 0:
            return model.Constant(float(rng.uniform(lo, hi)))
        if kind == 1:
            base = rng.uniform(lo, hi)
            amp_cap = 1.8 * (base - lo) if positive else (hi - lo)
            return model.Arctangent(float(base), float(rng.uniform(0.05, max(0.06, amp_cap))))
        grid = np.linspace(-8.0, 8.0, 33)
        wobble = rng.uniform(0.2, 0.8) * np.sin(rng.uniform(0.3, 1.5) * grid + rng.uniform(0, 6))
        return model.Tabulated(grid, lo + (hi - lo) * (0.55 + 0.35 * wobble))

    spec = model.ModelSpec(
        b=coeff(0.3, 1.2, positive=False),
        sigma1=coeff(0.2, 0.45, positive=True, allow_constant=False),
        sigma2=coeff(0.15, 0.35, positive=True),
        m=float(rng.uniform(-0.5, 0.5)),
        rho=float(rng.uniform(-0.7, 0.7)),
        eta=float(rng.uniform(-0.5, 0.5)),
        gamma=float(rng.uniform(0.8, 3.0)),
        epsilon=float(rng.uniform(0.002, 0.05)),
        strike=float(rng.uniform(50.0, 150.0)),
        maturity=float(rng.uniform(0.1, 1.0)),
    )
    report = model.validate(spec)
    if not report.is_valid:
        raise ValueError(f"random model is invalid: {report.violations}")
    return spec


class CalibBatch:
    """The asymptotics run in reverse: spec -> constants -> quotes -> implied vols -> eta."""

    name = "calib_batch"
    min_passes = 1

    def __init__(self, n_models: int = 300, taus=tuple(np.geomspace(0.05, 2.0, 20)),
                 zs=tuple(np.linspace(-2.0, 2.0, 20))):
        # Quotes sit at x = z * sigma_bar * sqrt(tau): standardized
        # log-moneyness reaches the same depth into the wings at every
        # maturity.  Beyond |z| = 2, or below tau = 0.05, the first-order
        # corrected price of some models leaves the no-arbitrage band and
        # implied_vol rightly refuses it.
        self.n_models = n_models
        self.grid_points = tuple((float(t), float(z)) for t in taus for z in zs)

    def quote_points(self, gc) -> list[tuple[float, float]]:
        return [(tau, z * gc.sigma_bar * math.sqrt(tau)) for tau, z in self.grid_points]

    def setup(self, seed: int, refs: dict | None = None) -> dict:
        rng = np.random.default_rng(seed)
        anchors = [model.arctangent_model(eta=eta) for eta in SKEW_ETAS]
        return {"models": [random_model(rng) for _ in range(self.n_models)] + anchors,
                "anchors": anchors}

    def run_pass(self, state: dict) -> PassResult:
        results = []
        attempted = failed = 0
        start = time.perf_counter()
        for spec in state["models"]:
            attempted += 1 + len(self.grid_points)
            quotes, priced, bad_quotes = [], [], 0
            try:
                gc = poisson.group_constants_for(spec)
                for tau, x in self.quote_points(gc):
                    price = asymptotics.asymptotic_price(gc, spec, tau, x).corrected
                    try:
                        iv = bs.implied_vol(price, tau, x, spec.strike)
                    except VolclustError:
                        bad_quotes += 1
                        continue
                    quotes.append(calibrate.IVQuote(tau=tau, x=x, iv=iv))
                    priced.append((tau, x, price, iv))
                fit = calibrate.calibrate_from_surface(quotes, spec)
            except VolclustError:
                failed += 1 + len(self.grid_points)  # the model and every quote of it
                continue
            failed += bad_quotes
            results.append((spec, gc, priced, fit.eta))
        wall = time.perf_counter() - start
        return PassResult(wall_s=wall, attempted=attempted, failed=failed,
                          outputs={"results": results},
                          digest=output_hash([eta for *_, eta in results],
                                             [q[3] for _, _, priced, _ in results for q in priced]))

    def check(self, state: dict, result: PassResult) -> list[str]:
        results = result.outputs["results"]
        problems = []
        if len(results) != len(state["models"]):
            problems.append(f"calib_batch: {len(state['models']) - len(results)} models failed")
        worst_const = worst_price = worst_eta = 0.0
        for spec, gc, priced, _ in results:
            worst_const = max(worst_const, abs(gc.a - gc.a_alt) / (1.0 + abs(gc.a)),
                              abs(gc.b - gc.b_alt) / (1.0 + abs(gc.b)))
            for tau, x, price, iv in priced:
                worst_price = max(worst_price,
                                  abs(bs.bs_put(tau, x, spec.strike, iv) - price) / spec.strike)
            line = asymptotics.corrected_iv(gc, spec)
            on_line = [calibrate.IVQuote(tau=tau, x=x, iv=line.iv(tau, x))
                       for tau, x in self.quote_points(gc)]
            worst_eta = max(worst_eta, abs(calibrate.calibrate_from_surface(on_line, spec).eta
                                           - spec.eta))
        if not worst_const <= 1e-5:
            problems.append(f"calib_batch: |A - A_alt|/(1+|A|) reached {worst_const:.2e} > 1e-5")
        if not worst_price <= 1e-10:
            problems.append(f"calib_batch: |bs_put(implied_vol(p)) - p| reached "
                            f"{worst_price:.2e} K > 1e-10 K")
        if not worst_eta <= 1e-6:
            problems.append(f"calib_batch: eta from corrected_iv quotes off by {worst_eta:.2e} > 1e-6")
        return problems

    def error(self, state: dict, result: PassResult) -> float:
        """max |eta_hat - eta| over the three demo models in every batch.

        This is the bias of calibrating on corrected asymptotic prices
        instead of the exact smile line.  It is taken on the fixed demo
        models, because over the random models it moves by 10-20% from
        one seed to the next.
        """
        etas = {id(spec): eta_hat for spec, _, _, eta_hat in result.outputs["results"]}
        return max(abs(etas[id(spec)] - spec.eta) for spec in state["anchors"])

    def describe(self, state: dict, result: PassResult) -> dict:
        return {"models": len(state["models"]), "quotes_per_model": len(self.grid_points)}


# --- coarse_solve_csv ------------------------------------------------------------

class CoarseSolveCsv:
    """``volclust pde-solve`` on the demo config with a dt that forces one halving."""

    name = "coarse_solve_csv"
    min_passes = 2  # the CSV must be byte-identical across passes

    def __init__(self, nx: int = 201):
        self.nx = nx

    def cases(self) -> list[Case]:
        spec = model.arctangent_model()
        grid = pde.make_grid(spec, spec.maturity, nx=self.nx, x_span=pde.DEFAULT_X_SPAN, dt=CSV_DT)
        nodes = tuple(nearest_node(grid, x, y) for _, x, y in ac1_probes(spec))
        return [Case(label="demo", spec=spec, grid=grid, nodes=nodes)]

    def setup(self, seed: int, refs: dict | None = None) -> dict:
        cases = self.cases()
        refs = load_reference(self.name, cases, refs)
        workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd())
        config = os.path.join(workdir, "demo.cfg")
        model.write_config(cases[0].spec, config)
        argv = ["pde-solve", "--config", config, "--nx", str(self.nx), "--dt", repr(CSV_DT),
                "--out", os.path.join(workdir, "solution.csv")]
        return {"cases": cases, "workdir": workdir, "argv": argv, "refs": refs}

    def teardown(self, state: dict) -> None:
        for name in os.listdir(state["workdir"]):
            os.remove(os.path.join(state["workdir"], name))
        os.rmdir(state["workdir"])

    def run_pass(self, state: dict) -> PassResult:
        out = state["argv"][-1]
        if os.path.exists(out):  # so that a failed pass cannot pass off the last one's CSV
            os.remove(out)
        start = time.perf_counter()
        code = cli.main(state["argv"])
        wall = time.perf_counter() - start
        data = b""
        if code == 0:
            with open(out, "rb") as fh:
                data = fh.read()
        rows = max(0, data.count(b"\n") - 1)
        return PassResult(wall_s=wall, attempted=1, failed=int(code != 0),
                          outputs={"code": code, "rows": rows},
                          digest=output_hash(data), layer={"cli.rows": rows, "cli.bytes": len(data)})

    def _table(self, state: dict) -> np.ndarray:
        """The CSV the last pass wrote, parsed once after the timed passes."""
        if "table" not in state:
            state["table"] = np.loadtxt(state["argv"][-1], delimiter=",", skiprows=1, ndmin=2)
        return state["table"]

    def check(self, state: dict, result: PassResult) -> list[str]:
        if result.outputs["code"] != 0:
            return [f"coarse_solve_csv: exit code {result.outputs['code']}"]
        problems = []
        case = state["cases"][0]
        table = self._table(state)
        nx, ny = case.grid.x.size, case.grid.y.size
        if table.shape != (nx * ny, 6) or not np.all(np.isfinite(table)):
            return problems + [f"coarse_solve_csv: expected {nx * ny} finite rows of 6, "
                               f"got shape {table.shape}"]
        if not np.array_equal(np.unique(table[:, 1]), case.grid.x) or \
                not np.array_equal(np.unique(table[:, 2]), case.grid.y):
            problems.append("coarse_solve_csv: the CSV grid is not the reference grid")
        if not _in_band(table[:, 5], case.spec.strike):
            problems.append("coarse_solve_csv: P outside [0, K]")
        return problems

    def error(self, state: dict, result: PassResult) -> float:
        """max |P - P_ref| over the AC-1 probe nodes of the written CSV."""
        case = state["cases"][0]
        P = self._table(state)[:, 5].reshape(case.grid.x.size, case.grid.y.size)
        got = np.array([P[ix, jy] for ix, jy in case.nodes])
        return float(np.abs(got - state["refs"][case.label]["P_ref"]).max())

    def describe(self, state: dict, result: PassResult) -> dict:
        return {"surfaces": {c.label: _case_info(c) for c in state["cases"]},
                "csv_rows": result.outputs["rows"]}


WORKLOADS = {w.name: w for w in (Skew3, EpsSweep, CalibBatch, CoarseSolveCsv)}

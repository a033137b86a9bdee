"""Command-line front end.

Subcommands: constants, price, iv-surface, pde-solve, pde-sweep,
calibrate, figure1, figure2, measure-dump.  Every CSV written has a
header row, '.' decimal separators and 17 significant digits, and reruns
with identical inputs are byte-identical.  The writer takes columns that
broadcast to one shape, formats each of their values once and streams the
rows out in blocks.  Exit codes: 0 success, 2 configuration error, 3
numerical failure.  Independent PDE solves (the eta curves of figure2, the
epsilon members of pde-sweep) are dispatched to parallel workers;
VOLCLUST_THREADS caps the worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import asymptotics, bs, calibrate, measure, model, pde, poisson
from .errors import ConfigError, NumericalError, VolclustError

FIGURE2_ETAS = (-0.25, 0.0, 0.25)
FIGURE2_LM_SPAN = (-0.3, 0.3)
FIGURE2_POINTS = 61
CSV_BLOCK_ROWS = 1024  # rows formatted and written at a time


def _fmt(value) -> str:
    return f"{float(value):.17g}"


_text = np.frompyfunc(_fmt, 1, 1)  # elementwise _fmt into an object array


def _write_csv(out: str | None, header: list[str], columns) -> None:
    """Write the broadcast ``columns``, one row per element in C order, to ``out``.

    A column constant along the leading axis is formatted once, any other
    one block of leading indices at a time, so memory holds one block.
    ``out`` of '-' or None means stdout.
    """
    arrays = [np.asarray(c, dtype=float) for c in columns]
    shape = np.broadcast_shapes((1,), *(a.shape for a in arrays))
    arrays = [a.reshape((1,) * (len(shape) - a.ndim) + a.shape) for a in arrays]
    fixed = [_text(a) if a.shape[0] == 1 else None for a in arrays]
    per_lead = int(np.prod(shape[1:]))
    step = max(1, CSV_BLOCK_ROWS // max(1, per_lead))
    to_stdout = out in (None, "-")
    with contextlib.nullcontext(sys.stdout) if to_stdout else open(out, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, shape[0] if per_lead else 0, step):
            block = (min(step, shape[0] - start),) + shape[1:]
            cells = [np.broadcast_to(_text(a[start:start + step]) if t is None else t, block)
                     .ravel().tolist() for a, t in zip(arrays, fixed)]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _worker_count(n_tasks: int) -> int:
    cap = os.environ.get("VOLCLUST_THREADS")
    workers = os.cpu_count() or 1
    if cap is not None:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            raise ConfigError(f"VOLCLUST_THREADS must be an integer, got {cap!r}")
    return max(1, min(workers, n_tasks))


def _parallel_map(fn, tasks: list):
    workers = _worker_count(len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _load_spec(path: str) -> model.ModelSpec:
    spec = model.read_config(path)
    report = model.validate(spec)
    if not report.is_valid:
        raise ConfigError("invalid model config: " + "; ".join(report.violations))
    return spec


def _write_gnuplot(script_path: str, lines: list[str]) -> None:
    with open(script_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# --- subcommand implementations ----------------------------------------------

def _cmd_constants(args) -> None:
    spec = _load_spec(args.config)
    gc = poisson.group_constants_for(spec)
    _write_csv(args.out,
               ["sigma1_bar_sq", "avg_b2_over_s2", "A", "A_tilde", "B", "A_alt", "B_alt"],
               [gc.sigma1_bar_sq, gc.avg_b2_over_s2, gc.a, gc.a_tilde, gc.b, gc.a_alt, gc.b_alt])


def _cmd_price(args) -> None:
    spec = _load_spec(args.config)
    taus = args.tau if args.tau else [spec.maturity]
    for tau in taus:
        if not (math.isfinite(tau) and tau >= 0.0):
            raise ConfigError(f"--tau must be finite and >= 0, got {tau}")
    gc = poisson.group_constants_for(spec)
    points = [[asymptotics.asymptotic_price(gc, spec, tau, x) for x in args.x] for tau in taus]
    prices = np.array([[(ap.P0, ap.P1, ap.corrected) for ap in row] for row in points])
    _write_csv(args.out, ["tau", "x", "P0", "P1", "corrected"],
               [np.array(taus)[:, None], args.x, *np.moveaxis(prices, -1, 0)])


def _smile_line(args) -> tuple[float, float]:
    """Slope/intercept either given directly or derived from a config."""
    if args.a is not None and args.d is not None:
        return args.a, args.d
    if args.config is None:
        raise ConfigError("need either --a and --d, or --config to derive them")
    spec = _load_spec(args.config)
    civ = asymptotics.corrected_iv(poisson.group_constants_for(spec), spec)
    return civ.a, civ.d


def _cmd_iv_surface(args) -> None:
    a, d = _smile_line(args)
    for tau in args.tau or [0.25]:
        if not (math.isfinite(tau) and tau > 0.0):
            raise ConfigError(f"--tau must be finite and > 0, got {tau}")
    taus = np.array(args.tau or [0.25])[:, None]
    xs = np.linspace(args.x_min, args.x_max, args.nx)
    lmmr = -xs / taus
    _write_csv(args.out, ["tau", "x", "lmmr", "iv"], [taus, xs, lmmr, a * lmmr + d])


def _cmd_figure1(args) -> None:
    taus = np.linspace(args.tau_min, args.tau_max, args.n_tau)
    lmmrs = np.linspace(args.lmmr_min, args.lmmr_max, args.n_lmmr)
    _write_csv(args.out, ["tau", "lmmr", "iv"], [taus[:, None], lmmrs, args.a * lmmrs + args.d])
    if args.out not in (None, "-"):
        _write_gnuplot(os.path.splitext(args.out)[0] + ".gp", [
            "set datafile separator ','",
            "set xlabel 'LMMR'",
            "set ylabel 'time to maturity'",
            "set zlabel 'implied volatility'",
            "set dgrid3d {},{}".format(args.n_tau, args.n_lmmr),
            "set hidden3d",
            f"splot '{os.path.basename(args.out)}' every ::1 using 2:1:3 with lines notitle",
        ])


def _figure2_curve(task) -> list[float]:
    """One eta member of the skew plot: implied vols on the log-moneyness grid."""
    spec, lm_grid, grid_kwargs = task
    grid = pde.make_grid(spec, spec.maturity, **grid_kwargs)
    surface = pde.price_surface(spec, grid)
    jy = int(np.argmin(np.abs(grid.y - spec.m)))
    nearest = np.argmin(np.abs(grid.x[None, :] - (-lm_grid)[:, None]), axis=1)
    return [bs.implied_vol(float(surface.P[ix, jy]), surface.tau, float(grid.x[ix]), spec.strike)
            for ix in nearest]


def _cmd_figure2(args) -> None:
    base = _load_spec(args.config) if args.config else model.arctangent_model()
    base = base.with_(epsilon=args.epsilon, maturity=args.tau)
    lm_grid = np.linspace(FIGURE2_LM_SPAN[0], FIGURE2_LM_SPAN[1], FIGURE2_POINTS)
    grid_kwargs = {"nx": args.nx}
    tasks = [(base.with_(eta=eta), lm_grid, grid_kwargs) for eta in FIGURE2_ETAS]
    curves = _parallel_map(_figure2_curve, tasks)
    _write_csv(args.out, ["log_moneyness", "iv_eta_m025", "iv_eta_0", "iv_eta_p025"],
               [lm_grid, *curves])
    if args.out not in (None, "-"):
        name = os.path.basename(args.out)
        _write_gnuplot(os.path.splitext(args.out)[0] + ".gp", [
            "set datafile separator ','",
            "set xlabel 'log moneyness'",
            "set ylabel 'implied volatility'",
            "set key top left",
            f"plot '{name}' every ::1 using 1:2 with lines title 'eta = -0.25', \\",
            f"     '{name}' every ::1 using 1:3 with lines title 'eta = 0', \\",
            f"     '{name}' every ::1 using 1:4 with lines title 'eta = 0.25'",
        ])


def _cmd_measure_dump(args) -> None:
    if not args.tol > 0.0:
        raise ConfigError(f"--tol must be > 0, got {args.tol}")
    spec = _load_spec(args.config)
    m = measure.build_invariant_measure(spec, tol=args.tol)
    _write_csv(args.out, ["y", "density"], [m.grid, m.density])


def _cmd_pde_solve(args) -> None:
    spec = _load_spec(args.config)
    tau = args.tau if args.tau is not None else spec.maturity
    grid = pde.make_grid(spec, tau, nx=args.nx, x_span=(args.xmin, args.xmax),
                         ny=args.ny, dt=args.dt)
    surface = pde.price_surface(spec, grid)
    _write_csv(args.out, ["tau", "x", "y", "u", "u_tilde", "P"],
               [tau, grid.x[:, None], grid.y[None, :], surface.u, surface.u_tilde[None, :],
                surface.P])


def _read_probes(path: str) -> list[tuple[float, float, float]]:
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            probes = [(float(r["tau"]), float(r["x"]), float(r["y"])) for r in reader]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad probes file {path!r}: {exc}") from exc
    if not probes:
        raise ConfigError(f"probes file {path!r} has no rows")
    return probes


def _sweep_member(task):
    spec, probes = task
    return pde.accuracy_sweep(spec, [spec.epsilon], probes)[0]


def _cmd_pde_sweep(args) -> None:
    spec = _load_spec(args.config)
    try:
        eps_list = [float(tok) for tok in args.eps_list.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --eps-list: {exc}") from exc
    probes = _read_probes(args.probes)
    rows = _parallel_map(_sweep_member, [(spec.with_(epsilon=eps), probes) for eps in eps_list])
    _write_csv(args.out, ["eps", "max_abs_error", "normalized"],
               [[r.eps for r in rows], [r.max_abs_error for r in rows],
                [r.normalized for r in rows]])


def _cmd_calibrate(args) -> None:
    quotes = calibrate.read_quotes_csv(args.quotes)
    header = ["a", "d", "r_squared", "A", "B"]
    if not args.config:
        a, d, r_squared = calibrate.fit_affine(quotes)
        big_a, big_b = calibrate.recover_constants((a, d), args.sigma_bar, args.epsilon)
        _write_csv(args.out, header, [a, d, r_squared, big_a, big_b])
        return
    spec = _load_spec(args.config).with_(epsilon=args.epsilon)
    result = calibrate.calibrate_from_surface(quotes, spec, sigma_bar=args.sigma_bar)
    fit = result.fit  # the one fit: (a, d, r^2) and the (A, B) recovered from it
    _write_csv(args.out, header + ["eta", "rho_residual"],
               [fit.a, fit.d, fit.r_squared, fit.a_recovered, fit.b_recovered,
                result.eta, result.rho_residual])


# --- argument parsing ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volclust",
        description="Indifference put pricing under fast mean-reverting volatility",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, out=None):
        """A subcommand parser with its handler and its --out default."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", default=out)
        p.set_defaults(func=func)
        return p

    p = command("constants", _cmd_constants, "group constants for a model config")
    p.add_argument("--config", required=True)

    p = command("price", _cmd_price, "corrected asymptotic price at (tau, x) points")
    p.add_argument("--config", required=True)
    p.add_argument("--tau", type=float, action="append", default=None)
    p.add_argument("--x", type=float, action="append", required=True)

    p = command("iv-surface", _cmd_iv_surface, "corrected smile on a (tau, x) grid")
    p.add_argument("--config", default=None)
    p.add_argument("--a", type=float, default=None, help="LMMR slope (overrides --config)")
    p.add_argument("--d", type=float, default=None, help="LMMR intercept (overrides --config)")
    p.add_argument("--tau", type=float, action="append", default=None)
    p.add_argument("--x-min", type=float, default=-0.5)
    p.add_argument("--x-max", type=float, default=0.5)
    p.add_argument("--nx", type=int, default=51)

    p = command("figure1", _cmd_figure1, "smile surface from a given (a, d) line",
                out="figure1.csv")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--tau-min", type=float, default=0.1)
    p.add_argument("--tau-max", type=float, default=1.0)
    p.add_argument("--n-tau", type=int, default=10)
    p.add_argument("--lmmr-min", type=float, default=-1.0)
    p.add_argument("--lmmr-max", type=float, default=1.0)
    p.add_argument("--n-lmmr", type=int, default=41)

    p = command("figure2", _cmd_figure2, "PDE-implied skew for three risk premia",
                out="figure2.csv")
    p.add_argument("--config", default=None, help="model config (default arctangent demo)")
    p.add_argument("--tau", type=float, default=0.25)
    p.add_argument("--epsilon", type=float, default=0.004)
    p.add_argument("--nx", type=int, default=pde.DEFAULT_NX)

    p = command("measure-dump", _cmd_measure_dump, "stationary density of the fast factor")
    p.add_argument("--config", required=True)
    p.add_argument("--tol", type=float, default=1e-10)

    p = command("pde-solve", _cmd_pde_solve, "solve the full pricing PDE", out="pde_solution.csv")
    p.add_argument("--config", required=True)
    p.add_argument("--xmin", type=float, default=-3.0)
    p.add_argument("--xmax", type=float, default=3.0)
    p.add_argument("--nx", type=int, default=pde.DEFAULT_NX)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)

    p = command("pde-sweep", _cmd_pde_sweep, "asymptotic-accuracy sweep over epsilon")
    p.add_argument("--config", required=True)
    p.add_argument("--eps-list", required=True, help="comma-separated, e.g. 0.04,0.01,0.0025")
    p.add_argument("--probes", required=True, help="csv with columns tau,x,y")

    p = command("calibrate", _cmd_calibrate, "fit the smile line and recover constants")
    p.add_argument("--quotes", required=True, help="csv with columns tau,x,iv[,weight]")
    p.add_argument("--sigma-bar", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--config", default=None, help="model config; enables eta recovery")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, VolclustError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: constants, price, iv-surface, pde-solve, pde-sweep,
calibrate, figure1, figure2, measure-dump.  Inputs are checked where
they enter: a checked type per numeric flag, ``model.validate`` once per
command on the config after its overrides, and one reader,
``model.read_float_rows``, for probe, quote and coefficient-table files,
each with a required header row.  Output paths are checked before any
work.  Exit codes: 0 success, 2 bad input (naming the flag or file; a
missing or unknown flag too, on one ``error:`` line), an output file that
cannot be opened (naming its path) or a request no memory can serve
(``MemoryError``), 3 numerical failure.
CSVs have a header and 17 significant digits and rerun byte-identical.
Independent PDE solves (figure2's etas, pde-sweep's epsilons) run in
worker processes by ``pde.parallel_map``, one per CPU in the process's
affinity set (so ``taskset`` or a cpuset caps them) and at most one per
solve; with one CPU or one solve they run in this process.  pde-sweep is
one ``pde.accuracy_sweep`` call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import sys

import numpy as np

from . import asymptotics, bs, calibrate, measure, model, pde, poisson
from .errors import ConfigError, NumericalError, OutOfBand, VolclustError

FIGURE2_ETAS = (-0.25, 0.0, 0.25)
FIGURE2_LM_SPAN = (-0.3, 0.3)
FIGURE2_POINTS = 61
CSV_BLOCK_ROWS = 1024  # rows formatted and written at a time
CELL_FORMAT = "%.17g"  # every number in every CSV: 17 significant digits


def _text(a: np.ndarray) -> np.ndarray:
    """``CELL_FORMAT`` of each element of ``a``, in one ``%``, as an object array of ``a``'s shape."""
    cells = ((CELL_FORMAT + "\n") * a.size % tuple(a.ravel().tolist())).split("\n")
    return np.array(cells[:-1], dtype=object).reshape(a.shape)


def _open_out(path: str, **kwargs):
    """``open(path, "w")``; a path that cannot be opened is a ``ConfigError`` naming it."""
    try:
        return open(path, "w", **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _gnuplot_path(out: str | None) -> str | None:
    """The gnuplot script a figure writes beside ``out``; None when ``out`` is stdout."""
    return None if out in (None, "-") else os.path.splitext(out)[0] + ".gp"


def _check_outputs(args) -> None:
    """Refuse, before any work, an output whose directory is missing or that is a directory.

    The outputs are ``--out`` and, for a figure, its gnuplot script.  The
    check opens nothing, so it creates and truncates nothing.
    """
    paths = [args.out, _gnuplot_path(args.out) if args.plots else None]
    for path in (p for p in paths if p not in (None, "-")):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            reason = "Is a directory" if os.path.isdir(path) else "No such file or directory"
            raise ConfigError(f"cannot write {path}: {reason}")


def _write_csv(out: str | None, header: list[str], columns) -> None:
    """Write the broadcast ``columns``, one row per element in C order, to ``out``.

    Each block of leading indices is written as one ``template % values``.
    A column constant along the leading axis is formatted once, into the
    template; a column of the full shape is a ``%.17g`` field; any other is
    a ``%s`` field, formatted once per block.  A template is built once per
    block shape and memory holds one block.  ``out`` of '-' or None means
    stdout; nothing is opened before the columns broadcast.
    """
    arrays = [np.asarray(c, dtype=float) for c in columns]
    shape = np.broadcast_shapes((1,), *(a.shape for a in arrays))
    arrays = [a.reshape((1,) * (len(shape) - a.ndim) + a.shape) for a in arrays]
    cells = [_text(a) if a.shape[0] == 1 else CELL_FORMAT if a.shape == shape else "%s"
             for a in arrays]
    fields = [(a, a.shape == shape) for a in arrays if a.shape[0] > 1]
    per_lead = int(np.prod(shape[1:]))
    step = max(1, CSV_BLOCK_ROWS // max(1, per_lead))
    templates = {}
    to_stdout = out in (None, "-")
    with contextlib.nullcontext(sys.stdout) if to_stdout else _open_out(out, newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, shape[0] if per_lead else 0, step):
            block = (min(step, shape[0] - start),) + shape[1:]
            if block not in templates:
                rows = zip(*(np.broadcast_to(c, block).ravel().tolist() for c in cells))
                templates[block] = "\n".join(map(",".join, rows)) + "\n"
            values = np.empty(block + (len(fields),), dtype=object)
            for k, (a, full) in enumerate(fields):
                part = a[start:start + step]
                values[..., k] = part if full else _text(part)
            fh.write(templates[block] % tuple(values.ravel().tolist()))


def _load_spec(path: str | None, **overrides) -> model.ModelSpec:
    """The config at ``path``, or the demo model without one, with ``overrides``, validated."""
    spec = (model.read_config(path) if path else model.arctangent_model()).with_(**overrides)
    report = model.validate(spec)
    if not report.is_valid:
        raise ConfigError("invalid model config: " + "; ".join(report.violations))
    return spec


def _write_gnuplot(out: str | None, lines: list[str]) -> None:
    """Write the gnuplot script for the figure data at ``out``, unless that is stdout."""
    if script := _gnuplot_path(out):
        with _open_out(script) as fh:
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
    gc = poisson.group_constants_for(spec)
    points = [[asymptotics.asymptotic_price(gc, spec, tau, x) for x in args.x] for tau in taus]
    prices = np.array([[(ap.P0, ap.P1, ap.corrected) for ap in row] for row in points])
    _write_csv(args.out, ["tau", "x", "P0", "P1", "corrected"],
               [np.array(taus)[:, None], args.x, *np.moveaxis(prices, -1, 0)])


def _smile_line(args) -> tuple[float, float]:
    """Slope/intercept either given directly or derived from a config."""
    if args.a is not None and args.d is not None:
        return args.a, args.d
    if args.a is not None or args.d is not None:
        given, missing = ("--a", "--d") if args.d is None else ("--d", "--a")
        raise ConfigError(f"{given} needs {missing}: the smile line takes both or neither")
    if args.config is None:
        raise ConfigError("need either --a and --d, or --config to derive them")
    spec = _load_spec(args.config)
    civ = asymptotics.corrected_iv(poisson.group_constants_for(spec), spec)
    return civ.a, civ.d


def _cmd_iv_surface(args) -> None:
    a, d = _smile_line(args)
    taus = np.array(args.tau or [0.25])[:, None]
    xs = np.linspace(args.x_min, args.x_max, args.nx)
    lmmr = -xs / taus
    _write_csv(args.out, ["tau", "x", "lmmr", "iv"], [taus, xs, lmmr, a * lmmr + d])


def _cmd_figure1(args) -> None:
    taus = np.linspace(args.tau_min, args.tau_max, args.n_tau)
    lmmrs = np.linspace(args.lmmr_min, args.lmmr_max, args.n_lmmr)
    _write_csv(args.out, ["tau", "lmmr", "iv"], [taus[:, None], lmmrs, args.a * lmmrs + args.d])
    _write_gnuplot(args.out, [
        "set datafile separator ','",
        "set xlabel 'LMMR'",
        "set ylabel 'time to maturity'",
        "set zlabel 'implied volatility'",
        "set dgrid3d {},{}".format(args.n_tau, args.n_lmmr),
        "set hidden3d",
        f"splot '{os.path.basename(args.out)}' every ::1 using 2:1:3 with lines notitle",
    ])


def _figure2_curve(task) -> tuple[np.ndarray, list[float]]:
    """One eta member of the skew plot: (log-moneyness, implied vols) at the nearest x-nodes.

    Each vol inverts the price at the x-node nearest a point of the
    log-moneyness grid, and its log-moneyness is -x of that node, not the
    point asked for.  A PDE price outside the no-arbitrage band comes from
    the grid's x error, not from the input, so it is a ``NumericalError``.
    """
    spec, grid, lm_grid = task
    surface = pde.price_surface(spec, grid)
    jy = int(np.argmin(np.abs(grid.y - spec.m)))
    nodes = np.argmin(np.abs(grid.x[None, :] - (-lm_grid)[:, None]), axis=1)
    vols = []
    for ix in nodes:
        x = float(grid.x[ix])
        try:
            vols.append(bs.implied_vol(float(surface.P[ix, jy]), surface.tau, x, spec.strike))
        except OutOfBand as exc:
            raise NumericalError(f"eta = {spec.eta:g}, log-moneyness {-x:g}, tau = {surface.tau:g}: "
                                 f"the PDE {exc}; a finer --nx lowers its x error") from exc
    return 0.0 - grid.x[nodes], vols  # 0.0 - x, so that the node x = 0 reads 0 and not -0


def _cmd_figure2(args) -> None:
    lm_grid = np.linspace(FIGURE2_LM_SPAN[0], FIGURE2_LM_SPAN[1], FIGURE2_POINTS)
    spec = _load_spec(args.config, epsilon=args.epsilon, maturity=args.tau, eta=FIGURE2_ETAS[0])
    grid = pde.make_grid(spec, spec.maturity, nx=args.nx)  # make_grid reads no eta: one grid for all
    curves = pde.parallel_map(_figure2_curve, [(spec.with_(eta=eta), grid, lm_grid)
                                               for eta in FIGURE2_ETAS])
    _write_csv(args.out, ["log_moneyness", "iv_eta_m025", "iv_eta_0", "iv_eta_p025"],
               [curves[0][0], *(vols for _, vols in curves)])
    name = os.path.basename(args.out)
    _write_gnuplot(args.out, [
        "set datafile separator ','",
        "set xlabel 'log moneyness'",
        "set ylabel 'implied volatility'",
        "set key top left",
        f"plot '{name}' every ::1 using 1:2 with lines title 'eta = -0.25', \\",
        f"     '{name}' every ::1 using 1:3 with lines title 'eta = 0', \\",
        f"     '{name}' every ::1 using 1:4 with lines title 'eta = 0.25'",
    ])


def _cmd_measure_dump(args) -> None:
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


def _probe(row: list[float]) -> tuple[float, ...]:
    """A (tau, x, y) probe; a tau < 0 is a ConfigError."""
    if row[0] < 0.0:
        raise ConfigError(f"probe needs tau >= 0, got {row[0]}")
    return tuple(row)


def _cmd_pde_sweep(args) -> None:
    probes = model.read_float_rows(args.probes, ("tau", "x", "y"), _probe)
    # the flag's type keeps every epsilon valid, so the first one validates the config
    rows = pde.accuracy_sweep(_load_spec(args.config, epsilon=args.eps_list[0]), args.eps_list, probes)
    _write_csv(args.out, ["eps", "max_abs_error", "normalized"],
               [[r.eps for r in rows], [r.max_abs_error for r in rows],
                [r.normalized for r in rows]])


def _cmd_calibrate(args) -> None:
    quotes = calibrate.read_quotes_csv(args.quotes)
    if args.config:
        spec = _load_spec(args.config, epsilon=args.epsilon)
        result = calibrate.calibrate_from_surface(quotes, spec, sigma_bar=args.sigma_bar)
        fit, eta_columns = result.fit, {"eta": result.eta, "rho_residual": result.rho_residual}
    else:
        fit, eta_columns = calibrate.fit_smile(quotes, args.sigma_bar, args.epsilon), {}
    _write_csv(args.out, ["a", "d", "r_squared", "A", "B", *eta_columns],
               [fit.a, fit.d, fit.r_squared, fit.a_recovered, fit.b_recovered,
                *eta_columns.values()])


# --- argument parsing ---------------------------------------------------------

def _checked(name: str, requirement: str, ok, parse=float):
    """An argparse type that parses with ``parse`` and rejects a value failing ``ok``."""
    def check(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value
    check.__name__ = name  # argparse reports text that does not parse as "invalid <name> value"
    return check


finite = _checked("finite", "finite", math.isfinite)
positive = _checked("positive", "finite and > 0", lambda v: math.isfinite(v) and v > 0.0)
nonnegative = _checked("nonnegative", "finite and >= 0", lambda v: math.isfinite(v) and v >= 0.0)
count = _checked("count", ">= 1", lambda v: v >= 1, parse=int)


def positive_list(text: str) -> list[float]:
    """Comma-separated positive numbers; an empty item does not parse."""
    return [positive(token) for token in text.split(",")]


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose every error, a missing or unknown flag included, raises
    ``argparse.ArgumentError`` for ``main`` to report, instead of printing usage and exiting.

    It reads a negative number with an exponent, such as ``-1e-3``, and ``-inf``,
    ``-infinity`` and ``-nan`` in any case, as a value and not as a flag, so the option's
    type names what is wrong with it: before Python 3.13 argparse takes only the forms
    ``-1``, ``-1.5`` and ``-.5`` for numbers.  ``add_subparsers`` makes every subcommand's
    parser a ``_Parser`` too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)

    def error(self, message):
        raise argparse.ArgumentError(None, message)


# built once per process: a parser is cyclic garbage once ``main`` returns, and a caller
# that runs ``main`` many times would leave one per call for the cycle collector
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="volclust",
        description="Indifference put pricing under fast mean-reverting volatility",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, out=None, plots=False):
        """A subcommand parser with its handler, its --out default and whether it writes a plot."""
        p = sub.add_parser(name, help=summary, exit_on_error=False)
        p.add_argument("--out", default=out)
        p.set_defaults(func=func, plots=plots)
        return p

    p = command("constants", _cmd_constants, "group constants for a model config")
    p.add_argument("--config", required=True)

    p = command("price", _cmd_price, "corrected asymptotic price at (tau, x) points")
    p.add_argument("--config", required=True)
    p.add_argument("--tau", type=nonnegative, action="append", default=None)
    p.add_argument("--x", type=finite, action="append", required=True)

    p = command("iv-surface", _cmd_iv_surface, "corrected smile on a (tau, x) grid")
    p.add_argument("--config", default=None)
    p.add_argument("--a", type=finite, default=None, help="LMMR slope (overrides --config)")
    p.add_argument("--d", type=finite, default=None, help="LMMR intercept (overrides --config)")
    p.add_argument("--tau", type=positive, action="append", default=None)
    p.add_argument("--x-min", type=finite, default=-0.5)
    p.add_argument("--x-max", type=finite, default=0.5)
    p.add_argument("--nx", type=count, default=51)

    p = command("figure1", _cmd_figure1, "smile surface from a given (a, d) line",
                out="figure1.csv", plots=True)
    p.add_argument("--a", type=finite, required=True)
    p.add_argument("--d", type=finite, required=True)
    p.add_argument("--tau-min", type=nonnegative, default=0.1)
    p.add_argument("--tau-max", type=nonnegative, default=1.0)
    p.add_argument("--n-tau", type=count, default=10)
    p.add_argument("--lmmr-min", type=finite, default=-1.0)
    p.add_argument("--lmmr-max", type=finite, default=1.0)
    p.add_argument("--n-lmmr", type=count, default=41)

    p = command("figure2", _cmd_figure2, "PDE-implied skew for three risk premia",
                out="figure2.csv", plots=True)
    p.add_argument("--config", default=None, help="model config (default arctangent demo)")
    p.add_argument("--tau", type=positive, default=0.25)
    p.add_argument("--epsilon", type=positive, default=0.004)
    p.add_argument("--nx", type=int, default=pde.DEFAULT_NX)

    p = command("measure-dump", _cmd_measure_dump, "stationary density of the fast factor")
    p.add_argument("--config", required=True)
    p.add_argument("--tol", type=positive, default=1e-10)

    p = command("pde-solve", _cmd_pde_solve, "solve the full pricing PDE", out="pde_solution.csv")
    p.add_argument("--config", required=True)
    p.add_argument("--xmin", type=finite, default=pde.DEFAULT_X_SPAN[0])
    p.add_argument("--xmax", type=finite, default=pde.DEFAULT_X_SPAN[1])
    p.add_argument("--nx", type=int, default=pde.DEFAULT_NX)
    p.add_argument("--ny", type=int, default=None)
    p.add_argument("--tau", type=nonnegative, default=None)
    p.add_argument("--dt", type=positive, default=None)

    p = command("pde-sweep", _cmd_pde_sweep, "asymptotic-accuracy sweep over epsilon")
    p.add_argument("--config", required=True)
    p.add_argument("--eps-list", type=positive_list, required=True, help="e.g. 0.04,0.01,0.0025")
    p.add_argument("--probes", required=True, help="csv with columns tau,x,y")

    p = command("calibrate", _cmd_calibrate, "fit the smile line and recover constants")
    p.add_argument("--quotes", required=True, help="csv with columns tau,x,iv[,weight]")
    p.add_argument("--sigma-bar", type=positive, required=True)
    p.add_argument("--epsilon", type=positive, required=True)
    p.add_argument("--config", default=None, help="model config; enables eta recovery")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_outputs(args)
        args.func(args)
    except argparse.ArgumentError as exc:  # e.g. a flag value that fails its type
        print("error:", *filter(None, (exc.argument_name, exc.message)), file=sys.stderr)
        return 2
    except VolclustError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    except MemoryError as exc:  # NumPy's names the size it could not allocate; a worker's too
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

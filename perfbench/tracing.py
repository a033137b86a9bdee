"""Traced runs: spans and counts at the boundaries of the library's modules.

The tracer wraps public functions of ``volclust`` from the outside.  It
replaces every binding of a wrapped function in every loaded ``volclust``
module (``from .bs import bs_put`` makes a second binding in
``asymptotics``), and the ``__call__`` of the coefficient classes, and
puts all of them back on ``remove``.  Nothing in the library changes.

Spans are aggregated in memory by name: count, total seconds and self
seconds (total minus the part covered by child spans).  A boundary that
no longer exists, such as ``pde.solve_banded`` once the march stops
calling it, is skipped and its metrics read zero.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

import volclust
from volclust import model

MARK = "_perfbench_span"

# (module, function, span name); timed spans with no extra bookkeeping
SPANS = (
    ("measure", "build_invariant_measure", "measure.build"),
    ("poisson", "group_constants_for", "poisson.gc"),
    ("poisson", "solve_phi_derivatives", "poisson.phi"),
    ("poisson", "compute_group_constants", "poisson.constants"),
    ("asymptotics", "asymptotic_price", "asym.price"),
    ("pde", "make_grid", "pde.grid"),
    ("calibrate", "fit_affine", "calib.fit"),
    ("calibrate", "calibrate_from_surface", "calib.surface"),
    ("cli", "main", "cli.main"),
)
COEFFICIENT_CLASSES = ("Constant", "Arctangent", "Tabulated")


def _volclust_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "volclust" or name.startswith("volclust."))]


def wrapped_bindings() -> list[str]:
    """Names of library attributes that are currently tracer wrappers."""
    found = [f"{mod.__name__}.{attr}" for mod in _volclust_modules()
             for attr, value in vars(mod).items() if hasattr(value, MARK)]
    for name in COEFFICIENT_CLASSES:
        cls = getattr(model, name, None)
        if cls is not None and hasattr(cls.__call__, MARK):
            found.append(f"model.{name}.__call__")
    return found


def assert_unwrapped() -> None:
    """Raise if any tracer wrapper is installed; called before untraced timing."""
    found = wrapped_bindings()
    if found:
        raise RuntimeError(f"tracer wrappers still installed: {found}")


class Tracer:
    """Span and count collector; ``install`` wraps, ``remove`` restores."""

    def __init__(self, warnings_log: list | None = None):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [count, total_s, self_s]
        self.counts = defaultdict(float)
        self._children = []   # open spans' accumulated child time
        self._ny = []         # y-grid size of the surfaces being solved
        self._patches = []    # (owner, attribute, original)
        self.warnings_log = warnings_log if warnings_log is not None else []

    # --- span bookkeeping ---------------------------------------------------

    def _enter(self) -> float:
        self._children.append(0.0)
        return time.perf_counter()

    def _leave(self, name: str, start: float) -> float:
        elapsed = time.perf_counter() - start
        child = self._children.pop()
        rec = self.spans[name]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - child
        if self._children:
            self._children[-1] += elapsed
        return elapsed

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(name, start)
        return wrapper

    def _price_surface(self, fn):
        def wrapper(spec, grid, *args, **kwargs):
            self._ny.append(grid.y.size)
            start = self._enter()
            try:
                result = fn(spec, grid, *args, **kwargs)
            finally:
                self._leave("pde.surface", start)
                self._ny.pop()
            surface = result[0] if isinstance(result, tuple) else result
            taken = surface.grid.n_steps
            self.counts["pde.steps_requested"] += grid.n_steps
            self.counts["pde.steps_taken"] += taken
            if grid.n_steps:
                self.counts["pde.halvings"] += round(math.log2(taken / grid.n_steps))
            self.counts["pde.cells"] += grid.x.size * grid.y.size * taken
            return result
        return wrapper

    def _solve_banded(self, fn):
        def wrapper(l_and_u, ab, b, *args, **kwargs):
            # a y-system has one row per y node; an x-system stacks every y-row
            name = "pde.ysolve" if self._ny and ab.shape[1] == self._ny[-1] else "pde.xsolve"
            start = self._enter()
            try:
                return fn(l_and_u, ab, b, *args, **kwargs)
            finally:
                self._leave(name, start)
        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _implied_vol(self, fn):
        def wrapper(*args, **kwargs):
            puts, warned = self.counts["bs.put_calls"], len(self.warnings_log)
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.counts["bs.iv_failed"] += 1
                raise
            finally:
                self._leave("bs.iv", start)
                self.counts["bs.iv_puts"] += self.counts["bs.put_calls"] - puts
                self.counts["bs.iv_warnings"] += len(self.warnings_log) - warned
        return wrapper

    def _coefficient_call(self, fn):
        def wrapper(coeff, y):
            self.counts["model.coeff_calls"] += 1
            self.counts["model.coeff_points"] += np.size(y)
            return fn(coeff, y)
        return wrapper

    # --- install / remove ----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper, original) -> None:
        functools.update_wrapper(wrapper, original)
        setattr(wrapper, MARK, True)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap_everywhere(self, original, wrapper) -> None:
        for mod in _volclust_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper, original)

    def install(self) -> "Tracer":
        assert_unwrapped()
        for mod_name, fn_name, span in SPANS:
            fn = getattr(getattr(volclust, mod_name), fn_name, None)
            if fn is not None:
                self._wrap_everywhere(fn, self._timed(span, fn))
        targets = (("pde", "price_surface", self._price_surface),
                   ("pde", "solve_banded", self._solve_banded),  # scipy's; only pde's binding
                   ("bs", "implied_vol", self._implied_vol),
                   ("bs", "bs_put", functools.partial(self._counted, "bs.put_calls")))
        for mod_name, fn_name, make in targets:
            fn = getattr(getattr(volclust, mod_name), fn_name, None)
            if fn is not None:
                self._wrap_everywhere(fn, make(fn))
        for cls_name in COEFFICIENT_CLASSES:
            cls = getattr(model, cls_name, None)
            if cls is not None and "__call__" in vars(cls):
                self._patch(cls, "__call__", self._coefficient_call(cls.__call__), cls.__call__)
        return self

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # --- metrics -------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass per-layer numbers; seconds and counts are averaged over passes."""
        def total(name):
            return self.spans[name][1] / passes if name in self.spans else 0.0

        def count(name):
            return self.spans[name][0] / passes if name in self.spans else 0.0

        def tally(name):
            return self.counts.get(name, 0.0) / passes

        surface_s = total("pde.surface")
        solves_s = total("pde.xsolve") + total("pde.ysolve")
        iv_calls = count("bs.iv")
        return {
            "pde.grid_s": total("pde.grid"),
            "pde.surface_s": surface_s,
            "pde.steps_requested": tally("pde.steps_requested"),
            "pde.steps_taken": tally("pde.steps_taken"),
            "pde.halvings": tally("pde.halvings"),
            "pde.cell_steps_per_s": tally("pde.cells") / surface_s if surface_s else 0.0,
            "pde.solves": count("pde.xsolve") + count("pde.ysolve"),
            "pde.xsolve_s": total("pde.xsolve"),
            "pde.ysolve_s": total("pde.ysolve"),
            "pde.self_s": surface_s - solves_s,
            "bs.put_calls": tally("bs.put_calls"),
            "bs.iv_calls": iv_calls,
            "bs.iv_s": total("bs.iv"),
            "bs.iv_iters": tally("bs.iv_puts") / iv_calls if iv_calls else 0.0,
            "bs.iv_failed": tally("bs.iv_failed"),
            "bs.iv_warnings": tally("bs.iv_warnings"),
            "asym.price_calls": count("asym.price"),
            "asym.price_s": total("asym.price"),
            "measure.builds": count("measure.build"),
            "measure.build_s": total("measure.build"),
            "poisson.gc_calls": count("poisson.gc"),
            "poisson.phi_s": total("poisson.phi"),
            "poisson.constants_s": total("poisson.constants"),
            "model.coeff_calls": tally("model.coeff_calls"),
            "model.coeff_points": tally("model.coeff_points"),
            "calib.fit_s": total("calib.fit"),
            "calib.surface_s": total("calib.surface"),
            "cli.main_s": total("cli.main"),
            "cli.self_s": self.spans["cli.main"][2] / passes if "cli.main" in self.spans else 0.0,
        }

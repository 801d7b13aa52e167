"""Outside-in tracing of condual's layers.

Nothing inside the library changes: ``instrument`` rebinds module
attributes and class methods to timing wrappers, and ``restore`` puts the
originals back.  Each wrapped call records a span (layer, start, end,
parent span, query id) in flat in-memory arrays; a layer's self time is
its spans' durations minus the durations of their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from array import array
from time import perf_counter

# modules whose public functions are wrapped (numbers, randomgen and
# properties are not layers of any workload)
MODULES = ("linprog", "treelp", "convex", "market", "utility", "primal",
           "dual", "verify", "conditions", "cli", "reporting")

# (module, function) -> layer; other public functions count as their module
NAMED = {
    ("market", "build_market"): "market.build",
    ("market", "parse_market_file"): "market.build",
    ("utility", "conjugate"): "utility.conjugate",
    ("primal", "solve_primal"): "primal.solve",
    ("primal", "primal_feasible"): "primal.feasible",
    ("dual", "solve_dual"): "dual.solve",
    ("dual", "support_alpha"): "dual.support_alpha",
    ("dual", "dual_objective"): "dual.objective",
    ("dual", "min_support"): "dual.min_support",
    ("dual", "superhedge_price"): "dual.superhedge",
    ("verify", "verify_xbar"): "verify.xbar",
    ("verify", "verify_primal_dual_link"): "verify.link",
    ("verify", "verify_conjugacy"): "verify.conjugacy",
    ("cli", "main"): "cli",
    ("reporting", "emit_report"): "reporting.emit",
}

# names the per-layer metrics depend on; absent ones are reported missing
EXPECTED = [(f"condual.{m}", f) for m, f in NAMED] + [
    ("condual.linprog", "solve_lp"), ("condual.linprog", "_scipy_linprog"),
    ("condual.market", "EventTree.leaf_probabilities"),
    ("condual.convex", "ConvexSet.support"), ("condual.convex", "ConvexSet.project"),
    ("scipy.optimize", "minimize"),
]

GROWTH_LAYERS = ("primal.solve", "dual.solve", "linprog.exact", "linprog.float")
SETUP_QUERY = -1   # query id of spans recorded while inputs are built


class Tracer:
    """Span store plus the counters measured at the same boundaries."""

    def __init__(self):
        self.layers = []            # layer names; spans refer by index
        self._layer_index = {}
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.query = array("l")
        self.stack = []
        self.current_query = SETUP_QUERY
        self.counts = {}            # (layer, counter) -> total
        self.float_undecided = {}   # linprog.float span -> undecided HiGHS runs
        self.missing = []
        self._undo = []

    # -- span recording ---------------------------------------------------

    def layer_id(self, name):
        idx = self._layer_index.get(name)
        if idx is None:
            idx = self._layer_index[name] = len(self.layers)
            self.layers.append(name)
        return idx

    def count(self, layer, counter, amount=1):
        key = (layer, counter)
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, layer):
        idx = len(self.start)
        self.layer.append(self.layer_id(layer))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query.append(self.current_query)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start[idx] = perf_counter()
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, layer, fn, observe=None):
        """Span around fn; ``layer`` may be a callable of (args, kwargs)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(tracer, name, args, kwargs, result)
            return result

        return traced

    # -- instrumentation --------------------------------------------------

    def _rebind_everywhere(self, fn, wrapper):
        """Point every condual.* module attribute holding fn at wrapper."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "condual"
                                   or modname.startswith("condual.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def _set_attr(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def instrument(self):
        mods = {m: importlib.import_module(f"condual.{m}") for m in MODULES}
        for m, mod in mods.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                if (m, name) == ("linprog", "solve_lp"):
                    wrapper = self.wrap(_lp_layer, fn, _observe_lp)
                else:
                    wrapper = self.wrap(NAMED.get((m, name), m), fn,
                                        OBSERVERS.get((m, name)))
                self._rebind_everywhere(fn, wrapper)
        self._instrument_private(mods)
        self.missing = [f"{m}.{p}" for m, p in EXPECTED if not self._present(m, p)]

    def _instrument_private(self, mods):
        market, convex, linprog = mods["market"], mods["convex"], mods["linprog"]
        tree = getattr(market, "EventTree", None)
        if tree is not None and "leaf_probabilities" in vars(tree):
            self._set_attr(tree, "leaf_probabilities", self.wrap(
                "market.leaf_probabilities", vars(tree)["leaf_probabilities"]))
        base = getattr(convex, "ConvexSet", None)
        for cls in _subclasses(base) if base is not None else ():
            for meth in ("support", "project"):
                if meth in vars(cls):
                    self._set_attr(cls, meth, self.wrap(
                        f"convex.{meth}", vars(cls)[meth]))
        highs = getattr(linprog, "_scipy_linprog", None)
        if highs is not None:
            self._set_attr(linprog, "_scipy_linprog", self._count_highs(highs))
        import scipy.optimize

        if "minimize" in vars(scipy.optimize):
            self._set_attr(scipy.optimize, "minimize", self.wrap(
                "dual.slsqp", scipy.optimize.minimize))

    def _count_highs(self, fn):
        """Count HiGHS attempts (no span: their time stays in linprog.float)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            tracer.count("linprog.float", "highs_attempts")
            if res.status not in (0, 2, 3) and tracer.stack:
                top = tracer.stack[-1]
                tracer.float_undecided[top] = tracer.float_undecided.get(top, 0) + 1
            return res

        return counted

    @staticmethod
    def _present(modname, path):
        obj = sys.modules.get(modname)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        return obj is not None

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- aggregation ------------------------------------------------------

    def _arrays(self):
        import numpy as np

        return (np.frombuffer(self.layer, dtype=np.uint16),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.query, dtype=np.int64))

    def summarize(self, leaves_by_query, n_passes):
        """Per-layer totals per pass (set-up spans kept apart), per-size
        self times and growth exponents.  ``leaves_by_query[q]`` is the
        leaf count of query q's market."""
        import numpy as np

        layer, start, end, parent, query = self._arrays()
        duration = end - start
        child = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        selfs = duration - child

        def totals(mask):
            calls = np.bincount(layer[mask], minlength=len(self.layers))
            secs = np.bincount(layer[mask], weights=selfs[mask],
                               minlength=len(self.layers))
            return {name: (int(calls[i]), float(secs[i]))
                    for i, name in enumerate(self.layers) if calls[i]}

        in_setup = query == SETUP_QUERY
        per_layer, setup = totals(~in_setup), totals(in_setup)
        span_leaves = np.where(
            in_setup, 0, np.asarray(leaves_by_query)[np.maximum(query, 0)])
        per_size = {}
        for name in GROWTH_LAYERS:
            if name not in self._layer_index:
                continue
            ours = layer == self._layer_index[name]
            per_size[name] = {
                int(n): (int((ours & (span_leaves == n)).sum()),
                         float(selfs[ours & (span_leaves == n)].sum()))
                for n in np.unique(span_leaves[ours & ~in_setup])}
        layers = {name: {"calls": c / n_passes, "self_s": t / n_passes}
                  for name, (c, t) in per_layer.items()}
        sizes = {name: {str(n): {"calls": c, "self_s_per_call": t / c}
                        for n, (c, t) in sorted(cells.items())}
                 for name, cells in per_size.items()}
        growth = {name: _slope(per_size.get(name, {})) for name in GROWTH_LAYERS}
        return layers, sizes, growth, {
            name: {"calls": c, "self_s": t} for name, (c, t) in setup.items()}

    def children_count(self, parent_layer, child_layer):
        """Spans of child_layer whose direct parent is a parent_layer span."""
        if parent_layer not in self._layer_index \
                or child_layer not in self._layer_index:
            return 0
        layer, _, _, parent, _ = self._arrays()
        ours = (layer == self._layer_index[child_layer]) & (parent >= 0)
        return int((layer[parent[ours]] == self._layer_index[parent_layer]).sum())

    def exact_fallbacks(self):
        return sum(1 for n in self.float_undecided.values() if n >= 3)

    def dump(self, path):
        """Write every span as one binary record set (numpy .npz)."""
        import numpy as np

        layer, start, end, parent, query = self._arrays()
        np.savez_compressed(path, layers=np.asarray(self.layers), layer=layer,
                            start=start, end=end, parent=parent, query=query)


def _subclasses(cls):
    out, stack = [], [cls]
    while stack:
        c = stack.pop()
        out.append(c)
        stack.extend(c.__subclasses__())
    return out


def _lp_layer(args, kwargs):
    exact = kwargs.get("exact", args[5] if len(args) > 5 else False)
    return "linprog.exact" if exact else "linprog.float"


def _observe_lp(tracer, layer, args, kwargs, result):
    c = args[0] if args else kwargs["c"]
    rows = 0
    for pos, key in ((1, "A_ub"), (3, "A_eq")):
        block = args[pos] if len(args) > pos else kwargs.get(key)
        rows += len(block) if block is not None else 0
    tracer.count(layer, "cells", rows * len(c))


def _observe_primal(tracer, layer, args, kwargs, result):
    tracer.count(layer, "iterations", getattr(result, "iterations", 0))
    tracer.count(layer, "optimal", getattr(result, "status", None) == "optimal")


def _observe_dual(tracer, layer, args, kwargs, result):
    tracer.count(layer, "evals", getattr(result, "iterations", 0))
    tracer.count(layer, "attained", bool(getattr(result, "attained", False)))


def _observe_emit(tracer, layer, args, kwargs, result):
    tracer.count(layer, "bytes", len(result))


OBSERVERS = {
    ("primal", "solve_primal"): _observe_primal,
    ("dual", "solve_dual"): _observe_dual,
    ("reporting", "emit_report"): _observe_emit,
}


def _slope(cells):
    """Least-squares slope of log(self time per call) on log(leaves)."""
    pts = [(math.log(int(k)), math.log(v[1] / v[0]))
           for k, v in cells.items() if v[0] and v[1] > 0]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in pts) / sxx

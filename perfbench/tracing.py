"""Layer tracing from outside the program: timing wrappers, spans, self time.

`Tracer.install` re-binds the public functions of every rankmatch module to
wrappers, and `Tracer.uninstall` puts the originals back: module attributes, values of module-level dicts (`bounds._BOUNDS`),
default arguments (`run_property_suite(engine=run_ranking)`) and class
attributes (`PairSweep.run`). A span wrapper records
(name, start, end, parent, op) in memory; a count wrapper only counts calls,
for functions too hot to time one by one. `metrics` derives per-layer numbers
from the spans when the run ends; `write` saves them.
"""

from __future__ import annotations

import functools
import inspect
import time
from types import FunctionType, ModuleType

import numpy as np

from rankmatch import analysis, bounds, cli, core, experiments, gains
from rankmatch import generators, numerics, offline, ranking

MODULES = (analysis, bounds, cli, core, experiments, gains, generators,
           numerics, offline, ranking)

# (owner, attribute, span name); owners are modules or classes
SPANS = (
    (cli, "main", "cli.main"),
    (experiments, "run_ratio_experiment", "experiments.run_ratio_experiment"),
    (experiments, "run_property_suite", "experiments.run_property_suite"),
    (ranking, "run_ranking", "ranking.run_ranking"),
    (ranking, "assign_duals", "ranking.assign_duals"),
    (core, "sample_ranks", "core.sample_ranks"),
    (core, "matching_result", "core.matching_result"),
    (core, "validate_instance", "core.validate_instance"),
    (core, "check_dual_shares", "core.check_dual_shares"),
    (generators, "random_instance", "generators.random_instance"),
    (offline, "solve_opt", "offline.solve_opt"),
    (analysis.PairSweep, "__init__", "analysis.PairSweep.init"),
    (analysis.PairSweep, "run", "analysis.PairSweep.run"),
    (analysis, "edge_status", "analysis.edge_status"),
    (analysis, "compute_thresholds", "analysis.compute_thresholds"),
    (analysis, "pair_gain", "analysis.pair_gain"),
    (bounds, "simple_bound", "bounds.simple_bound"),
    (bounds, "improved_bound", "bounds.improved_bound"),
    (bounds, "minimize_bound", "bounds.minimize_bound"),
    (numerics, "integrate", "numerics.integrate"),
    (numerics, "golden_minimize", "numerics.golden_minimize"),
    (numerics, "bisect_boundary", "numerics.bisect_boundary"),
)
COUNTS = (
    (gains.GainSpec, "curve_scalar", "gains.curve_scalar.calls"),
    (gains.GainSpec, "share_scalar", "gains.share_scalar.calls"),
)
SETUP_OP = -1   # op id of spans recorded while building inputs


def rebind(original, replacement, modules=MODULES) -> None:
    """Replace every reference to `original` held by the given modules:
    module attributes, values of module-level dicts, default arguments of
    module-level functions and of methods of module-level classes, also
    behind a wrapper."""
    for mod in modules:
        space = vars(mod)
        for attr, value in list(space.items()):
            if value is original:
                setattr(mod, attr, replacement)
            elif isinstance(value, dict):
                for key, item in value.items():
                    if item is original:
                        value[key] = replacement
        functions = [v for v in space.values() if isinstance(v, FunctionType)]
        for cls in (v for v in space.values() if isinstance(v, type)):
            functions += [v for v in vars(cls).values() if isinstance(v, FunctionType)]
        # a function already wrapped keeps its defaults on the wrapped one
        functions += [inspect.unwrap(fn) for fn in functions]
        for fn in functions:
            if fn.__defaults__ and any(d is original for d in fn.__defaults__):
                fn.__defaults__ = tuple(replacement if d is original else d
                                        for d in fn.__defaults__)


class Tracer:
    """In-memory spans and call counts of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []     # [name id, start, end, parent, op]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(("ranking.run_ranking.arrivals",
                                     "analysis.PairSweep.run.lanes",
                                     "numerics.integrate.f_evals"), 0)
        self.op = SETUP_OP
        self.on = False
        self.bindings = []              # (owner, attribute, original, wrapper)
        for owner, attr, name in SPANS:
            fn = getattr(owner, attr)
            self.bindings.append((owner, attr, fn, self._span_wrapper(name, fn)))
        for owner, attr, name in COUNTS:
            fn = getattr(owner, attr)
            self.bindings.append((owner, attr, fn, self._count_wrapper(name, fn)))

    def install(self) -> None:
        """Put the wrappers in place and start recording."""
        for owner, attr, original, wrapper in self.bindings:
            self._swap(owner, attr, original, wrapper)
        self.on = True

    def uninstall(self) -> None:
        """Stop recording and put the original functions back."""
        self.on = False
        for owner, attr, original, wrapper in reversed(self.bindings):
            self._swap(owner, attr, wrapper, original)

    @staticmethod
    def _swap(owner, attr, old, new) -> None:
        if isinstance(owner, ModuleType):
            rebind(old, new)
        else:
            setattr(owner, attr, new)

    def _span_wrapper(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        adapt = {"ranking.run_ranking": self._arrivals,
                 "analysis.PairSweep.run": self._lanes,
                 "numerics.integrate": self._count_integrand}.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if adapt is not None:
                args = adapt(args)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.on:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # argument hooks of span wrappers: count the work a call was handed

    def _arrivals(self, args):
        self.counts["ranking.run_ranking.arrivals"] += len(args[0].online)
        return args

    def _lanes(self, args):
        self.counts["analysis.PairSweep.run.lanes"] += int(np.size(args[1]))
        return args

    def _count_integrand(self, args):
        """Count integrand evaluations through a wrapped f; the nested call
        integrate makes for a > b keeps the already counted f."""
        f = args[0]
        if getattr(f, "counted_by_tracer", False):
            return args
        counts = self.counts

        def counted(x):
            counts["numerics.integrate.f_evals"] += 1
            return f(x)
        counted.counted_by_tracer = True
        return (counted,) + tuple(args[1:])

    def metrics(self) -> dict[str, float]:
        """Calls and self time per span name, plus the derived counts."""
        rows = np.array(self.spans, dtype=float).reshape(-1, 5)
        nid = rows[:, 0].astype(int)
        start, end = rows[:, 1], rows[:, 2]
        parent = rows[:, 3].astype(int)
        dur = end - start
        child = np.zeros(len(rows))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        calls = np.bincount(nid, minlength=len(self.names))
        self_s = np.bincount(nid, weights=own, minlength=len(self.names))
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        out.update(self.counts)
        out["analysis.PairSweep.init_s"] = out["analysis.PairSweep.init.self_s"]
        pair_gains = out["analysis.pair_gain.calls"]
        out["analysis.probes_per_estimate"] = (
            out["analysis.edge_status.calls"] / pair_gains if pair_gains else 0.0)
        out.update(self._bound_phases(nid, start, end))
        return out

    def _bound_phases(self, nid, start, end) -> dict[str, float]:
        """Split each minimize_bound span at its first golden_minimize call:
        before it is the grid scan, from it on the polish."""
        ids = {name: i for i, name in enumerate(self.names)}
        is_bound = np.isin(nid, [ids["bounds.simple_bound"], ids["bounds.improved_bound"]])
        golden_starts = start[nid == ids["numerics.golden_minimize"]]
        out = {"bounds.scan_evals": 0, "bounds.polish_evals": 0,
               "bounds.scan_s": 0.0, "bounds.polish_s": 0.0}
        for k in np.nonzero(nid == ids["bounds.minimize_bound"])[0]:
            s, e = start[k], end[k]
            inside = golden_starts[(golden_starts >= s) & (golden_starts <= e)]
            g = inside.min() if inside.size else e
            evals = is_bound & (start >= s) & (end <= e)
            out["bounds.scan_evals"] += int(np.sum(evals & (start < g)))
            out["bounds.polish_evals"] += int(np.sum(evals & (start >= g)))
            out["bounds.scan_s"] += float(g - s)
            out["bounds.polish_s"] += float(e - g)
        return out

    def write(self, path) -> None:
        """Spans as columns plus the name table, compressed numpy archive."""
        rows = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez_compressed(path, names=np.array(self.names),
                            name=rows[:, 0].astype(np.int32), start=rows[:, 1],
                            end=rows[:, 2], parent=rows[:, 3].astype(np.int64),
                            op=rows[:, 4].astype(np.int32))

"""Span tracing of liosym's layers, done from outside the package.

A Tracer replaces each traced public function with a wrapper, under every
name a liosym module binds it to, so calls between layers are caught as
well as calls from the CLI.  Every call records a span: name, start, end,
parent span and task id.  Spans stay in memory until the run ends.

The time each wrapper spends on its own bookkeeping is summed in
``overhead_s``, so a traced run can state what tracing cost it.
"""

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# Public functions traced, by module.  fock and liouville are leaf helpers
# called per element; their time stays in their callers' self time.
TRACED = {
    "cli": ("main",),
    "generators": ("ten_generators", "build_generator",
                   "commutation_residuals", "trace_residuals"),
    "models": ("model_generator", "steady_state", "evolve"),
    "transforms": ("apply_sequence_to_vec", "gibbs_from_vacuum",
                   "coefficient_map"),
    "gaussian": ("fock_from_gaussian", "numeric_positivity_boundary",
                 "positivity_boundary"),
    "fourdim": ("table_residual", "symplectic_residual",
                "completeness_residual", "orthogonality_residual",
                "rep_of_coefficients", "ladder_action_residual"),
}


def _count_generators(tracer, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    tracer.counters["generators.ten_generators.bytes"] += 10 * n ** 4 * 16
    tracer.cutoffs.add(n)


def _count_nonzeros(tracer, args, kwargs, result):
    mat = result.mat
    tracer.counters["models.K.nnz"] += int(np.count_nonzero(mat))
    tracer.counters["models.K.entries"] += mat.size


def _count_points(tracer, args, kwargs, result):
    tracer.counters["models.evolve.points"] += len(result.times)


COUNTERS = {
    "generators.ten_generators": _count_generators,
    "models.model_generator": _count_nonzeros,
    "models.evolve": _count_points,
}


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # [name, start, end, parent index, task]
        self.counters = defaultdict(int)
        self.cutoffs = set()     # distinct cutoffs ten_generators built
        self.overhead_s = 0.0
        self.task = None
        self._stack = []
        self._patched = []       # (module, attribute, original)

    def wrap(self, name, fn, count=None):
        """Return fn wrapped so that each call records a span named name.

        count(tracer, args, kwargs, result), if given, runs after the
        call and its cost is booked as tracing overhead.
        """
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            rec = [name, 0.0, 0.0,
                   self._stack[-1] if self._stack else None, self.task]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            t1 = rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = rec[2] = clock()
                self._stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            self.overhead_s += (t1 - t0) + (clock() - t2)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block; yields the span's record."""
        rec = [name, self.clock(), 0.0,
               self._stack[-1] if self._stack else None, self.task]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = self.clock()
            self._stack.pop()

    def install(self):
        """Replace every binding of each TRACED function in liosym's
        loaded modules by its wrapper."""
        importlib.import_module("liosym")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "liosym"
                                         or k.startswith("liosym."))]
        for mod_name, funcs in TRACED.items():
            mod = importlib.import_module(f"liosym.{mod_name}")
            for func in funcs:
                original = getattr(mod, func)
                name = f"{mod_name}.{func}"
                wrapper = self.wrap(name, original, COUNTERS.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    the union of its child spans covers."""
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, run_start, run_end = 0.0, None, None
        for cs, ce in sorted(children[i]):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def layer_metrics(tracer, timed_s, names):
    """The named per-layer metrics of one traced run.  A name ending in
    .self_s or .calls totals the self time or counts the spans of the
    function or module it starts with; the others are counters."""
    c = tracer.counters
    builds = sum(s[0] == "generators.ten_generators" for s in tracer.spans)
    counted = {
        "generators.ten_generators.bytes":
            c["generators.ten_generators.bytes"],
        "generators.ten_generators.distinct_frac":
            len(tracer.cutoffs) / builds if builds else 0.0,
        "models.evolve.points": c["models.evolve.points"],
        "models.K_nnz_frac": (c["models.K.nnz"] / c["models.K.entries"]
                              if c["models.K.entries"] else 0.0),
        "trace.overhead_frac": tracer.overhead_s / timed_s,
    }
    self_s = self_times(tracer.spans)
    out = {}
    for key in names:
        if key in counted:
            out[key] = counted[key]
            continue
        layer, stat = key.rsplit(".", 1)
        mine = [s for (name, *_), s in zip(tracer.spans, self_s)
                if name == layer or name.startswith(layer + ".")]
        out[key] = sum(mine) if stat == "self_s" else len(mine)
    return out


def spans_as_records(tracer, origin):
    """Spans as JSON-ready dicts, times in seconds from origin."""
    return [{"id": i, "name": name, "start": start - origin,
             "end": end - origin, "parent": parent, "task": task}
            for i, (name, start, end, parent, task) in enumerate(tracer.spans)]

"""Per-layer tracing for the benchmark's traced run (``--trace 1``).

The program's files are not changed: :func:`install` replaces functions and
methods of its modules, for the rest of the process, with wrappers from this
file.  Layer boundaries get spans (name, start, end, parent,
and the operation or set-up they belong to); high-rate events inside them
(checked steps, stage builds, right-hand-side calls, random draws, field
and barrier lookups) only add to counters of every open span, so that a
span's counters are the totals of its subtree.  Nothing is recorded outside
an ``op`` or ``setup`` root span, so the checks the benchmark runs between
operations leave no trace.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

# spans are in process CPU time, like the end-to-end times
clock = time.process_time


class Span:
    __slots__ = ("id", "name", "parent", "root", "tags", "start", "end", "child", "acc")

    def __init__(self, sid, name, parent, root, tags):
        self.id = sid
        self.name = name
        self.parent = parent
        self.root = root
        self.tags = tags
        self.child = defaultdict(float)  # child span name -> seconds
        self.acc = defaultdict(float)    # counter -> subtree total
        self.start = clock()
        self.end = None

    @property
    def dur(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []

    def begin(self, name, **tags):
        parent = self.stack[-1] if self.stack else None
        sp = Span(
            len(self.spans), name, parent.id if parent else None,
            parent.root if parent else None, tags,
        )
        if parent is None:
            sp.root = sp.id
        self.spans.append(sp)
        self.stack.append(sp)
        return sp

    def finish(self, sp):
        sp.end = clock()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child[sp.name] += sp.dur

    @contextmanager
    def span(self, name, **tags):
        sp = self.begin(name, **tags)
        try:
            yield sp
        finally:
            self.finish(sp)

    def add(self, key, v=1.0):
        for sp in self.stack:
            sp.acc[key] += v

    def wrap_span(self, name, fn, on_call=None):
        """fn inside a span of the given name, while a root span is open."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            sp = self.begin(name)
            try:
                if on_call is not None:
                    on_call(args)
                return fn(*args, **kwargs)
            finally:
                self.finish(sp)

        return wrapper

    def wrap_count(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.stack:
                self.add(key)
            return fn(*args, **kwargs)

        return wrapper

    def wrap_timed(self, key, fn):
        """fn's time and call count added to counters ``key + '_s'`` and ``key + '_calls'``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(key + "_s", clock() - t)
                self.add(key + "_calls")

        return wrapper

    def dump(self, path):
        rows = [
            {
                "id": sp.id, "name": sp.name, "parent": sp.parent, "root": sp.root,
                "tags": sp.tags, "start": sp.start, "end": sp.end,
                "counters": dict(sp.acc),
            }
            for sp in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def span(tracer, name, **tags):
    """A span of ``tracer``, or nothing when the run is untraced."""
    return nullcontext() if tracer is None else tracer.span(name, **tags)


class _CountedStage:
    """A frozen right-hand side whose evaluations and lanes are counted."""

    def __init__(self, tracer, f):
        self._tracer = tracer
        self._f = f

    def __call__(self, x):
        if self._tracer.stack:
            self._tracer.add("rhs_calls")
            self._tracer.add("rhs_lanes", np.size(x))
        return self._f(x)

    def __getattr__(self, name):
        return getattr(self._f, name)


class _TimedGenerator:
    """A numpy Generator whose normal and uniform draws are timed."""

    def __init__(self, tracer, gen):
        self._tracer = tracer
        self._gen = gen

    def standard_normal(self, *args, **kwargs):
        return self._timed(self._gen.standard_normal, args, kwargs)

    def random(self, *args, **kwargs):
        return self._timed(self._gen.random, args, kwargs)

    def _timed(self, fn, args, kwargs):
        t = clock()
        out = fn(*args, **kwargs)
        self._tracer.add("rng_s", clock() - t)
        return out


def install(tr):
    """Wrap the program's layer entry points for the rest of the process."""
    from drawdown_options import (
        coefficients, montecarlo, odestep, reflection_pde, solver2d, solver3d,
    )

    # surface builds and their parts; the classes look these names up in
    # solver3d at call time, so replacing them there is enough
    for attr in ("build_put_surface", "build_call_surface", "detect_regions_3d",
                 "build_reflection_regions", "diagonal_put_curve"):
        setattr(solver3d, attr, tr.wrap_span("solver3d." + attr, getattr(solver3d, attr)))
    solver3d.solve_reflection_region = tr.wrap_span(
        "reflection_pde.solve_reflection_region", solver3d.solve_reflection_region)

    def count_unknowns(args):
        tr.add("unknowns", args[0].shape[1])

    reflection_pde.spsolve = tr.wrap_span(
        "reflection_pde.spsolve", reflection_pde.spsolve, count_unknowns)
    reflection_pde.lsqr = tr.wrap_span(
        "reflection_pde.lsqr", reflection_pde.lsqr, lambda args: tr.add("lsqr_calls"))
    reflection_pde.CoefficientGrid.coeffs_at = tr.wrap_span(
        "reflection_pde.coeffs_at", reflection_pde.CoefficientGrid.coeffs_at)

    # the ODE stepper, imported by name into both solvers
    for mod in (solver2d, solver3d):
        mod.checked_step = tr.wrap_count("checked_steps", mod.checked_step)
    reuse_init = odestep.ReuseStages.__init__

    def counting_init(self, stage):
        def counted(t):
            if tr.stack:
                tr.add("stage_builds")
            return _CountedStage(tr, stage(t))

        reuse_init(self, counted)

    odestep.ReuseStages.__init__ = counting_init

    # solution queries, counted wherever they happen (the audit reads them)
    for cls in (solver3d.CallSolution3D, solver3d.PutSolution3D):
        for attr in ("value", "value_line", "branch", "boundary"):
            setattr(cls, attr, tr.wrap_count("solution_calls", getattr(cls, attr)))

    # Monte Carlo: the pass, and inside it the draws, fields and barrier
    montecarlo.SurfaceRule.level = tr.wrap_timed("barrier", montecarlo.SurfaceRule.level)
    montecarlo.audit_solution = tr.wrap_span(
        "montecarlo.audit_solution", montecarlo.audit_solution)
    field_orig = coefficients.CoefficientField.value
    field_value = tr.wrap_timed("field", field_orig)
    make_generator = np.random.Generator
    simulate = montecarlo.simulate_stopped_payoffs

    def timed_generator(bitgen):
        return _TimedGenerator(tr, make_generator(bitgen))

    @functools.wraps(simulate)
    def simulate_pass(*args, **kwargs):
        if not tr.stack:
            return simulate(*args, **kwargs)
        # the draws and field lookups are timed only within a pass
        coefficients.CoefficientField.value = field_value
        np.random.Generator = timed_generator
        try:
            with tr.span("montecarlo.simulate_stopped_payoffs"):
                return simulate(*args, **kwargs)
        finally:
            np.random.Generator = make_generator
            coefficients.CoefficientField.value = field_orig

    montecarlo.simulate_stopped_payoffs = simulate_pass


# ---------------------------------------------------------------------------
# per-layer metrics


def _median(xs):
    return float(statistics.median(xs)) if xs else 0.0


def op_shares(tr):
    """Share of the operations' time spent in each layer they call directly."""
    ops = [sp for sp in tr.spans if sp.name == "op"]
    total = sum(sp.dur for sp in ops)
    shares = defaultdict(float)
    for sp in ops:
        for name, secs in sp.child.items():
            shares[name] += secs / total
    return dict(shares)


def layer_metrics(tr, import_s):
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    A layer's figure is its total within one operation, the median over the
    operations.  A layer that only the set-up calls (the builds of ``price``
    and ``verify``) is taken per set-up repetition instead.  The query
    latencies, ``coeffs_at`` and the hop steps are medians per query.  A
    layer the workload never reaches reads 0.
    """
    spans = tr.spans
    by_id = {sp.id: sp for sp in spans}
    ops = [sp for sp in spans if sp.name == "op"]
    setups = [sp for sp in spans if sp.name == "setup"]
    op_ids = {sp.id for sp in ops}

    def per_root(name, value=lambda sp: sp.dur, pred=None):
        """Median over operations (else set-ups) of value summed over the spans."""
        found = [sp for sp in spans if sp.name == name and (pred is None or pred(sp))]
        found = [sp for sp in found if sp.root in op_ids] or found
        totals = defaultdict(float)
        for sp in found:
            totals[sp.root] += value(sp)
        return _median(list(totals.values()))

    def ms(name, value=lambda sp: sp.dur, pred=None):
        return 1e3 * per_root(name, value, pred)

    def per_op(key):
        return _median([sp.acc[key] for sp in ops])

    def march(sp):
        return (sp.dur - sp.child["solver3d.detect_regions_3d"]
                - sp.child["solver3d.diagonal_put_curve"])

    def in_build(sp):
        return sp.parent is not None and by_id[sp.parent].name == "solver3d.build_put_surface"

    def assembly(sp):
        return sp.dur - sp.child["reflection_pde.spsolve"] - sp.child["reflection_pde.lsqr"]

    def step_rest(sp):
        return sp.dur - sp.acc["rng_s"] - sp.acc["field_s"] - sp.acc["barrier_s"]

    builds = ("solver3d.build_put_surface", "solver3d.build_call_surface",
              "solver3d.build_reflection_regions")
    queries = [sp for sp in spans if sp.name == "query"]

    def query_ms(kind, branch):
        return 1e3 * _median([q.dur for q in queries
                              if q.tags["kind"] == kind and q.tags["branch"] == branch])

    reflect_q = {q.id for q in queries if q.tags["branch"] == "reflect"}
    rhs = sum(sp.acc["rhs_calls"] for sp in ops)
    lanes = sum(sp.acc["rhs_lanes"] for sp in ops)
    mc = "montecarlo.simulate_stopped_payoffs"
    metrics = {
        "setup.import_ms": 1e3 * import_s,
        "solver3d.setup_build_ms": 1e3 * _median(
            [sum(sp.child[k] for k in builds) for sp in setups if sp.tags["rep"] != "warm-up"]),
        "solver2d.diag_curve_ms": ms("solver3d.diagonal_put_curve", pred=in_build),
        "solver3d.march_ms": ms("solver3d.build_put_surface", march)
        + ms("solver3d.build_call_surface", march),
        "odestep.checked_steps": per_op("checked_steps"),
        "odestep.stage_builds": per_op("stage_builds"),
        "odestep.rhs_calls": per_op("rhs_calls"),
        "odestep.lanes_per_rhs_call": lanes / rhs if rhs else 0.0,
        "solver3d.regions_ms": ms("solver3d.detect_regions_3d"),
        "solver3d.reflection_ms": ms("solver3d.build_reflection_regions"),
        "reflection_pde.assembly_ms": ms("reflection_pde.solve_reflection_region", assembly),
        "reflection_pde.spsolve_ms": ms("reflection_pde.spsolve"),
        "reflection_pde.unknowns": per_op("unknowns"),
        "reflection_pde.lsqr_fallbacks": float(
            sum(sp.acc["lsqr_calls"] for sp in ops + setups)),
        "solver3d.query_put_stop_ms": query_ms("put", "stop"),
        "solver3d.query_put_direct_ms": query_ms("put", "direct"),
        "solver3d.query_put_reflect_ms": query_ms("put", "reflect"),
        "solver3d.query_call_stop_ms": query_ms("call", "stop"),
        "solver3d.query_call_direct_ms": query_ms("call", "direct"),
        "solver3d.query_call_reflect_ms": query_ms("call", "reflect"),
        "solver3d.hop_steps_per_query": _median(
            [q.acc["checked_steps"] for q in queries if q.tags["branch"] == "direct"]),
        "reflection_pde.coeffs_at_ms": 1e3 * _median(
            [sp.dur for sp in spans
             if sp.name == "reflection_pde.coeffs_at" and sp.parent in reflect_q]),
        "montecarlo.pass_ms": ms(mc),
        "montecarlo.rng_ms": ms(mc, lambda sp: sp.acc["rng_s"]),
        "montecarlo.field_eval_ms": ms(mc, lambda sp: sp.acc["field_s"]),
        "montecarlo.barrier_ms": ms(mc, lambda sp: sp.acc["barrier_s"]),
        "montecarlo.barrier_calls": per_root(mc, lambda sp: sp.acc["barrier_calls"]),
        "montecarlo.step_rest_ms": ms(mc, step_rest),
        "montecarlo.audit_ms": ms("montecarlo.audit_solution"),
        "solver3d.audit_value_calls": per_root(
            "montecarlo.audit_solution", lambda sp: sp.acc["solution_calls"]),
    }
    return {k: (v, "ms" if k.endswith("_ms") else "count") for k, v in metrics.items()}

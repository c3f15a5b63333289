"""Span tracing of dualpricer from outside the package.

Every public function of each module is replaced, at every name binding
inside the package (module attributes and dicts such as
``tables.TABLE_BUILDERS``), by a wrapper that records one span per call:
name, start, end, parent span and request id.  The kernel is wrapped
through the module that ``lattice._kernel`` points at, so whichever
backend ``dualpricer.BACKEND`` names is the one traced.  Spans stay in
memory and are written out when the run ends.

``check_bindings`` counts executions of the original functions with
``sys.setprofile`` while the wrappers record, and reports every function
whose two counts differ: a call that reached a binding the wrappers missed.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("analytic", "duality", "lattice", "hedge", "simulate", "tables", "cli", "experiment")
TABLES = ("t1", "t2", "t3", "t4", "t5", "t6", "t7")

Span = collections.namedtuple("Span", "name start end parent request attr")


def _elements(args, kwargs):
    return int(np.broadcast(*args, *kwargs.values()).size)


def _attr_for(name):
    """What a span keeps besides its timing, for the per-layer metrics."""
    if name == "kernel.induct":
        return lambda args, kwargs: tuple(args)
    if name in ("analytic.call_price", "analytic.put_price"):
        return _elements
    if name == "simulate.normal_draws":
        return lambda args, kwargs: int(args[1] if len(args) > 1 else kwargs["count"])
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = None
        self._stack: list = []
        self._bindings: list = []
        self.originals: dict = {}

    def _wrap(self, name, fn):
        spans, stack, attr_of = self.spans, self._stack, _attr_for(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = tracer.request
            if request is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            attr = attr_of(args, kwargs) if attr_of else None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, request, attr)

        return traced

    def install(self, package):
        """Wrap every public function of the package at every binding."""
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        targets = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    targets[obj] = f"{layer}.{attr}"
        for cls_name in ("AnalyticEngine", "LatticeEngine"):
            cls = getattr(modules["duality"], cls_name)
            for meth in ("price", "delta", "gamma"):
                targets[cls.__dict__[meth]] = f"duality.{cls_name}.{meth}"
                self._bindings.append((cls, meth, cls.__dict__[meth]))
        kernel = modules["lattice"]._kernel
        targets[kernel.induct] = "kernel.induct"

        wrappers = {orig: self._wrap(name, orig) for orig, name in targets.items()}
        self.originals = {name: orig for orig, name in targets.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if _hashable(value) and value in wrappers:
                            self._bindings.append((obj, key, value))
                elif _hashable(obj) and obj in wrappers:
                    self._bindings.append((module, attr, obj))
        self._rebind(wrappers)
        self._wrappers = wrappers

    def enable(self):
        self._rebind(self._wrappers)

    def disable(self):
        self._rebind(None)

    def _rebind(self, wrappers):
        for holder, key, orig in self._bindings:
            value = wrappers[orig] if wrappers else orig
            if isinstance(holder, dict):
                holder[key] = value
            else:
                setattr(holder, key, value)

    def check_bindings(self, run):
        """Run ``run()`` traced and profiled; return {name: (wrapped, executed)}
        for every function whose span count differs from its execution count."""
        by_code = {}
        by_object = {}
        for name, orig in self.originals.items():
            code = getattr(orig, "__code__", None)
            if code is not None:
                by_code[code] = name
            else:
                by_object[id(orig)] = name
        executed = collections.Counter()

        def profile(frame, event, arg):
            if event == "call":
                name = by_code.get(frame.f_code)
                if name:
                    executed[name] += 1
            elif event == "c_call":
                name = by_object.get(id(arg))
                if name:
                    executed[name] += 1

        first = len(self.spans)
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(None)
        wrapped = collections.Counter(s.name for s in self.spans[first:])
        del self.spans[first:]
        return {
            name: (wrapped[name], executed[name])
            for name in self.originals
            if wrapped[name] != executed[name]
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "request": s.request,
                        }
                    )
                    + "\n"
                )


def _hashable(obj):
    try:
        hash(obj)
    except TypeError:
        return False
    return True


def _kernel_work(args):
    """Computed node updates and bytes of one numpy induction.

    Node updates are N(N+1)/2.  Bytes count the float64 slices each step
    reads and writes: two value slices read, values and prices written and
    prices read, plus for American trees the price and value reads and the
    value write of the exercise comparison.
    """
    steps, american = int(args[5]), bool(args[7])
    nodes = steps * (steps + 1) // 2
    per_node = 8 * (8 if american else 5)
    return nodes, per_node * nodes + 3 * 8 * (steps + 1)


def layer_metrics(spans, passes, requests_per_pass):
    """Per-layer metrics from the spans of ``passes`` identical traced passes.

    A span's request is (pass number, request label).  Counts and times are
    per pass, except ``tables.build_s.*`` and ``kernel.calls.t*``, which are
    per build of that table.  A layer's calls are spans entered from
    another layer (or from the benchmark); self time is duration minus the
    time covered by child spans.
    """
    child = [0.0] * len(spans)
    table_of = [None] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
            table_of[i] = table_of[s.parent]
        if s.name.startswith("tables.table"):
            table_of[i] = "t" + s.name[len("tables.table"):]

    total = collections.defaultdict(float)
    count = collections.Counter()
    m = collections.defaultdict(float)
    kernel_trees = collections.defaultdict(set)
    inductions = 0
    for i, s in enumerate(spans):
        dur = s.end - s.start
        self_s = dur - child[i]
        layer = s.name.split(".", 1)[0]
        parent_layer = spans[s.parent].name.split(".", 1)[0] if s.parent >= 0 else None
        entered = parent_layer != layer
        count[s.name] += 1
        total[s.name] += dur
        m[f"{layer}.self_s"] += self_s
        if entered:
            m[f"{layer}.calls"] += 1
        if layer == "kernel":
            inductions += 1
            nodes, nbytes = _kernel_work(s.attr)
            m["kernel.nodes"] += nodes
            m["kernel.bytes"] += nbytes
            kernel_trees[s.request].add(s.attr)
            if table_of[i]:
                m[f"kernel.calls.{table_of[i]}"] += 1
        elif layer == "analytic":
            vector = s.attr is not None and s.attr > 1
            if vector:
                m["analytic.vector_elems"] += s.attr
                m["analytic.vector_self_s"] += self_s
            else:
                m["analytic.scalar_self_s"] += self_s
                if entered:
                    m["analytic.scalar_calls"] += 1
        elif layer == "hedge":
            if s.name in ("hedge.solve_weights", "hedge.dual_coefficients"):
                m["hedge.solve_self_s"] += self_s
            elif s.name in ("hedge.gross_error", "hedge.net_cost", "hedge.true_error", "hedge.true_errors"):
                m["hedge.eval_self_s"] += self_s
        elif s.name == "simulate.normal_draws":
            m["simulate.draws"] += s.attr
            m["simulate.draws_s"] += self_s
        elif s.name == "simulate.gbm_terminal":
            m["simulate.gbm_s"] += self_s
        elif s.name == "simulate.run_hedge_sim":
            m["simulate.run_self_s"] += self_s
        elif s.name == "cli.main":
            m[f"cli.compute_s.{s.request[1]}"] += dur

    m["lattice.build_calls"] = count["lattice.build_lattice"]
    m["hedge.solve_calls"] = count["hedge.solve_weights"]
    builds = {t: count[f"tables.table{t[1:]}"] for t in TABLES}
    m["tables.render_s"] = total["tables.render_text"] + total["tables.render_csv"]
    m["experiment.load_s"] = total["experiment.load_file"]
    m["trace.spans"] = len(spans)
    out = {name: value / passes for name, value in m.items()}
    for t, n in builds.items():
        if n:
            out[f"tables.build_s.{t}"] = total[f"tables.table{t[1:]}"] / n
            out[f"kernel.calls.{t}"] = m[f"kernel.calls.{t}"] / n
    out["kernel.ns_per_node"] = 1e9 * m["kernel.self_s"] / m["kernel.nodes"] if m["kernel.nodes"] else 0.0
    out["lattice.inductions_per_request"] = inductions / (passes * requests_per_pass)
    distinct = sum(len(trees) for trees in kernel_trees.values())
    out["lattice.distinct_tree_ratio"] = distinct / inductions if inductions else 0.0
    return out

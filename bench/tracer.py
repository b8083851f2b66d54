"""Span tracer for the benchmark's traced operations.

The tracer wraps module-level functions of spzeros from outside, at the
names their callers look them up by (``spzeros.branches.roots_batch``,
``spzeros.verify.wh_eval``, ...). Every call is one span. Per layer it
keeps the number of calls, the self time (span time minus the part covered
by child spans) and counts taken from argument sizes and return values.
Spans nest by a plain stack, so the traced process must run spzeros on one
thread (SPZEROS_THREADS=1).

A layer none of whose functions exists any more (renamed or removed by a
later change) is reported as absent; the others are still traced.
"""

import functools
import importlib
import time

import numpy as np


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _size(x):
    return int(np.asarray(x).size)


def _add(st, key, n):
    st[key] = st.get(key, 0) + int(n)


def _count_roots(st, args, kwargs, ret, tracer):
    _add(st, "points", _size(_arg(args, kwargs, 1, "w")))


def _count_expand(st, args, kwargs, ret, tracer):
    _add(st, "nodes", _size(_arg(args, kwargs, 1, "v")))


def _count_tail(st, args, kwargs, ret, tracer):
    _add(st, "leaves", _size(_arg(args, kwargs, 1, "v")))
    _add(st, "steps", np.sum(ret[1]))
    _add(st, "unconverged", np.sum(~np.asarray(ret[3], dtype=bool)))


def _count_step(name):
    """Points stepped, and the part of them stepped inside a tail product."""
    def count(st, args, kwargs, ret, tracer):
        n = _size(_arg(args, kwargs, 1, name))
        _add(st, "points", n)
        if tracer.active.get("branches.tail_products"):
            _add(st, "tail_points", n)
    return count


def _count_wh(st, args, kwargs, ret, tracer):
    _add(st, "values", getattr(ret, "factors_used", 0))


def _count_eval_batch(st, args, kwargs, ret, tracer):
    _add(st, "points", _size(_arg(args, kwargs, 1, "z")))


# Layer name -> ((module, attribute) targets, counter or None). Layers
# whose name starts with "_" are not reported; they only keep their time
# out of their parents' self time (the sweep driver around expansion and
# tail, and the system build inside a subcommand).
LAYERS = {
    "poly.roots_batch": (
        [("spzeros.branches", "roots_batch"), ("spzeros.poly", "roots_batch")],
        _count_roots),
    "branches.expand_level": (
        [("spzeros.branches", "_expand_level")], _count_expand),
    "branches.tail_products": (
        [("spzeros.branches", "_tail_products")], _count_tail),
    "branches.principal_step": (
        [("spzeros.branches", "_principal_step")], _count_step("u")),
    "branches.conjugate_newton": (
        [("spzeros.branches", "_conjugate_newton")],
        _count_step("v_target")),
    "branches.contraction": (
        [("spzeros.branches", "contraction_delta"),
         ("spzeros.branches", "_deep_radius")], None),
    "_branches.sweep": (
        [("spzeros.cli", "sweep_products"),
         ("spzeros.cli", "sweep_solutions_at_b"),
         ("spzeros.factor", "sweep_products"),
         ("spzeros.factor", "sweep_solutions_at_b"),
         ("spzeros.verify", "sweep_products")], None),
    "factor.wh_eval": ([("spzeros.verify", "wh_eval")], _count_wh),
    "factor.growth_floor": (
        [("spzeros.factor", "growth_floor"),
         ("spzeros.branches", "growth_floor")], None),
    "factor.moment_sum": ([("spzeros.cli", "moment_sum")], None),
    "_system.build": ([("spzeros.cli", "system_from_spec")], None),
    "system.eval_f_batch": (
        [("spzeros.cli", "eval_f_batch"), ("spzeros.verify", "eval_f_batch")],
        _count_eval_batch),
    "system.eval_f_direct": (
        [("spzeros.cli", "eval_f_direct"),
         ("spzeros.verify", "eval_f_direct")], None),
    "verify.cross_check": ([("spzeros.cli", "cross_check")], None),
    "cli.output": (
        [("spzeros.cli", f"cmd_{name}")
         for name in ("zeros", "invert", "moments", "wh", "check")], None),
}


class Tracer:
    """Per-layer call counts, self times and counters of one process."""

    def __init__(self):
        self.stats = {layer: {"calls": 0, "self_s": 0.0}
                      for layer in LAYERS}
        self.active = {}
        self.absent = []
        self._stack = []

    def install(self):
        """Replace every target that exists by its traced wrapper."""
        for layer, (targets, count) in LAYERS.items():
            found = False
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if callable(fn):
                    setattr(module, attr, self._wrap(layer, fn, count))
                    found = True
            if not found:
                self.absent.append(layer)

    def _wrap(self, layer, fn, count):
        st = self.stats[layer]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            covered = [0.0]
            self._stack.append(covered)
            self.active[layer] = self.active.get(layer, 0) + 1
            t0 = time.perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                self.active[layer] -= 1
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += span
                st["calls"] += 1
                st["self_s"] += span - covered[0]
            if count is not None:
                count(st, args, kwargs, ret, self)
            return ret

        return traced

    def total_self_s(self):
        return sum(st["self_s"] for st in self.stats.values())

    def report(self):
        """Layer totals, without the internal layers."""
        return {layer: st for layer, st in self.stats.items()
                if not layer.startswith("_")}

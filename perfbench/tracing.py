"""Spans around the calls into each layer of isingcoupler, and the per-layer
metrics made from them.

A Tracer rebinds each public function named in LAYERS, in every isingcoupler
module that holds it, to a wrapper that records one span and returns the
wrapped function's result unchanged.  A span is (id, parent id, item, name,
start, end, counts): the parent is the innermost traced call still open, the
item names the benchmark item that caused it, and counts holds what the
function's result says about its work (see OBSERVERS).  Spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter

LAYERS = {
    "simplex": ("float_solve", "certify_basis", "exact_resume", "exact_solve", "solve_lp"),
    "exactopt": ("solve_l0", "solve_l1"),
    "qaoa": ("optimize_angles", "simulate_qaoa_p1", "apply_depolarizing", "maxcut_brute_force"),
    "pulses": ("verify", "evaluate"),
    "constructions": ("union_of_stars", "weighted_edge_by_edge"),
    "graphs": ("parse_edge_list", "enumerate_labeled_graphs", "random_er_graph"),
}


def _certify_outcome(result):
    # certify_basis returns (x, objective), "resume", or None
    if result is None:
        return {"failed": 1}
    if isinstance(result, str):
        return {"resume": 1}
    return {"certified": 1}


# Counts read from a traced call's result, by span name.
OBSERVERS = {
    "simplex.certify_basis": _certify_outcome,
    "simplex.exact_resume": lambda result: {"failed": 1} if result is None else None,
    "exactopt.solve_l0": lambda result: {"nodes": result.nodes_explored},
}

SPAN_STATS = ("calls", "ms", "self_ms")
COUNT_STATS = ("certified", "resume", "failed", "nodes")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []
        self.item = None
        self._open: list[int] = []  # ids of the spans still open, innermost last
        self._next_id = 0
        self._rebound: list[tuple] = []

    def _enter(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        return span_id, parent, self.clock()

    def _close(self, span_id, parent, name, start, end, counts=None):
        self._open.pop()
        self.spans.append((span_id, parent, self.item, name, start, end, counts))

    def wrap(self, name, fn, observe=None):
        """A function that calls fn inside a span and returns what fn returns.

        A generator function gets a generator that records one span for each
        item it produces, so the time spent producing items is counted and
        the consumer's time between items is not.
        """
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    span_id, parent, start = self._enter()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span_id, parent, name, start, self.clock())
                    yield value

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, start = self._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span_id, parent, name, start, self.clock())
                raise
            end = self.clock()
            counts = observe(result) if observe is not None else None
            self._close(span_id, parent, name, start, end, counts)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Rebind each LAYERS function wherever `modules` (name -> module,
        keyed by the short names in LAYERS) holds the original."""
        for home, names in LAYERS.items():
            for fname in names:
                original = getattr(modules[home], fname)
                span = f"{home}.{fname}"
                traced = self.wrap(span, original, OBSERVERS.get(span))
                for module in modules.values():
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, traced)
                        self._rebound.append((module, fname, original))

    def uninstall(self) -> None:
        while self._rebound:
            module, fname, original = self._rebound.pop()
            setattr(module, fname, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, item, name, start, end, counts in self.spans:
                record = {"id": span_id, "parent": parent, "item": item, "name": name,
                          "start": start, "end": end}
                if counts:
                    record["counts"] = counts
                fh.write(json.dumps(record) + "\n")


def self_times(spans) -> dict:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list] = {}
    for span_id, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, _, _, start, end, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(span_id, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span_id] = (end - start) - covered
    return out


def layer_totals(spans) -> dict:
    """Per span name: calls, ms, self_ms and the summed result counts."""
    own = self_times(spans)
    totals: dict[str, Counter] = {}
    for span_id, _, _, name, start, end, counts in spans:
        t = totals.setdefault(name, Counter())
        t["calls"] += 1
        t["ms"] += (end - start) * 1000.0
        t["self_ms"] += own[span_id] * 1000.0
        if counts:
            t.update(counts)
    return totals


def layer_metric(totals: dict, metric: str):
    """Value of a per-layer metric named <module>.<function>.<stat>.

    A traced function that was never called reads 0.  A name that does not
    match a traced function and a known stat raises KeyError.
    """
    span, _, stat = metric.rpartition(".")
    module, _, fname = span.partition(".")
    if fname not in LAYERS.get(module, ()):
        raise KeyError(f"{metric}: {span} is not a traced function")
    t = totals.get(span, Counter())
    if stat == "certified_ratio":
        return t["certified"] / t["calls"] if t["calls"] else 0.0
    if stat not in SPAN_STATS + COUNT_STATS:
        raise KeyError(f"{metric}: unknown stat {stat!r}")
    return t[stat]

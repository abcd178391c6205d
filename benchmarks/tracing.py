"""Span tracing around the library's public functions, from outside the library.

``Tracer.install`` replaces each listed function by a wrapper in every module
namespace that holds it, the defining module and each module that imported it
by name, so calls through either name are seen. A wrapper records one span:
name, start, end, parent span and op id, in flat arrays that stay in memory
until ``write`` saves them. Self time is a span's duration minus the time its
direct children cover; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

# (module, attribute) -> span name. An attribute listed under an importing
# module is the same function object as in its defining module; wrapping both
# names catches calls made through either.
FUNCTIONS = {
    "rationals": ["parse_rational", "rref", "rank", "solve"],
    "market": ["market_from_json_dict", "make_market", "build_system"],
    "geometry": ["enumerate_generators", "face_intersection", "_stage_candidates", "solve"],
    "analysis": ["characterize", "enumerate_generators", "is_arbitrage_free", "is_complete",
                 "price_bounds", "complete_market", "rank", "build_system"],
    "multiperiod": ["tree_market_from_json_dict", "components", "analyze_tree",
                    "complete_tree", "characterize", "complete_market", "rank",
                    "build_system"],
    "models": ["kkl_params", "kkl_viability", "kkl_grid", "kkl_backward_induction",
               "kkl_completion_check", "kkl_perturb_terminal", "put_terminal",
               "write_surface_csv"],
    "cli": ["main", "parse_rational", "market_from_json_dict"],
}


def _rref_entries(counts: Counter, args, result) -> None:
    counts["rationals.rref.entries"] += args[0].rows * args[0].cols


def _generator_counts(counts: Counter, args, result) -> None:
    counts["geometry.generators"] += len(result)
    bits = max((x.denominator.bit_length() for g in result for x in g), default=0)
    counts["geometry.max_denominator_bits"] = max(counts["geometry.max_denominator_bits"], bits)


def _component_count(counts: Counter, args, result) -> None:
    counts["multiperiod.components.count"] += len(result)


# Extra counts taken from a call's arguments or result, by span name.
MEASURES: dict[str, Callable] = {
    "rationals.rref": _rref_entries,
    "geometry.enumerate_generators": _generator_counts,
    "multiperiod.components": _component_count,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        # Calls per op through each namespace, e.g. "analysis.rank".
        self.site_calls: dict[int, Counter] = defaultdict(Counter)
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._installed: list[tuple[object, str, object]] = []

    def install(self, package: str = "martpoly") -> None:
        for module_name, attrs in FUNCTIONS.items():
            module = importlib.import_module(f"{package}.{module_name}")
            for attr in attrs:
                fn = getattr(module, attr)
                owner = fn.__module__.rsplit(".", 1)[-1]
                name = f"{owner}.{attr.lstrip('_')}"
                self._installed.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, f"{module_name}.{attr}"))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def begin(self, op: int) -> None:
        self.op = op
        self.active = True

    def end(self) -> None:
        self.active = False

    def _wrap(self, fn, name: str, site: str):
        tracer = self
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0)
            tracer.span_end.append(0)
            tracer.stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer.stack.pop()
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end
            tracer.site_calls[tracer.op][site] += 1
            if measure is not None:
                measure(tracer.counts[tracer.op], args, result)
            return result

        return wrapper

    def totals(self) -> tuple[dict, dict, dict]:
        """Per op: span count, inclusive ns and self ns, by span name."""
        n = len(self.span_name)
        covered = [0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += self.span_end[i] - self.span_start[i]
        calls: dict[int, Counter] = defaultdict(Counter)
        incl: dict[int, Counter] = defaultdict(Counter)
        self_ns: dict[int, Counter] = defaultdict(Counter)
        for i in range(n):
            op, name = self.span_op[i], self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            calls[op][name] += 1
            incl[op][name] += dur
            self_ns[op][name] += dur - covered[i]
        return calls, incl, self_ns

    def write(self, path: Path) -> None:
        """Spans as tab-separated name, start_ns, end_ns, parent index, op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                         f"{self.span_end[i]}\t{self.span_parent[i]}\t{self.span_op[i]}\n")

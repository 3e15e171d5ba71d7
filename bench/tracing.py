"""Spans around the library's public functions, recorded from outside.

`Tracer.install()` replaces each traced function or method by a wrapper in
every loaded `thompsonv` module that binds it, and `uninstall()` puts the
originals back. A wrapper records a span (name, start, end, parent, request
id). A traced function that calls itself, directly or through the module
binding, stays inside its outer span, so a recursive tree walk is one span.

High-volume names are aggregated per (name, parent name) with exact self
time; every other span is kept whole. Self time is a span's duration minus
the durations of its traced children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter

# (span name, module, attribute path). Several entries may share a span name.
TARGETS = [
    ("cli.main", "thompsonv.cli", "main"),
    ("experiments.estimate_constants", "thompsonv.experiments", "estimate_constants"),
    ("search.enumerate_ball", "thompsonv.search", "enumerate_ball"),
    ("search.exact_word_length", "thompsonv.search", "exact_word_length"),
    ("words.synthesize_word", "thompsonv.words", "synthesize_word"),
    ("generators.evaluate_word", "thompsonv.generators", "evaluate_word"),
    ("generators.free_reduce", "thompsonv.generators", "free_reduce"),
    ("collapse.collapse_clusters", "thompsonv.collapse", "collapse_clusters"),
    ("intervals.interval_map", "thompsonv.elements", "Element.interval_map"),
    ("elements.mul", "thompsonv.elements", "Element.__mul__"),
    ("elements.reduce", "thompsonv.elements", "Element.reduce"),
    ("elements.text", "thompsonv.elements", "Element.text"),
    ("trees.refine", "thompsonv.trees", "refine"),
    ("trees.parse_tree", "thompsonv.trees", "parse_tree"),
    ("trees.parse_tree", "thompsonv.trees", "parse_tree_at"),
    ("permutations.cluster_runs", "thompsonv.permutations", "cluster_runs"),
]

SPAN_NAMES = list(dict.fromkeys(name for name, _, _ in TARGETS))

HIGH_VOLUME = {
    "elements.mul",
    "elements.reduce",
    "elements.text",
    "trees.refine",
    "trees.parse_tree",
    "permutations.cluster_runs",
    "generators.free_reduce",
}


def current_rss_bytes() -> int:
    """Resident set size now; the peak so far where /proc is not readable."""
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except OSError:
        return peak_rss_bytes()


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Tracer:
    """Spans, call counts and boundary counts of one traced pass."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, span id, start, child seconds]
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.aggregate: dict[tuple[str, str | None], list[float]] = {}
        self.spans: list[dict] = []
        self.request: object = None
        self.next_id = 0
        self.cancelled_carets = 0
        self.new_per_product: list[float] = []
        self.rss_per_element: list[float] = []
        self.products_per_query: list[int] = []
        self.missing: list[str] = []
        self.patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            state = before() if before else None
            tracer.next_id += 1
            frame = [name, tracer.next_id, 0.0, 0.0]
            stack.append(frame)
            frame[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.close(frame, end)
            if after:
                after(state, args, result)
            return result

        return traced

    def close(self, frame: list, end: float) -> None:
        name, span_id, start, child = frame
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        key = (name, parent[0] if parent else None)
        entry = self.aggregate.get(key)
        if entry is None:
            entry = self.aggregate[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if name not in HIGH_VOLUME:
            self.spans.append(
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent[1] if parent else None,
                    "request": self.request,
                }
            )

    # -- counts measured at span boundaries ------------------------------------

    def _after_reduce(self, state, args, result) -> None:
        self.cancelled_carets += args[0].n_leaves - result.n_leaves

    def _before_ball(self):
        return self.calls["elements.mul"], current_rss_bytes()

    def _after_ball(self, state, args, result) -> None:
        products = self.calls["elements.mul"] - state[0]
        elements = result.total()
        if products:
            self.new_per_product.append((elements - 1) / products)
        self.rss_per_element.append((peak_rss_bytes() - state[1]) / elements)

    def _before_query(self):
        return self.calls["elements.mul"]

    def _after_query(self, state, args, result) -> None:
        self.products_per_query.append(self.calls["elements.mul"] - state)

    # -- patching -----------------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "elements.reduce": (None, self._after_reduce),
            "search.enumerate_ball": (self._before_ball, self._after_ball),
            "search.exact_word_length": (self._before_query, self._after_query),
        }
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "thompsonv"]
        for name, module_name, path in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{name}: no {module_name}.{path}")
                continue
            before, after = hooks.get(name, (None, None))
            wrapper = self.wrap(name, original, before, after)
            if outer:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # -- results ------------------------------------------------------------------

    def self_seconds(self, name: str) -> float:
        return sum(e[2] for (n, _), e in self.aggregate.items() if n == name)

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_seconds(name), "s")
        # Counts taken from the arguments and results at span boundaries.
        out["elements.reduce.cancelled_carets"] = (self.cancelled_carets, "count")
        out["search.new_per_product"] = (_median(self.new_per_product), "ratio")
        out["search.rss_bytes_per_element"] = (_median(self.rss_per_element), "B")
        out["search.products_per_query"] = (_median(self.products_per_query), "count")
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        aggregate = [
            {"name": n, "parent": p, "calls": e[0], "total_s": e[1], "self_s": e[2]}
            for (n, p), e in sorted(self.aggregate.items(), key=lambda kv: -kv[1][2])
        ]
        with open(path, "w") as f:
            json.dump({"aggregate": aggregate, "spans": self.spans}, f)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0

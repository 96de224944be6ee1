"""Per-layer tracing by wrapping diamest's public functions from outside.

Layers are the package's modules: cli -> graph -> generators -> estimators
-> search -> oracle.  ``install`` replaces every module attribute that is
one of the functions named in TRACED with a wrapper that records a span
(name, start, end, parent, call, work count), so both cross-module calls
(``cli.parse_graph``, ``estimators.batch_depths``) and calls inside a module
(``parse_edge_list`` -> ``build_graph``) are seen.  No source file changes.
Spans stay in memory; the caller writes them out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import time

import numpy as np

from workloads import METHODS

TRACED = {
    "graph": ("parse_graph", "build_graph", "finite_diameter_check",
              "write_edge_list"),
    "generators": ("generate",),
    "estimators": ("two_approx", "aingworth", "sampled_estimate",
                   "sampled_estimate_weighted", "dense_estimate", "sparse_driver",
                   "sparse_estimate", "four_fifths_estimate", "sampling_estimate"),
    "search": ("search", "nearest_s", "nearest_in_set", "nearest_high_degree",
               "batch_search_stats", "batch_depths"),
    "oracle": ("exact_diameter", "exact_apsp"),
}
MODULES = ("cli", "graph", "generators", "estimators", "search", "oracle",
           "hardness")

# work counted at a span's entry, from its arguments
COUNTERS = {
    "graph.parse_graph": lambda text, *a, **k: (len(text),),
    "graph.build_graph": lambda n, edges, *a, **k: (len(edges),),
    "search.batch_search_stats": lambda g, sources, *a, **k: (
        int(np.size(sources)), int(np.size(sources)) * g.arc_count),
    "oracle.exact_apsp": lambda g, *a, **k: (g.n,),
}

ROOT = "cli.main"


class Tracer:
    """Spans of the calls made while installed, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, call, work]
        self._stack = []
        self._call = None

    def wrap(self, name, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self._call, count(*args, **kwargs) if count else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def root(self, call_id, fn, *args):
        """Run one top-level call as the root span of ``call_id``."""
        self._call = call_id
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            self._call = None


def install(tracer: Tracer) -> list:
    """Wrap every traced function wherever a diamest module refers to it."""
    mods = [importlib.import_module(f"diamest.{m}") for m in MODULES]
    patches = []
    for owner, names in TRACED.items():
        home = importlib.import_module(f"diamest.{owner}")
        for name in names:
            orig = getattr(home, name)
            wrapped = tracer.wrap(f"{owner}.{name}", orig)
            for mod in mods:
                if mod.__dict__.get(name) is orig:
                    patches.append((mod, name, orig))
                    setattr(mod, name, wrapped)
    graph_cls = importlib.import_module("diamest.graph").Graph
    patches.append((graph_cls, "reverse", graph_cls.reverse))
    graph_cls.reverse = tracer.wrap("graph.reverse", graph_cls.reverse)
    return patches


def uninstall(patches: list):
    for target, name, orig in reversed(patches):
        setattr(target, name, orig)


# ---- aggregation ------------------------------------------------------------

TIMED = ("graph.parse_graph", "graph.build_graph", "graph.finite_diameter_check",
         "graph.reverse", "search.batch_search_stats", "search.search",
         "search.nearest_in_set", "oracle.exact_diameter", "oracle.exact_apsp")
SETUP_TIMED = ("generators.generate", "graph.write_edge_list")
SELF_METHODS = tuple(m for m in METHODS if m != "exact")  # exact has no estimator span


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = [("cli.self_s", "s")]
    names += [(f"{t}.s", "s") for t in TIMED + SETUP_TIMED]
    names += [("graph.parse_graph.bytes", "bytes"), ("graph.build_graph.edges", "count"),
              ("search.batch_search_stats.sources", "count"),
              ("search.batch_search_stats.arcs", "count"),
              ("search.search.calls", "count"), ("search.nearest_in_set.calls", "count"),
              ("oracle.exact_apsp.bytes", "bytes")]
    names += [(f"estimators.{m}.self_s", "s") for m in SELF_METHODS]
    names += [(f"estimators.{m}.full_searches", "count") for m in METHODS]
    names += [("estimators.rv.reruns", "count"), ("trace.overhead_s", "s")]
    names += [(f"wall_s.{m}", "s") for m in METHODS]
    return names


def _durations(spans):
    dur = np.array([s[2] - s[1] for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    return dur, dur - child


def _outermost(spans, i):
    name, p = spans[i][0], spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return False
        p = spans[p][3]
    return True


def full_searches(name, work) -> int:
    """Single-source searches a span ran: every batch source, every
    ``search`` and every row of an all-pairs matrix."""
    if name == "search.search":
        return 1
    if name in ("search.batch_search_stats", "oracle.exact_apsp"):
        return work[0]
    return 0


def pass_layers(spans, methods: dict) -> dict:
    """Per-layer totals of one traced pass.

    ``methods`` maps a call's position in the pass to its method, so
    estimator self time and full searches are charged to that method.
    """
    dur, self_t = _durations(spans)
    out = {name: 0.0 for name, _ in layer_metric_names()}
    for i, (name, _, _, _, call, work) in enumerate(spans):
        method = methods.get(call)
        if name == ROOT:
            out["cli.self_s"] += self_t[i]
            continue
        if name.startswith("estimators.") and method in SELF_METHODS:
            out[f"estimators.{method}.self_s"] += self_t[i]
        key = f"{name}.s"
        if key in out and _outermost(spans, i):
            out[key] += dur[i]
        if name == "graph.parse_graph":
            out["graph.parse_graph.bytes"] += work[0]
        elif name == "graph.build_graph":
            out["graph.build_graph.edges"] += work[0]
        elif name == "search.batch_search_stats":
            out["search.batch_search_stats.sources"] += work[0]
            out["search.batch_search_stats.arcs"] += work[1]
        elif name == "search.search":
            out["search.search.calls"] += 1
        elif name == "search.nearest_in_set":
            out["search.nearest_in_set.calls"] += 1
        elif name == "oracle.exact_apsp":
            out["oracle.exact_apsp.bytes"] += work[0] * work[0] * 8
        if method in METHODS:
            out[f"estimators.{method}.full_searches"] += full_searches(name, work)
    return out


def call_totals(spans) -> dict:
    """Per call position of one pass: inclusive time per span name."""
    dur, _ = _durations(spans)
    out = {}
    for i, s in enumerate(spans):
        per = out.setdefault(s[4], {})
        if _outermost(spans, i):
            per[s[0]] = per.get(s[0], 0.0) + dur[i]
    return out


# ---- full-search predictions -------------------------------------------------

def predicted_searches(method, params: dict, reruns: int, n: int, n_high: int,
                       directed: bool) -> tuple:
    """(low, high, formula): the full-search count the README cost model
    gives from the printed params; low == high when the params fix it."""
    p = {k: float(v) for k, v in params.items() if _is_number(v)}
    s = int(p.get("s", 1))
    sweeps = 2 if directed and method == "dense" else 1
    if method == "exact":
        return n + 1, n + 1, "n + 1"
    if method == "two-approx":
        return 2, 2, "2"
    if method == "sampling":
        k = 2 * int(p["sample_size"])
        return k, k, "2 * sample_size"
    if method in ("rv", "rv-weighted"):
        k = (reruns + 1) * (int(p["sample_size"]) + 1) + s
        return k, k, "(reruns + 1) * (sample_size + 1) + s"
    if method in ("aingworth", "dense"):
        hitters = int(np.ceil(n / s * (1 + np.log(s))))
        return (sweeps * (1 + s), sweeps * (1 + s + hitters),
                "sweeps * (1 + s + |H|), |H| <= (n/s)(1 + ln s)")
    if method == "sparse":
        return 3 + n_high, 3 + n_high + n, "3 + |deg >= delta| + |ball|, |ball| <= n"
    if method == "four-fifths" and params.get("branch") == "direct":
        return n, n, "n (all-pairs rows)"
    return None, None, "not modelled"


def _is_number(v) -> bool:
    try:
        float(v)
    except ValueError:
        return False
    return True

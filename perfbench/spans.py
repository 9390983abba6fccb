"""Per-layer spans of the MaxRFC benchmark, recorded from outside ``src/``.

``Tracer`` wraps each layer's public function where its caller looks it
up (``from … import`` binds a name at import time, so patching only the
defining module would miss the call). A name a later refactor removes
marks its layer ``absent`` instead of failing. Spans stay in memory,
carry the id of the query that caused them, and are written out once at
the end of the run.

Every span records wall seconds, driver CPU seconds and Spark jobs (the
delta of the DAG scheduler's next job id). ``wait_s`` = wall − driver
CPU is time the driver spent waiting on the JVM. A span's self time is
its wall time minus that of its direct children.
"""
from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Any, Callable

# Span layers: (module the caller looks the name up in, attribute path,
# span name or a function of (args, kwargs) giving it, result attributes).
_sup_name = lambda args, kw: "ensup" if kw.get("enhanced") else "sup"  # noqa: E731
LAYERS: list[tuple[str, str, Any, Callable | None]] = [
    ("repro.core.maxrfc", "reduce_pipeline", "reduction",
     lambda a, kw, r: {"stages": [list(s[:3]) for s in r.stages]}),
    ("repro.core.reduction", "color_graph_local", "coloring", None),
    ("repro.core.reduction", "color_graph", "coloring", None),
    ("repro.core.reduction", "en_colorful_core", "encore", None),
    ("repro.core.reduction", "colorful_sup_reduce", _sup_name, None),
    ("repro.core.local_peel", "apply_local_stage", "local_peel", None),
    ("repro.graph.local", "LocalGraph.from_spark", "collect",
     lambda a, kw, r: {"n": r.n, "m": r.m}),
    ("repro.core.maxrfc", "heur_rfc", "heuristic",
     lambda a, kw, r: {"size": r.size, "ub": r.ub}),
    ("repro.core.maxrfc", "branch_search", "search",
     lambda a, kw, r: {"nodes": r.nodes, "roots_pruned": r.roots_pruned, "m_in": a[0].m}),
    ("repro.core.branch", "cal_color_od", "order", lambda a, kw, r: {"roots": len(r)}),
    ("repro.core.branch", "compute_ub", "bounds", None),
]
# Counted calls, added to the innermost open span: (module, attribute,
# counter name, amount as a function of the result).
COUNTERS: list[tuple[str, str, str, Callable]] = [
    ("repro.core.reduction", "vertex_color_stats", "rounds", lambda r: 1),
    ("repro.core.reduction", "edge_color_stats", "rounds", lambda r: 1),
    ("repro.graph.coloring", "sequential_greedy", "colors", lambda r: len(set(r.values()))),
]
#: Reported layers and the prefixes of their metrics; a layer none of
#: whose names could be wrapped is absent and its metrics read 0.
_PREFIXES = {
    "reduction": ("reduction.",), "coloring": ("coloring.",), "local_peel": ("local_peel.",),
    "collect": ("collect.", "kernel."), "heuristic": ("heuristic.",), "search": ("search.",),
    "order": ("order.",), "bounds": ("bounds.",),
    **{s: (f"reduction.{s}.",) for s in ("encore", "sup", "ensup")},
}


def _resolve(module: str, path: str):
    """(owner, attribute) for a dotted attribute path, or None if gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Records spans around layer calls while installed (a context manager)."""

    def __init__(self, job_id: Callable[[], int]):
        self._job_id = job_id
        self.spans: list[dict] = []
        self.absent: set[str] = set()
        self._stack: list[dict] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.query: int | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; yields its dict so callers can add attributes."""
        parent = self._stack[-1]["id"] if self._stack else None
        s = {"id": len(self.spans), "parent": parent, "query": self.query,
             "name": name, "attrs": dict(attrs), "counts": {}}
        self.spans.append(s)
        self._stack.append(s)
        t0, c0, j0 = time.perf_counter(), time.process_time(), self._job_id()
        try:
            yield s
        finally:
            s["wall_s"] = time.perf_counter() - t0
            s["cpu_s"] = time.process_time() - c0
            s["jobs"] = self._job_id() - j0
            self._stack.pop()

    def _wrap_span(self, fn, name, on_result):
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as s:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    s["attrs"].update(on_result(args, kwargs, result))
                return result
        return wrapper

    def _wrap_count(self, fn, counter, amount):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._stack:
                counts = self._stack[-1]["counts"]
                counts[counter] = counts.get(counter, 0) + amount(result)
            return result
        return wrapper

    def _patch(self, module: str, path: str, make) -> bool:
        found = _resolve(module, path)
        if found is None:
            return False
        owner, attr = found
        raw = inspect.getattr_static(owner, attr)
        fn = getattr(owner, attr)  # bound, for a classmethod
        new = make(fn)
        setattr(owner, attr, staticmethod(new) if isinstance(raw, classmethod) else new)
        self._patches.append((owner, attr, raw))
        return True

    def __enter__(self) -> "Tracer":
        found: set[str] = set()
        for module, path, name, on_result in LAYERS:
            if self._patch(module, path, lambda fn: self._wrap_span(fn, name, on_result)):
                found.update(("sup", "ensup") if callable(name) else (name,))
        for module, path, counter, amount in COUNTERS:
            self._patch(module, path, lambda fn: self._wrap_count(fn, counter, amount))
        self.absent = set(_PREFIXES) - found
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()


def layer_metrics(spans: list[dict], absent: set[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, totalled over the given spans (one workload pass).

    Ratios are taken of the totals. Metrics of an absent layer read 0.
    """
    by_id = {s["id"]: s for s in spans}
    by = lambda name: [s for s in spans if s["name"] == name]  # noqa: E731
    tot = lambda name, key: sum(s[key] for s in by(name))  # noqa: E731
    attr = lambda name, key: sum(s["attrs"].get(key, 0) for s in by(name))  # noqa: E731
    count = lambda name, key: sum(s["counts"].get(key, 0) for s in by(name))  # noqa: E731
    m: dict[str, tuple[float, str]] = {}

    m["builder.lift_s"] = (tot("lift", "wall_s"), "s")
    m["builder.lift_jobs"] = (tot("lift", "jobs"), "count")

    m["coloring.s"] = (tot("coloring", "wall_s"), "s")
    m["coloring.jobs"] = (tot("coloring", "jobs"), "count")
    m["coloring.colors"] = (count("coloring", "colors"), "count")

    stage_out: dict[str, list[int]] = {}
    m_in = m_out = 0
    for s in by("reduction"):
        stages = s["attrs"].get("stages", [])
        if stages:
            m_in += stages[0][2]
            m_out += stages[-1][2]
        for name, n, mm in stages[1:]:
            acc = stage_out.setdefault(name, [0, 0])
            acc[0] += n
            acc[1] += mm
    rounds = 0
    for stage in ("encore", "sup", "ensup"):
        p = f"reduction.{stage}"
        wall, cpu = tot(stage, "wall_s"), tot(stage, "cpu_s")
        r = count(stage, "rounds")
        rounds += r
        m[f"{p}.s"] = (wall, "s")
        m[f"{p}.jobs"] = (tot(stage, "jobs"), "count")
        m[f"{p}.wait_s"] = (wall - cpu, "s")
        m[f"{p}.n_out"] = (stage_out.get(stage, [0, 0])[0], "count")
        m[f"{p}.m_out"] = (stage_out.get(stage, [0, 0])[1], "count")
        m[f"{p}.rounds"] = (r, "count")
    m["reduction.s"] = (tot("reduction", "wall_s"), "s")
    m["reduction.jobs"] = (tot("reduction", "jobs"), "count")
    m["reduction.rounds"] = (rounds, "count")
    m["reduction.edges_removed_per_round"] = ((m_in - m_out) / rounds if rounds else 0.0, "count")

    m["local_peel.calls"] = (len(by("local_peel")), "count")
    m["local_peel.s"] = (tot("local_peel", "wall_s"), "s")

    top_collect = [s for s in by("collect") if by_id[s["parent"]]["name"] == "query"]
    m["collect.s"] = (sum(s["wall_s"] for s in top_collect), "s")
    m["collect.jobs"] = (sum(s["jobs"] for s in top_collect), "count")
    m["kernel.n"] = (sum(s["attrs"]["n"] for s in top_collect), "count")
    m["kernel.m"] = (sum(s["attrs"]["m"] for s in top_collect), "count")

    answer = sum(s["attrs"].get("size", 0) for s in by("query"))
    m["heuristic.s"] = (tot("heuristic", "wall_s"), "s")
    m["heuristic.size"] = (attr("heuristic", "size"), "count")
    m["heuristic.ub"] = (attr("heuristic", "ub"), "count")
    m["heuristic.gap"] = (answer - attr("heuristic", "size"), "count")
    m["heuristic.core_m"] = (attr("search", "m_in"), "count")

    m["order.s"] = (tot("order", "wall_s"), "s")
    m["bounds.calls"] = (len(by("bounds")), "count")
    m["bounds.s"] = (tot("bounds", "wall_s"), "s")

    search_s = tot("search", "wall_s")
    search_ids = {s["id"] for s in by("search")}
    inner = search_s - sum(s["wall_s"] for s in spans if s["parent"] in search_ids)
    nodes = attr("search", "nodes")
    roots, pruned = attr("order", "roots"), attr("search", "roots_pruned")
    m["search.s"] = (search_s, "s")
    m["search.inner_s"] = (inner, "s")
    m["search.nodes"] = (nodes, "count")
    m["search.nodes_per_s"] = (nodes / search_s if search_s else 0.0, "1/s")
    m["search.roots"] = (roots, "count")
    m["search.roots_pruned"] = (pruned, "count")
    m["search.prune_frac"] = (pruned / roots if roots else 0.0, "ratio")

    m["spark.jobs"] = (tot("query", "jobs"), "count")

    for layer in absent:
        for key in m:
            if key.startswith(_PREFIXES[layer]):
                m[key] = (0, m[key][1])
    return m

"""Graph reduction techniques (Spark, iterative batch peeling).

Implements the paper's four reductions:

- ``colorful_core`` (Def. 3 / Lemma 1): peel vertices with
  ``min(D_a, D_b) < t``;
- ``en_colorful_core`` (Def. 5 / Lemma 2): peel vertices with
  ``ED < t``;
- ``colorful_sup_reduce`` (Lemma 3 / Algorithm 1, and the enhanced
  variant of Lemma 4): peel edges whose (enhanced) colorful supports
  fall below the attribute-pair thresholds.

The paper peels one element at a time with a priority queue; the
distributed encoding removes *all* violating elements per round and
recomputes. Both converge to the same unique maximal subgraph (the
constraints are monotone, so feasible subgraphs are closed under union —
see DESIGN.md §2); a test checks batch output == sequential reference.

Every reduction takes a colored graph (vertices ``(id, attr, color)``,
from ``color_graph_local``) and returns one, so the one coloring of G
rides along on the vertex frame. All run one edge-peel loop, ``_peel``:
a vertex with metric below t ≥ 1 is peeled by dropping its edges
(isolated, its metric is 0 and it never returns); one ``drop_isolated``
ends the loop. Each round checkpoints a ``(src, dst, ok)`` frame once
(``builder.checkpoint``), probes it for a not-ok edge, and keeps the ok
edges.

``reduce_pipeline`` chains EnColorfulCore(k−1) → ColorfulSup(k) →
EnColorfulSup(k) exactly as Algorithm 2 lines 1–3, reporting per-stage
(n, m) so the Fig-4-style reduction tables fall out for free. Every
stage runs to its exact fixpoint; ``max_rfc``, the jobs and the
benchmarks all call it the same way.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.builder import AttributedGraph, checkpoint, drop_isolated
from repro.graph.coloring import color_graph_local
from repro.core.supports import (
    edge_color_stats,
    edge_thresholds,
    enhanced_support_cols,
    vertex_color_stats,
)


def _peel(g: AttributedGraph, flag) -> AttributedGraph:
    """Drop the edges not ``ok`` in ``flag(cur)``, a ``(src, dst, ok)``
    frame, until none is left; then drop the isolated vertices."""
    cur = g.checkpointed()
    for _ in range(10_000):
        flagged = checkpoint(flag(cur))
        if flagged.where(~F.col("ok")).isEmpty():
            return drop_isolated(cur)
        cur = AttributedGraph(cur.vertices, flagged.where(F.col("ok")).select("src", "dst"))
    raise RuntimeError("peel did not converge")


def _vertex_peel(g: AttributedGraph, t: int, metric_col) -> AttributedGraph:
    """Peel vertices whose metric (a column over vertex_color_stats) < t."""
    if t <= 0:
        return g

    def flag(cur: AttributedGraph) -> DataFrame:
        ok = vertex_color_stats(cur).select("id", metric_col >= t)
        e = cur.edges.join(F.broadcast(ok.toDF("src", "ok_src")), "src")
        e = e.join(F.broadcast(ok.toDF("dst", "ok_dst")), "dst")
        return e.select("src", "dst", (F.col("ok_src") & F.col("ok_dst")).alias("ok"))

    return _peel(g, flag)


def colorful_core(g: AttributedGraph, t: int) -> AttributedGraph:
    """Maximal subgraph with min(D_a, D_b) ≥ t for every vertex (Def. 3).

    Lemma 1: any (k, δ)-fair clique lives in the colorful (k−1)-core, so
    callers pass ``t = k − 1``.
    """
    return _vertex_peel(g, t, F.least("d_a", "d_b"))


def en_colorful_core(g: AttributedGraph, t: int) -> AttributedGraph:
    """Maximal subgraph with ED(u) ≥ t for every vertex (Def. 5).

    Lemma 2: any (k, δ)-fair clique lives in the enhanced colorful
    (k−1)-core, so callers pass ``t = k − 1``.
    """
    return _vertex_peel(g, t, F.col("ed"))


def colorful_sup_reduce(g: AttributedGraph, k: int, *, enhanced: bool = False) -> AttributedGraph:
    """Edge peeling by (enhanced) colorful support — ColorfulSup /
    EnColorfulSup (Lemmas 3 and 4).

    Keeps an edge (u,v) iff its supports meet the attribute-pair
    thresholds: (a,a) → sup_a ≥ k−2 ∧ sup_b ≥ k; (b,b) mirrored;
    (a,b) → both ≥ k−1. The enhanced variant uses the greedy
    mixed-color assignment of Def. 7 instead of raw colorful supports.
    Vertices that lose all incident edges are dropped at the end.
    """
    ka, kb = edge_thresholds(k)
    sup_a, sup_b = enhanced_support_cols(ka, kb) if enhanced else (F.col("sup_a"), F.col("sup_b"))
    ok = ((sup_a >= ka) & (sup_b >= kb)).alias("ok")
    return _peel(g, lambda cur: edge_color_stats(cur).select("src", "dst", ok))


@dataclass
class ReductionReport:
    """The reduced, colored graph and per-stage (n, m, seconds) from the
    Algorithm-2 reduction pipeline."""

    graph: AttributedGraph
    stages: list[tuple[str, int, int, float]] = field(default_factory=list)

    def stage_dict(self) -> dict[str, tuple[int, int]]:
        return {name: (n, m) for name, n, m, _ in self.stages}


def reduce_pipeline(g: AttributedGraph, k: int) -> ReductionReport:
    """Algorithm 2, lines 1–3: EnColorfulCore → ColorfulSup → EnColorfulSup.

    G is colored once, on the driver (``color_graph_local``), and every
    stage reads that coloring from the vertex frame (a proper coloring
    remains proper on subgraphs — DESIGN.md §3.3.4). Every stage peels on
    Spark to its exact fixpoint.

    Returns the reduced graph, still colored, plus per-stage (n, m, seconds).
    """
    t0 = time.perf_counter()
    g = color_graph_local(g)
    n, m = g.counts()
    stages = [("original", n, m, time.perf_counter() - t0)]
    peels = (
        # At k = 1 the threshold is 0 and EnColorfulCore returns its input.
        ("encore", lambda h: drop_isolated(en_colorful_core(h, k - 1))),
        ("sup", lambda h: colorful_sup_reduce(h, k)),
        ("ensup", lambda h: colorful_sup_reduce(h, k, enhanced=True)),
    )
    cur = g
    for name, peel in peels:
        t0 = time.perf_counter()
        cur = peel(cur)
        n, m = cur.counts()
        stages.append((name, n, m, time.perf_counter() - t0))
    return ReductionReport(graph=cur, stages=stages)

"""Graph reductions, batch-peeled on the driver with numpy.

The paper's reductions over a ``ColoredGraph`` (``color_graph_local``):
``en_colorful_core`` (Def. 5 / Lemma 2) peels vertices with ``ED < t``;
``colorful_sup_reduce`` (Lemmas 3–4, Algorithm 1) peels edges whose
(enhanced) colorful supports miss the attribute-pair thresholds.

The paper peels one element at a time; each round here removes *all*
violating edges (a violating vertex loses its edges) and recomputes. The
constraints are monotone, so both reach the same unique maximal subgraph
(DESIGN.md §2); tests check batch output == sequential reference.

Color groups (c_a, c_b, c_m) of a vertex's neighbors, or of an edge's
common neighbors, are popcounts of per-owner a- and b-color bitmasks.
Common neighbors come from the triangles, each found once from its
lowest (degree, label)-ranked vertex by looking pairs of its
out-neighbors up in the sorted oriented edge keys (Chu & Cheng, KDD 2011),
a bounded block of pairs at a time, so no triangle list is ever built.

``reduce_pipeline`` collects and colors G once and chains EnColorfulCore(k−1)
→ EnColorfulSup(k), each to its exact fixpoint, reporting per-stage (n, m);
Algorithm 2's ColorfulSup between them cannot change the kernel (DESIGN.md §3.3.7).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.graph.builder import AttributedGraph
from repro.graph.coloring import ColoredGraph, color_graph_local

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)
#: Vertex pairs looked up at once when listing triangles. It bounds one
#: block's temporaries to a few hundred KB; blocks of 65,536 pairs raised
#: the driver's peak RSS by 5 MB on the benchmark's analogues.
_PAIR_BLOCK = 1 << 12


def _color_groups(g: ColoredGraph, size: int, rows) -> tuple[np.ndarray, ...]:
    """(c_a, c_b, c_m) for each owner 0..size−1 over the colors of its
    neighbors; ``rows`` yields (owner, neighbor label) array pairs."""
    words = int(g.color.max(initial=0)) // 64 + 1
    masks = np.zeros((2, size, words), dtype=np.uint64)
    for owner, nbr in rows:
        c = g.color[nbr]
        bits = np.left_shift(np.uint64(1), (c & 63).astype(np.uint64))
        np.bitwise_or.at(masks, (g.is_b[nbr].astype(np.intp), owner, c >> 6), bits)
    ma, mb = masks

    def popcount(x: np.ndarray) -> np.ndarray:
        return _POPCOUNT[x.view(np.uint8)].reshape(size, 8 * words).sum(axis=1)

    return popcount(ma & ~mb), popcount(mb & ~ma), popcount(ma & mb)


def _common_neighbors(g: ColoredGraph):
    """Yield (edge index, common neighbor label) rows, a block at a time:
    three per triangle, one for each of its edges."""
    n, m = g.n, g.m
    deg = np.bincount(g.src, minlength=n) + np.bincount(g.dst, minlength=n)
    by_rank = np.argsort(deg, kind="stable")  # (degree, label) order
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = np.arange(n)
    a, b = rank[g.src], rank[g.dst]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    key = lo * n + hi
    order = np.argsort(key)
    key, root, tip = key[order], lo[order], hi[order]
    # Out-neighbors of a root are contiguous and sorted; position p pairs
    # with the `later[p]` positions after it in its root's run.
    later = np.searchsorted(root, root, side="right") - np.arange(m) - 1
    cum = np.cumsum(later)
    cuts = np.searchsorted(cum, np.arange(_PAIR_BLOCK, cum[-1] if m else 0, _PAIR_BLOCK))
    for pos in np.split(np.arange(m), cuts):
        reps = later[pos]
        first = np.repeat(pos, reps)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(reps) - reps, reps)
        v, w = tip[first], tip[second]  # v < w: runs are sorted
        at = np.minimum(np.searchsorted(key, v * n + w), m - 1)
        hit = key[at] == v * n + w
        first, second, at = first[hit], second[hit], at[hit]
        owner = np.concatenate([order[first], order[second], order[at]])
        yield owner, by_rank[np.concatenate([tip[second], tip[first], root[first]])]


def vertex_color_stats(g: ColoredGraph) -> tuple[np.ndarray, ...]:
    """(c_a, c_b, c_m) of every vertex's neighbors, in label order; the
    colorful degrees (Def. 2) are D_a = c_a + c_m and D_b = c_b + c_m."""
    rows = [(np.concatenate([g.src, g.dst]), np.concatenate([g.dst, g.src]))]
    return _color_groups(g, g.n, rows)


def edge_color_stats(g: ColoredGraph) -> tuple[np.ndarray, ...]:
    """(c_a, c_b, c_m) of every edge's common neighbors, in edge order;
    the colorful supports (Def. 6) are c_a + c_m and c_b + c_m."""
    return _color_groups(g, g.m, _common_neighbors(g))


def enhanced_supports(c_a, c_b, c_m, ka, kb):
    """(esup_a, esup_b) by Def. 7's greedy assignment, elementwise: γ =
    min(max(0, ka − c_a), c_m) mixed colors go to a, then b takes what it
    still needs of the rest."""
    gamma = np.minimum(np.maximum(ka - c_a, 0), c_m)
    return c_a + gamma, c_b + np.minimum(np.maximum(kb - c_b, 0), c_m - gamma)


def _peel(g: ColoredGraph, keep) -> ColoredGraph:
    """Drop the edges ``keep(cur)`` rejects until it rejects none, then
    the isolated vertices. Every round but the last drops an edge."""
    while not (ok := keep(g)).all():
        g = g.keep_edges(ok)
    return g.drop_isolated()


def en_colorful_core(g: ColoredGraph, t: int) -> ColoredGraph:
    """Maximal subgraph with ED(u) ≥ t for every vertex (Def. 5); by
    Lemma 2 every (k, δ)-fair clique is in the one for t = k − 1. ED
    (Def. 4) = min(min(c_a, c_b) + c_m, ⌊(c_a + c_b + c_m)/2⌋)."""
    def keep(cur: ColoredGraph) -> np.ndarray:
        c_a, c_b, c_m = vertex_color_stats(cur)
        ok = np.minimum(np.minimum(c_a, c_b) + c_m, (c_a + c_b + c_m) // 2) >= t
        return ok[cur.src] & ok[cur.dst]

    return _peel(g, keep)


def colorful_sup_reduce(g: ColoredGraph, k: int, *, enhanced: bool = False) -> ColoredGraph:
    """ColorfulSup / EnColorfulSup (Lemmas 3 and 4): keep an edge iff its
    (enhanced, Def. 7) colorful supports meet the attribute-pair thresholds
    (a,a) → sup_a ≥ k−2 ∧ sup_b ≥ k; (b,b) mirrored; (a,b) → both ≥ k−1."""
    def keep(cur: ColoredGraph) -> np.ndarray:
        c_a, c_b, c_m = edge_color_stats(cur)
        nb = cur.is_b[cur.src].astype(np.int64) + cur.is_b[cur.dst]
        ka, kb = k - 2 + nb, k - nb
        if enhanced:
            sup_a, sup_b = enhanced_supports(c_a, c_b, c_m, ka, kb)
        else:
            sup_a, sup_b = c_a + c_m, c_b + c_m
        return (sup_a >= ka) & (sup_b >= kb)

    return _peel(g, keep)


@dataclass
class ReductionReport:
    """The colored kernel and per-stage (n, m, seconds) from the
    Algorithm-2 reduction pipeline."""

    graph: ColoredGraph
    stages: list[tuple[str, int, int, float]] = field(default_factory=list)

    def stage_dict(self) -> dict[str, tuple[int, int]]:
        return {name: (n, m) for name, n, m, _ in self.stages}


def reduce_pipeline(g: AttributedGraph, k: int) -> ReductionReport:
    """Algorithm 2, lines 1–3, without ColorfulSup: EnColorfulCore → EnColorfulSup.

    G is collected and colored once (``color_graph_local``; its time is the
    ``original`` row's), and every stage peels that coloring (a proper
    coloring stays proper on subgraphs, DESIGN.md §3.3.4). Returns the
    colored kernel and per-stage (n, m, seconds).
    """
    t0 = time.perf_counter()
    cur = color_graph_local(g)
    stages = [("original", cur.n, cur.m, time.perf_counter() - t0)]
    peels = (
        ("encore", lambda h: en_colorful_core(h, k - 1)),
        ("ensup", lambda h: colorful_sup_reduce(h, k, enhanced=True)),
    )
    for name, peel in peels:
        t0 = time.perf_counter()
        cur = peel(cur)
        stages.append((name, cur.n, cur.m, time.perf_counter() - t0))
    return ReductionReport(graph=cur, stages=stages)

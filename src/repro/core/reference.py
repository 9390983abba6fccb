"""Sequential reference implementations — oracles for the reductions
and for CalColorOD.

These mirror the paper's definitions directly over a ``LocalGraph``
(python sets, one element at a time), so tests can assert that the
vectorised batch-peeling implementations in ``core/reduction.py``
compute exactly the same maximal subgraphs, and that ``core/order.py``'s
array peel gives the order, colorful core numbers and colorful
degeneracy of the dict-and-heap ``colorful_peel`` here. Not used by the
production pipeline.
"""
from __future__ import annotations

import heapq

from repro.graph.local import LocalGraph

ATTR_A = "a"
ATTR_B = "b"


def enhanced_colorful_degree(c_a: int, c_b: int, c_m: int) -> int:
    """ED (Def. 4): optimal min-side after assigning mixed colors."""
    return min(c_a + c_m, c_b + c_m, (c_a + c_b + c_m) // 2)


def vertex_groups(lg: LocalGraph, alive: set[int], v: int) -> tuple[int, int, int]:
    """(c_a, c_b, c_m) color groups of v's neighborhood within ``alive``."""
    attrs_by_color: dict[int, set[str]] = {}
    for u in lg.adj[v]:
        if u in alive:
            attrs_by_color.setdefault(lg.color[u], set()).add(lg.attr[u])
    c_a = sum(1 for s in attrs_by_color.values() if s == {ATTR_A})
    c_b = sum(1 for s in attrs_by_color.values() if s == {ATTR_B})
    c_m = sum(1 for s in attrs_by_color.values() if len(s) == 2)
    return c_a, c_b, c_m


def reference_core_peel(lg: LocalGraph, t: int) -> set[int]:
    """Sequential EnColorfulCore: one vertex removed per step."""
    alive = set(lg.adj)
    if t <= 0:
        return alive
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            if enhanced_colorful_degree(*vertex_groups(lg, alive, v)) < t:
                alive.discard(v)
                changed = True
                break  # strictly one-at-a-time
    return alive


def edge_groups(
    lg: LocalGraph, edges: set[tuple[int, int]], u: int, v: int
) -> tuple[int, int, int]:
    """(c_a, c_b, c_m) over common neighbors of u,v w.r.t. ``edges``."""
    def nbrs(x):
        return {
            y
            for y in lg.adj[x]
            if (min(x, y), max(x, y)) in edges
        }

    attrs_by_color: dict[int, set[str]] = {}
    for w in nbrs(u) & nbrs(v):
        attrs_by_color.setdefault(lg.color[w], set()).add(lg.attr[w])
    c_a = sum(1 for s in attrs_by_color.values() if s == {ATTR_A})
    c_b = sum(1 for s in attrs_by_color.values() if s == {ATTR_B})
    c_m = sum(1 for s in attrs_by_color.values() if len(s) == 2)
    return c_a, c_b, c_m


def thresholds(lg: LocalGraph, u: int, v: int, k: int) -> tuple[int, int]:
    """(ka, kb) per Lemma 3/4 from the endpoint attributes."""
    au, av = lg.attr[u], lg.attr[v]
    if au == ATTR_A and av == ATTR_A:
        return k - 2, k
    if au == ATTR_B and av == ATTR_B:
        return k, k - 2
    return k - 1, k - 1


def enhanced_sups(c_a: int, c_b: int, c_m: int, ka: int, kb: int) -> tuple[int, int]:
    """Def. 7 greedy mixed-color assignment → (esup_a, esup_b)."""
    gamma = min(max(0, ka - c_a), c_m) if c_a < ka else 0
    esa = c_a + gamma
    rem = c_m - gamma
    esb = c_b + min(max(0, kb - c_b), rem) if c_b < kb else c_b
    return esa, esb


def reference_sup_peel(
    lg: LocalGraph, k: int, *, enhanced: bool
) -> set[tuple[int, int]]:
    """Sequential (En)ColorfulSup: one edge removed per step (Alg. 1)."""
    edges = {
        (min(u, v), max(u, v)) for u in lg.adj for v in lg.adj[u]
    }
    changed = True
    while changed:
        changed = False
        for (u, v) in sorted(edges):
            c_a, c_b, c_m = edge_groups(lg, edges, u, v)
            ka, kb = thresholds(lg, u, v, k)
            if enhanced:
                sa, sb = enhanced_sups(c_a, c_b, c_m, ka, kb)
            else:
                sa, sb = c_a + c_m, c_b + c_m  # plain colorful supports
            if sa < ka or sb < kb:
                edges.discard((u, v))
                changed = True
                break
    return edges


def colorful_peel(lg: LocalGraph) -> tuple[list[int], dict[int, int], int]:
    """Peel by min colorful degree with a heap of (D_min, id).

    Returns (removal order, colorful core number per vertex, colorful
    degeneracy) under ``lg``'s own coloring.
    """
    # Per-vertex multiset of neighbor (attr, color) pairs and distinct
    # color counts per attribute.
    cnt: dict[int, dict[tuple[str, int], int]] = {}
    d: dict[int, dict[str, int]] = {}
    for v, nbrs in lg.adj.items():
        c: dict[tuple[str, int], int] = {}
        for u in nbrs:
            key = (lg.attr[u], lg.color[u])
            c[key] = c.get(key, 0) + 1
        cnt[v] = c
        d[v] = {
            ATTR_A: len({col for (at, col) in c if at == ATTR_A}),
            ATTR_B: len({col for (at, col) in c if at == ATTR_B}),
        }

    def dmin(v: int) -> int:
        return min(d[v][ATTR_A], d[v][ATTR_B])

    heap = [(dmin(v), v) for v in lg.adj]
    heapq.heapify(heap)
    alive = set(lg.adj)
    order: list[int] = []
    ccore: dict[int, int] = {}
    running = 0
    while heap:
        val, v = heapq.heappop(heap)
        if v not in alive or val != dmin(v):
            continue  # stale heap entry
        alive.discard(v)
        running = max(running, val)
        ccore[v] = running
        order.append(v)
        key = (lg.attr[v], lg.color[v])
        for u in lg.adj[v]:
            if u not in alive:
                continue
            cnt[u][key] -= 1
            if cnt[u][key] == 0:
                del cnt[u][key]
                d[u][key[0]] -= 1
                heapq.heappush(heap, (dmin(u), u))
    return order, ccore, running

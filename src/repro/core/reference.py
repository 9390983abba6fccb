"""Sequential reference implementations — oracles for the reductions.

These mirror the paper's definitions directly over a ``LocalGraph``
(python sets, one element at a time), so tests can assert that the
vectorised batch-peeling implementations in ``core/reduction.py``
compute exactly the same maximal subgraphs. Not used by the production
pipeline.
"""
from __future__ import annotations

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


def reference_core_peel(lg: LocalGraph, t: int, *, enhanced: bool) -> set[int]:
    """Sequential (En)ColorfulCore: one vertex removed per step."""
    alive = set(lg.adj)
    if t <= 0:
        return alive
    changed = True
    while changed:
        changed = False
        for v in sorted(alive):
            c_a, c_b, c_m = vertex_groups(lg, alive, v)
            val = (
                enhanced_colorful_degree(c_a, c_b, c_m)
                if enhanced
                else min(c_a + c_m, c_b + c_m)  # D_min = min(D_a, D_b)
            )
            if val < t:
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

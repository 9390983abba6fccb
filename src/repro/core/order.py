"""Colorful-core peeling: ordering (CalColorOD) and colorful degeneracy.

The branch-and-bound processes root vertices in the *colorful core based
ordering* of [23], [24]: repeatedly remove the vertex with the smallest
current ``D_min = min(D_a, D_b)`` (colorful degrees, Def. 2); the
removal sequence is the ordering. The running maximum of the removal
values is the **colorful degeneracy** (Def. 9), and per-vertex colorful
core numbers (Def. 8) follow the standard generalized-peeling argument
(D_min is monotone under vertex removal).
"""
from __future__ import annotations

import heapq

from repro.graph.local import LocalGraph


def colorful_peel(lg: LocalGraph) -> tuple[list[int], dict[int, int], int]:
    """Peel by min colorful degree.

    Returns (removal order, ccore numbers per vertex, colorful degeneracy)
    under ``lg``'s own coloring.
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
            "a": len({col for (at, col) in c if at == "a"}),
            "b": len({col for (at, col) in c if at == "b"}),
        }

    def dmin(v: int) -> int:
        return min(d[v]["a"], d[v]["b"])

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
    degeneracy = max(ccore.values(), default=0)
    return order, ccore, degeneracy


def cal_color_od(lg: LocalGraph) -> list[int]:
    """CalColorOD: the colorful-core peeling order used for root vertices."""
    order, _, _ = colorful_peel(lg)
    return order


def colorful_degeneracy(lg: LocalGraph) -> int:
    """Colorful degeneracy (Def. 9): max colorful core number."""
    _, _, deg = colorful_peel(lg)
    return deg


def colorful_dmin_per_vertex(lg: LocalGraph) -> dict[int, int]:
    """D_min(v) = min(D_a, D_b) for every vertex (Def. 2 / Def. 10)."""
    out: dict[int, int] = {}
    for v, nbrs in lg.adj.items():
        c_a, c_b, c_m = lg.color_groups(nbrs)
        out[v] = min(c_a, c_b) + c_m
    return out

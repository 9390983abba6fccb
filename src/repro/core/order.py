"""Colorful-core peeling: ordering (CalColorOD) and colorful degeneracy.

The branch-and-bound processes root vertices in the *colorful core based
ordering* of [23], [24]: repeatedly remove the vertex with the smallest
current ``D_min = min(D_a, D_b)`` (colorful degrees, Def. 2); the
removal sequence is the ordering. The running maximum of the removal
values is the **colorful degeneracy** (Def. 9), and per-vertex colorful
core numbers (Def. 8) follow the standard generalized-peeling argument
(D_min is monotone under vertex removal).

The peel runs on a ``ColoredGraph``'s arrays: a per-vertex count of
neighbours per (attribute, color), D_a and D_b as the number of nonzero
a- and b-counts, and an argmin over D_min per removal, so ties go to the
lowest label, which is the lowest id (the order of ``core/reference.py``'s
dict-and-heap ``colorful_peel``, the oracle it is tested against). The
argmin makes a removal O(n); DESIGN.md §3.2 records the kernel sizes
this was measured at against a lazy-heap peel.
"""
from __future__ import annotations

import numpy as np

from repro.graph.coloring import ColoredGraph


def _neighbour_counts(g: ColoredGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(cnt, key, d_a, d_b): ``cnt[v, key[u]]`` counts v's neighbours with
    u's (attribute, color), and d_a / d_b are v's colorful degrees."""
    colors = int(g.color.max(initial=-1)) + 1
    key = g.is_b * colors + g.color
    flat = np.concatenate([g.src * 2 * colors + key[g.dst], g.dst * 2 * colors + key[g.src]])
    cnt = np.bincount(flat, minlength=g.n * 2 * colors).reshape(g.n, 2 * colors)
    present = cnt > 0
    return cnt, key, present[:, :colors].sum(axis=1), present[:, colors:].sum(axis=1)


def colorful_dmin(g: ColoredGraph) -> np.ndarray:
    """D_min(v) = min(D_a, D_b) for every label (Def. 2 / Def. 10)."""
    _, _, d_a, d_b = _neighbour_counts(g)
    return np.minimum(d_a, d_b)


def colorful_peel(g: ColoredGraph) -> tuple[np.ndarray, np.ndarray, int]:
    """Peel by min colorful degree, lowest label first among ties.

    Returns (removal order as labels, colorful core number per label,
    colorful degeneracy) under ``g``'s own coloring.
    """
    cnt, key, d_a, d_b = _neighbour_counts(g)
    start, nbr = g.neighbours()
    dmin = np.minimum(d_a, d_b)
    gone = np.iinfo(dmin.dtype).max  # D_min of a removed vertex
    order = np.empty(g.n, dtype=np.int64)
    ccore = np.empty(g.n, dtype=np.int64)
    running = 0
    for i in range(g.n):
        v = int(dmin.argmin())
        running = max(running, int(dmin[v]))
        order[i], ccore[v], dmin[v] = v, running, gone
        u = nbr[start[v]:start[v + 1]]
        u = u[dmin[u] != gone]
        left = cnt[u, key[v]] - 1
        cnt[u, key[v]] = left
        u = u[left == 0]  # lost their last neighbour of v's (attribute, color)
        if len(u):
            (d_b if g.is_b[v] else d_a)[u] -= 1
            dmin[u] = np.minimum(d_a[u], d_b[u])
    return order, ccore, running


def cal_color_od(g: ColoredGraph) -> np.ndarray:
    """CalColorOD: the colorful-core peeling order used for root vertices."""
    order, _, _ = colorful_peel(g)
    return order


def colorful_degeneracy(g: ColoredGraph) -> int:
    """Colorful degeneracy (Def. 9): the largest t whose colorful t-core
    is nonempty."""
    return colorful_peel(g)[2]

"""Upper bounds on MRFC(R, C) — the max fair-clique size in a branch.

Implements the paper's full bound family (Lemmas 5–14). Each bound takes
the induced subgraph of R ∪ C as a ``ColoredGraph``, which keeps G's
coloring (the paper recolors G' per branch; DESIGN.md §3.3.4), and
returns an integer upper bound on the size of any (k, δ)-fair clique
inside it, computed on the subgraph's arrays.

ub_AD (Lemmas 5–9) is computed only by the search's per-node coloring
(``branch._classes``); the Lemma 5–9 functions here are its tested
references, and ``compute_ub`` gives a root a combo's extra bound.

Soundness adjustments vs. the printed lemmas (DESIGN.md §3.3):

- Lemma 9's printed formula can undercut valid cliques; we use the
  derivation the text describes (assign mixed color groups to the scarce
  attribute): ``T`` if balanceable within δ else ``2·(min+c_m)+δ``.
- Degeneracy/h-index bound |K|−1, not |K|, so Lemmas 10–13 get a ``+1``
  (``△+1``, ``h+1``, ``2·(ccore_max+1)+δ``, ``2·(h̄+1)+δ``), each capped
  by |V(G')|. Validity of every bound is tested against brute force.
"""
from __future__ import annotations

import numpy as np

from repro.graph.coloring import ColoredGraph
from repro.core.order import colorful_degeneracy, colorful_dmin

#: Table-II bound configurations: "s" (size only), "ad" (ub_AD = min of
#: Lemmas 5–9) and "ad" plus one extra root bound (Lemmas 10–14).
COMBOS = ("s", "ad", "ad+deg", "ad+h", "ad+cd", "ad+ch", "ad+cp")


def check_combo(combo: str) -> None:
    """Raise ``ValueError`` unless ``combo`` is one of ``COMBOS``."""
    if combo not in COMBOS:
        raise ValueError(f"unknown bound combo {combo!r}; expected one of {COMBOS}")


def _fair_pair(x: int, y: int, delta: int) -> int:
    """max total of a (≥0) pair capped at counts (x, y) with |diff| ≤ δ."""
    if abs(x - y) <= delta:
        return x + y
    return 2 * min(x, y) + delta


def h_index(values: np.ndarray) -> int:
    """Max h with ≥ h of ``values`` at least h."""
    return int((np.sort(values)[::-1] >= np.arange(1, len(values) + 1)).sum())


# -- Lemma 5–9: the "advanced" group ub_AD -----------------------------

def color_groups(sub: ColoredGraph) -> tuple[int, int, int]:
    """(c_a, c_b, c_m): colors of ``sub`` held only by a-vertices, only by
    b-vertices, and by both (mixed)."""
    cols_a, cols_b = np.unique(sub.color[~sub.is_b]), np.unique(sub.color[sub.is_b])
    c_m = len(np.intersect1d(cols_a, cols_b, assume_unique=True))
    return len(cols_a) - c_m, len(cols_b) - c_m, c_m


def ub_size(sub: ColoredGraph) -> int:
    """Lemma 5: |R| + |C|."""
    return sub.n


def ub_attr(sub: ColoredGraph, delta: int) -> int:
    """Lemma 6: attribute counts with the δ balance cap."""
    nb = int(sub.is_b.sum())
    return _fair_pair(sub.n - nb, nb, delta)


def ub_color(sub: ColoredGraph) -> int:
    """Lemma 7: number of colors of a greedy coloring of G'."""
    return sum(color_groups(sub))


def ub_attr_color(sub: ColoredGraph, delta: int) -> int:
    """Lemma 8: per-attribute color counts with the δ balance cap."""
    c_a, c_b, c_m = color_groups(sub)
    return _fair_pair(c_a + c_m, c_b + c_m, delta)


def ub_en_attr_color(sub: ColoredGraph, delta: int) -> int:
    """Lemma 9 (corrected form): exclusive/mixed color-group bound."""
    return _en_attr_color(*color_groups(sub), delta)


def _en_attr_color(c_a: int, c_b: int, c_m: int, delta: int) -> int:
    lo, hi = min(c_a, c_b), max(c_a, c_b)
    if lo + c_m >= hi - delta:
        return c_a + c_b + c_m
    return 2 * (lo + c_m) + delta


# -- Lemmas 10–11: classic structural bounds ---------------------------

def degeneracy(sub: ColoredGraph) -> int:
    """Max core number, peeled in batch rounds: each round raises t to
    the smallest live degree and drops every live vertex of degree ≤ t,
    which no (t+1)-core holds."""
    keep = np.ones(sub.n, dtype=bool)
    t = 0
    while keep.any():
        deg = sub.live_degrees(keep)
        t = max(t, int(deg[keep].min()))
        keep &= deg > t
    return t


def ub_degeneracy(sub: ColoredGraph) -> int:
    """Lemma 10 (sound form): clique size ≤ degeneracy + 1."""
    return min(sub.n, degeneracy(sub) + 1)


def ub_h_index(sub: ColoredGraph) -> int:
    """Lemma 11 (sound form): clique size ≤ h-index + 1."""
    return min(sub.n, h_index(sub.degrees()) + 1)


# -- Lemmas 12–14: colorful structural bounds --------------------------

def ub_colorful_degeneracy(sub: ColoredGraph, delta: int) -> int:
    """Lemma 12 (sound form).

    Every vertex of a fair clique with counts (x_a, x_b) has colorful
    core number ≥ min(x_a, x_b) − 1, so
    size ≤ 2·(colorful degeneracy + 1) + δ. The degeneracy is peeled
    on ``sub``'s arrays, with its (G's) coloring.
    """
    return min(sub.n, 2 * (colorful_degeneracy(sub) + 1) + delta)


def ub_colorful_h(sub: ColoredGraph, delta: int) -> int:
    """Lemma 13 (sound form): size ≤ 2·(colorful h-index + 1) + δ, over
    every vertex's D_min = min(c_a, c_b) + c_m of its neighbours, the
    D_min CalColorOD peels by."""
    return min(sub.n, 2 * (h_index(colorful_dmin(sub)) + 1) + delta)


def ub_colorful_path(sub: ColoredGraph) -> int:
    """Lemma 14 / Algorithm 4: longest colorful path in the color DAG.

    A proper coloring orients every edge from its lower to its higher
    color, so every directed path is strictly color-increasing, hence
    colorful, and every clique is such a path. The longest path ending
    at a vertex is final once every lower color is done, so one
    ``np.maximum.at`` over the edges into each color layer, lowest
    first, gives every vertex's.
    """
    c = sub.color
    tail = np.where(c[sub.src] < c[sub.dst], sub.src, sub.dst)
    head = sub.src + sub.dst - tail
    by_color = np.argsort(c[head], kind="stable")
    tail, head = tail[by_color], head[by_color]
    ends = np.append(np.flatnonzero(np.diff(c[head])) + 1, len(head)).tolist()
    f = np.ones(sub.n, dtype=np.int64)
    a = 0
    for b in ends:  # the edges into one color layer
        np.maximum.at(f, head[a:b], f[tail[a:b]] + 1)
        a = b
    return int(f.max(initial=0))


def compute_ub(sub: ColoredGraph, delta: int, combo: str) -> int:
    """A combo's extra root bound on the branch subgraph ``sub`` (ub_△,
    ub_h, ub_cd, ub_ch or ub_cp); ub_size for "s" and "ad", which have
    none."""
    if combo in ("s", "ad"):
        return ub_size(sub)
    extra = combo.partition("+")[2]
    if extra == "deg":
        return ub_degeneracy(sub)
    if extra == "h":
        return ub_h_index(sub)
    if extra == "cd":
        return ub_colorful_degeneracy(sub, delta)
    if extra == "ch":
        return ub_colorful_h(sub, delta)
    if extra == "cp":
        return ub_colorful_path(sub)
    raise ValueError(f"unknown bound combo: {combo}")

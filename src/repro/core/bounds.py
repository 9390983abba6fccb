"""Upper bounds on MRFC(R, C) — the max fair-clique size in a branch.

Implements the paper's full bound family (Lemmas 5–14). Each bound takes
the induced subgraph of R ∪ C, which keeps G's coloring (the paper
recolors G' per branch; DESIGN.md §3.3.4), and returns an integer upper
bound on the size of any (k, δ)-fair clique inside it: ub_cd takes it
as a ``ColoredGraph`` and peels its arrays, every other bound as a
``LocalGraph``.

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

from repro.graph.coloring import ColoredGraph
from repro.graph.local import LocalGraph, h_index
from repro.core.order import colorful_degeneracy

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


# -- Lemma 5–9: the "advanced" group ub_AD -----------------------------

def ub_size(sub: LocalGraph) -> int:
    """Lemma 5: |R| + |C|."""
    return sub.n


def ub_attr(sub: LocalGraph, delta: int) -> int:
    """Lemma 6: attribute counts with the δ balance cap."""
    na, nb = sub.attr_counts(sub.adj)
    return _fair_pair(na, nb, delta)


def ub_color(sub: LocalGraph) -> int:
    """Lemma 7: number of colors of a greedy coloring of G'."""
    return sum(sub.color_groups(sub.adj))


def ub_attr_color(sub: LocalGraph, delta: int) -> int:
    """Lemma 8: per-attribute color counts with the δ balance cap."""
    c_a, c_b, c_m = sub.color_groups(sub.adj)
    return _fair_pair(c_a + c_m, c_b + c_m, delta)


def ub_en_attr_color(sub: LocalGraph, delta: int) -> int:
    """Lemma 9 (corrected form): exclusive/mixed color-group bound."""
    return _en_attr_color(*sub.color_groups(sub.adj), delta)


def _en_attr_color(c_a: int, c_b: int, c_m: int, delta: int) -> int:
    lo, hi = min(c_a, c_b), max(c_a, c_b)
    if lo + c_m >= hi - delta:
        return c_a + c_b + c_m
    return 2 * (lo + c_m) + delta


# -- Lemmas 10–11: classic structural bounds ---------------------------

def ub_degeneracy(sub: LocalGraph) -> int:
    """Lemma 10 (sound form): clique size ≤ degeneracy + 1."""
    return min(sub.n, sub.degeneracy() + 1)


def ub_h_index(sub: LocalGraph) -> int:
    """Lemma 11 (sound form): clique size ≤ h-index + 1."""
    return min(sub.n, sub.h_index() + 1)


# -- Lemmas 12–14: colorful structural bounds --------------------------

def ub_colorful_degeneracy(sub: ColoredGraph, delta: int) -> int:
    """Lemma 12 (sound form).

    Every vertex of a fair clique with counts (x_a, x_b) has colorful
    core number ≥ min(x_a, x_b) − 1, so
    size ≤ 2·(colorful degeneracy + 1) + δ. The degeneracy is peeled
    on ``sub``'s arrays, with its (G's) coloring.
    """
    return min(sub.n, 2 * (colorful_degeneracy(sub) + 1) + delta)


def ub_colorful_h(sub: LocalGraph, delta: int) -> int:
    """Lemma 13 (sound form): size ≤ 2·(colorful h-index + 1) + δ, over
    every vertex's D_min = min(c_a, c_b) + c_m of its neighbours."""
    dmins = [min(c_a, c_b) + c_m for c_a, c_b, c_m in map(sub.color_groups, sub.adj.values())]
    return min(sub.n, 2 * (h_index(dmins) + 1) + delta)


def ub_colorful_path(sub: LocalGraph) -> int:
    """Lemma 14 / Algorithm 4: longest colorful path in the color DAG.

    Edges are oriented low→high by (color, id); proper coloring makes
    every directed path strictly color-increasing, hence colorful, and
    every clique is such a path. DP over the topological (color, id)
    order gives the longest one in O(V + E).
    """
    if not sub.adj:
        return 0
    verts = sorted(sub.adj, key=lambda v: (sub.color[v], v))
    f = {v: 1 for v in verts}
    best = 1
    for v in verts:  # topological order of the DAG
        kv = (sub.color[v], v)
        for u in sub.adj[v]:
            if (sub.color[u], u) < kv:  # edge u -> v
                if f[u] + 1 > f[v]:
                    f[v] = f[u] + 1
        best = max(best, f[v])
    return best


def compute_ub(sub: ColoredGraph | LocalGraph, delta: int, combo: str) -> int:
    """A combo's extra root bound on the branch subgraph ``sub`` (ub_△,
    ub_h, ub_cd, ub_ch or ub_cp); ub_size for "s" and "ad", which have
    none. ``sub`` is a ``ColoredGraph`` for ub_cd, which peels its
    arrays, and a ``LocalGraph`` for the others."""
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

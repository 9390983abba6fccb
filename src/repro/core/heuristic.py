"""Heuristic fair-clique search: DegHeur, ColorfulDegHeur, HeurRFC.

Algorithm 5 (DegHeur) greedily grows a clique, alternating attributes:
start from the globally best-scoring vertex, then at each step add the
best-scoring candidate of the requested attribute; once one attribute's
candidates run out, fix ``a_max = cnt + δ`` and cap both sides at it.
``ColorfulDegHeur`` is the same with score = min(D_a, D_b) (colorful
degree) instead of degree. The final set is a clique by construction;
it is returned only if it meets the fairness constraints.

Algorithm 6 (HeurRFC) runs DegHeur, prunes to the (|R*|−1)-core, runs
ColorfulDegHeur, keeps the larger clique, and reports the number of
colors the residual graph keeps from G's coloring as a global upper
bound (Lemma 7; a subgraph inherits its graph's coloring).

Both run in O(|V| + |E|) on the driver-side kernel.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.graph.local import LocalGraph
from repro.core.order import colorful_dmin_per_vertex

ATTR_A = "a"
ATTR_B = "b"


def _other(attr: str) -> str:
    return ATTR_B if attr == ATTR_A else ATTR_A


def _greedy(lg: LocalGraph, k: int, delta: int, score: dict[int, float]) -> list[int]:
    """Shared greedy core of DegHeur / ColorfulDegHeur (Algorithm 5)."""
    if not lg.adj:
        return []
    v0 = max(lg.adj, key=lambda v: (score[v], -v))
    R = [v0]
    cnt = {ATTR_A: 0, ATTR_B: 0}
    cnt[lg.attr[v0]] += 1
    C = set(lg.adj[v0])
    attr_choose = _other(lg.attr[v0])
    a_max: int | None = None
    while C:
        if a_max is not None:
            # Lines 12–13: cap both attribute counts at a_max.
            for x in (ATTR_A, ATTR_B):
                if cnt[x] >= a_max:
                    C = {v for v in C if lg.attr[v] != x}
            if not C:
                break
        cand = [v for v in C if lg.attr[v] == attr_choose]
        if not cand:
            # Lines 9–11 & 16–18: fix a_max on first exhaustion, switch.
            if a_max is None:
                a_max = cnt[attr_choose] + delta
            attr_choose = _other(attr_choose)
            if not any(lg.attr[v] == attr_choose for v in C):
                break
            continue
        v = max(cand, key=lambda u: (score[u], -u))
        R.append(v)
        cnt[lg.attr[v]] += 1
        C &= lg.adj[v]
        attr_choose = _other(lg.attr[v])
    na, nb = cnt[ATTR_A], cnt[ATTR_B]
    if na >= k and nb >= k and abs(na - nb) <= delta:
        return R
    return []


def deg_heur(lg: LocalGraph, k: int, delta: int) -> list[int]:
    """Algorithm 5: degree-based greedy fair clique ([] if it fails)."""
    score = {v: float(len(lg.adj[v])) for v in lg.adj}
    return _greedy(lg, k, delta, score)


def colorful_deg_heur(lg: LocalGraph, k: int, delta: int) -> list[int]:
    """ColorfulDegHeur: greedy by min colorful degree ([] if it fails)."""
    score = {v: float(d) for v, d in colorful_dmin_per_vertex(lg).items()}
    return _greedy(lg, k, delta, score)


@dataclass
class HeurResult:
    """HeurRFC output: clique, color-count upper bound, pruned graph."""

    clique: list[int]
    ub: int
    graph: LocalGraph

    @property
    def size(self) -> int:
        return len(self.clique)


def heur_rfc(lg: LocalGraph, k: int, delta: int) -> HeurResult:
    """Algorithm 6: combined heuristic framework.

    The returned ``graph`` is the (|R*|−1)-core of the input; any larger
    fair clique must live inside it, so MaxRFC can search it instead of
    the full kernel.
    """
    g = lg
    best = deg_heur(g, k, delta)
    if best:
        g = g.k_core(len(best) - 1)
    r2 = colorful_deg_heur(g, k, delta) if g.adj else []
    if len(r2) > len(best):
        best = r2
        g = g.k_core(len(best) - 1)
    ub = len(set(g.color.values()))
    return HeurResult(clique=best, ub=max(ub, len(best)), graph=g)

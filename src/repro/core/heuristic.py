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

Everything runs on the ``ColoredGraph`` kernel's arrays: the candidates
are a boolean mask over labels, narrowed by each chosen vertex's CSR
neighbours, and a best candidate is an argmax of the scores, so ties go
to the lowest label, which is the lowest id. Cliques are returned as ids.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.coloring import ColoredGraph
from repro.core.order import colorful_dmin


def _greedy(g: ColoredGraph, k: int, delta: int, score: np.ndarray) -> list[int]:
    """Shared greedy core of DegHeur / ColorfulDegHeur (Algorithm 5)."""
    if not g.n:
        return []
    start, nbr = g.neighbours()
    is_b = g.is_b

    def narrow(C: np.ndarray, v: int) -> np.ndarray:
        keep = np.zeros(g.n, dtype=bool)
        keep[nbr[start[v]:start[v + 1]]] = True
        return C & keep

    v = int(score.argmax())
    R = [v]
    cnt = [0, 0]  # a-, b-vertices in R
    cnt[int(is_b[v])] += 1
    C = narrow(np.ones(g.n, dtype=bool), v)
    choose_b = not is_b[v]
    a_max: int | None = None
    while C.any():
        if a_max is not None:
            # Lines 12–13: cap both attribute counts at a_max.
            for side in (False, True):
                if cnt[side] >= a_max:
                    C &= is_b != side
            if not C.any():
                break
        cand = C & (is_b == choose_b)
        if not cand.any():
            # Lines 9–11 & 16–18: fix a_max on first exhaustion, switch.
            if a_max is None:
                a_max = cnt[choose_b] + delta
            choose_b = not choose_b
            if not (C & (is_b == choose_b)).any():
                break
            continue
        v = int(np.where(cand, score, -1).argmax())
        R.append(v)
        cnt[int(is_b[v])] += 1
        C = narrow(C, v)
        choose_b = not is_b[v]
    na, nb = cnt
    if na >= k and nb >= k and abs(na - nb) <= delta:
        return g.ids[R].tolist()
    return []


def deg_heur(g: ColoredGraph, k: int, delta: int) -> list[int]:
    """Algorithm 5: degree-based greedy fair clique ([] if it fails)."""
    return _greedy(g, k, delta, g.degrees())


def colorful_deg_heur(g: ColoredGraph, k: int, delta: int) -> list[int]:
    """ColorfulDegHeur: greedy by min colorful degree ([] if it fails)."""
    return _greedy(g, k, delta, colorful_dmin(g))


@dataclass
class HeurResult:
    """HeurRFC output: clique (ids), color-count upper bound, pruned graph."""

    clique: list[int]
    ub: int
    graph: ColoredGraph

    @property
    def size(self) -> int:
        return len(self.clique)


def heur_rfc(g: ColoredGraph, k: int, delta: int) -> HeurResult:
    """Algorithm 6: combined heuristic framework.

    The returned ``graph`` is the (|R*|−1)-core of the input; any larger
    fair clique must live inside it, so MaxRFC can search it instead of
    the full kernel.
    """
    best = deg_heur(g, k, delta)
    if best:
        g = g.k_core(len(best) - 1)
    r2 = colorful_deg_heur(g, k, delta)
    if len(r2) > len(best):
        best = r2
        g = g.k_core(len(best) - 1)
    ub = len(np.unique(g.color))
    return HeurResult(clique=best, ub=max(ub, len(best)), graph=g)

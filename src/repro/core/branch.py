"""Branch-and-bound maximum fair clique search on the reduced kernel.

Implements the search of Algorithms 2–3 with one deliberate fix
(DESIGN.md §3.3.1): the printed pseudo-code applies the CalColorOD
ordering filter at every recursion level *and* strictly alternates
attributes, which is incomplete (see
``tests/test_branch.py::test_paper_literal_ordering_is_incomplete``).
We keep the ordering restriction at the root level only (each clique has
a unique earliest root vertex, so every clique is enumerated exactly
once) and replace the alternation's fairness role with provably-sound
bounds.

The ``ColoredGraph`` kernel is reindexed by the CalColorOD order: bit
``i`` of a candidate set is ``order[i]``, a candidate set is a
Python-int bitset, and a child's candidates are one ``&`` with the
branch vertex's neighbour bitset (BBMC: San Segundo et al., Comput.
Oper. Res. 2011). The bitsets are built from the kernel's edge arrays,
one ``uint64`` word row per vertex, turned into ints by ``int.from_bytes``.
Every node splits its candidates P into classes of pairwise
non-adjacent vertices, each with a bound on the fair cliques through
that class, and expands the classes from the highest bound down,
returning at the first bound that cannot beat the incumbent (MCQ/MCS:
Tomita & Kameda, J. Glob. Optim. 2007):

- ``ub_combo="s"``, the basic framework of Fig. 6: every vertex is its
  own class, in descending bit order, so a class's bound is the
  Lemma-5 size bound |R| + c and the candidates are expanded lowest bit
  first, each child taking the later candidates ∩ N(v);
- every other combo: ub_AD (Lemmas 5–9), implemented here only: a greedy
  coloring of P, highest bit first, so the vertices latest in CalColorOD
  order (the highest colorful cores) take the first classes; class c's
  vertices get ``min(|R| + c, fair(na + Xa(c), nb + Xb(c)))``, Xa(c) /
  Xb(c) counting the classes ≤ c with an a- / b-vertex and ``fair``
  being Lemma 6's cap (0 if a side stays below k). That is Lemmas 7–8,
  hence 5–9: 7 ≤ 5, 8 ≤ 6, and the corrected 9 is min(7, 8).

A root adds only a combo's extra bound (Lemmas 10–14), on the root's
subgraph with the kernel's coloring — the paper applies the expensive
bounds "when selecting vertices to be added to R for the first time"
(§VI-B). Every extra bound reads that subgraph as the kernel's induced
``ColoredGraph``.

Fairness is checked at *every* node (it is not monotone: extending a
fair clique can break the δ balance), so the maximum is never missed.
"""
from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field

import numpy as np

from repro.graph.coloring import ColoredGraph
from repro.core.bounds import check_combo, compute_ub
from repro.core.order import cal_color_od


@dataclass
class SearchResult:
    """Outcome of a branch-and-bound run."""

    clique: list[int]
    nodes: int = 0
    roots_pruned: int = 0
    completed: bool = True
    seconds: float = 0.0

    @property
    def size(self) -> int:
        return len(self.clique)


@dataclass
class _State:
    """The bitset kernel and the incumbent of one search.

    ``order[i]`` is the id of bit ``i``, ``nbr[i]`` its neighbour bitset
    and ``nonadj[i]`` the complement without ``i``; ``amask`` holds the
    a-vertices (the rest are b) and ``R`` the current clique as a stack
    of bit indices.
    """

    order: list[int]
    nbr: list[int]
    nonadj: list[int]
    amask: int
    k: int
    delta: int
    colored: bool
    best: list[int]
    R: list[int] = field(default_factory=list)
    nodes: int = 0
    deadline: float | None = None
    timed_out: bool = False
    roots_pruned: int = 0


def check_query(k: int, delta: int, ub_combo: str, time_limit: float | None) -> None:
    """Validate a search query: integral k ≥ 1 and δ ≥ 0 (``TypeError``
    if not integral, else ``ValueError``), a combo of ``bounds.COMBOS``
    and a positive ``time_limit`` or ``None`` (``ValueError``)."""
    try:
        operator.index(k), operator.index(delta)
    except TypeError:
        raise TypeError(f"k and delta must be integers, got k={k!r}, delta={delta!r}") from None
    if k < 1 or delta < 0:
        raise ValueError(f"need k >= 1 and delta >= 0, got k={k}, delta={delta}")
    check_combo(ub_combo)
    if time_limit is not None and not time_limit > 0:
        raise ValueError(f"time_limit must be positive or None, got {time_limit!r}")


def _bitsets(g: ColoredGraph, order: np.ndarray) -> tuple[list[int], int]:
    """(neighbour bitset of each vertex, a-vertex mask), bit ``i`` being
    ``order[i]``: each vertex's row of ``uint64`` words is filled from
    the edge arrays and read as one little-endian int."""
    pos = np.empty(g.n, dtype=np.int64)
    pos[order] = np.arange(g.n)
    p = np.concatenate([pos[g.src], pos[g.dst]])
    q = np.concatenate([pos[g.dst], pos[g.src]])
    words = np.zeros((g.n, g.n // 64 + 1), dtype="<u8")
    np.bitwise_or.at(words, (p, q >> 6), np.left_shift(np.uint64(1), (q & 63).astype(np.uint64)))
    raw, width = words.tobytes(), words.shape[1] * 8
    nbr = [int.from_bytes(raw[i * width:(i + 1) * width], "little") for i in range(g.n)]
    amask = int.from_bytes(np.packbits(~g.is_b[order], bitorder="little").tobytes(), "little")
    return nbr, amask


def branch_search(
    lg: ColoredGraph,
    k: int,
    delta: int,
    *,
    ub_combo: str = "ad",
    best_init: list[int] | None = None,
    time_limit: float | None = None,
) -> SearchResult:
    """Find a maximum (k, δ)-fair clique (a list of ids) in the kernel ``lg``.

    ``ub_combo`` is one of ``bounds.COMBOS``: "s" is the basic framework
    of Fig. 6, the size bound only; every other combo bounds every node
    with ub_AD, and "ad+<x>" also bounds each root by its extra bound.
    ``best_init`` seeds the incumbent (HeurRFC integration); it must be
    a fair clique of ``lg``, else ``ValueError``. Past ``time_limit``
    seconds the search stops with ``completed=False``. ``check_query``
    validates the query.
    """
    t0 = time.perf_counter()
    check_query(k, delta, ub_combo, time_limit)
    if best_init and not lg.is_fair_clique(best_init, k, delta):
        raise ValueError("best_init must be a (k, δ)-fair clique of lg")
    best = list(best_init or [])
    if lg.n < 2 * k:  # no fair clique fits
        return SearchResult(clique=best, seconds=time.perf_counter() - t0)
    order = cal_color_od(lg)
    nbr, amask = _bitsets(lg, order)
    ids = lg.ids[order].tolist()
    full = (1 << lg.n) - 1
    st = _State(
        order=ids,
        nbr=nbr,
        nonadj=[full ^ x ^ (1 << i) for i, x in enumerate(nbr)],
        amask=amask,
        k=k,
        delta=delta,
        colored=ub_combo != "s",
        best=best,
        deadline=None if time_limit is None else t0 + time_limit,
    )
    # A combo with an extra bound applies it to each root's subgraph.
    extra = ub_combo.partition("+")[2]
    if extra:
        start, adj = lg.neighbours()
        pos = np.empty(lg.n, dtype=np.int64)
        pos[order] = np.arange(lg.n)
    for i in range(lg.n):
        if st.deadline and time.perf_counter() > st.deadline:
            st.timed_out = True
            break
        later = nbr[i] >> (i + 1) << (i + 1)
        floor = max(len(st.best), 2 * k - 1)
        if 1 + later.bit_count() <= floor:
            st.roots_pruned += 1
            continue
        if extra:  # the root and its neighbours later in the order
            row = adj[start[order[i]]:start[order[i] + 1]]
            keep = np.zeros(lg.n, dtype=bool)
            keep[row[pos[row] > i]] = True
            keep[order[i]] = True
            if compute_ub(lg.induced(keep), delta, ub_combo) <= floor:
                st.roots_pruned += 1
                continue
        na = (amask >> i) & 1
        st.R.append(i)
        _expand(st, na, 1 - na, later)
        st.R.pop()
    return SearchResult(
        clique=st.best,
        nodes=st.nodes,
        roots_pruned=st.roots_pruned,
        completed=not st.timed_out,
        seconds=time.perf_counter() - t0,
    )


def _expand(st: _State, na: int, nb: int, P: int) -> None:
    """Search the cliques R ∪ S, S ⊆ P; R (``st.R``, with na a- and nb
    b-vertices) is a clique and P its common neighbours."""
    st.nodes += 1
    R, k = st.R, st.k
    if na >= k and nb >= k and abs(na - nb) <= st.delta and len(R) > len(st.best):
        st.best = [st.order[i] for i in R]
    if not P:
        return
    if st.deadline and st.nodes % 4096 == 0 and time.perf_counter() > st.deadline:
        st.timed_out = True
    if st.timed_out:
        return
    r = len(R)
    floor = max(len(st.best), 2 * k - 1)
    classes = _classes(st, P, na, nb, floor) if st.colored else _singletons(P, r, floor)
    nbr, amask = st.nbr, st.amask
    for ub, cls in reversed(classes):
        while cls:
            if ub <= floor:
                return
            v = cls.bit_length() - 1
            bit = 1 << v
            cls ^= bit
            P ^= bit
            child = P & nbr[v]
            if 1 + r + child.bit_count() <= floor:
                continue
            R.append(v)
            if bit & amask:
                _expand(st, na + 1, nb, child)
            else:
                _expand(st, na, nb + 1, child)
            R.pop()
            if st.timed_out:
                return
            floor = max(len(st.best), 2 * k - 1)


def _singletons(P: int, r: int, floor: int) -> list[tuple[int, int]]:
    """Size-bound classes: P's c-th highest bit alone, with bound r + c
    (Lemma 5); only the classes whose bound beats ``floor``, ascending."""
    out = []
    for ub in range(r + P.bit_count(), floor, -1):  # from the lowest bit up
        low = P & -P
        P ^= low
        out.append((ub, low))
    out.reverse()
    return out


def _classes(st: _State, P: int, na: int, nb: int, floor: int) -> list[tuple[int, int]]:
    """Greedy color classes of P (highest bit first) with their
    attribute-aware bounds; only classes whose bound beats ``floor``
    are returned, ascending."""
    nonadj, amask, k, delta = st.nonadj, st.amask, st.k, st.delta
    r = len(st.R)
    out = []
    c, x, y = 0, na, nb  # x, y: na + Xa(c), nb + Xb(c)
    while P:
        c += 1
        cls = 0
        Q = P
        while Q:
            j = Q.bit_length() - 1
            cls |= 1 << j
            Q &= nonadj[j]
        P ^= cls
        a = cls & amask
        if a:
            x += 1
        if a != cls:  # a b-vertex
            y += 1
        if r + c <= floor or x < k or y < k:  # bound ≤ floor, or 0: no fair clique
            continue
        ub = x + y if -delta <= x - y <= delta else 2 * (x if x < y else y) + delta
        if ub > r + c:  # min(|R| + c, fair(x, y))
            ub = r + c
        if ub > floor:
            out.append((ub, cls))
    return out

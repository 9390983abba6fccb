"""Driver-side adjacency-set graph, for the extra root bounds and the oracles.

``max_rfc``'s kernel is a ``ColoredGraph`` (numpy arrays) from the
collect to the search. A ``LocalGraph`` serves two uses only: the
per-root subgraphs that a Table-II combo with an extra bound other than
ub_cd (Lemmas 10–11, 13–14) bounds, cut from one ``from_colored`` copy
of the kernel per search, and the sequential oracles
(``core/baseline.py``, ``core/reference.py``) the tests check the array
code against.

A ``LocalGraph`` is colored once, when it is built, and every subgraph
keeps that coloring: a proper coloring stays proper on any induced
subgraph, so a root's subgraph carries G's coloring and none of the
bounds recolors.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.graph.builder import check_frames
from repro.graph.coloring import ColoredGraph, sequential_greedy

ATTR_A = "a"
ATTR_B = "b"


@dataclass
class LocalGraph:
    """Adjacency-set graph with vertex attributes and a proper coloring."""

    adj: dict[int, set[int]]
    attr: dict[int, str]
    color: dict[int, int] = field(default_factory=dict)

    # -- construction -------------------------------------------------
    @classmethod
    def from_pandas(cls, vertices: pd.DataFrame, edges: pd.DataFrame) -> "LocalGraph":
        """Build from pandas frames; ``ValueError`` if ``check_frames`` rejects them.

        A ``color`` column of ``vertices`` (a colored graph's vertex frame)
        becomes the coloring, and ``ValueError`` is raised unless it holds
        non-negative integers and gives adjacent vertices distinct colors;
        without one the graph is colored by ``sequential_greedy``.
        """
        check_frames(vertices, edges)
        attr = dict(zip(vertices["id"].astype(int), vertices["attr"]))
        adj: dict[int, set[int]] = {int(v): set() for v in vertices["id"]}
        for u, v in zip(edges["src"].astype(int), edges["dst"].astype(int)):
            if u == v:
                continue
            adj[u].add(v)
            adj[v].add(u)
        if "color" not in vertices:
            return cls(adj=adj, attr=attr, color=sequential_greedy(adj))
        col = vertices["color"]
        if not pd.api.types.is_integer_dtype(col) or (col < 0).any():
            raise ValueError("vertex colors must be non-negative integers")
        color = dict(zip(vertices["id"].astype(int), col.astype(int)))
        if any(color[u] == color[v] for u in adj for v in adj[u]):
            raise ValueError("vertex colors must differ on every edge")
        return cls(adj=adj, attr=attr, color=color)

    @classmethod
    def from_colored(cls, g: ColoredGraph) -> "LocalGraph":
        """The colored graph ``g`` with its coloring, keyed by id."""
        start, nbr = g.neighbours()
        ids, nbr_ids = g.ids.tolist(), g.ids[nbr].tolist()
        adj = {v: set(nbr_ids[start[i]:start[i + 1]]) for i, v in enumerate(ids)}
        attr = dict(zip(ids, np.where(g.is_b, ATTR_B, ATTR_A).tolist()))
        return cls(adj=adj, attr=attr, color=dict(zip(ids, g.color.tolist())))

    # -- basics --------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.adj)

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.adj.values()) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def subgraph(self, verts) -> "LocalGraph":
        """Induced subgraph; it keeps this graph's coloring."""
        vs = set(verts)
        adj = {v: (self.adj[v] & vs) for v in vs}
        attr = {v: self.attr[v] for v in vs}
        return LocalGraph(adj=adj, attr=attr, color={v: self.color[v] for v in vs})

    def is_clique(self, verts) -> bool:
        vs = list(verts)
        return all(
            vs[j] in self.adj[vs[i]]
            for i in range(len(vs))
            for j in range(i + 1, len(vs))
        )

    def attr_counts(self, verts) -> tuple[int, int]:
        vs = list(verts)
        na = sum(1 for v in vs if self.attr[v] == ATTR_A)
        return na, len(vs) - na

    def color_groups(self, verts) -> tuple[int, int, int]:
        """(c_a, c_b, c_m): colors among ``verts`` held only by a-vertices,
        only by b-vertices, and by both (mixed)."""
        cols_a: set[int] = set()
        cols_b: set[int] = set()
        for v in verts:
            (cols_a if self.attr[v] == ATTR_A else cols_b).add(self.color[v])
        c_m = len(cols_a & cols_b)
        return len(cols_a) - c_m, len(cols_b) - c_m, c_m

    def is_fair_clique(self, verts, k: int, delta: int) -> bool:
        vs = list(verts)
        na = sum(1 for v in vs if self.attr[v] == ATTR_A)
        nb = len(vs) - na
        return (
            na >= k and nb >= k and abs(na - nb) <= delta and self.is_clique(vs)
        )

    # -- classic structure metrics -------------------------------------
    def degeneracy(self) -> int:
        """Max core number: min-degree peeling with bucket queue."""
        if not self.adj:
            return 0
        deg = {v: len(s) for v, s in self.adj.items()}
        maxd = max(deg.values())
        buckets: list[set[int]] = [set() for _ in range(maxd + 1)]
        for v, d in deg.items():
            buckets[d].add(v)
        seen: set[int] = set()
        best = 0
        for _ in range(len(deg)):
            d = next(i for i in range(maxd + 1) if buckets[i])
            v = buckets[d].pop()
            seen.add(v)
            best = max(best, d)
            for u in self.adj[v]:
                if u in seen:
                    continue
                buckets[deg[u]].discard(u)
                deg[u] -= 1
                buckets[deg[u]].add(u)
        return best

    def h_index(self) -> int:
        """Max h with ≥ h vertices of degree ≥ h."""
        return h_index([len(s) for s in self.adj.values()])


def h_index(values: list[int]) -> int:
    vs = sorted(values, reverse=True)
    h = 0
    for i, v in enumerate(vs, start=1):
        if v >= i:
            h = i
        else:
            break
    return h

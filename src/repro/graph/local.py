"""Driver-side adjacency-set graph: the oracles' graph.

``max_rfc``'s kernel is a ``ColoredGraph`` (numpy arrays) from the
collect to the search, the root bounds included. A ``LocalGraph`` is the
graph of the sequential oracles (``core/baseline.py``,
``core/reference.py``) and the tests, which check the array code
against them.

A ``LocalGraph`` is colored once, when it is built, and every subgraph
keeps that coloring: a proper coloring stays proper on any induced
subgraph.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd

from repro.graph.builder import check_frames
from repro.graph.coloring import sequential_greedy

ATTR_A = "a"


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

    def is_fair_clique(self, verts, k: int, delta: int) -> bool:
        vs = list(verts)
        na = sum(1 for v in vs if self.attr[v] == ATTR_A)
        nb = len(vs) - na
        return (
            na >= k and nb >= k and abs(na - nb) <= delta and self.is_clique(vs)
        )


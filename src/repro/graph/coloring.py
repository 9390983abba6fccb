"""Greedy graph coloring of the collected graph, on the driver.

The paper's reductions and bounds all rest on a *degree-based greedy
coloring* (its line 1 of Algorithm 1, citing [30]): process vertices in
(degree desc, id asc) order, give each the smallest color unused by its
already-colored neighbors. ``color_graph_local`` collects a Spark graph
once and returns it as a ``ColoredGraph``, the numpy form the
reductions peel; the coloring is one of its arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import pandas as pd

from repro.graph.builder import AttributedGraph, check_frames


@dataclass(frozen=True)
class ColoredGraph:
    """A colored graph relabelled 0..n−1 in id order: vertex ``i`` has id
    ``ids[i]``, attribute ``b`` iff ``is_b[i]`` and color ``color[i]``;
    edge ``j`` is the label pair ``src[j] < dst[j]``."""

    ids: np.ndarray
    is_b: np.ndarray
    color: np.ndarray
    src: np.ndarray
    dst: np.ndarray

    @classmethod
    def from_pandas(cls, vertices: pd.DataFrame, edges: pd.DataFrame) -> "ColoredGraph":
        """Relabel and greedily color the frames (``ValueError`` if
        ``check_frames`` rejects them); self loops and duplicates go."""
        check_frames(vertices, edges)
        order = np.argsort(vertices["id"].to_numpy(np.int64))
        ids = vertices["id"].to_numpy(np.int64)[order]
        is_b = vertices["attr"].to_numpy()[order] == "b"
        n = len(ids)
        u = np.searchsorted(ids, edges["src"].to_numpy(np.int64))
        v = np.searchsorted(ids, edges["dst"].to_numpy(np.int64))
        src, dst = np.divmod(np.unique(np.minimum(u, v) * n + np.maximum(u, v)), max(n, 1))
        src, dst = src[src != dst], dst[src != dst]
        adj: dict[int, set[int]] = {i: set() for i in range(n)}
        for a, b in zip(src.tolist(), dst.tolist()):
            adj[a].add(b)
            adj[b].add(a)
        greedy = sequential_greedy(adj)
        color = np.array([greedy[i] for i in range(n)], dtype=np.int64)
        return cls(ids, is_b, color, src, dst)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def m(self) -> int:
        return len(self.src)

    def keep_edges(self, ok: np.ndarray) -> "ColoredGraph":
        """The same vertices with the edges where ``ok`` is true."""
        return replace(self, src=self.src[ok], dst=self.dst[ok])

    def drop_isolated(self) -> "ColoredGraph":
        """Drop degree-0 vertices (irrelevant to any clique of size ≥ 2)."""
        keep = np.zeros(self.n, dtype=bool)
        keep[self.src] = keep[self.dst] = True
        label = np.cumsum(keep) - 1
        return ColoredGraph(self.ids[keep], self.is_b[keep], self.color[keep],
                            label[self.src], label[self.dst])

    def frames(self) -> tuple[pd.DataFrame, pd.DataFrame]:
        """Vertices ``(id, attr, color)`` and edges ``(src, dst)``, by id."""
        vertices = pd.DataFrame(
            {"id": self.ids, "attr": np.where(self.is_b, "b", "a"), "color": self.color}
        )
        return vertices, pd.DataFrame({"src": self.ids[self.src], "dst": self.ids[self.dst]})


def color_graph_local(g: AttributedGraph) -> ColoredGraph:
    """Collect ``g``'s vertices and edges (one Spark job each) and color
    them; the greedy order is sequential (so is the paper's C++)."""
    return ColoredGraph.from_pandas(g.vertices.select("id", "attr").toPandas(), g.edges.toPandas())


def sequential_greedy(adj: dict[int, set[int]]) -> dict[int, int]:
    """Sequential greedy coloring in (degree desc, id asc) order."""
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    color: dict[int, int] = {}
    for v in order:
        used = {color[u] for u in adj[v] if u in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return color

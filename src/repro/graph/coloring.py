"""Greedy graph coloring of the collected graph, on the driver.

The paper's reductions and bounds all rest on a *degree-based greedy
coloring* (its line 1 of Algorithm 1, citing [30]): process vertices in
(degree desc, id asc) order, give each the smallest color unused by its
already-colored neighbors. ``color_graph_local`` collects a Spark graph
once and returns it as a ``ColoredGraph``, the numpy form the
reductions peel and the kernel HeurRFC, CalColorOD and the search run
on; the coloring is one of its arrays and every subgraph keeps it.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import pandas as pd

from repro.graph.builder import AttributedGraph, check_frames


@dataclass(frozen=True)
class ColoredGraph:
    """A colored graph relabelled 0..n−1 in id order: vertex ``i`` has id
    ``ids[i]``, attribute ``b`` iff ``is_b[i]`` and color ``color[i]``;
    edge ``j`` is the label pair ``src[j] < dst[j]``, in (src, dst) order."""

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

    def degrees(self) -> np.ndarray:
        """The degree of every label."""
        return np.bincount(self.src, minlength=self.n) + np.bincount(self.dst, minlength=self.n)

    def neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency: label ``i``'s neighbours are ``nbr[start[i]:start[i + 1]]``."""
        owner = np.concatenate([self.src, self.dst])
        by_owner = np.argsort(owner, kind="stable")
        start = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=self.n), out=start[1:])
        return start, np.concatenate([self.dst, self.src])[by_owner]

    def keep_edges(self, ok: np.ndarray) -> "ColoredGraph":
        """The same vertices with the edges where ``ok`` is true."""
        return replace(self, src=self.src[ok], dst=self.dst[ok])

    def induced(self, keep: np.ndarray) -> "ColoredGraph":
        """The subgraph induced by the labels where ``keep`` is true,
        relabelled in id order; it keeps this graph's coloring."""
        label = np.cumsum(keep) - 1
        ok = keep[self.src] & keep[self.dst]
        return ColoredGraph(self.ids[keep], self.is_b[keep], self.color[keep],
                            label[self.src[ok]], label[self.dst[ok]])

    def drop_isolated(self) -> "ColoredGraph":
        """Drop degree-0 vertices (irrelevant to any clique of size ≥ 2)."""
        return self.induced(self.degrees() > 0)

    def k_core(self, t: int) -> "ColoredGraph":
        """Maximal induced subgraph of min degree ≥ t, peeled a round at a
        time (all vertices below t leave at once); it keeps the coloring."""
        keep = np.ones(self.n, dtype=bool)
        while True:
            ok = keep[self.src] & keep[self.dst]
            deg = (np.bincount(self.src[ok], minlength=self.n)
                   + np.bincount(self.dst[ok], minlength=self.n))
            low = keep & (deg < t)
            if not low.any():
                return self.induced(keep)
            keep &= ~low

    def is_fair_clique(self, ids, k: int, delta: int) -> bool:
        """Whether the distinct vertex ids form a clique with ≥ k of each
        attribute and attribute counts within δ."""
        want = np.sort(np.asarray(ids, dtype=np.int64))
        lab = np.unique(np.searchsorted(self.ids, want))
        if len(lab) != len(want) or (lab >= self.n).any() or (self.ids[lab] != want).any():
            return False  # a repeated id, or one not in the graph
        nb = int(self.is_b[lab].sum())
        na = len(lab) - nb
        if na < k or nb < k or abs(na - nb) > delta:
            return False
        lo, hi = np.triu_indices(len(lab), 1)
        pairs = lab[lo] * self.n + lab[hi]
        keys = self.src * self.n + self.dst
        at = np.searchsorted(keys, pairs)
        return bool((at < self.m).all() and (keys[at] == pairs).all())

    def frames(self) -> tuple[pd.DataFrame, pd.DataFrame]:
        """Vertices ``(id, attr, color)`` and edges ``(src, dst)``, by id."""
        vertices = pd.DataFrame(
            {"id": self.ids, "attr": np.where(self.is_b, "b", "a"), "color": self.color}
        )
        return vertices, pd.DataFrame({"src": self.ids[self.src], "dst": self.ids[self.dst]})


def color_graph_local(g: AttributedGraph) -> ColoredGraph:
    """Collect ``g``'s vertices and edges (one Spark job each, the edge
    job submitted from a second thread so the two overlap) and color them;
    the greedy order is sequential (so is the paper's C++). The thread
    is joined before this returns or raises."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        edges = pool.submit(g.edges.toPandas)
        vertices = g.vertices.select("id", "attr").toPandas()
        edges = edges.result()
    return ColoredGraph.from_pandas(vertices, edges)


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

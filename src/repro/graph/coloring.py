"""Greedy graph coloring of the collected graph, on the driver.

The paper's reductions and bounds all rest on a *degree-based greedy
coloring* (its line 1 of Algorithm 1, citing [30]): process vertices in
(degree desc, id asc) order, give each the smallest color unused by its
already-colored neighbors. ``color_graph_local`` collects a Spark graph
once, as Arrow columns, and returns it as a ``ColoredGraph``, the numpy
form the reductions peel and the kernel HeurRFC, CalColorOD, the search
and its bounds run on. ``ColoredGraph.from_columns`` is the one place
edges are canonicalized: the lift hands Spark the input's edges as they
are, and it orients each as ``src < dst`` and drops repeats and self
loops. ``csr_greedy`` colors the graph on its CSR adjacency; the
coloring is one of its arrays and every subgraph keeps it.
``sequential_greedy`` is the same coloring of an adjacency dict, for
``LocalGraph`` and the oracles.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import pandas as pd

from repro.graph.builder import AttributedGraph, check_columns


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
    def from_columns(cls, ids, attr, src, dst) -> "ColoredGraph":
        """Relabel and greedily color a graph given as columns: vertex ids
        and attributes, edge endpoints in either orientation (``ValueError``
        if ``check_columns`` rejects them); self loops and repeated edges go."""
        ids, is_b, u, v = check_columns(ids, attr, src, dst)
        n = len(ids)
        src, dst = np.divmod(np.unique(np.minimum(u, v) * n + np.maximum(u, v)), max(n, 1))
        src, dst = src[src != dst], dst[src != dst]
        return cls(ids, is_b, csr_greedy(*_csr(n, src, dst)), src, dst)

    @classmethod
    def from_pandas(cls, vertices: pd.DataFrame, edges: pd.DataFrame) -> "ColoredGraph":
        """``from_columns`` on the ``id``/``attr`` and ``src``/``dst`` columns."""
        return cls.from_columns(vertices["id"].to_numpy(), vertices["attr"].to_numpy(),
                                edges["src"].to_numpy(), edges["dst"].to_numpy())

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def m(self) -> int:
        return len(self.src)

    def degrees(self) -> np.ndarray:
        """The degree of every label."""
        return np.bincount(self.src, minlength=self.n) + np.bincount(self.dst, minlength=self.n)

    def live_degrees(self, keep: np.ndarray) -> np.ndarray:
        """The degree of every label in the subgraph induced by the labels
        where ``keep`` is true (a peel's round)."""
        ok = keep[self.src] & keep[self.dst]
        return (np.bincount(self.src[ok], minlength=self.n)
                + np.bincount(self.dst[ok], minlength=self.n))

    def neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency: label ``i``'s neighbours are ``nbr[start[i]:start[i + 1]]``."""
        return _csr(self.n, self.src, self.dst)

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
            low = keep & (self.live_degrees(keep) < t)
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


def _csr(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(start, nbr)``: the neighbours of label ``i`` < ``n`` in the edge
    list ``src``/``dst`` are ``nbr[start[i]:start[i + 1]]``."""
    owner = np.concatenate([src, dst])
    by_owner = np.argsort(owner, kind="stable")
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=start[1:])
    return start, np.concatenate([dst, src])[by_owner]


def color_graph_local(g: AttributedGraph) -> ColoredGraph:
    """Collect ``g``'s vertices and edges as Arrow tables and color them.

    ``toArrow`` runs on the graph's own frames, with no projection, so
    each collect reuses the plans Spark keeps for them. It is one Spark
    job each, the edge job submitted from a second thread so the two
    overlap; the thread is joined before this returns or raises. The
    greedy order is sequential (so is the paper's C++)."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        edges = pool.submit(g.edges.toArrow)
        vertices = g.vertices.toArrow()
        edges = edges.result()
    ids, attr = (vertices.column(name).to_numpy() for name in ("id", "attr"))
    src, dst = (edges.column(name).to_numpy() for name in ("src", "dst"))
    return ColoredGraph.from_columns(ids, attr, src, dst)


def csr_greedy(start: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """Sequential greedy coloring of the CSR adjacency ``start``/``nbr``
    in (degree desc, label asc) order: ``sequential_greedy`` on arrays."""
    order = np.argsort(-np.diff(start), kind="stable")
    first, nbr = start.tolist(), nbr.tolist()
    color = [-1] * len(order)
    for v in order.tolist():
        used = {color[u] for u in nbr[first[v]:first[v + 1]]}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return np.array(color, dtype=np.int64)


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

"""Greedy graph coloring, computed once on the driver.

The paper's reductions and bounds all rest on a *degree-based greedy
coloring* (its line 1 of Algorithm 1, citing [30]): process vertices in
(degree desc, id asc) order, give each the smallest color unused by its
already-colored neighbors. The coloring is a column of the graph: every
reduction reads ``color`` from the vertex frame.
"""
from __future__ import annotations

from repro.graph.builder import AttributedGraph, checkpoint


def color_graph_local(g: AttributedGraph) -> AttributedGraph:
    """``g`` with vertices ``(id, attr, color)``, color in 0..C-1.

    The greedy order is inherently sequential (the paper's C++ runs it
    single-threaded too), so the vertices and edges are collected, colored
    in O(|E|) and the colored vertex frame is shipped back and
    checkpointed once; the edges are ``g``'s.
    """
    spark = g.vertices.sparkSession
    ep = g.edges.toPandas()
    vp = g.vertices.select("id", "attr").toPandas()
    adj: dict[int, set[int]] = {int(v): set() for v in vp["id"]}
    for u, v in zip(ep["src"].astype(int), ep["dst"].astype(int)):
        adj[u].add(v)
        adj[v].add(u)
    color = sequential_greedy(adj)
    vp["color"] = [color[int(v)] for v in vp["id"]]
    vdf = spark.createDataFrame(vp, schema="id long, attr string, color int")
    return AttributedGraph(checkpoint(vdf), g.edges)


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

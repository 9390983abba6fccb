"""Greedy graph coloring — distributed (Spark) and sequential reference.

The paper's reductions and bounds all rest on a *degree-based greedy
coloring* (its line 1 of Algorithm 1, citing [30]): process vertices in
(degree desc, id asc) order, give each the smallest color unused by its
already-colored neighbors.

The distributed version is Jones–Plassmann with that total order as the
priority: a vertex is *ready* in a round when it has no uncolored
higher-priority neighbor, and then takes the mex of its higher-priority
neighbors' colors. Because lower-priority neighbors of an uncolored
vertex can never be colored first, the colored neighbors of a ready
vertex are exactly its higher-priority neighbors — so the distributed
result equals the sequential greedy coloring *exactly* (tested).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.builder import AttributedGraph, degrees, symmetrize


def color_graph(g: AttributedGraph) -> DataFrame:
    """Color every vertex; returns (id, color) with color in 0..C-1.

    Pregel-style rounds over DataFrames with ``localCheckpoint`` per
    round, until no vertex is uncolored. Every round colors at least the
    top-priority uncolored vertex, which is always ready, so there are
    at most n rounds.
    """
    spark = g.vertices.sparkSession
    sym = symmetrize(g.edges).localCheckpoint(eager=True)
    un = degrees(g).localCheckpoint(eager=True)  # uncolored: (id, degree)
    colored = spark.createDataFrame([], schema="id long, color int")

    while not un.isEmpty():
        # Edges between two still-uncolored vertices, with both priorities.
        u1 = F.broadcast(un.select(F.col("id").alias("src"), F.col("degree").alias("sdeg")))
        u2 = F.broadcast(un.select(F.col("id").alias("dst"), F.col("degree").alias("ddeg")))
        both_un = sym.join(u1, "src").join(u2, "dst")
        blocked = (
            both_un.where(
                (F.col("ddeg") > F.col("sdeg"))
                | ((F.col("ddeg") == F.col("sdeg")) & (F.col("dst") < F.col("src")))
            )
            .select(F.col("src").alias("id"))
            .distinct()
        )
        ready = un.join(F.broadcast(blocked), "id", "left_anti")
        # Colors already used in each ready vertex's neighborhood.
        used = (
            sym.withColumnRenamed("src", "id")
            .join(F.broadcast(ready.select("id")), "id")
            .join(F.broadcast(colored.select(F.col("id").alias("dst"), "color")), "dst")
            .groupBy("id")
            .agg(F.collect_set("color").alias("used"))
        )
        mex = F.array_min(
            F.array_except(
                F.sequence(F.lit(0), F.size("used")), F.col("used")
            )
        )
        newly = (
            ready.join(F.broadcast(used), "id", "left")
            .select(
                "id",
                F.when(F.col("used").isNull(), F.lit(0))
                .otherwise(mex)
                .cast("int")
                .alias("color"),
            )
        )
        colored = colored.union(newly).localCheckpoint(eager=True)
        un = un.join(F.broadcast(newly.select("id")), "id", "left_anti").localCheckpoint(eager=True)
    return colored


def color_graph_local(g: AttributedGraph) -> DataFrame:
    """Sequential degree-greedy coloring, computed on the driver.

    The paper's coloring (Algorithm 1 line 1) is inherently sequential;
    its C++ implementation runs it single-threaded too. On round-trip-
    dominated local Spark the Pregel version above pays one scheduler
    round per priority level, so the default pipeline path collects the
    edge list, colors in O(|E|), and ships (id, color) back as a
    DataFrame. ``color_graph`` (distributed, provably identical output)
    remains for cluster-scale graphs and is tested for exact equality.
    """
    import pandas as pd

    spark = g.vertices.sparkSession
    ep = g.edges.toPandas()
    vp = g.vertices.select("id").toPandas()
    adj: dict[int, set[int]] = {int(v): set() for v in vp["id"]}
    for u, v in zip(ep["src"].astype(int), ep["dst"].astype(int)):
        adj[u].add(v)
        adj[v].add(u)
    color = sequential_greedy(adj)
    pdf = pd.DataFrame(
        {"id": list(color.keys()), "color": list(color.values())}
    )
    return spark.createDataFrame(pdf, schema="id long, color int")


def sequential_greedy(adj: dict[int, set[int]]) -> dict[int, int]:
    """Reference sequential greedy coloring in (degree desc, id asc) order."""
    order = sorted(adj, key=lambda v: (-len(adj[v]), v))
    color: dict[int, int] = {}
    for v in order:
        used = {color[u] for u in adj[v] if u in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return color

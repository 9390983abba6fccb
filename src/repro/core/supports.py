"""Colorful degree / colorful support statistics (Spark DataFrame API).

Definitions from the paper:

- **Colorful degree** ``D_x(u)`` (Def. 2): #distinct colors among u's
  neighbors with attribute x.
- **Enhanced colorful degree** ``ED(u)`` (Def. 4): the best achievable
  min(#colors assigned to a, #colors assigned to b) after assigning each
  neighbor color class to exactly one attribute. With ``c_a``/``c_b``
  colors exclusive to a/b and ``c_m`` mixed colors, the optimum is
  ``min(c_a+c_m, c_b+c_m, ⌊(c_a+c_b+c_m)/2⌋)``.
- **Colorful support** ``sup_x(u,v)`` (Def. 6): #distinct colors among
  the *common* neighbors of u,v with attribute x.
- **Enhanced colorful support** (Def. 7): common-neighbor colors are
  partitioned into exclusive-a (``c_a``), exclusive-b (``c_b``) and
  mixed (``c_m``) groups; mixed colors are greedily assigned to the
  attribute that still needs them.

The graph is colored: its vertex frame is ``(id, attr, color)``, as
``coloring.color_graph_local`` returns it. Everything is one or two
Catalyst aggregations; the per-(entity, color) ``has_a``/``has_b`` flags
are shared between the plain and enhanced variants.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.builder import AttributedGraph, symmetrize


def _group_agg(df: DataFrame, keys: list[str]) -> DataFrame:
    """From rows (keys..., color, attr): per-key color-group statistics.

    Output columns: d_a, d_b (colorful degrees/supports), c_a, c_b, c_m
    (exclusive-a / exclusive-b / mixed color-group sizes).
    """
    per_color = df.groupBy(*keys, "color").agg(
        F.max((F.col("attr") == "a").cast("int")).alias("has_a"),
        F.max((F.col("attr") == "b").cast("int")).alias("has_b"),
    )
    return per_color.groupBy(*keys).agg(
        F.sum("has_a").alias("d_a"),
        F.sum("has_b").alias("d_b"),
        F.sum(((F.col("has_a") == 1) & (F.col("has_b") == 0)).cast("int")).alias("c_a"),
        F.sum(((F.col("has_b") == 1) & (F.col("has_a") == 0)).cast("int")).alias("c_b"),
        F.sum(((F.col("has_a") == 1) & (F.col("has_b") == 1)).cast("int")).alias("c_m"),
    )


def vertex_color_stats(g: AttributedGraph) -> DataFrame:
    """Per-vertex (id, d_a, d_b, c_a, c_b, c_m, ed) of a colored graph.

    ``d_a``/``d_b`` are the colorful degrees D_a/D_b (Def. 2); ``ed`` is
    the enhanced colorful degree ED (Def. 4). Vertices with no neighbors
    do not appear (callers left-join and fill 0).
    """
    nbrs = (
        symmetrize(g.edges)
        .join(F.broadcast(g.vertices.withColumnRenamed("id", "dst")), "dst")
        .select(F.col("src").alias("id"), "attr", "color")
    )
    stats = _group_agg(nbrs, ["id"])
    ed = F.least(
        F.col("c_a") + F.col("c_m"),
        F.col("c_b") + F.col("c_m"),
        F.floor((F.col("c_a") + F.col("c_b") + F.col("c_m")) / 2).cast("long"),
    )
    return stats.withColumn("ed", ed)


def edge_color_stats(g: AttributedGraph) -> DataFrame:
    """Per-edge common-neighbor color stats of a colored graph.

    Returns every canonical edge with columns
    ``(src, dst, attr_u, attr_v, sup_a, sup_b, c_a, c_b, c_m)`` where
    ``sup_x`` is the colorful support (Def. 6) and c_a/c_b/c_m the
    enhanced-support color groups (Def. 7). Edges with no common
    neighbors get all-zero stats.

    The common-neighbor relation is the standard triangle join:
    edge (u,v) × adjacency (u,w) × adjacency (v,w), with both adjacency
    sides broadcast-hinted: in local mode the adjacency relation is tens
    of thousands of rows and every shuffle costs a scheduler round-trip.
    """
    sym = symmetrize(g.edges)
    s1 = F.broadcast(sym.select(F.col("src").alias("u"), F.col("dst").alias("w")))
    s2 = F.broadcast(sym.select(F.col("src").alias("v"), F.col("dst").alias("w")))
    e = g.edges.select(F.col("src").alias("u"), F.col("dst").alias("v"))
    common = e.join(s1, "u").join(s2, ["v", "w"])
    wstats = common.join(
        F.broadcast(g.vertices.select(F.col("id").alias("w"), "attr", "color")), "w"
    ).select("u", "v", "attr", "color")
    stats = (
        _group_agg(wstats, ["u", "v"])
        .withColumnRenamed("d_a", "sup_a")
        .withColumnRenamed("d_b", "sup_b")
    )
    va = g.vertices.select(F.col("id").alias("u"), F.col("attr").alias("attr_u"))
    vb = g.vertices.select(F.col("id").alias("v"), F.col("attr").alias("attr_v"))
    out = (
        e.join(F.broadcast(va), "u").join(F.broadcast(vb), "v")
        .join(stats, ["u", "v"], "left")
        .select(
            F.col("u").alias("src"),
            F.col("v").alias("dst"),
            "attr_u",
            "attr_v",
            *[F.coalesce(F.col(c), F.lit(0)).alias(c) for c in ("sup_a", "sup_b", "c_a", "c_b", "c_m")],
        )
    )
    return out


def enhanced_support_cols(ka, kb):
    """Column expressions (esup_a, esup_b) for the enhanced colorful support.

    Implements the paper's greedy mixed-color assignment for an edge with
    groups (c_a, c_b, c_m) and attribute-pair thresholds (ka, kb), given
    as column expressions: assign γ = min(max(0, ka−c_a), c_m) mixed
    colors to attribute a, the rest to b's demand. Requires columns c_a,
    c_b, c_m.
    """
    need_a = F.greatest(F.lit(0), ka - F.col("c_a"))
    gamma = F.least(need_a, F.col("c_m"))
    esup_a = F.when(F.col("c_a") < ka, F.col("c_a") + gamma).otherwise(F.col("c_a"))
    rem = F.col("c_m") - gamma
    need_b = F.greatest(F.lit(0), kb - F.col("c_b"))
    esup_b = F.when(F.col("c_b") < kb, F.col("c_b") + F.least(need_b, rem)).otherwise(
        F.col("c_b")
    )
    return esup_a, esup_b


def edge_thresholds(k: int):
    """(ka, kb) column expressions per Lemma 3/4 from (attr_u, attr_v).

    both a → (k−2, k); both b → (k, k−2); mixed → (k−1, k−1).
    """
    both_a = (F.col("attr_u") == "a") & (F.col("attr_v") == "a")
    both_b = (F.col("attr_u") == "b") & (F.col("attr_v") == "b")
    ka = F.when(both_a, F.lit(k - 2)).when(both_b, F.lit(k)).otherwise(F.lit(k - 1))
    kb = F.when(both_a, F.lit(k)).when(both_b, F.lit(k - 2)).otherwise(F.lit(k - 1))
    return ka, kb

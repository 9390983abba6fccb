"""Spark-side attributed-graph algebra.

``AttributedGraph`` is a thin immutable holder of two DataFrames:

- ``vertices``: ``(id: long, attr: string)`` — attr ∈ {"a", "b"};
- ``edges``: canonical undirected edges ``(src: long, dst: long)`` with
  ``src < dst``, deduplicated, no self loops.

All operations are pure DataFrame transformations (Catalyst-planned).
This is the input side of the pipeline: ``reduce_pipeline`` collects a
lifted graph once (``coloring.color_graph_local``) and reduces it on the
driver; ``degrees`` serves Table I.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


@dataclass(frozen=True)
class AttributedGraph:
    """Vertices (id, attr) + canonical undirected edges (src < dst)."""

    vertices: DataFrame
    edges: DataFrame

    def counts(self) -> tuple[int, int]:
        """(n, m) — triggers two small actions."""
        return self.vertices.count(), self.edges.count()

    def checkpointed(self) -> "AttributedGraph":
        """Both frames materialised (``localCheckpoint(eager=True)``), so
        the collect does not re-run the lift's edge dedup."""
        return AttributedGraph(
            self.vertices.localCheckpoint(eager=True),
            self.edges.localCheckpoint(eager=True),
        )


def canonicalize_edges(edges: DataFrame) -> DataFrame:
    """Normalize an arbitrary (src, dst) edge list to canonical form."""
    lo = F.least("src", "dst").alias("src")
    hi = F.greatest("src", "dst").alias("dst")
    return edges.select(lo, hi).where(F.col("src") != F.col("dst")).distinct()


def check_frames(vertices: pd.DataFrame, edges: pd.DataFrame) -> None:
    """Raise ``ValueError`` unless vertex ids are unique, every attribute
    is ``a`` or ``b``, and every edge endpoint is a declared vertex."""
    ids = vertices["id"]
    if ids.duplicated().any():
        raise ValueError(f"duplicate vertex ids: {sorted(set(ids[ids.duplicated()]))[:5]}")
    labels = set(vertices["attr"]) - {"a", "b"}
    if labels:
        raise ValueError(f"vertex attributes must be 'a' or 'b', got {sorted(map(repr, labels))}")
    undeclared = set(edges["src"]).union(edges["dst"]).difference(ids)
    if undeclared:
        raise ValueError(f"edge endpoints that are not vertices: {sorted(undeclared)[:5]}")


def from_pandas(spark: SparkSession, vertices: pd.DataFrame, edges: pd.DataFrame) -> AttributedGraph:
    """Lift the pandas frames produced by ``repro.graph.gen`` into Spark."""
    check_frames(vertices, edges)
    vdf = spark.createDataFrame(vertices, schema="id long, attr string")
    edf = spark.createDataFrame(edges, schema="src long, dst long")
    return AttributedGraph(vdf, canonicalize_edges(edf))


def symmetrize(edges: DataFrame) -> DataFrame:
    """Both orientations of every canonical edge: the adjacency relation."""
    return edges.select("src", "dst").union(
        edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    )


def degrees(g: AttributedGraph) -> DataFrame:
    """(id, degree) for every vertex, including isolated ones (degree 0)."""
    d = symmetrize(g.edges).groupBy("src").agg(F.count("*").alias("degree"))
    return (
        g.vertices.join(F.broadcast(d), g.vertices["id"] == d["src"], "left")
        .select("id", F.coalesce("degree", F.lit(0)).alias("degree"))
    )

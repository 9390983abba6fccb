"""Spark graph-algebra tests (builder) with the DuckDB oracle."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.graph import gen
from repro.graph.builder import (
    canonicalize_edges,
    checkpoint,
    degrees,
    from_pandas,
    symmetrize,
)


@pytest.fixture(scope="module")
def small_graph(spark):
    v, e = gen.random_attributed_graph(80, 0.08, seed=21)
    return v, e, from_pandas(spark, v, e).checkpointed()


def test_from_pandas_counts(small_graph):
    v, e, g = small_graph
    assert g.counts() == (len(v), len(e))


def test_canonicalize_handles_orientation_and_dups(spark):
    raw = spark.createDataFrame(
        pd.DataFrame({"src": [1, 2, 2, 3, 3], "dst": [2, 1, 3, 2, 3]}),
        schema="src long, dst long",
    )
    got = canonicalize_edges(raw).toPandas().sort_values(["src", "dst"])
    assert list(map(tuple, got.values)) == [(1, 2), (2, 3)]


def test_symmetrize_doubles(small_graph):
    _, e, g = small_graph
    assert symmetrize(g.edges).count() == 2 * len(e)


def test_degrees_against_duckdb(small_graph):
    v, e, g = small_graph
    assert_equivalent(
        degrees(g),
        """
        WITH sym AS (
          SELECT src, dst FROM edges
          UNION ALL SELECT dst, src FROM edges
        ),
        d AS (SELECT src AS id, COUNT(*) AS degree FROM sym GROUP BY 1)
        SELECT v.id, COALESCE(d.degree, 0) AS degree
        FROM vertices v LEFT JOIN d USING (id)
        """,
        edges=e,
        vertices=v,
    )


def test_checkpoint_keeps_rows_and_drops_size_estimate(spark):
    """Join-then-checkpoint rounds (the shape of a peel loop) must not
    compound Spark's size estimate, whose bit length would otherwise
    double here every round."""
    df = spark.range(20).withColumnRenamed("id", "x")
    for _ in range(6):
        pairs = df.join(df.withColumnRenamed("x", "y"), F.col("x") == F.col("y"))
        df = checkpoint(pairs.select("x"))
    assert sorted(r.x for r in df.collect()) == list(range(20))
    size = df._jdf.queryExecution().optimizedPlan().stats().sizeInBytes()
    assert int(size).bit_length() <= 64

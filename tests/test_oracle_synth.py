"""Self-tests of the DuckDB oracle on graph data.

The graph tests trust ``assert_equivalent`` to fail when Spark and DuckDB
disagree, so these check that it rejects a wrong per-vertex degree and a
mismatched column set. Its positive aggregate and join paths are
exercised on graph data by ``test_builder_spark``, ``test_supports_spark``
and ``test_coloring_spark``.
"""
import pytest
from pyspark.sql import functions as F

from repro.graph import gen
from repro.oracle import assert_equivalent

DEGREE_SQL = """
    SELECT id, COUNT(*) AS degree
    FROM (SELECT src AS id FROM edges UNION ALL SELECT dst AS id FROM edges)
    GROUP BY 1
"""


@pytest.fixture(scope="module")
def edges(spark):
    _, e = gen.random_attributed_graph(30, 0.2, seed=5)
    return e, spark.createDataFrame(e)


def _degrees(edf, *, off_by: int = 0):
    ends = edf.select(F.col("src").alias("id")).union(edf.select(F.col("dst").alias("id")))
    return ends.groupBy("id").agg((F.count("*") + off_by).alias("degree"))


def test_oracle_detects_wrong_result(edges):
    e, edf = edges
    assert_equivalent(_degrees(edf), DEGREE_SQL, edges=e)
    with pytest.raises(AssertionError):
        assert_equivalent(_degrees(edf, off_by=1), DEGREE_SQL, edges=e)


def test_oracle_detects_column_mismatch(edges):
    e, edf = edges
    got = _degrees(edf).withColumnRenamed("degree", "wrong_name")
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(got, DEGREE_SQL, edges=e)

"""The Spark lift and the collect (builder, coloring) with the DuckDB oracle."""
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.graph import gen
from repro.graph.builder import from_pandas
from repro.graph.coloring import color_graph_local


@pytest.fixture(scope="module")
def small_graph(spark):
    v, e = gen.random_attributed_graph(80, 0.08, seed=21)
    isolated = pd.DataFrame({"id": [1000, 1001], "attr": ["a", "b"]})
    v = pd.concat([v, isolated], ignore_index=True)
    return v, e, color_graph_local(from_pandas(spark, v, e).checkpointed())


def test_from_pandas_counts(small_graph):
    v, e, g = small_graph
    assert (g.n, g.m) == (len(v), len(e))


def test_degrees_against_duckdb(small_graph):
    """Table I's degrees: ``ColoredGraph.degrees`` of the collected graph,
    isolated vertices included."""
    v, e, g = small_graph
    assert_equivalent(
        pd.DataFrame({"id": g.ids, "degree": g.degrees()}),
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

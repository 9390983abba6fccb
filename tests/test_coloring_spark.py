"""Driver coloring tests: the colored vertex frame equals sequential greedy."""
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.graph import gen
from repro.graph.builder import from_pandas
from repro.graph.coloring import color_graph_local, sequential_greedy
from repro.graph.local import LocalGraph


def _color_maps(v, e, colored):
    cp = colored.frames()[0]
    got = dict(zip(cp["id"].astype(int), cp["color"].astype(int)))
    ref = sequential_greedy(LocalGraph.from_pandas(v, e).adj)
    return got, ref


def test_driver_coloring_equals_sequential(spark):
    v, e = gen.DATASETS["aminer"](scale=0.3)
    g = from_pandas(spark, v, e).checkpointed()
    got, ref = _color_maps(v, e, color_graph_local(g))
    assert got == ref


def test_coloring_is_proper_via_duckdb(spark):
    """No edge joins two vertices of the same color (oracle-checked)."""
    v, e = gen.random_attributed_graph(70, 0.15, seed=9)
    g = from_pandas(spark, v, e).checkpointed()
    colors, edges = color_graph_local(g).frames()
    # Count monochromatic edges in DuckDB; the driver side returns the
    # same count computed with pandas merges — both must be zero.
    c1 = colors.rename(columns={"id": "src", "color": "c1"})[["src", "c1"]]
    c2 = colors.rename(columns={"id": "dst", "color": "c2"})[["dst", "c2"]]
    joined = edges.merge(c1, on="src").merge(c2, on="dst")
    mono = pd.DataFrame({"mono": [int((joined["c1"] == joined["c2"]).sum())]})
    assert_equivalent(
        mono,
        """
        SELECT COUNT(*) AS mono
        FROM edges e
        JOIN colors x ON x.id = e.src
        JOIN colors y ON y.id = e.dst
        WHERE x.color = y.color
        """,
        edges=e,
        colors=colors,
    )
    assert mono["mono"][0] == 0


def test_coloring_deterministic(spark):
    v, e = gen.random_attributed_graph(50, 0.2, seed=3)
    g = from_pandas(spark, v, e).checkpointed()
    a = color_graph_local(g).frames()[0].sort_values("id").reset_index(drop=True)
    b = color_graph_local(g).frames()[0].sort_values("id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_coloring_covers_all_vertices_including_isolated(spark):
    v = pd.DataFrame({"id": [0, 1, 2, 9], "attr": ["a", "b", "a", "b"]})
    e = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
    g = from_pandas(spark, v, e)
    cp = color_graph_local(g).frames()[0]
    assert set(cp["id"]) == {0, 1, 2, 9}

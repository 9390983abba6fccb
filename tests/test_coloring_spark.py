"""Driver coloring tests: the colored vertex frame equals sequential greedy,
and the collect of a Spark lift equals the driver build of the same frames."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.oracle import assert_equivalent
from repro.graph import gen
from repro.graph.builder import from_pandas
from repro.graph.coloring import ColoredGraph, color_graph_local, sequential_greedy
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


@st.composite
def _graphs(draw, max_n=90):
    """Vertex and edge frames on ≤ max_n vertices with sparse, negative
    ids, edges listed in random order, some twice or reversed, a few self
    loops; density from empty to complete (K_n needs n colors)."""
    n = draw(st.integers(0, max_n))
    ids = draw(st.lists(st.integers(-10**12, 10**12), min_size=n, max_size=n, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = np.triu_indices(n, 1)
    pick = rng.random(len(lo)) < draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]))
    src, dst = np.array(ids, dtype=np.int64)[lo[pick]], np.array(ids, dtype=np.int64)[hi[pick]]
    extra = rng.integers(0, max(len(src), 1), size=len(src) // 4)
    src, dst = np.concatenate([src, dst[extra]]), np.concatenate([dst, src[extra]])
    if n:
        loops = rng.choice(ids, size=2)
        src, dst = np.concatenate([src, loops]), np.concatenate([dst, loops])
    shuffle = rng.permutation(len(src))
    v = pd.DataFrame({"id": np.array(ids, dtype=np.int64), "attr": rng.choice(["a", "b"], size=n)})
    return v, pd.DataFrame({"src": src[shuffle], "dst": dst[shuffle]})


_K70 = (pd.DataFrame({"id": np.arange(70) * 7 - 200, "attr": ["a", "b"] * 35}),
        pd.DataFrame(np.array(np.triu_indices(70, 1)).T * 7 - 200, columns=["src", "dst"]))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(frames=_graphs())
@example(frames=(pd.DataFrame({"id": [], "attr": []}), pd.DataFrame({"src": [], "dst": []})))
@example(frames=(pd.DataFrame({"id": [5, -3, 9], "attr": ["a", "b", "b"]}),
                 pd.DataFrame({"src": [], "dst": []})))
@example(frames=_K70)
def test_csr_greedy_equals_sequential_greedy(frames):
    """``ColoredGraph``'s CSR greedy gives every vertex the color
    ``sequential_greedy`` gives it on the same graph's adjacency sets: the
    empty graph, isolated vertices, sparse and negative ids and graphs
    needing more than 64 colors included."""
    v, e = frames
    g = ColoredGraph.from_pandas(v, e)
    want = sequential_greedy(LocalGraph.from_pandas(v, e).adj)
    assert dict(zip(g.ids.tolist(), g.color.tolist())) == want


@settings(derandomize=True, deadline=None, max_examples=12)
@given(frames=_graphs())
@example(frames=(pd.DataFrame({"id": [5, -3, 9], "attr": ["a", "b", "b"]}),
                 pd.DataFrame({"src": [5, -3, 9, 5, 9], "dst": [-3, 5, 9, -3, 5]})))
def test_spark_collect_canonicalizes_edges(spark, frames):
    """The lift hands Spark the edges as given (reversed, repeated, self
    loops); the collect canonicalizes them, so lifting, checkpointing and
    collecting gives, array by array, the graph the driver builds from
    the same frames."""
    v, e = frames
    got = color_graph_local(from_pandas(spark, v, e).checkpointed())
    want = ColoredGraph.from_pandas(v, e)
    for name in ("ids", "is_b", "color", "src", "dst"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_complete_graph_takes_more_than_64_colors():
    g = ColoredGraph.from_pandas(*_K70)
    assert sorted(g.color.tolist()) == list(range(70))

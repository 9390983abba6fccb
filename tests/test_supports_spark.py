"""Colorful degree / support statistics of the driver peel vs the DuckDB
oracle + references."""
import numpy as np
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.graph import gen
from repro.graph.builder import from_pandas
from repro.graph.coloring import ColoredGraph, color_graph_local
from repro.graph.local import LocalGraph
from repro.core import reference as ref
from repro.core.reduction import edge_color_stats, enhanced_supports, vertex_color_stats

SYM_SQL = """
WITH sym AS (
  SELECT src AS u, dst AS w FROM edges
  UNION ALL SELECT dst AS u, src AS w FROM edges
)
"""


def _vertex_frame(g):
    """(id, d_a, d_b, c_a, c_b, c_m, ed) per vertex: the color groups and
    the colorful degrees (Def. 2) and ED (Def. 4) they give."""
    c_a, c_b, c_m = vertex_color_stats(g)
    ed = np.minimum(np.minimum(c_a, c_b) + c_m, (c_a + c_b + c_m) // 2)
    return pd.DataFrame({"id": g.ids, "d_a": c_a + c_m, "d_b": c_b + c_m,
                         "c_a": c_a, "c_b": c_b, "c_m": c_m, "ed": ed})


def _edge_frame(g):
    """(src, dst, sup_a, sup_b, c_a, c_b, c_m) by id per edge: the color
    groups and the colorful supports (Def. 6) they give."""
    c_a, c_b, c_m = edge_color_stats(g)
    return pd.DataFrame({"src": g.ids[g.src], "dst": g.ids[g.dst],
                         "sup_a": c_a + c_m, "sup_b": c_b + c_m,
                         "c_a": c_a, "c_b": c_b, "c_m": c_m})


@pytest.fixture(scope="module")
def colored_graph(spark):
    v, e = gen.random_attributed_graph(70, 0.12, seed=33)
    g = color_graph_local(from_pandas(spark, v, e))
    vcol = g.frames()[0]  # (id, attr, color) pandas
    lg = LocalGraph.from_pandas(vcol, e)
    return g, v, e, vcol, lg


def test_colorful_degrees_against_duckdb(colored_graph):
    g, v, e, vcol, _ = colored_graph
    got = _vertex_frame(g)[["id", "d_a", "d_b"]]
    assert_equivalent(
        got,
        SYM_SQL
        + """
        SELECT s.u AS id,
               COUNT(DISTINCT CASE WHEN x.attr = 'a' THEN x.color END) AS d_a,
               COUNT(DISTINCT CASE WHEN x.attr = 'b' THEN x.color END) AS d_b
        FROM sym s JOIN vcol x ON x.id = s.w
        GROUP BY 1
        """,
        edges=e,
        vcol=vcol,
    )


def test_vertex_color_groups_against_reference(colored_graph):
    g, v, e, vcol, lg = colored_graph
    got = _vertex_frame(g).set_index("id")
    alive = set(lg.adj)
    for vid in got.index:
        c_a, c_b, c_m = ref.vertex_groups(lg, alive, int(vid))
        row = got.loc[vid]
        assert (row["c_a"], row["c_b"], row["c_m"]) == (c_a, c_b, c_m)
        assert row["ed"] == ref.enhanced_colorful_degree(c_a, c_b, c_m)
        assert row["d_a"] == c_a + c_m and row["d_b"] == c_b + c_m


def test_colorful_support_against_duckdb(colored_graph):
    g, v, e, vcol, _ = colored_graph
    stats = _edge_frame(g)
    got = stats[(stats["sup_a"] + stats["sup_b"]) > 0][["src", "dst", "sup_a", "sup_b"]]
    assert_equivalent(
        got,
        SYM_SQL
        + """
        , cn AS (
          SELECT e.src, e.dst, s1.w
          FROM edges e
          JOIN sym s1 ON s1.u = e.src
          JOIN sym s2 ON s2.u = e.dst AND s2.w = s1.w
        )
        SELECT cn.src, cn.dst,
               COUNT(DISTINCT CASE WHEN x.attr = 'a' THEN x.color END) AS sup_a,
               COUNT(DISTINCT CASE WHEN x.attr = 'b' THEN x.color END) AS sup_b
        FROM cn JOIN vcol x ON x.id = cn.w
        GROUP BY 1, 2
        """,
        edges=e,
        vcol=vcol,
    )


def test_edge_color_groups_against_reference(colored_graph):
    g, v, e, vcol, lg = colored_graph
    got = _edge_frame(g)
    edges = set(zip(e["src"].astype(int), e["dst"].astype(int)))
    for _, row in got.iterrows():
        c_a, c_b, c_m = ref.edge_groups(lg, edges, int(row["src"]), int(row["dst"]))
        assert (row["c_a"], row["c_b"], row["c_m"]) == (c_a, c_b, c_m)
        assert row["sup_a"] == c_a + c_m and row["sup_b"] == c_b + c_m


def test_zero_stats_edges_have_no_common_neighbors(colored_graph):
    g, v, e, vcol, lg = colored_graph
    got = _edge_frame(g)
    zero = got[(got["sup_a"] == 0) & (got["sup_b"] == 0)]
    for _, row in zero.iterrows():
        u, w = int(row["src"]), int(row["dst"])
        assert not (lg.adj[u] & lg.adj[w])


def test_edge_stats_covers_every_edge(colored_graph):
    g, v, e, *_ = colored_graph
    assert [len(x) for x in edge_color_stats(g)] == [len(e)] * 3


def test_enhanced_support_cols_match_reference():
    """numpy Def-7 greedy assignment == python reference, all threshold
    pairs, over an exhaustive (c_a, c_b, c_m) grid."""
    grid = pd.DataFrame(
        [
            {"c_a": ca, "c_b": cb, "c_m": cm, "ka": ka, "kb": kb}
            for ca in range(4)
            for cb in range(4)
            for cm in range(4)
            for (ka, kb) in [(1, 3), (3, 1), (2, 2), (0, 2)]
        ]
    )
    esa, esb = enhanced_supports(*(grid[c].to_numpy() for c in ("c_a", "c_b", "c_m", "ka", "kb")))
    for r, got in zip(grid.itertuples(), zip(esa, esb)):
        assert got == ref.enhanced_sups(r.c_a, r.c_b, r.c_m, r.ka, r.kb), r


def test_stats_with_two_mask_words():
    """70 colors need two 64-bit mask words per group; ids are sparse and
    above 2**32. Both per-round stats equal the references."""
    ids = [10**12 + 7 * i for i in range(80)]
    v = pd.DataFrame({"id": ids, "attr": ["ab"[i % 2] for i in range(80)]})
    pairs = [(i, j) for i in range(70) for j in range(i + 1, 70)]
    pairs += [(70 + i, (13 * i) % 70) for i in range(10)]
    e = pd.DataFrame([(ids[i], ids[j]) for i, j in pairs], columns=["src", "dst"])
    g = ColoredGraph.from_pandas(v, e)
    assert int(np.max(g.color)) + 1 > 64
    lg = LocalGraph.from_pandas(*g.frames())
    edges = set(zip(e["src"], e["dst"]))
    for r in _edge_frame(g).itertuples():
        assert (r.c_a, r.c_b, r.c_m) == ref.edge_groups(lg, edges, r.src, r.dst)
    for r in _vertex_frame(g).itertuples():
        assert (r.c_a, r.c_b, r.c_m) == ref.vertex_groups(lg, set(lg.adj), r.id)

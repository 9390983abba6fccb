"""Reduction tests: fixpoint laws, batch≡sequential, optimum safety.

Each input is lifted to Spark and collected and colored by
``color_graph_local``; its ``LocalGraph`` is built from the same colored
frames, so the batch peels and ``core/reference.py`` see identical
colors. Besides the fixed graphs below, the peels are compared with the
references on six 30-vertex random graphs (``random<seed>``).
"""
import pandas as pd
import pytest

import repro.core.reduction as reduction
from repro.graph import gen
from repro.graph.builder import from_pandas
from repro.graph.coloring import color_graph_local
from repro.graph.local import LocalGraph
from repro.core import reference as ref
from repro.core.baseline import brute_force_size
from repro.core.reduction import colorful_sup_reduce, en_colorful_core, reduce_pipeline

SEEDS = range(6)


def _colored(spark, v, e):
    """(colored graph, v, e, its LocalGraph) for the frames ``v``, ``e``."""
    g = color_graph_local(from_pandas(spark, v, e))
    return g, v, e, LocalGraph.from_pandas(*g.frames())


@pytest.fixture(scope="module")
def dense_graph(spark):
    """Random graph + a planted fair clique so reductions keep something."""
    v, e = gen.random_attributed_graph(60, 0.15, seed=8)
    edges = set(zip(e["src"], e["dst"]))
    import numpy as np

    gen.plant_fair_clique(edges, v, np.arange(10), cnt_a=5, seed=4)
    return _colored(spark, v, gen._edges_frame(edges))


@pytest.fixture(scope="module")
def strip_graph(spark):
    """A long cascade: the 4th power of a 40-vertex path (attributes
    a, b, b repeating) whose last 8 vertices form a clique. Its enhanced
    colorful 2-core peels from the far end a few vertices per round and
    takes 13 batch rounds, so a per-stage round cap would stop short."""
    n, w = 40, 4
    v = pd.DataFrame({"id": range(n), "attr": ["abb"[i % 3] for i in range(n)]})
    pairs = {(i, j) for i in range(n) for j in range(i + 1, min(n, i + w + 1))}
    pairs |= {(i, j) for i in range(n - 8, n) for j in range(i + 1, n)}
    return _colored(spark, v, pd.DataFrame(sorted(pairs), columns=["src", "dst"]))


@pytest.fixture(scope="module")
def random_graphs(spark):
    """(n, p, seed) -> a random graph as ``_colored`` gives it, built once."""
    cache = {}

    def get(n=30, p=0.35, seed=0):
        if (n, p, seed) not in cache:
            cache[(n, p, seed)] = _colored(spark, *gen.random_attributed_graph(n, p, seed=seed))
        return cache[(n, p, seed)]

    return get


def _input(request, graph):
    """The graph a test is parametrized with: a fixture's name, or
    ``random<seed>``."""
    if graph.startswith("random"):
        return request.getfixturevalue("random_graphs")(seed=int(graph[len("random"):]))
    return request.getfixturevalue(graph)


def _edge_set(g):
    ep = g.frames()[1]
    return set(zip(ep["src"].astype(int), ep["dst"].astype(int)))


def _vertex_set(g):
    return set(g.frames()[0]["id"].astype(int))


@pytest.mark.parametrize(
    "graph,t",
    [pytest.param("dense_graph", t, id=str(t)) for t in (2, 3, 4)]
    + [pytest.param("strip_graph", 2, id="strip-2")]
    + [pytest.param(f"random{s}", t, id=f"random{s}-{t}") for t in (2, 3) for s in SEEDS],
)
def test_en_colorful_core_equals_sequential_reference(request, monkeypatch, graph, t):
    g, v, e, lg = _input(request, graph)
    rounds = []
    stats = reduction.vertex_color_stats

    def counted(*args):
        rounds.append(1)
        return stats(*args)

    monkeypatch.setattr(reduction, "vertex_color_stats", counted)
    out = en_colorful_core(g, t)
    got = _vertex_set(out)
    want = ref.reference_core_peel(lg, t)
    assert got == want
    assert _edge_set(out) == {(u, v) for u, v in _edge_set(g) if u in want and v in want}
    if graph == "strip_graph":
        assert len(rounds) > 8 and got


def test_en_colorful_core_zero_threshold(random_graphs):
    """At t = 0 EnColorfulCore keeps every vertex (none is isolated here)."""
    g, v, e, lg = random_graphs(seed=1)
    assert _vertex_set(en_colorful_core(g, 0)) == set(lg.adj)


@pytest.mark.parametrize(
    "graph,k,enhanced",
    [pytest.param("dense_graph", k, x, id=f"{k}-{x}") for k in (3, 4) for x in (False, True)]
    + [pytest.param(f"random{s}", k, x, id=f"random{s}-{k}-{x}")
       for k in (2, 3) for x in (False, True) for s in SEEDS],
)
def test_sup_peel_equals_sequential_reference(request, graph, k, enhanced):
    """Batch edge-peel == one-at-a-time reference peel."""
    g, v, e, lg = _input(request, graph)
    got = _edge_set(colorful_sup_reduce(g, k, enhanced=enhanced))
    want = ref.reference_sup_peel(lg, k, enhanced=enhanced)
    assert got == want


def test_sup_fixpoint_satisfies_lemma_conditions(dense_graph):
    """Every surviving edge meets its Lemma-3 thresholds (recomputed
    independently on the reduced edge set)."""
    g, v, e, lg = dense_graph
    k = 4
    edges = _edge_set(colorful_sup_reduce(g, k))
    for (u, w) in edges:
        c_a, c_b, c_m = ref.edge_groups(lg, edges, u, w)
        ka, kb = ref.thresholds(lg, u, w, k)
        assert c_a + c_m >= ka and c_b + c_m >= kb


def test_ensup_subset_of_sup(dense_graph):
    g, *_ = dense_graph
    sup = _edge_set(colorful_sup_reduce(g, 4, enhanced=False))
    ensup = _edge_set(colorful_sup_reduce(g, 4, enhanced=True))
    assert ensup <= sup


@pytest.mark.parametrize("k,delta", [(3, 1), (4, 2)])
def test_reduction_preserves_optimum(spark, dense_graph, k, delta):
    """The central safety property (Lemmas 1–4): the reduced graph holds a
    maximum fair clique of the original."""
    g, v, e, lg = dense_graph
    opt = brute_force_size(lg, k, delta)
    red = reduce_pipeline(from_pandas(spark, v, e), k).graph
    assert brute_force_size(LocalGraph.from_pandas(*red.frames()), k, delta) == opt


def test_pipeline_keeps_optimum_at_ensup_fixpoint(spark, random_graphs):
    """The pipeline keeps the optimum and ends at a fixpoint: the
    reference EnColorfulSup peel removes nothing more."""
    _, v, e, lg = random_graphs(n=26, p=0.45, seed=3)
    k, delta = 2, 1
    opt = brute_force_size(lg, k, delta)
    red = LocalGraph.from_pandas(*reduce_pipeline(from_pandas(spark, v, e), k).graph.frames())
    assert brute_force_size(red, k, delta) == opt
    edges = {(u, w) for u in red.adj for w in red.adj[u] if u < w}
    assert ref.reference_sup_peel(red, k, enhanced=True) == edges


def test_pipeline_monotone_shrink(spark, dense_graph):
    g, v, e, _ = dense_graph
    rep = reduce_pipeline(from_pandas(spark, v, e), 4)
    sizes = [(n, m) for _, n, m, _ in rep.stages]
    for (n1, m1), (n2, m2) in zip(sizes, sizes[1:]):
        assert n2 <= n1 and m2 <= m1
    assert [s[0] for s in rep.stages] == ["original", "encore", "ensup"]


def test_pipeline_k1_stage_rows(spark):
    """At k = 1 EnColorfulCore's threshold is 0: it keeps every vertex,
    and the ``encore`` row already has the isolated vertices dropped."""
    v, e = gen.random_attributed_graph(30, 0.2, seed=5)
    v = pd.concat([v, pd.DataFrame({"id": [100, 101, 102], "attr": ["a", "b", "a"]})])
    g = from_pandas(spark, v, e)
    rep = reduce_pipeline(g, 1)
    # G, colored as the pipeline colors it
    lg = LocalGraph.from_pandas(*color_graph_local(g).frames())
    touched = {u for uv in map(tuple, e.values) for u in uv}

    def row(edges):
        return len({u for uv in edges for u in uv}), len(edges)

    assert [s[:3] for s in rep.stages] == [
        ("original", len(v), len(e)),
        ("encore", len(touched), len(e)),
        ("ensup", *row(ref.reference_sup_peel(lg, 1, enhanced=True))),
    ]


def test_paper_example2_shape(spark):
    """Example 2 analogue: an edge whose common-neighbor colorful support
    on one attribute is below k−1 is removed by ColorfulSup."""
    # Edge (0,1), attrs a/b; common neighbors: 2,3 (attr a), 4 (attr b).
    # With k=3 thresholds (k−1, k−1) = (2, 2): sup_b = 1 < 2 → edge dies.
    v = pd.DataFrame(
        {"id": [0, 1, 2, 3, 4], "attr": ["a", "b", "a", "a", "b"]}
    )
    e = pd.DataFrame(
        {"src": [0, 0, 0, 1, 1, 1], "dst": [1, 2, 3, 2, 3, 4]}
    ).assign(dst=lambda d: d["dst"])
    e = pd.concat(
        [e, pd.DataFrame({"src": [0], "dst": [4]})], ignore_index=True
    )
    g = from_pandas(spark, v, e)
    red = colorful_sup_reduce(color_graph_local(g), 3)
    assert (0, 1) not in _edge_set(red)

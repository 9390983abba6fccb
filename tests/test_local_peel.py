"""Driver batch peels against the one-at-a-time reference on small
random graphs.

Each input is a 30-vertex random attributed graph lifted to Spark and
collected and colored by ``color_graph_local``; its ``LocalGraph`` is
built from the same colored frames, so the batch peels and
``core/reference.py`` see identical colors.
"""
import pytest

from repro.graph import gen
from repro.graph.builder import from_pandas
from repro.graph.coloring import color_graph_local
from repro.graph.local import LocalGraph
from repro.core import reference as ref
from repro.core.reduction import (
    colorful_core,
    colorful_sup_reduce,
    en_colorful_core,
    reduce_pipeline,
)


@pytest.fixture(scope="module")
def graphs(spark):
    """(n, p, seed) -> (Spark graph, colored graph, LocalGraph), built once."""
    cache = {}

    def get(n=30, p=0.35, seed=0):
        if (n, p, seed) not in cache:
            v, e = gen.random_attributed_graph(n, p, seed=seed)
            lifted = from_pandas(spark, v, e)
            g = color_graph_local(lifted)
            cache[(n, p, seed)] = (lifted, g, LocalGraph.from_pandas(*g.frames()))
        return cache[(n, p, seed)]

    return get


def _edge_set(g):
    ep = g.frames()[1]
    return set(zip(ep["src"].astype(int), ep["dst"].astype(int)))


def _vertex_set(g):
    return set(g.frames()[0]["id"].astype(int))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k,enhanced", [(2, False), (2, True), (3, False), (3, True)])
def test_sup_peel_matches_reference(graphs, seed, k, enhanced):
    _, g, lg = graphs(seed=seed)
    got = _edge_set(colorful_sup_reduce(g, k, enhanced=enhanced))
    assert got == ref.reference_sup_peel(lg, k, enhanced=enhanced)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("t,enhanced", [(2, False), (2, True), (3, True)])
def test_vertex_peel_matches_reference(graphs, seed, t, enhanced):
    _, g, lg = graphs(seed=seed)
    peel = en_colorful_core if enhanced else colorful_core
    out = peel(g, t)
    want = ref.reference_core_peel(lg, t, enhanced=enhanced)
    assert _vertex_set(out) == want
    assert _edge_set(out) == {(u, v) for u, v in _edge_set(g) if u in want and v in want}


def test_vertex_peel_zero_threshold(graphs):
    _, g, lg = graphs(seed=1)
    assert _vertex_set(en_colorful_core(g, 0)) == set(lg.adj)


def test_apply_local_stage_chain_preserves_optimum(graphs):
    """The three-stage pipeline keeps the optimum and ends at a fixpoint."""
    from repro.core.baseline import brute_force_size

    lifted, _, lg = graphs(n=26, p=0.45, seed=3)
    k, delta = 2, 1
    opt = brute_force_size(lg, k, delta)
    red = LocalGraph.from_pandas(*reduce_pipeline(lifted, k).graph.frames())
    assert brute_force_size(red, k, delta) == opt
    # Fixpoint: the reference EnColorfulSup peel removes nothing more.
    edges = {(u, v) for u in red.adj for v in red.adj[u] if u < v}
    assert ref.reference_sup_peel(red, k, enhanced=True) == edges

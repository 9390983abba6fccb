"""Tests for the driver-side graph substrates: the oracles' adjacency-set
``LocalGraph``, the ``ColoredGraph`` kernel's k-core, degeneracy, h-index,
color groups and clique check, and the conversion between the two."""
import numpy as np
import pandas as pd
import pytest

from repro.core import bounds, reference
from repro.graph import gen
from repro.graph.coloring import ColoredGraph, sequential_greedy
from repro.graph.local import LocalGraph


def _lg(n=30, p=0.3, seed=0, p_a=0.5):
    v, e = gen.random_attributed_graph(n, p, seed=seed, p_a=p_a)
    return LocalGraph.from_pandas(v, e)


def _kernel(n=30, p=0.3, seed=0, p_a=0.5):
    """The ``_lg`` graph as a ``ColoredGraph``; both color it greedily."""
    v, e = gen.random_attributed_graph(n, p, seed=seed, p_a=p_a)
    return ColoredGraph.from_pandas(v, e)


def _path(n):
    v = pd.DataFrame({"id": range(n), "attr": (["a", "b"] * (n // 2 + 1))[:n]})
    e = pd.DataFrame({"src": range(n - 1), "dst": range(1, n)})
    return ColoredGraph.from_pandas(v, e)


def test_from_pandas_symmetry():
    lg = _lg()
    for u, nbrs in lg.adj.items():
        for v in nbrs:
            assert u in lg.adj[v]
            assert u != v


def test_n_m_counts():
    v, e = gen.random_attributed_graph(40, 0.2, seed=1)
    lg = LocalGraph.from_pandas(v, e)
    assert lg.n == 40
    assert lg.m == len(e)


def test_subgraph_induces_edges():
    lg = _lg(seed=2)
    keep = list(lg.adj)[:15]
    sub = lg.subgraph(keep)
    assert set(sub.adj) == set(keep)
    for u in keep:
        assert sub.adj[u] == lg.adj[u] & set(keep)


def test_is_clique():
    v = pd.DataFrame({"id": [0, 1, 2, 3], "attr": ["a", "b", "a", "b"]})
    e = pd.DataFrame({"src": [0, 0, 0, 1, 1, 2], "dst": [1, 2, 3, 2, 3, 3]})
    lg = LocalGraph.from_pandas(v, e)
    assert lg.is_clique([0, 1, 2, 3])
    e2 = e.iloc[:-1]
    lg2 = LocalGraph.from_pandas(v, e2)
    assert not lg2.is_clique([0, 1, 2, 3])
    assert lg2.is_clique([0, 1, 2])


def test_attr_counts_and_fairness():
    v = pd.DataFrame({"id": [0, 1, 2, 3], "attr": ["a", "b", "a", "b"]})
    e = pd.DataFrame({"src": [0, 0, 0, 1, 1, 2], "dst": [1, 2, 3, 2, 3, 3]})
    lg = LocalGraph.from_pandas(v, e)
    assert lg.attr_counts([0, 1, 2, 3]) == (2, 2)
    assert lg.is_fair_clique([0, 1, 2, 3], k=2, delta=0)
    assert not lg.is_fair_clique([0, 1, 2, 3], k=3, delta=0)
    assert not lg.is_fair_clique([0, 1, 2], k=1, delta=0)  # diff 1 > 0


@pytest.mark.parametrize("seed,p_a", [(0, 0.5), (1, 0.3), (2, 0.8)])
def test_color_groups_match_reference_and_bounds(seed, p_a):
    """The kernel's color groups of each vertex's neighborhood (its
    induced subgraph) equal the reference oracle's; over the whole graph
    they give Lemma 7's and Lemma 8's bounds."""
    lg = _lg(seed=seed, p_a=p_a)
    g = _kernel(seed=seed, p_a=p_a)
    alive = set(lg.adj)
    start, nbr = g.neighbours()
    for i, v in enumerate(g.ids.tolist()):
        keep = np.zeros(g.n, dtype=bool)
        keep[nbr[start[i]:start[i + 1]]] = True
        assert bounds.color_groups(g.induced(keep)) == reference.vertex_groups(lg, alive, v)
    c_a, c_b, c_m = bounds.color_groups(g)
    cols_a = {lg.color[v] for v in lg.adj if lg.attr[v] == "a"}
    cols_b = {lg.color[v] for v in lg.adj if lg.attr[v] == "b"}
    assert (c_a + c_m, c_b + c_m) == (len(cols_a), len(cols_b))
    assert bounds.ub_color(g) == c_a + c_b + c_m == len(cols_a | cols_b)
    for delta in (0, 1, 3):
        x, y = c_a + c_m, c_b + c_m
        assert bounds.ub_attr_color(g, delta) == min(x + y, 2 * min(x, y) + delta)


def test_recolor_is_proper():
    """``from_pandas`` colors a frame without a ``color`` column properly."""
    lg = _lg(seed=3)
    assert set(lg.color) == set(lg.adj)
    for u, nbrs in lg.adj.items():
        for v in nbrs:
            assert lg.color[u] != lg.color[v]


def test_recolor_matches_sequential_greedy():
    """The coloring ``from_pandas`` makes is ``sequential_greedy``'s."""
    lg = _lg(seed=4)
    assert lg.color == sequential_greedy(lg.adj)


def test_k_core_min_degree():
    """The kernel's core has min degree ≥ k and keeps the input's coloring."""
    lg = _lg(n=50, p=0.15, seed=5)
    core = LocalGraph.from_pandas(*_kernel(n=50, p=0.15, seed=5).k_core(3).frames())
    assert core.n > 0
    for v in core.adj:
        assert len(core.adj[v]) >= 3
    assert core.color == {v: lg.color[v] for v in core.adj}


def test_k_core_is_maximal_against_reference():
    """Peel one vertex at a time (reference) == batch k_core."""
    lg = _lg(n=40, p=0.2, seed=6)
    adj = {v: set(s) for v, s in lg.adj.items()}
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if len(adj[v]) < 3:
                for u in adj[v]:
                    adj[u].discard(v)
                del adj[v]
                changed = True
    core = _kernel(n=40, p=0.2, seed=6).k_core(3)
    assert set(core.ids.tolist()) == set(adj)
    assert {tuple(uv) for uv in core.frames()[1].to_numpy().tolist()} == {
        (u, v) for u in adj for v in adj[u] if u < v}


def test_k_core_of_clique():
    v = pd.DataFrame({"id": range(6), "attr": ["a"] * 6})
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    e = pd.DataFrame(pairs, columns=["src", "dst"])
    g = ColoredGraph.from_pandas(v, e)
    assert set(g.k_core(5).ids.tolist()) == set(range(6))
    assert g.k_core(6).n == 0


def test_degeneracy_path_and_clique():
    assert bounds.degeneracy(_path(10)) == 1
    v = pd.DataFrame({"id": range(5), "attr": ["a"] * 5})
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    g = ColoredGraph.from_pandas(v, pd.DataFrame(pairs, columns=["src", "dst"]))
    assert bounds.degeneracy(g) == 4


def test_h_index_function():
    assert bounds.h_index(np.array([], dtype=np.int64)) == 0
    assert bounds.h_index(np.array([0, 0])) == 0
    assert bounds.h_index(np.array([1, 1, 1])) == 1
    assert bounds.h_index(np.array([3, 3, 3])) == 3
    assert bounds.h_index(np.array([5, 4, 3, 2, 1])) == 3


def test_h_index_graph():
    g = _path(10)
    assert bounds.h_index(g.degrees()) == 2


def test_empty_graph():
    lg = LocalGraph.from_pandas(
        pd.DataFrame({"id": [], "attr": []}),
        pd.DataFrame({"src": [], "dst": []}),
    )
    g = ColoredGraph.from_pandas(
        pd.DataFrame({"id": [], "attr": []}), pd.DataFrame({"src": [], "dst": []})
    )
    assert lg.n == 0 and lg.m == 0
    assert bounds.degeneracy(g) == 0
    assert g.k_core(1).n == 0


@pytest.mark.parametrize("seed", range(3))
def test_colored_round_trips_graph_and_coloring(seed):
    """The kernel of a pair of frames, read back through its frames, is
    the ``LocalGraph`` of the same frames: vertices, attributes, edges and
    colors."""
    lg = _lg(n=25, p=0.3, seed=seed)
    g = _kernel(n=25, p=0.3, seed=seed)
    back = LocalGraph.from_pandas(*g.frames())
    assert (back.adj, back.attr, back.color) == (lg.adj, lg.attr, lg.color)


def test_colored_graph_fair_clique():
    """``ColoredGraph.is_fair_clique`` agrees with ``LocalGraph``'s, and
    sets with an id outside the graph or a repeated id are not cliques."""
    for seed in range(4):
        lg = _lg(n=12, p=0.6, seed=seed)
        g = _kernel(n=12, p=0.6, seed=seed)
        ids = sorted(lg.adj)
        for size in (2, 3, 4):
            for start in range(len(ids) - size):
                verts = ids[start:start + size]
                for k, delta in ((1, 0), (1, 1), (2, 1)):
                    assert g.is_fair_clique(verts, k, delta) == lg.is_fair_clique(verts, k, delta)
    fair = next(c for c in ([u, v] for u in ids for v in lg.adj[u]) if lg.is_fair_clique(c, 1, 0))
    assert g.is_fair_clique(fair, 1, 0)
    assert not g.is_fair_clique(fair + [max(ids) + 1], 1, 1)
    assert not g.is_fair_clique(fair + [min(ids) - 1], 1, 1)
    assert not g.is_fair_clique(fair + fair[:1], 1, 1)

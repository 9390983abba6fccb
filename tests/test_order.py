"""Tests for colorful-core peeling (CalColorOD ordering, Def. 8–9)."""
import pandas as pd
import pytest

from repro.graph import gen
from repro.graph.local import LocalGraph
from repro.core.order import (
    cal_color_od,
    colorful_degeneracy,
    colorful_dmin_per_vertex,
    colorful_peel,
)


def _lg(n=30, p=0.3, seed=0):
    v, e = gen.random_attributed_graph(n, p, seed=seed)
    lg = LocalGraph.from_pandas(v, e)
    return lg


def _dmin_reference(lg, verts):
    out = {}
    vs = set(verts)
    for v in vs:
        ca = {lg.color[u] for u in lg.adj[v] & vs if lg.attr[u] == "a"}
        cb = {lg.color[u] for u in lg.adj[v] & vs if lg.attr[u] == "b"}
        out[v] = min(len(ca), len(cb))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_order_is_permutation(seed):
    lg = _lg(seed=seed)
    order = cal_color_od(lg)
    assert sorted(order) == sorted(lg.adj)


@pytest.mark.parametrize("seed", range(5))
def test_dmin_per_vertex_matches_reference(seed):
    lg = _lg(seed=seed)
    assert colorful_dmin_per_vertex(lg) == _dmin_reference(lg, lg.adj)


@pytest.mark.parametrize("seed", range(5))
def test_ccore_numbers_against_direct_definition(seed):
    """ccore(v) ≥ t iff v survives iterated peeling at threshold t."""
    lg = _lg(n=20, p=0.4, seed=seed)
    _, ccore, cdeg = colorful_peel(lg)

    def colorful_core_members(t):
        alive = set(lg.adj)
        while True:
            dm = _dmin_reference(lg, alive)
            bad = {v for v in alive if dm[v] < t}
            if not bad:
                return alive
            alive -= bad

    for t in range(0, cdeg + 2):
        members = colorful_core_members(t)
        assert members == {v for v in lg.adj if ccore[v] >= t}, f"t={t}"


@pytest.mark.parametrize("seed", range(3))
def test_colorful_degeneracy_is_max_ccore(seed):
    lg = _lg(seed=seed)
    _, ccore, cdeg = colorful_peel(lg)
    assert cdeg == max(ccore.values())
    assert colorful_degeneracy(lg) == cdeg


def test_peel_on_balanced_clique():
    """K6 with 3a+3b, all distinct colors: every vertex has D_min = 2
    after intra-clique counting; the colorful degeneracy is 2."""
    v = pd.DataFrame({"id": range(6), "attr": ["a", "b"] * 3})
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    lg = LocalGraph.from_pandas(v, pd.DataFrame(pairs, columns=["src", "dst"]))
    _, ccore, cdeg = colorful_peel(lg)
    assert cdeg == 2
    assert all(c == 2 for c in ccore.values())


def test_peel_empty():
    lg = LocalGraph(adj={}, attr={})
    order, ccore, cdeg = colorful_peel(lg)
    assert order == [] and ccore == {} and cdeg == 0

"""Tests for colorful-core peeling (CalColorOD ordering, Def. 8–9): the
array peel of ``core/order.py`` against the definitions and against the
dict-and-heap oracle ``core/reference.py::colorful_peel``."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import gen
from repro.graph.coloring import ColoredGraph
from repro.graph.local import LocalGraph
from repro.core import reference as ref
from repro.core.order import (
    cal_color_od,
    colorful_degeneracy,
    colorful_dmin,
    colorful_peel,
)


def _lg(n=30, p=0.3, seed=0):
    v, e = gen.random_attributed_graph(n, p, seed=seed)
    return ColoredGraph.from_pandas(v, e)


def _oracle(g):
    """The kernel ``g`` as the oracles' ``LocalGraph``, same coloring."""
    return LocalGraph.from_pandas(*g.frames())


def _dmin_reference(lg, verts):
    out = {}
    vs = set(verts)
    for v in vs:
        ca = {lg.color[u] for u in lg.adj[v] & vs if lg.attr[u] == "a"}
        cb = {lg.color[u] for u in lg.adj[v] & vs if lg.attr[u] == "b"}
        out[v] = min(len(ca), len(cb))
    return out


def _by_id(g, per_label):
    return dict(zip(g.ids.tolist(), per_label.tolist()))


@pytest.mark.parametrize("seed", range(5))
def test_order_is_permutation(seed):
    g = _lg(seed=seed)
    order = cal_color_od(g)
    assert sorted(order.tolist()) == list(range(g.n))


@pytest.mark.parametrize("seed", range(5))
def test_dmin_per_vertex_matches_reference(seed):
    g = _lg(seed=seed)
    lg = _oracle(g)
    assert _by_id(g, colorful_dmin(g)) == _dmin_reference(lg, lg.adj)


@pytest.mark.parametrize("seed", range(5))
def test_ccore_numbers_against_direct_definition(seed):
    """ccore(v) ≥ t iff v survives iterated peeling at threshold t."""
    g = _lg(n=20, p=0.4, seed=seed)
    lg = _oracle(g)
    _, ccore, cdeg = colorful_peel(g)
    ccore = _by_id(g, ccore)

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
    g = _lg(seed=seed)
    _, ccore, cdeg = colorful_peel(g)
    assert cdeg == max(ccore)
    assert colorful_degeneracy(g) == cdeg


def test_peel_on_balanced_clique():
    """K6 with 3a+3b, all distinct colors: every vertex has D_min = 2
    after intra-clique counting; the colorful degeneracy is 2."""
    v = pd.DataFrame({"id": range(6), "attr": ["a", "b"] * 3})
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    g = ColoredGraph.from_pandas(v, pd.DataFrame(pairs, columns=["src", "dst"]))
    _, ccore, cdeg = colorful_peel(g)
    assert cdeg == 2
    assert all(c == 2 for c in ccore)


def test_peel_empty():
    g = ColoredGraph.from_pandas(pd.DataFrame({"id": [], "attr": []}),
                                 pd.DataFrame({"src": [], "dst": []}))
    order, ccore, cdeg = colorful_peel(g)
    assert len(order) == 0 and len(ccore) == 0 and cdeg == 0
    assert ref.colorful_peel(_oracle(g)) == ([], {}, 0)


@st.composite
def colored_graphs(draw, max_n=14):
    """A random attributed graph on ≤ max_n vertices, some of them
    isolated, with sparse ids and a proper coloring drawn from few colors
    (so many vertices tie on D_min)."""
    n = draw(st.integers(0, max_n))
    ids = draw(st.lists(st.integers(-50, 10**6), min_size=n, max_size=n, unique=True))
    attrs = draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    v = pd.DataFrame({"id": ids, "attr": attrs}, columns=["id", "attr"])
    e = pd.DataFrame([p for p, kept in zip(pairs, keep) if kept], columns=["src", "dst"])
    # An independent-set partition by a random vertex order: a proper
    # coloring that is not the degree-greedy one.
    order = draw(st.permutations(range(n)))
    adj = {i: set() for i in ids}
    for a, b in zip(e["src"], e["dst"]):
        adj[a].add(b)
        adj[b].add(a)
    color = {}
    for i in order:
        used = {color[u] for u in adj[ids[i]] if u in color}
        color[ids[i]] = min(set(range(n + 1)) - used)
    return v.assign(color=np.array([color[i] for i in ids], dtype=np.int64)), e


@settings(derandomize=True, deadline=None, max_examples=300)
@given(frames=colored_graphs())
def test_array_peel_equals_reference_peel(frames):
    """On random colored graphs, ties, isolated vertices and the empty
    graph included, the array peel gives the oracle's removal order,
    colorful core numbers and colorful degeneracy (``colorful_degeneracy``,
    the ub_cd root bound, too)."""
    v, e = frames
    lg = LocalGraph.from_pandas(v, e)
    g = replace(ColoredGraph.from_pandas(v, e), color=v.sort_values("id")["color"].to_numpy())
    order, ccore, cdeg = colorful_peel(g)
    want_order, want_ccore, want_cdeg = ref.colorful_peel(lg)
    assert g.ids[order].tolist() == want_order
    assert _by_id(g, ccore) == want_ccore
    assert cdeg == want_cdeg == colorful_degeneracy(g)

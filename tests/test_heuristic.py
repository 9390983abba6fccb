"""Tests for DegHeur / ColorfulDegHeur / HeurRFC (Algorithms 5–6)."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.graph import gen
from repro.graph.coloring import ColoredGraph
from repro.graph.local import LocalGraph
from repro.core.baseline import brute_force_size
from repro.core.heuristic import colorful_deg_heur, deg_heur, heur_rfc


def _lg(n, p, seed, p_a=0.5):
    v, e = gen.random_attributed_graph(n, p, seed=seed, p_a=p_a)
    return ColoredGraph.from_pandas(v, e)


def _oracle(g):
    """The kernel ``g`` as the oracles' ``LocalGraph``, same coloring."""
    return LocalGraph.from_pandas(*g.frames())


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("fn", [deg_heur, colorful_deg_heur])
@pytest.mark.parametrize("k,delta", [(1, 1), (2, 1), (2, 2)])
def test_heuristic_output_is_fair_clique_or_empty(seed, fn, k, delta):
    lg = _lg(25, 0.5, seed)
    r = fn(lg, k, delta)
    if r:
        assert _oracle(lg).is_fair_clique(r, k, delta)
        assert len(r) == len(set(r))


@pytest.mark.parametrize("seed", range(10))
def test_heuristic_never_beats_optimum(seed):
    lg = _lg(20, 0.5, seed)
    k, delta = 2, 1
    opt = brute_force_size(_oracle(lg), k, delta)
    for fn in (deg_heur, colorful_deg_heur):
        assert len(fn(lg, k, delta)) <= opt


def test_heur_rfc_combines_and_prunes():
    lg = _lg(40, 0.4, seed=4)
    k, delta = 2, 1
    res = heur_rfc(lg, k, delta)
    assert len(res.clique) >= max(len(deg_heur(lg, k, delta)), 0)
    if res.clique:
        assert _oracle(lg).is_fair_clique(res.clique, k, delta)
        # Pruned graph is the (|R*|-1)-core: every vertex has degree ≥ |R*|-1.
        for v, nbrs in _oracle(res.graph).adj.items():
            assert len(nbrs) >= len(res.clique) - 1
        # The heuristic clique itself survives the pruning.
        assert set(res.clique) <= set(res.graph.ids.tolist())
    assert res.ub >= brute_force_size(_oracle(lg), k, delta)


def test_heur_rfc_ub_is_sound():
    for seed in range(6):
        lg = _lg(22, 0.5, seed)
        for k, delta in [(1, 1), (2, 2)]:
            res = heur_rfc(lg, k, delta)
            assert res.ub >= brute_force_size(_oracle(lg), k, delta)


def test_heuristic_on_planted_clique_close_to_opt():
    """Fig-8 shape: heuristic within a small additive gap of optimum."""
    v, e = gen.random_attributed_graph(80, 0.06, seed=13)
    edges = set(zip(e["src"], e["dst"]))
    gen.plant_fair_clique(edges, v, np.arange(12), cnt_a=6, seed=2)
    lg = ColoredGraph.from_pandas(v, gen._edges_frame(edges))
    k, delta = 3, 1
    opt = brute_force_size(_oracle(lg), k, delta)
    got = heur_rfc(lg, k, delta).size
    assert opt - got <= 6  # the paper's observed gap bound


def test_heuristic_alternation_keeps_balance():
    """On a complete bipartite-attribute-mix clique the greedy result is
    balanced within δ."""
    v = pd.DataFrame({"id": range(10), "attr": ["a"] * 7 + ["b"] * 3})
    pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    lg = ColoredGraph.from_pandas(v, pd.DataFrame(pairs, columns=["src", "dst"]))
    r = deg_heur(lg, 3, 1)
    assert r, "greedy must find a fair clique in a complete graph"
    na, nb = _oracle(lg).attr_counts(r)
    assert na >= 3 and nb >= 3 and abs(na - nb) <= 1


def test_heuristic_single_attribute_graph_fails_gracefully():
    v = pd.DataFrame({"id": range(5), "attr": ["a"] * 5})
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    lg = ColoredGraph.from_pandas(v, pd.DataFrame(pairs, columns=["src", "dst"]))
    assert deg_heur(lg, 1, 1) == []
    assert colorful_deg_heur(lg, 1, 1) == []
    assert heur_rfc(lg, 1, 1).clique == []


def test_heur_rfc_leaves_input_colors_alone():
    """No fair clique found: the returned graph is the input, and its
    coloring (here not the greedy one) must come back unchanged."""
    v = pd.DataFrame({"id": range(4), "attr": ["a", "b", "a", "b"]})
    lg = ColoredGraph.from_pandas(v, pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3]}))
    lg = replace(lg, color=np.array([5, 6, 5, 6]))
    res = heur_rfc(lg, 2, 1)
    assert res.clique == [] and res.ub == 2
    assert lg.color.tolist() == [5, 6, 5, 6]
    assert res.graph.color.tolist() == [5, 6, 5, 6]


def test_heuristic_empty_graph():
    lg = ColoredGraph.from_pandas(pd.DataFrame({"id": [], "attr": []}),
                                  pd.DataFrame({"src": [], "dst": []}))
    assert deg_heur(lg, 1, 1) == []
    assert heur_rfc(lg, 1, 1).clique == []


def test_heuristic_linearish_runtime():
    """Smoke check of the linear-time claim: 4x vertices ≲ 25x time."""
    import time

    def run(n, seed):
        lg = _lg(n, 8.0 / n, seed)
        t0 = time.perf_counter()
        heur_rfc(lg, 2, 1)
        return time.perf_counter() - t0

    small = min(run(500, s) for s in range(3))
    big = min(run(2000, s) for s in range(3))
    assert big <= max(25 * small, small + 1.0)

"""Branch-and-bound correctness: equality with brute force everywhere."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import gen
from repro.graph.coloring import ColoredGraph
from repro.graph.local import LocalGraph
from repro.core.baseline import brute_force_size
from repro.core.bounds import COMBOS
from repro.core.branch import branch_search
from repro.core.heuristic import heur_rfc
from repro.core.maxrfc import max_rfc_local
from repro.core.reduction import colorful_sup_reduce, en_colorful_core


def _lg(n, p, seed, p_a=0.5):
    v, e = gen.random_attributed_graph(n, p, seed=seed, p_a=p_a)
    return ColoredGraph.from_pandas(v, e)


def _oracle(g):
    """The kernel ``g`` as the oracles' ``LocalGraph``, same coloring."""
    return LocalGraph.from_pandas(*g.frames())


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("k,delta", [(1, 0), (1, 2), (2, 1), (3, 2)])
def test_search_matches_brute_force(seed, k, delta):
    lg = _lg(20, 0.5, seed)
    res = branch_search(lg, k, delta, ub_combo="ad")
    assert res.completed
    assert len(res.clique) == brute_force_size(_oracle(lg), k, delta)
    if res.clique:
        assert _oracle(lg).is_fair_clique(res.clique, k, delta)


def test_dense_gnp_search_tree_pinned():
    """The dense benchmark query, G(240, 0.5) at seed 0 with k = 3 and
    δ = 2: a node-loop change that keeps the search tree keeps this
    node count."""
    res = max_rfc_local(_lg(240, 0.5, 0), 3, 2)
    assert (res.search.nodes, res.size) == (21_304, 11)


#: The benchmark's kernels: (frames, k, δ) → HeurRFC's (size, ub, core m)
#: and the search's (nodes, size). dense_gnp's reductions remove nothing,
#: so its kernel is G; the analogues' kernels are reduced on the driver
#: as ``reduce_pipeline`` reduces them after the collect.
BENCHMARK_KERNELS = {
    "gnp-seed0": (lambda: gen.random_attributed_graph(240, 0.5, seed=0), 3, 2,
                  (8, 40, 14_322), (21_304, 11)),
    "gnp-seed97": (lambda: gen.random_attributed_graph(240, 0.5, seed=97), 3, 2,
                   (8, 40, 14_447), (28_114, 11)),
    "aminer": (lambda: gen.DATASETS["aminer"](scale=1.0), 6, 4, (19, 23, 696), (54, 20)),
    "google": (lambda: gen.DATASETS["google"](scale=1.0), 7, 4, (26, 30, 1_491), (67, 27)),
}


@pytest.mark.parametrize("name", BENCHMARK_KERNELS)
def test_benchmark_kernel_heuristic_and_tree_pinned(name):
    """HeurRFC's clique size, bound and core, and the default search's
    tree, on each benchmark kernel: a kernel-representation change that
    keeps the heuristic and the tree keeps these numbers."""
    frames, k, delta, heur, tree = BENCHMARK_KERNELS[name]
    g = ColoredGraph.from_pandas(*frames())
    g = colorful_sup_reduce(en_colorful_core(g, k - 1), k, enhanced=True)
    h = heur_rfc(g, k, delta)
    assert (h.size, h.ub, h.graph.m) == heur
    assert _oracle(g).is_fair_clique(h.clique, k, delta)
    res = max_rfc_local(g, k, delta)
    assert (res.search.nodes, res.size) == tree


@pytest.mark.parametrize("combo", COMBOS)
@pytest.mark.parametrize("seed", range(4))
def test_all_ub_combos_agree(combo, seed):
    lg = _lg(22, 0.45, seed)
    expect = brute_force_size(_oracle(lg), 2, 1)
    res = branch_search(lg, 2, 1, ub_combo=combo)
    assert len(res.clique) == expect, f"combo={combo}"


@pytest.mark.parametrize("seed", range(4))
def test_basic_node_prune_agrees(seed):
    """The basic framework (``ub_combo="s"``: the size bound is the only
    node prune) finds the same optimum as the fully pruned search."""
    lg = _lg(18, 0.5, seed)
    a = branch_search(lg, 2, 1, ub_combo="s")
    b = branch_search(lg, 2, 1, ub_combo="ad+cd")
    assert len(a.clique) == len(b.clique)


def test_attr_pruning_reduces_nodes():
    lg = _lg(40, 0.45, seed=7)
    basic = branch_search(lg, 3, 1, ub_combo="s")
    pruned = branch_search(lg, 3, 1, ub_combo="ad+cd")
    assert len(basic.clique) == len(pruned.clique)
    assert pruned.nodes <= basic.nodes


def test_heuristic_seed_preserves_optimum():
    lg = _lg(35, 0.4, seed=3)
    k, delta = 2, 1
    h = heur_rfc(lg, k, delta)
    res = branch_search(h.graph if h.clique else lg, k, delta,
                        ub_combo="ad+cp", best_init=h.clique)
    assert len(res.clique) == brute_force_size(_oracle(lg), k, delta)


def test_unfair_best_init_rejected():
    """An incumbent that is not a fair clique is a caller error, reported
    with a ValueError (an assert would vanish under ``python -O``)."""
    v = pd.DataFrame({"id": range(4), "attr": ["a", "a", "b", "b"]})
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    lg = ColoredGraph.from_pandas(v, pd.DataFrame(pairs, columns=["src", "dst"]))
    assert sorted(branch_search(lg, 2, 0, best_init=[0, 1, 2, 3]).clique) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        branch_search(lg, 2, 0, best_init=[0, 1, 2])  # 2a + 1b: not (2, 0)-fair


def test_planted_answer_found_exactly():
    v, e = gen.random_attributed_graph(60, 0.08, seed=11)
    edges = set(zip(e["src"], e["dst"]))
    gen.plant_fair_clique(edges, v, np.arange(10), cnt_a=5, seed=5)
    lg = ColoredGraph.from_pandas(v, gen._edges_frame(edges))
    res = branch_search(lg, 4, 1, ub_combo="ad+cd")
    assert len(res.clique) == brute_force_size(_oracle(lg), 4, 1) >= 10


def test_unbalanced_planted_clique_trimmed():
    """Planted 9a+3b clique with k=3, δ=1 → best inside it is 7; search
    must trim rather than return the 12-clique."""
    v = pd.DataFrame({"id": range(12), "attr": ["a"] * 9 + ["b"] * 3})
    pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
    lg = ColoredGraph.from_pandas(v, pd.DataFrame(pairs, columns=["src", "dst"]))
    res = branch_search(lg, 3, 1, ub_combo="ad")
    assert len(res.clique) == 7
    assert _oracle(lg).is_fair_clique(res.clique, 3, 1)


def test_no_fair_clique_returns_empty():
    v = pd.DataFrame({"id": range(6), "attr": ["a"] * 6})
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    lg = ColoredGraph.from_pandas(v, pd.DataFrame(pairs, columns=["src", "dst"]))
    res = branch_search(lg, 1, 3, ub_combo="ad")
    assert res.clique == []


def test_time_limit_reports_incomplete():
    lg = _lg(60, 0.6, seed=2)
    res = branch_search(lg, 2, 2, ub_combo="s", time_limit=1e-9)
    assert not res.completed or res.seconds < 0.5


@pytest.mark.parametrize("combo", ["s", "ad"])
def test_time_limit_stops_dense_search(combo):
    """G(200, 0.7) at k=3, δ=2 takes minutes to search exactly; a 0.2 s
    limit must stop the search soon after and report it incomplete,
    directly and through ``max_rfc_local``."""
    lg = _lg(200, 0.7, seed=0)
    res = branch_search(lg, 3, 2, ub_combo=combo, time_limit=0.2)
    local = max_rfc_local(lg, 3, 2, ub_combo=combo, time_limit=0.2).search
    for r in (res, local):
        assert r.completed is False
        assert r.seconds < 1.0
        assert not r.clique or _oracle(lg).is_fair_clique(r.clique, 3, 2)


def test_paper_literal_ordering_is_incomplete():
    """Documents DESIGN.md §3.3.1: applying the CalColorOD filter at every
    level with strict attribute alternation misses cliques whose O-sorted
    attribute pattern is not alternating. Our search finds the optimum on
    such an instance; a literal-alternation simulation cannot."""
    # Clique {a1, a2, b1, b2} where the total order is a1<a2<b1<b2.
    v = pd.DataFrame({"id": [0, 1, 2, 3], "attr": ["a", "a", "b", "b"]})
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    g = ColoredGraph.from_pandas(v, pd.DataFrame(pairs, columns=["src", "dst"]))
    lg = _oracle(g)
    order = [0, 1, 2, 3]
    pos = {u: i for i, u in enumerate(order)}

    found = []

    def literal(R, C, attr_choose):
        """Algorithm 3 taken literally: alternate + O-filter everywhere."""
        if not C:
            found.append(list(R))
            return
        cattr = [u for u in C if lg.attr[u] == attr_choose]
        if not cattr:
            literal(R, C, "b" if attr_choose == "a" else "a")
            return
        for u in cattr:
            newC = [x for x in C if x in lg.adj[u] and pos[x] > pos[u]]
            literal(R + [u], newC, "b" if attr_choose == "a" else "a")

    literal([], order, "a")
    assert max((len(r) for r in found), default=0) < 4  # literal misses K4
    res = branch_search(g, 2, 0, ub_combo="ad")
    assert len(res.clique) == 4  # ours finds it


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(8, 16),
    p=st.floats(0.25, 0.75),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 3),
    delta=st.integers(0, 2),
)
def test_search_equals_brute_force_property(n, p, seed, k, delta):
    lg = _lg(n, p, seed)
    res = branch_search(lg, k, delta, ub_combo="ad+cp")
    assert len(res.clique) == brute_force_size(_oracle(lg), k, delta)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    n=st.integers(8, 16),
    p=st.floats(0.25, 0.75),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 3),
    delta=st.integers(0, 2),
    combo=st.sampled_from(COMBOS),
)
def test_search_with_incumbent_equals_brute_force_property(n, p, seed, k, delta, combo):
    """Every bound combo, seeded with the HeurRFC incumbent and run on its
    pruned graph (as ``max_rfc_local`` does), finds the exact maximum."""
    lg = _lg(n, p, seed)
    h = heur_rfc(lg, k, delta)
    res = branch_search(h.graph, k, delta, ub_combo=combo, best_init=h.clique)
    assert res.completed
    assert len(res.clique) == brute_force_size(_oracle(lg), k, delta)
    assert not res.clique or _oracle(lg).is_fair_clique(res.clique, k, delta)

"""Validity and tightness tests for every upper bound (Lemmas 5–14)."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import gen
from repro.graph.coloring import ColoredGraph
from repro.graph.local import LocalGraph
from repro.core import bounds, reference
from repro.core.baseline import brute_force_size

DELTAS = [0, 1, 3]


def _kernel(n, p, seed, p_a=0.5):
    """A random attributed graph as a kernel, greedily colored."""
    v, e = gen.random_attributed_graph(n, p, seed=seed, p_a=p_a)
    return ColoredGraph.from_pandas(v, e)


def _oracle(g):
    """The kernel ``g`` as the oracles' ``LocalGraph``, same coloring."""
    return LocalGraph.from_pandas(*g.frames())


def _all_bounds(g, delta):
    """Every bound of the kernel ``g``, on its arrays."""
    return {
        "s": bounds.ub_size(g),
        "a": bounds.ub_attr(g, delta),
        "c": bounds.ub_color(g),
        "ac": bounds.ub_attr_color(g, delta),
        "eac": bounds.ub_en_attr_color(g, delta),
        "deg": bounds.ub_degeneracy(g),
        "h": bounds.ub_h_index(g),
        "cd": bounds.ub_colorful_degeneracy(g, delta),
        "ch": bounds.ub_colorful_h(g, delta),
        "cp": bounds.ub_colorful_path(g),
    }


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("delta", DELTAS)
def test_every_bound_dominates_optimum(seed, delta):
    """Soundness: each ub ≥ brute-force max fair clique size, all k."""
    g = _kernel(22, 0.5, seed)
    lg = _oracle(g)
    ubs = _all_bounds(g, delta)
    for k in (1, 2, 3):
        opt = brute_force_size(lg, k, delta)
        for name, ub in ubs.items():
            assert ub >= opt, f"ub_{name}={ub} < opt={opt} (k={k}, δ={delta})"


@pytest.mark.parametrize("seed", range(5))
def test_bound_orderings(seed):
    """Known dominance relations between bounds."""
    delta = 2
    u = _all_bounds(_kernel(25, 0.4, seed), delta)
    assert u["c"] <= u["s"]
    assert u["a"] <= u["s"] + delta
    assert u["ac"] <= 2 * u["c"]  # per-attr colors ≤ total colors each
    assert u["eac"] <= u["ac"]  # enhanced assignment is tighter
    assert u["deg"] <= u["h"]  # degeneracy ≤ h-index (classic)
    assert u["cp"] <= u["c"]  # a colorful path uses distinct colors


def test_fair_pair_formula():
    assert bounds._fair_pair(4, 4, 0) == 8
    assert bounds._fair_pair(6, 3, 1) == 7
    assert bounds._fair_pair(6, 3, 3) == 9
    assert bounds._fair_pair(0, 9, 2) == 2


def test_ub_eac_counterexample_from_design():
    """The printed Lemma 9 formula would give 3 here; a fair clique of 6
    exists (DESIGN.md §3.3.2) — our corrected form must return ≥ 6."""
    # 5 exclusive-a colors, 0 exclusive-b, 3 mixed colors, δ=0.
    # Build: a K6 clique of 3 a's and 3 b's where each b shares its color
    # with an external a vertex (making those colors mixed).
    ids = list(range(9))
    attrs = ["a", "a", "a", "b", "b", "b", "a", "a", "a"]
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    v = pd.DataFrame({"id": ids, "attr": attrs})
    e = pd.DataFrame(pairs, columns=["src", "dst"])
    # Hand-assign a proper coloring: clique gets colors 0..5; externals
    # 6,7,8 reuse the b-vertices' colors (3,4,5) making them mixed.
    lg = replace(ColoredGraph.from_pandas(v, e), color=np.array([0, 1, 2, 3, 4, 5, 3, 4, 5]))
    got = bounds.ub_en_attr_color(lg, 0)
    assert got >= 6
    assert lg.is_fair_clique([0, 1, 2, 3, 4, 5], k=3, delta=0)


def test_ub_colorful_path_on_clique():
    v = pd.DataFrame({"id": range(5), "attr": ["a", "b"] * 2 + ["a"]})
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    g = ColoredGraph.from_pandas(v, pd.DataFrame(pairs, columns=["src", "dst"]))
    assert bounds.ub_colorful_path(g) == 5


def test_ub_colorful_path_matches_brute_force_dp():
    """DP result == brute-force longest colorful path on small graphs."""
    import itertools

    for seed in range(4):
        g = _kernel(9, 0.45, seed)
        lg = _oracle(g)
        # Brute force: longest sequence of vertices, pairwise-adjacent
        # consecutive, all colors distinct, ordered by (color, id).
        verts = sorted(lg.adj, key=lambda x: (lg.color[x], x))
        best = 1
        # DFS over the DAG.
        def dfs(v, length):
            nonlocal best
            best = max(best, length)
            for u in lg.adj[v]:
                if (lg.color[u], u) > (lg.color[v], v):
                    dfs(u, length + 1)
        for v in verts:
            dfs(v, 1)
        assert bounds.ub_colorful_path(g) == best


def test_ub_on_empty_graph():
    lg = ColoredGraph.from_pandas(
        pd.DataFrame({"id": [], "attr": []}), pd.DataFrame({"src": [], "dst": []})
    )
    assert bounds.ub_size(lg) == 0
    assert bounds.ub_attr(lg, 1) == 0
    assert bounds.ub_color(lg) == 0
    assert bounds.ub_colorful_path(lg) == 0


@pytest.mark.parametrize("combo", bounds.COMBOS)
def test_compute_ub_combos(combo):
    g = _kernel(20, 0.4, seed=1)
    ub = bounds.compute_ub(g, 2, combo)
    assert ub >= brute_force_size(_oracle(g), 2, 2)
    if combo != "s":
        assert ub <= bounds.ub_size(g)


def test_compute_ub_rejects_unknown():
    with pytest.raises(ValueError):
        bounds.compute_ub(_kernel(5, 0.5, seed=0), 1, "ad+nope")


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(6, 14),
    p=st.floats(0.2, 0.8),
    seed=st.integers(0, 10_000),
    delta=st.integers(0, 3),
    k=st.integers(1, 3),
)
def test_bounds_sound_property(n, p, seed, delta, k):
    """Property-based soundness sweep over random instances."""
    g = _kernel(n, p, seed)
    opt = brute_force_size(_oracle(g), k, delta)
    for name, ub in _all_bounds(g, delta).items():
        assert ub >= opt, f"ub_{name} unsound on n={n} p={p} seed={seed}"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    n=st.integers(0, 24),
    p=st.floats(0.1, 0.9),
    p_a=st.floats(0.1, 0.9),
    seed=st.integers(0, 10_000),
    delta=st.integers(0, 5),
)
def test_ub_eac_is_ub_ad_property(n, p, p_a, seed, delta):
    """The corrected Lemma 9 is min(Lemma 7, Lemma 8) and never above
    Lemmas 5 and 6, so ub_eac alone equals ub_AD = min(Lemmas 5–9): the
    per-node coloring bound of the search, min(ub_c, ub_ac) over its
    classes, is all of ub_AD."""
    u = _all_bounds(_kernel(n, p, seed, p_a), delta)
    assert u["eac"] == min(u["c"], u["ac"])
    assert u["eac"] <= min(u["s"], u["a"])


def _columns(ids, attrs, pairs):
    """The kernel of id and attribute lists and an edge list of id pairs."""
    src, dst = zip(*pairs) if pairs else ((), ())
    return ColoredGraph.from_columns(np.array(ids, dtype=np.int64), np.array(attrs, dtype=object),
                                     np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))


@st.composite
def _induced_graphs(draw):
    """An induced subgraph of a random graph on ≤ 30 sparse, possibly
    negative ids; low edge densities and the cut leave isolated vertices."""
    n = draw(st.integers(0, 30))
    ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n, unique=True))
    attrs = draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.floats(0.0, 1.0))
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return _columns(ids, attrs, pairs).induced(np.array(keep, dtype=bool))


def _h(values):
    """The h-index of ``values``, in plain Python."""
    return max(h for h in range(len(values) + 1) if sum(v >= h for v in values) >= h)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(g=_induced_graphs(), delta=st.integers(0, 3))
@example(g=_columns([], [], []), delta=0)
@example(g=_columns([-7, 3, 900], ["a", "b", "b"], []), delta=1)
@example(g=_columns([-5, -2, 4, 10**6], ["b", "a", "a", "b"], [(-5, 4), (-2, 4), (-5, -2)]), delta=2)
def test_array_root_bounds_match_definitions(g, delta):
    """The four array root bounds equal their definitions: ub_△ through
    the kernel's k-cores, ub_h through the degrees, and ub_ch and ub_cp
    through the ``LocalGraph`` oracle of the same graph and coloring
    (D_min from ``reference.vertex_groups``, and a DFS over the
    (color, id) DAG)."""
    n = g.n
    top = max((t for t in range(n) if g.k_core(t).n > 0), default=-1)
    assert bounds.ub_degeneracy(g) == min(n, 1 + top)
    assert bounds.ub_h_index(g) == min(n, _h(g.degrees().tolist()) + 1)
    lg = LocalGraph.from_pandas(*g.frames())
    alive = set(lg.adj)
    dmin = [min(c_a, c_b) + c_m for c_a, c_b, c_m in (reference.vertex_groups(lg, alive, v) for v in lg.adj)]
    assert bounds.ub_colorful_h(g, delta) == min(n, 2 * (_h(dmin) + 1) + delta)
    longest: dict[int, int] = {}

    def dfs(v):
        if v not in longest:
            later = (u for u in lg.adj[v] if (lg.color[u], u) > (lg.color[v], v))
            longest[v] = 1 + max(map(dfs, later), default=0)
        return longest[v]

    assert bounds.ub_colorful_path(g) == max(map(dfs, lg.adj), default=0)

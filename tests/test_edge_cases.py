"""Differential checks on degenerate inputs: ``max_rfc`` (Spark reduce,
then search) ≡ ``max_rfc_local`` (driver search) ≡ brute force.

The fixed cases cover an empty graph, a graph without edges, a single
attribute, k = 1 with δ = 0 and k > n/2; a ``hypothesis`` property then
checks the driver search against brute force on small random attributed
graphs (driver only, so it stays fast).
"""
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import from_pandas
from repro.graph.local import LocalGraph
from repro.core.baseline import brute_force_size
from repro.core.maxrfc import max_rfc, max_rfc_local

# A 6-clique of 3a + 3b, a path hanging off it and one isolated vertex.
V = pd.DataFrame({"id": range(9), "attr": ["a", "b"] * 4 + ["a"]})
E = pd.DataFrame(
    [(i, j) for i in range(6) for j in range(i + 1, 6)] + [(5, 6), (6, 7)],
    columns=["src", "dst"],
)
NO_E = E.iloc[:0]

CASES = {
    "no_edges": (V, NO_E, 1, 1),
    "no_vertices": (V.iloc[:0], NO_E, 1, 1),
    "single_attribute": (V.assign(attr="a"), E, 1, 1),
    "k1_delta0": (V, E, 1, 0),
    "k_over_half_n": (V, E, 5, 1),
}


@pytest.mark.parametrize("case", CASES)
def test_backends_agree_on_degenerate_input(spark, case):
    v, e, k, delta = CASES[case]
    lg = LocalGraph.from_pandas(v, e)
    want = brute_force_size(lg, k, delta)
    for res in (max_rfc_local(lg, k, delta), max_rfc(from_pandas(spark, v, e), k, delta)):
        assert res.size == want
        assert not res.clique or lg.is_fair_clique(res.clique, k, delta)


@st.composite
def attributed_graphs(draw):
    """Vertex and edge frames of a random attributed graph on ≤ 9 vertices."""
    n = draw(st.integers(0, 9))
    attrs = draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    v = pd.DataFrame({"id": range(n), "attr": attrs})
    e = pd.DataFrame([p for p, kept in zip(pairs, keep) if kept], columns=["src", "dst"])
    return v, e


@settings(derandomize=True, deadline=None, max_examples=200)
@given(frames=attributed_graphs(), k=st.integers(1, 3), delta=st.integers(0, 2),
       use_heuristic=st.booleans())
def test_driver_search_matches_brute_force(frames, k, delta, use_heuristic):
    lg = LocalGraph.from_pandas(*frames)
    res = max_rfc_local(lg, k, delta, use_heuristic=use_heuristic)
    assert res.size == brute_force_size(lg, k, delta)
    assert not res.clique or lg.is_fair_clique(res.clique, k, delta)

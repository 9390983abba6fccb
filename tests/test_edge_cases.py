"""Differential checks on degenerate inputs: ``max_rfc`` (collect,
reduce, then search) ≡ ``max_rfc_local`` (search only) ≡ brute force.

The fixed cases cover an empty graph, a graph without edges, a single
attribute, k = 1 with δ = 0, k > n/2 and sparse, negative and 64-bit
ids; ``hypothesis`` properties then check the search against brute force
and each reduction stage against ``core/reference.py`` on small random
attributed graphs (driver only, so they stay fast), and the whole Spark
pipeline against both on a capped number of graphs of up to 30 vertices.
"""
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builder import from_pandas
from repro.graph.coloring import ColoredGraph
from repro.graph.local import LocalGraph
from repro.core import reference as ref
from repro.core.baseline import brute_force_size
from repro.core.maxrfc import max_rfc, max_rfc_local
from repro.core.reduction import colorful_sup_reduce, en_colorful_core

# A 6-clique of 3a + 3b, a path hanging off it and one isolated vertex.
V = pd.DataFrame({"id": range(9), "attr": ["a", "b"] * 4 + ["a"]})
E = pd.DataFrame(
    [(i, j) for i in range(6) for j in range(i + 1, 6)] + [(5, 6), (6, 7)],
    columns=["src", "dst"],
)
NO_E = E.iloc[:0]
# The same graph with ids that are sparse, negative and beyond 2**32.
SPARSE = {i: (-1) ** i * (2**40 + 7919 * i) for i in range(9)}

CASES = {
    "no_edges": (V, NO_E, 1, 1),
    "no_vertices": (V.iloc[:0], NO_E, 1, 1),
    "single_attribute": (V.assign(attr="a"), E, 1, 1),
    "k1_delta0": (V, E, 1, 0),
    "k_over_half_n": (V, E, 5, 1),
    "sparse_ids": (V.assign(id=V["id"].map(SPARSE)), E.apply(lambda c: c.map(SPARSE)), 2, 1),
}


@pytest.mark.parametrize("case", CASES)
def test_backends_agree_on_degenerate_input(spark, case):
    v, e, k, delta = CASES[case]
    lg = LocalGraph.from_pandas(v, e)
    want = brute_force_size(lg, k, delta)
    kernel = ColoredGraph.from_pandas(v, e)
    for res in (max_rfc_local(kernel, k, delta), max_rfc(from_pandas(spark, v, e), k, delta)):
        assert res.size == want
        assert not res.clique or lg.is_fair_clique(res.clique, k, delta)


@st.composite
def attributed_graphs(draw, max_n=9):
    """Vertex and edge frames of a random attributed graph on ≤ max_n vertices."""
    n = draw(st.integers(0, max_n))
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
    res = max_rfc_local(ColoredGraph.from_pandas(*frames), k, delta, use_heuristic=use_heuristic)
    assert res.size == brute_force_size(lg, k, delta)
    assert not res.clique or lg.is_fair_clique(res.clique, k, delta)


def _vertices(g):
    return set(g.frames()[0]["id"])


def _edges(g):
    e = g.frames()[1]
    return set(zip(e["src"], e["dst"]))


def _ensup(g, k):
    return colorful_sup_reduce(g, k, enhanced=True)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(frames=attributed_graphs(max_n=12), k=st.integers(1, 4))
def test_driver_stages_match_reference(frames, k):
    """Each batch peel equals the one-at-a-time reference: EnColorfulCore
    on G, then Algorithm 2's chain EnColorfulCore(k−1) →
    ColorfulSup(k) → EnColorfulSup(k), each stage on the one before.
    EnColorfulSup alone gives what ColorfulSup → EnColorfulSup gives,
    on the EnColorfulCore output and on G (DESIGN.md §3.3.7), so the
    pipeline skips ColorfulSup."""
    g = ColoredGraph.from_pandas(*frames)
    lg = LocalGraph.from_pandas(*g.frames())
    core = h = en_colorful_core(g, k - 1)
    want = ref.reference_core_peel(lg, k - 1)
    # The batch peel also drops the isolated vertices (at t = 0 only).
    assert _vertices(core) == {v for v in want if lg.adj[v] & want}
    for enhanced in (False, True):
        want = ref.reference_sup_peel(LocalGraph.from_pandas(*h.frames()), k, enhanced=enhanced)
        h = colorful_sup_reduce(h, k, enhanced=enhanced)
        assert _edges(h) == want
        assert _vertices(h) == {u for uv in want for u in uv}
    for start, chained in ((core, h), (g, _ensup(colorful_sup_reduce(g, k), k))):
        direct = _ensup(start, k)
        assert (_vertices(direct), _edges(direct)) == (_vertices(chained), _edges(chained))


@settings(derandomize=True, deadline=None, max_examples=10)  # ~0.4 s each
@given(frames=attributed_graphs(max_n=30), k=st.integers(1, 3), delta=st.integers(0, 2))
def test_spark_pipeline_matches_driver_and_brute_force(spark, frames, k, delta):
    """End to end on up to 30 vertices: ``max_rfc`` through the Spark
    lift, ``max_rfc_local`` and brute force give one size."""
    lg = LocalGraph.from_pandas(*frames)
    want = brute_force_size(lg, k, delta)
    kernel = ColoredGraph.from_pandas(*frames)
    for res in (max_rfc_local(kernel, k, delta), max_rfc(from_pandas(spark, *frames), k, delta)):
        assert res.size == want
        assert not res.clique or lg.is_fair_clique(res.clique, k, delta)

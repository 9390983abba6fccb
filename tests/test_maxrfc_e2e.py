"""End-to-end pipeline tests: collect, reduce → search == brute force."""
import numpy as np
import pytest

from repro.graph import gen
from repro.graph.builder import from_pandas
from repro.graph.coloring import ColoredGraph, color_graph_local
from repro.graph.local import LocalGraph
from repro.core.baseline import brute_force_size
from repro.core.maxrfc import max_rfc, max_rfc_local


@pytest.mark.parametrize("k,delta", [(2, 1), (3, 2)])
def test_pipeline_matches_brute_force_random(spark, k, delta):
    v, e = gen.random_attributed_graph(50, 0.15, seed=17)
    edges = set(zip(e["src"], e["dst"]))
    gen.plant_fair_clique(edges, v, np.arange(8), cnt_a=4, seed=3)
    e = gen._edges_frame(edges)
    g = from_pandas(spark, v, e).checkpointed()
    res = max_rfc(g, k, delta, ub_combo="ad+cd")
    lg = LocalGraph.from_pandas(v, e)
    assert res.size == brute_force_size(lg, k, delta)
    if res.clique:
        assert lg.is_fair_clique(res.clique, k, delta)


def test_pipeline_on_named_dataset(spark):
    v, e = gen.DATASETS["aminer"](scale=0.25)
    g = from_pandas(spark, v, e).checkpointed()
    res = max_rfc(g, 4, 2, ub_combo="ad+cp")
    lg = LocalGraph.from_pandas(v, e)
    assert res.size == brute_force_size(lg, 4, 2)


def test_pipeline_variants_agree(spark):
    """Baseline, +ub, +ub+heur all return the same optimum size."""
    v, e = gen.DATASETS["pokec"](scale=0.25)
    g = from_pandas(spark, v, e).checkpointed()
    sizes = set()
    for combo, heur in [("s", False), ("ad+cd", False), ("ad+cp", True)]:
        r = max_rfc(g, 3, 2, ub_combo=combo, use_heuristic=heur)
        sizes.add(r.size)
    assert len(sizes) == 1


def test_example1_shape(spark):
    """Paper Example 1 analogue: an 8-clique with 5a+3b at (k=3, δ=1)
    yields a maximum fair clique of size 7 (one majority vertex dropped)."""
    import pandas as pd

    v = pd.DataFrame({"id": range(12), "attr": ["a"] * 5 + ["b"] * 3 + ["a", "b"] * 2})
    pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    pairs += [(0, 8), (1, 8), (8, 9), (9, 10), (10, 11)]
    e = pd.DataFrame(pairs, columns=["src", "dst"])
    g = from_pandas(spark, v, e)
    res = max_rfc(g, 3, 1, ub_combo="ad")
    assert res.size == 7


def test_empty_result_when_no_fair_clique(spark):
    v, e = gen.random_attributed_graph(30, 0.1, seed=2, p_a=1.0)  # all 'a'
    g = from_pandas(spark, v, e)
    res = max_rfc(g, 2, 1)
    assert res.size == 0 and res.clique == []


def test_reduction_report_attached(spark):
    v, e = gen.DATASETS["dblp"](scale=0.2)
    g = from_pandas(spark, v, e).checkpointed()
    res = max_rfc(g, 4, 2)
    assert res.reduction is not None
    names = [s[0] for s in res.reduction.stages]
    assert names == ["original", "encore", "ensup"]
    assert "reduce" in res.timings and "search" in res.timings


def test_bench_kernel_is_max_rfc_path(spark):
    """The benchmark harness reduces exactly as ``max_rfc`` does: same
    stage rows, same kernel vertices and edges."""
    from repro.bench_harness import kernel

    kern = kernel(spark, "aminer", 4, scale=0.25)
    v, e = gen.DATASETS["aminer"](scale=0.25)
    red = max_rfc(from_pandas(spark, v, e).checkpointed(), 4, 2).reduction
    assert [s[:3] for s in kern.stages] == [s[:3] for s in red.stages]
    for field in ("ids", "src", "dst"):  # vertices and edges
        assert np.array_equal(getattr(kern.graph, field), getattr(red.graph, field))
    assert np.array_equal(kern.graph.color, red.graph.color)


def test_max_rfc_runs_at_most_two_spark_jobs(spark):
    """One collect each of the vertices and the edges; the reductions and
    the search run on the driver. The graph is lifted and checkpointed as
    the jobs and the benchmark lift it."""
    v, e = gen.DATASETS["aminer"](scale=0.25)
    g = from_pandas(spark, v, e).checkpointed()
    jobs = spark.sparkContext._jsc.sc().dagScheduler()
    before = jobs.nextJobId()
    res = max_rfc(g, 4, 2)
    assert jobs.nextJobId() - before <= 2
    assert res.size == brute_force_size(LocalGraph.from_pandas(v, e), 4, 2)


def test_heuristic_seed_never_worse_locally(spark):
    v, e = gen.DATASETS["flixster"](scale=0.25)
    lg = ColoredGraph.from_pandas(v, e)
    with_h = max_rfc_local(lg, 2, 1, use_heuristic=True)
    without = max_rfc_local(lg, 2, 1, use_heuristic=False)
    assert with_h.size == without.size
    assert len(with_h.heur_clique) <= with_h.size


def test_synth_data_attributed_graph_entrypoint(spark):
    """A named analogue lifts to a Spark ``AttributedGraph`` that collects
    to its vertices and edges."""
    v, e = gen.DATASETS["pokec"](scale=0.2)
    g = color_graph_local(from_pandas(spark, v, e))
    assert (g.n, g.m) == (len(v), len(e)) and g.m > 0

"""Input contract: malformed frames, an improper ``color`` column,
out-of-range (k, δ) and a non-positive time limit raise ``ValueError``,
a non-integral k or δ ``TypeError``, at the boundary, on the driver and
the Spark path alike."""
import numpy as np
import pandas as pd
import pytest

from repro.graph import gen
from repro.graph.builder import from_pandas
from repro.graph.coloring import ColoredGraph
from repro.graph.local import LocalGraph
from repro.core.branch import branch_search
from repro.core.maxrfc import max_rfc, max_rfc_local

# A fair triangle plus one more edge: {0, 1, 2} is a (1, 1)-fair clique.
V = pd.DataFrame({"id": [0, 1, 2, 3], "attr": ["a", "b", "a", "b"]})
E = pd.DataFrame({"src": [0, 0, 1, 2], "dst": [1, 2, 2, 3]})


@pytest.fixture(params=["local", "kernel", "spark"])
def lift(request):
    if request.param == "local":
        return LocalGraph.from_pandas
    if request.param == "kernel":
        return ColoredGraph.from_pandas
    spark = request.getfixturevalue("spark")
    return lambda v, e: from_pandas(spark, v, e)


def test_undeclared_endpoint_rejected(lift):
    e = pd.concat([E, pd.DataFrame({"src": [2], "dst": [7]})])
    with pytest.raises(ValueError, match="not vertices"):
        lift(V, e)


def test_unknown_attribute_rejected(lift):
    with pytest.raises(ValueError, match="'a' or 'b'"):
        lift(V.assign(attr=["a", "b", "a", "c"]), E)


def test_duplicate_vertex_id_rejected(lift):
    with pytest.raises(ValueError, match="duplicate"):
        lift(pd.concat([V, pd.DataFrame({"id": [1], "attr": ["a"]})]), E)


@pytest.mark.parametrize("color", [
    [0, 0, 1, 2],                    # 0 and 1 are adjacent
    [2, 0, 1, 1],                    # 2 and 3 are adjacent
    [2, 0, 1, -1],                   # negative
    [2.0, 0.0, 1.0, 0.5],            # not integers
    [2.0, 0.0, 1.0, float("nan")],
    ["2", "0", "1", "0"],
], ids=["adjacent-0-1", "adjacent-2-3", "negative", "fraction", "nan", "strings"])
def test_improper_color_column_rejected(color):
    """Nothing recolors a ``LocalGraph``, so every bound relies on the
    coloring it is built with: an improper one is rejected, a proper
    one is kept."""
    with pytest.raises(ValueError, match="colors"):
        LocalGraph.from_pandas(V.assign(color=color), E)
    lg = LocalGraph.from_pandas(V.assign(color=[2, 0, 1, 0]), E)
    assert lg.color == {0: 2, 1: 0, 2: 1, 3: 0}


@pytest.mark.parametrize("k,delta", [(0, 1), (1, -1)])
def test_bad_k_or_delta_rejected(spark, k, delta):
    """Rejected before any Spark job runs."""
    jobs = spark.sparkContext._jsc.sc().dagScheduler()
    g = from_pandas(spark, V, E)
    before = jobs.nextJobId()
    with pytest.raises(ValueError, match="k >= 1 and delta >= 0"):
        max_rfc(g, k, delta)
    assert jobs.nextJobId() == before
    with pytest.raises(ValueError, match="k >= 1 and delta >= 0"):
        max_rfc_local(ColoredGraph.from_pandas(V, E), k, delta)


def test_unknown_ub_combo_rejected(spark):
    """Rejected before any Spark job runs, even where every root would be
    size-pruned before a bound is ever evaluated."""
    jobs = spark.sparkContext._jsc.sc().dagScheduler()
    g = from_pandas(spark, V, E)
    before = jobs.nextJobId()
    with pytest.raises(ValueError, match="unknown bound combo"):
        max_rfc(g, 1, 0, ub_combo="bogus")
    assert jobs.nextJobId() == before
    sparse = ColoredGraph.from_pandas(*gen.random_attributed_graph(12, 0.3, seed=1))
    for lg, k in ((ColoredGraph.from_pandas(V, E), 1), (sparse, 3)):
        with pytest.raises(ValueError, match="unknown bound combo"):
            max_rfc_local(lg, k, 0, ub_combo="bogus")
        with pytest.raises(ValueError, match="unknown bound combo"):
            branch_search(lg, k, 0, ub_combo="bogus")


@pytest.mark.parametrize("time_limit", [0, 0.0, -1, float("nan")])
def test_nonpositive_time_limit_rejected(spark, time_limit):
    """A time limit must be positive or ``None`` (unlimited); zero,
    negative and NaN limits are rejected before any Spark job runs."""
    jobs = spark.sparkContext._jsc.sc().dagScheduler()
    g = from_pandas(spark, V, E)
    before = jobs.nextJobId()
    with pytest.raises(ValueError, match="time_limit"):
        max_rfc(g, 1, 1, time_limit=time_limit)
    assert jobs.nextJobId() == before
    lg = ColoredGraph.from_pandas(V, E)
    for search in (max_rfc_local, branch_search):
        with pytest.raises(ValueError, match="time_limit"):
            search(lg, 1, 1, time_limit=time_limit)
    assert len(branch_search(lg, 1, 1, time_limit=None).clique) == 3


@pytest.mark.parametrize("k,delta", [(2.5, 2), (1, 1.0), ("1", 1), (1, None)])
def test_non_integral_k_or_delta_rejected(spark, k, delta):
    """A non-integral k or δ is a ``TypeError``, raised before any Spark
    job runs; numpy integers are integral and accepted."""
    jobs = spark.sparkContext._jsc.sc().dagScheduler()
    g = from_pandas(spark, V, E)
    before = jobs.nextJobId()
    with pytest.raises(TypeError, match="integers"):
        max_rfc(g, k, delta)
    assert jobs.nextJobId() == before
    lg = ColoredGraph.from_pandas(V, E)
    for search in (max_rfc_local, branch_search):
        with pytest.raises(TypeError, match="integers"):
            search(lg, k, delta)
    assert len(branch_search(lg, np.int64(1), np.int64(1)).clique) == 3

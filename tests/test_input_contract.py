"""Input contract: malformed frames (nulls included), an improper
``color`` column, out-of-range (k, δ) and a non-positive time limit
raise ``ValueError``, a non-integral k or δ ``TypeError``, at the
boundary, on the driver and the Spark path alike; Spark frames that
skipped the lift's check are rejected at the collect."""
import numpy as np
import pandas as pd
import pytest

from repro.graph import gen
from repro.graph.builder import AttributedGraph, from_pandas
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


@pytest.mark.parametrize("frames", [
    (V.assign(id=[0, 1, np.nan, 3]), E),
    (V.assign(id=pd.array([0, 1, None, 3], dtype="Int64")), E),
    (V.assign(attr=["a", None, "a", "b"]), E),
    (V.assign(attr=["a", "b", np.nan, "b"]), E),
    (V, E.assign(src=[0, 0, np.nan, 2])),
    (V, E.assign(dst=[1, 2, 2, None])),
], ids=["nan-id", "na-id", "none-attr", "nan-attr", "nan-src", "none-dst"])
def test_null_rejected(lift, frames):
    """A null id, attribute or endpoint is rejected, not read as a number
    (a NaN id used to become −9223372036854775808)."""
    with pytest.raises(ValueError, match="null"):
        lift(*frames)


def test_fractional_id_rejected(lift):
    with pytest.raises(ValueError, match="integers"):
        lift(V.assign(id=[0, 1, 2, 3.5]), E)


_ROWS_V = [(0, "a"), (1, "b"), (2, "a"), (3, "b")]
_ROWS_E = [(0, 1), (0, 2), (1, 2), (2, 3)]


@pytest.mark.parametrize("vertices,edges,message", [
    (_ROWS_V + [(1, "a")], _ROWS_E, "duplicate"),
    (_ROWS_V, _ROWS_E + [(2, 7)], "not vertices"),
    (_ROWS_V[:3] + [(3, "c")], _ROWS_E, "'a' or 'b'"),
    (_ROWS_V + [(None, "a")], _ROWS_E, "null"),
    (_ROWS_V[:3] + [(3, None)], _ROWS_E, "null"),
    (_ROWS_V, _ROWS_E + [(None, 3)], "null"),
], ids=["duplicate", "undeclared", "attribute", "null-id", "null-attr", "null-src"])
def test_raw_spark_frames_rejected_at_the_collect(spark, vertices, edges, message):
    """An ``AttributedGraph`` built straight from Spark frames skips
    ``from_pandas``'s check; ``max_rfc`` runs the same check on the
    collected columns."""
    g = AttributedGraph(spark.createDataFrame(vertices, "id long, attr string"),
                        spark.createDataFrame(edges, "src long, dst long"))
    with pytest.raises(ValueError, match=message):
        max_rfc(g, 1, 1)


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

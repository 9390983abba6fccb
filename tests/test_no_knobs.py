"""Guards against settings that only ever take their default value, and
against a second code path for one decision."""
import inspect
import re
import threading
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pytest

import repro
from repro.core import bounds, branch, order, reduction, reference
from repro.core.baseline import brute_force_size
from repro.core.branch import branch_search
from repro.core.maxrfc import max_rfc, max_rfc_local
from repro.core.reduction import reduce_pipeline
from repro.graph import builder, coloring, gen, local
from repro.graph.builder import AttributedGraph, from_pandas
from repro.graph.coloring import ColoredGraph
from repro.graph.local import LocalGraph


def test_pipeline_has_no_knobs_and_src_reads_no_env():
    def params(f):
        return list(inspect.signature(f).parameters)

    assert params(reduce_pipeline) == ["g", "k"]
    query = ["k", "delta", "ub_combo", "use_heuristic", "time_limit"]
    assert params(max_rfc) == ["g", *query]
    assert params(max_rfc_local) == ["lg", *query]
    assert params(branch_search) == ["lg", "k", "delta", "ub_combo", "best_init", "time_limit"]
    readers = [
        str(path)
        for path in Path(repro.__file__).parent.rglob("*.py")
        if re.search(r"os\.environ|getenv", path.read_text())
    ]
    assert readers == []


def test_one_search_recursion():
    """The bitset recursion is the only search: the list-based ``_rec``
    it replaced must not come back as a second path (the parameter list
    of ``branch_search`` is pinned above)."""
    assert not hasattr(branch, "_rec")


def test_core_does_not_import_pyspark():
    """The reductions and the search run on the driver; only the input
    lift (``repro.graph.builder``) and the collect touch Spark."""
    core = Path(repro.__file__).parent / "core"
    importers = [
        path.name
        for path in core.glob("*.py")
        if re.search(r"^\s*(from|import)\s+pyspark", path.read_text(), re.M)
    ]
    assert importers == []


def test_core_imports_local_graph_only_in_oracles():
    """The search and its bounds run on the ``ColoredGraph`` kernel; under
    ``core/`` only the oracles (``baseline.py``, ``reference.py``) import
    the adjacency-set ``LocalGraph``."""
    core = Path(repro.__file__).parent / "core"
    importers = sorted(
        path.name
        for path in core.glob("*.py")
        if re.search(r"^\s*(from\s+repro\.graph\.local\b|import\s+repro\.graph\.local\b"
                     r"|from\s+repro\.graph\s+import\s+.*\blocal\b)", path.read_text(), re.M)
    )
    assert importers == ["baseline.py", "reference.py"]


def test_ub_ad_has_one_implementation(monkeypatch):
    """ub_AD is the search's per-node coloring bound only: the root-level
    copy (``bounds.ub_advanced`` on a recolored per-root subgraph) must
    not come back, so under "s" and "ad" no root calls ``compute_ub``,
    while a combo with an extra root bound still does."""
    assert not hasattr(bounds, "ub_advanced")
    frames = gen.random_attributed_graph(30, 0.5, seed=3)
    lg = ColoredGraph.from_pandas(*frames)
    expect = brute_force_size(LocalGraph.from_pandas(*frames), 2, 1)

    def refuse(*args):
        raise AssertionError("compute_ub called under a combo without an extra bound")

    monkeypatch.setattr(branch, "compute_ub", refuse)
    for combo in ("s", "ad"):
        res = branch_search(lg, 2, 1, ub_combo=combo)
        assert res.completed and len(res.clique) == expect
    calls = []
    monkeypatch.setattr(branch, "compute_ub", lambda *a: calls.append(a[2]) or bounds.compute_ub(*a))
    assert len(branch_search(lg, 2, 1, ub_combo="ad+cp").clique) == expect
    assert calls and set(calls) == {"ad+cp"}


def test_kernel_is_colored_once(monkeypatch):
    """A graph is colored when it is built and every subgraph keeps that
    coloring: no lazy recoloring may come back, and with both greedy
    colorings (on CSR arrays and on adjacency dicts) made to raise, every
    combo, with and without HeurRFC, still finds the maximum on a colored
    kernel."""
    assert not hasattr(LocalGraph, "ensure_colors")
    assert not hasattr(LocalGraph, "recolor")
    frames = gen.random_attributed_graph(30, 0.5, seed=3)
    lg = ColoredGraph.from_pandas(*frames)
    expect = brute_force_size(LocalGraph.from_pandas(*frames), 2, 1)
    assert expect > 0

    def refuse(*args):
        raise AssertionError("a colored kernel was recolored")

    monkeypatch.setattr(local, "sequential_greedy", refuse)
    monkeypatch.setattr(coloring, "sequential_greedy", refuse)
    monkeypatch.setattr(coloring, "csr_greedy", refuse)
    for combo in bounds.COMBOS:
        for use_heuristic in (True, False):
            res = max_rfc_local(lg, 2, 1, ub_combo=combo, use_heuristic=use_heuristic)
            assert res.search.completed and res.size == expect


def test_default_path_builds_no_local_graph(monkeypatch):
    """``max_rfc`` runs on the ``ColoredGraph`` kernel from the collect to
    the search, under every combo: with ``LocalGraph`` construction and
    the dict-and-heap peel (now only the oracle) made to raise, every
    combo of ``bounds.COMBOS``, with and without HeurRFC, still finds the
    maximum, each extra root bound reading the root's subgraph as arrays."""
    assert not hasattr(order, "heapq")  # no second CalColorOD in the pipeline
    frames = gen.random_attributed_graph(30, 0.5, seed=3)
    expect = brute_force_size(LocalGraph.from_pandas(*frames), 2, 1)
    assert expect > 0
    kernel = ColoredGraph.from_pandas(*frames)

    def refuse(*args, **kwargs):
        raise AssertionError("the default path built a LocalGraph or ran the dict peel")

    monkeypatch.setattr(LocalGraph, "__init__", refuse)
    monkeypatch.setattr(reference, "colorful_peel", refuse)
    for combo in bounds.COMBOS:
        for use_heuristic in (True, False):
            res = max_rfc_local(kernel, 2, 1, ub_combo=combo, use_heuristic=use_heuristic)
            assert res.search.completed and res.size == expect


def test_lift_is_two_plain_frames(spark):
    """Edges are canonicalized once, at the collect: the lift runs no
    Spark dedup (lifting and checkpointing a graph is one job per frame)
    and no Spark graph algebra comes back beside it."""
    for name in ("canonicalize_edges", "symmetrize", "degrees"):
        assert not hasattr(builder, name), name
    v, e = gen.random_attributed_graph(40, 0.3, seed=5)
    jobs = spark.sparkContext._jsc.sc().dagScheduler()
    before = jobs.nextJobId()
    from_pandas(spark, v, e).checkpointed()
    assert jobs.nextJobId() - before == 2


class _Frame:
    """A stand-in Spark frame with no ``select``: ``toArrow`` runs
    ``before``, then raises ``error`` or returns the Arrow table ``frame``."""

    def __init__(self, frame=None, error=None, before=None):
        self.frame, self.error, self.before = frame, error, before
        self.waited = None

    def toArrow(self):
        if self.before is not None:
            self.waited = self.before()
        if self.error is not None:
            raise self.error
        return self.frame


_V = pa.table({"id": [0, 1, 2], "attr": ["a", "b", "a"]})
_E = pa.table({"src": [0, 1], "dst": [1, 2]})


def test_collect_reraises_and_joins_its_thread():
    """A failure of either collect job is re-raised, and no thread the
    collect started outlives it, on failure or success."""
    start = threading.active_count()
    for failing in ("vertices", "edges"):
        frames = {"vertices": _Frame(_V), "edges": _Frame(_E)}
        frames[failing] = _Frame(error=RuntimeError(f"{failing} job failed"))
        with pytest.raises(RuntimeError, match=f"{failing} job failed"):
            coloring.color_graph_local(AttributedGraph(**frames))
        assert threading.active_count() == start
    g = coloring.color_graph_local(AttributedGraph(_Frame(_V), _Frame(_E)))
    assert (g.n, g.m) == (3, 2)
    assert threading.active_count() == start


def test_collect_runs_both_jobs_at_once():
    """The vertex job waits until the edge job has started: the two
    overlap, as one extra thread submits the edge job."""
    edge_started = threading.Event()
    vertices = _Frame(_V, before=lambda: edge_started.wait(30))
    edges = _Frame(_E, before=edge_started.set)
    coloring.color_graph_local(AttributedGraph(vertices, edges))
    assert vertices.waited is True


def test_collect_builds_no_frame_and_no_adjacency_dict(monkeypatch):
    """From the two Arrow tables to the colored ``ColoredGraph`` the
    collect builds no pandas frame and never runs the dict coloring; its
    coloring is that of ``from_pandas`` on the same graph."""
    frames = gen.random_attributed_graph(40, 0.3, seed=5)
    expect = ColoredGraph.from_pandas(*frames)
    tables = [pa.Table.from_pandas(f, preserve_index=False) for f in frames]

    def refuse(*args, **kwargs):
        raise AssertionError("the collect built a pandas frame or an adjacency dict")

    monkeypatch.setattr(pd.DataFrame, "__init__", refuse)
    monkeypatch.setattr(coloring, "sequential_greedy", refuse)
    got = coloring.color_graph_local(AttributedGraph(*map(_Frame, tables)))
    for name in ("ids", "is_b", "color", "src", "dst"):
        assert (getattr(got, name) == getattr(expect, name)).all()


def test_reductions_peel_on_arrays(monkeypatch):
    """The reductions peel on color-group arrays: Def. 3's unused
    ColorfulCore must not come back, and with pandas frames made to
    raise, EnColorfulCore and (En)ColorfulSup still equal the
    one-at-a-time references."""
    assert not hasattr(reduction, "colorful_core")
    frames = gen.random_attributed_graph(30, 0.5, seed=8)
    g = ColoredGraph.from_pandas(*frames)
    lg = LocalGraph.from_pandas(*g.frames())
    core = reference.reference_core_peel(lg, 3)
    want = {"core": (core, {(u, w) for u in core for w in lg.adj[u] & core if u < w})}
    for enhanced in (False, True):
        edges = reference.reference_sup_peel(lg, 3, enhanced=enhanced)
        want[enhanced] = ({u for uw in edges for u in uw}, edges)

    def refuse(*args, **kwargs):
        raise AssertionError("a reduction built a pandas frame")

    monkeypatch.setattr(pd.DataFrame, "__init__", refuse)
    got = {"core": reduction.en_colorful_core(g, 3),
           **{e: reduction.colorful_sup_reduce(g, 3, enhanced=e) for e in (False, True)}}
    for name, h in got.items():
        ends = zip(h.ids[h.src].tolist(), h.ids[h.dst].tolist())
        assert (set(h.ids.tolist()), {(min(uw), max(uw)) for uw in ends}) == want[name], name
        assert 0 < h.m < g.m, name  # each peel removes some edges, not all
    assert got[True].m < got[False].m  # the enhanced supports are stricter here

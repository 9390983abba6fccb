"""Guards against settings that only ever take their default value, and
against a second code path for one decision."""
import inspect
import re
from pathlib import Path

import repro
from repro.core import bounds, branch
from repro.core.baseline import brute_force_size
from repro.core.branch import branch_search
from repro.core.maxrfc import max_rfc, max_rfc_local
from repro.core.reduction import reduce_pipeline
from repro.graph import coloring, gen, local
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


def test_ub_ad_has_one_implementation(monkeypatch):
    """ub_AD is the search's per-node coloring bound only: the root-level
    copy (``bounds.ub_advanced`` on a recolored per-root subgraph) must
    not come back, so under "s" and "ad" no root calls ``compute_ub``,
    while a combo with an extra root bound still does."""
    assert not hasattr(bounds, "ub_advanced")
    lg = LocalGraph.from_pandas(*gen.random_attributed_graph(30, 0.5, seed=3))
    expect = brute_force_size(lg, 2, 1)

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
    """A ``LocalGraph`` is colored when it is built and every subgraph
    keeps that coloring: no lazy recoloring may come back, and with the
    greedy coloring made to raise, every combo, with and without
    HeurRFC, still finds the maximum on a colored kernel."""
    assert not hasattr(LocalGraph, "ensure_colors")
    assert not hasattr(LocalGraph, "recolor")
    lg = LocalGraph.from_pandas(*gen.random_attributed_graph(30, 0.5, seed=3))
    expect = brute_force_size(lg, 2, 1)
    assert expect > 0

    def refuse(adj):
        raise AssertionError("a colored kernel was recolored")

    monkeypatch.setattr(local, "sequential_greedy", refuse)
    monkeypatch.setattr(coloring, "sequential_greedy", refuse)
    for combo in bounds.COMBOS:
        for use_heuristic in (True, False):
            res = max_rfc_local(lg, 2, 1, ub_combo=combo, use_heuristic=use_heuristic)
            assert res.search.completed and res.size == expect

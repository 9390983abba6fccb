"""Guards against settings that only ever take their default value."""
import inspect
import re
from pathlib import Path

import repro
from repro.core import branch
from repro.core.branch import branch_search
from repro.core.maxrfc import max_rfc, max_rfc_local
from repro.core.reduction import reduce_pipeline


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

"""Guards against settings that only ever take their default value."""
import inspect
import re
from pathlib import Path

import repro
from repro.core.reduction import reduce_pipeline


def test_pipeline_has_no_knobs_and_src_reads_no_env():
    assert list(inspect.signature(reduce_pipeline).parameters) == ["g", "k"]
    readers = [
        str(path)
        for path in Path(repro.__file__).parent.rglob("*.py")
        if re.search(r"os\.environ|getenv", path.read_text())
    ]
    assert readers == []


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

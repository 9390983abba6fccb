"""Table I: dataset statistics (n, m, d_max) for the six analogues.

Paper's Table I lists the six real graphs; ours lists the synthetic
analogues actually used in every other benchmark. Rows are printed in
markdown so EXPERIMENTS.md can be diffed against the paper's table.
Each row is ``bench_harness.table1_stats``, as in ``jobs/run_table1.py``:
n, m and d_max of G as the pipeline collects it.
"""
import pytest

from repro.graph import gen
from repro.bench_harness import emit_table, table1_stats

_ROWS: dict[str, tuple[int, int, int]] = {}


@pytest.mark.parametrize("name", sorted(gen.DATASETS))
def test_table1_stats(benchmark, spark, name):
    n, m, dmax = benchmark.pedantic(lambda: table1_stats(spark, name), rounds=1, iterations=1)
    _ROWS[name] = (n, m, dmax)
    assert n > 0 and m > 0 and dmax > 0


def test_print_table1(benchmark, spark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["### Table I (ours) — dataset statistics, scale=1.0",
             "", "| dataset | n=\\|V\\| | m=\\|E\\| | d_max |", "|---|---|---|---|"]
    for name in sorted(_ROWS):
        n, m, d = _ROWS[name]
        lines.append(f"| {name} | {n:,} | {m:,} | {d:,} |")
    emit_table("table1", lines)
    assert len(_ROWS) == len(gen.DATASETS)

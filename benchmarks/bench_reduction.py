"""Fig. 4/5 as a table: graph-reduction power of the three techniques.

For every dataset and k: remaining (n, m) after EnColorfulCore,
ColorfulSup and EnColorfulSup applied in sequence (Algorithm 2's order).
The pipeline skips ColorfulSup, which cannot change its kernel
(DESIGN.md §3.3.7); ``bench_harness.fig4_stages`` adds its column:
ColorfulSup(k) on the EnColorfulCore(k−1) output of G's coloring.
Paper shape to check: each stage shrinks the graph, edge-peeling
(ColorfulSup/EnColorfulSup) dominates vertex-peeling, and the reduction
strengthens as k grows.
"""
import pytest

from repro.graph.gen import DATASETS, PARAM_GRID
from repro.bench_harness import emit_table, fig4_stages, kernel

_ROWS: dict[tuple[str, int], dict[str, tuple[int, int]]] = {}

_POINTS = [
    (name, k) for name in sorted(DATASETS) for k in PARAM_GRID[name][0]
]


@pytest.mark.parametrize("name,k", _POINTS, ids=[f"{n}-k{k}" for n, k in _POINTS])
def test_reduction_stages(benchmark, spark, name, k):
    benchmark.pedantic(lambda: kernel(spark, name, k), rounds=1, iterations=1)
    stages = fig4_stages(spark, name, k)
    # Monotone shrinking across the pipeline; EnColorfulSup ⊆ ColorfulSup.
    order = ["original", "encore", "sup", "ensup"]
    for a, b in zip(order, order[1:]):
        assert stages[b][0] <= stages[a][0]
        assert stages[b][1] <= stages[a][1]
    _ROWS[(name, k)] = stages


def test_print_reduction_table(benchmark, spark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["### Fig. 4 (ours, as table) — remaining n / m per stage", "",
             "| dataset | k | original | EnColorfulCore | ColorfulSup | EnColorfulSup |",
             "|---|---|---|---|---|---|"]
    for (name, k), st in sorted(_ROWS.items()):
        cells = " | ".join(
            f"{st[s][0]:,} / {st[s][1]:,}"
            for s in ("original", "encore", "sup", "ensup")
        )
        lines.append(f"| {name} | {k} | {cells} |")
    emit_table("fig4_reduction", lines)
    assert len(_ROWS) == len(_POINTS)

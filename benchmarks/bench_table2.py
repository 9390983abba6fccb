"""Table II: MaxRFC runtime under the six upper-bound configurations.

For every dataset the paper sweeps k (5 values, δ at default) and δ
(5 values, k at default) and times MaxRFC with ub_AD, ub_AD+ub_△,
ub_AD+ub_h, ub_AD+ub_cd, ub_AD+ub_ch, ub_AD+ub_cp. We reproduce the
full grid; each cell's time = that config's heuristic + branch-and-bound
time, the median of ``ROUNDS`` runs. The reduction the six configs share is reported once per row in
two columns (see ``repro.bench_harness``): ``collect`` is the collect
and coloring of G (the ``original`` stage) and ``peel`` the reduction
stages, EnColorfulCore → EnColorfulSup.

The assembled markdown table is printed at the end of the module so it
can be pasted into EXPERIMENTS.md next to the paper's numbers.
"""
import statistics

import pytest

from repro.graph.gen import DATASETS, PARAM_GRID
from repro.core.maxrfc import max_rfc_local
from repro.bench_harness import TABLE2_COMBOS, emit_table, fmt_ms, kernel, reduce_seconds

# (dataset, sweep-kind, k, delta) — k sweep at default δ, δ sweep at default k.
_POINTS = []
for _name in sorted(DATASETS):
    _ks, _kdef, _ds, _ddef = PARAM_GRID[_name]
    for _k in _ks:
        _POINTS.append((_name, "k", _k, _ddef))
    for _d in _ds:
        _POINTS.append((_name, "delta", _kdef, _d))

#: Runs timed per cell: one run drifts by about a third between runs.
ROUNDS = 3
_RESULTS: dict[tuple, tuple[float, int, int, bool]] = {}


@pytest.mark.parametrize("combo", TABLE2_COMBOS)
@pytest.mark.parametrize(
    "name,sweep,k,delta",
    _POINTS,
    ids=[f"{n}-{s}{k if s == 'k' else d}" for n, s, k, d in _POINTS],
)
def test_table2_cell(benchmark, spark, name, sweep, k, delta, combo):
    report = kernel(spark, name, k)

    runs = []

    def cell():
        runs.append(max_rfc_local(report.graph, k, delta, ub_combo=combo, time_limit=30.0))

    benchmark.pedantic(cell, rounds=ROUNDS, iterations=1)
    res = runs[-1]
    _RESULTS[(name, sweep, k, delta, combo)] = (
        statistics.median(sum(r.timings.values()) for r in runs),
        res.size, res.search.nodes, res.search.completed,
    )
    assert res.size >= 0


def test_print_table2(benchmark, spark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["### Table II (ours) — MaxRFC time (ms) per ub config; "
             f"cell = heuristic + search, median of {ROUNDS} runs; collect + peel = the (dataset, k) "
             "reduction the six configs share", ""]
    header = "| dataset | sweep | value | collect | peel | " + " | ".join(
        f"ub_AD{'' if c == 'ad' else '+' + c.split('+')[1]}" for c in TABLE2_COMBOS
    ) + " | size |"
    lines.append(header)
    lines.append("|" + "---|" * (len(TABLE2_COMBOS) + 6))
    for name in sorted(DATASETS):
        ks, kdef, ds, ddef = PARAM_GRID[name]
        for sweep, values in (("k", ks), ("delta", ds)):
            for v in values:
                key_k = v if sweep == "k" else kdef
                key_d = ddef if sweep == "k" else v
                cells = [fmt_ms(x) for x in reduce_seconds(kernel(spark, name, key_k))]
                size = None
                for c in TABLE2_COMBOS:
                    r = _RESULTS.get((name, sweep, key_k, key_d, c))
                    if r is None:
                        cells.append("–")
                    else:
                        mark = "" if r[3] else "≥"
                        cells.append(mark + fmt_ms(r[0]))
                        size = r[1]
                lines.append(
                    f"| {name} | {sweep} | {v} | " + " | ".join(cells) + f" | {size} |"
                )
    emit_table("table2", lines)
    assert len(_RESULTS) == len(_POINTS) * len(TABLE2_COMBOS)

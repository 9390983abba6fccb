"""Fig. 9 as a table: scalability over 20–100% vertex / edge samples.

The paper samples 20–80% of Flixster's vertices and edges and shows the
pruned variants' runtime growing much more gently than the baseline's.
We do the same on the Flixster analogue at its default (k, δ). The
+ub+Heur column is ``max_rfc_local``'s default: HeurRFC's incumbent and
ub_AD at every node.
"""
import numpy as np
import pytest

from repro.graph import gen
from repro.graph.builder import from_pandas
from repro.core.maxrfc import max_rfc_local
from repro.core.reduction import reduce_pipeline
from repro.bench_harness import emit_table

FRACS = (0.2, 0.4, 0.6, 0.8, 1.0)
_ROWS: dict[tuple[str, float], tuple[float, float, float, int]] = {}


def _sampled(mode: str, frac: float):
    v, e = gen.DATASETS["flixster"]()
    rng = np.random.default_rng(7)
    if frac < 1.0 and mode == "vertices":
        keep = set(rng.choice(v["id"], size=int(len(v) * frac), replace=False))
        v = v[v["id"].isin(keep)].reset_index(drop=True)
        e = e[e["src"].isin(keep) & e["dst"].isin(keep)].reset_index(drop=True)
    elif frac < 1.0:
        e = e.sample(frac=frac, random_state=7).reset_index(drop=True)
    return v, e


@pytest.mark.parametrize("frac", FRACS)
@pytest.mark.parametrize("mode", ["vertices", "edges"])
def test_scalability_point(benchmark, spark, mode, frac):
    import time

    v, e = _sampled(mode, frac)
    g = from_pandas(spark, v, e).checkpointed()
    k, delta = 3, 3  # flixster defaults

    def run():
        t0 = time.perf_counter()
        rep = reduce_pipeline(g, k)
        t_red = time.perf_counter() - t0
        lg = rep.graph
        t0 = time.perf_counter()
        base = max_rfc_local(lg, k, delta, ub_combo="s", use_heuristic=False,
                             time_limit=60)
        t_base = time.perf_counter() - t0
        t0 = time.perf_counter()
        full = max_rfc_local(lg, k, delta)
        t_full = time.perf_counter() - t0
        assert not base.search.completed or base.size == full.size
        return t_red, t_base, t_full, full.size

    t_red, t_base, t_full, size = benchmark.pedantic(run, rounds=1, iterations=1)
    _ROWS[(mode, frac)] = (t_red, t_base, t_full, size)


def test_print_scalability_table(benchmark, spark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["### Fig. 9 (ours, as table) — flixster samples at (k=3, δ=3); "
             "times in ms", "",
             "| sample | frac | reduce | MaxRFC search | +ub+Heur search | size |",
             "|---|---|---|---|---|---|"]
    for (mode, frac), (tr, tb, tf, size) in sorted(_ROWS.items()):
        lines.append(f"| {mode} | {int(frac*100)}% | {tr*1000:,.0f} | {tb*1000:,.0f} "
                     f"| {tf*1000:,.0f} | {size} |")
    emit_table("fig9_scalability", lines)
    assert len(_ROWS) == len(FRACS) * 2

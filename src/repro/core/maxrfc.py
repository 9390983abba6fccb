"""End-to-end MaxRFC pipeline (Algorithm 2): collect once, reduce and
search on the driver.

``max_rfc`` wires the pieces together:

1. collect G from Spark once, as Arrow columns of its own vertex and
   edge frames (the two jobs overlap), check the input contract on them
   and color G greedily on its CSR arrays, on the driver;
2. the reductions EnColorfulCore(k−1) → EnColorfulSup(k) (Algorithm 2,
   lines 1–3, without its ColorfulSup, which cannot change the kernel),
   batch-peeled with numpy, giving the kernel as a ``ColoredGraph``;
3. optionally HeurRFC to seed the incumbent and pre-prune the kernel to
   the (|R*|−1)-core (the paper's Remark in §V);
4. branch-and-bound with the configured Table-II upper-bound combo.

Steps 3–4 run on the kernel's arrays: CalColorOD, the search's bitsets
and every combo's extra root bound, on each root's subgraph induced from
the kernel.

``max_rfc_local`` is the search-only variant (steps 3–4) used by unit
tests and, on a kernel cached by ``repro.bench_harness``, by the
benchmarks and jobs.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.graph.builder import AttributedGraph
from repro.graph.coloring import ColoredGraph
from repro.core.branch import SearchResult, branch_search, check_query
from repro.core.heuristic import heur_rfc
from repro.core.reduction import ReductionReport, reduce_pipeline


@dataclass
class MaxRFCResult:
    """Full pipeline outcome with per-phase accounting."""

    clique: list[int]
    k: int
    delta: int
    search: SearchResult
    heur_clique: list[int] = field(default_factory=list)
    reduction: ReductionReport | None = None
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.clique)


def max_rfc_local(
    lg: ColoredGraph,
    k: int,
    delta: int,
    *,
    ub_combo: str = "ad",
    use_heuristic: bool = True,
    time_limit: float | None = None,
) -> MaxRFCResult:
    """MaxRFC on an in-memory colored kernel (steps 3–4 of the pipeline)."""
    check_query(k, delta, ub_combo, time_limit)
    timings: dict[str, float] = {}
    heur_clique: list[int] = []
    g = lg
    t0 = time.perf_counter()
    if use_heuristic:
        hres = heur_rfc(lg, k, delta)
        heur_clique = hres.clique
        if hres.clique:
            g = hres.graph  # (|R*|−1)-core still holds every larger clique
    timings["heuristic"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    search = branch_search(
        g,
        k,
        delta,
        ub_combo=ub_combo,
        best_init=heur_clique,
        time_limit=time_limit,
    )
    timings["search"] = time.perf_counter() - t0
    return MaxRFCResult(
        clique=search.clique,
        k=k,
        delta=delta,
        search=search,
        heur_clique=heur_clique,
        timings=timings,
    )


def max_rfc(
    g: AttributedGraph,
    k: int,
    delta: int,
    *,
    ub_combo: str = "ad",
    use_heuristic: bool = True,
    time_limit: float | None = None,
) -> MaxRFCResult:
    """Full reduce-then-search pipeline (Algorithm 2) on a Spark graph."""
    check_query(k, delta, ub_combo, time_limit)
    t0 = time.perf_counter()
    report = reduce_pipeline(g, k)
    t_reduce = time.perf_counter() - t0
    res = max_rfc_local(
        report.graph,
        k,
        delta,
        ub_combo=ub_combo,
        use_heuristic=use_heuristic,
        time_limit=time_limit,
    )
    res.reduction = report
    res.timings["reduce"] = t_reduce
    return res

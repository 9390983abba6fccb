"""Run the full MaxRFC pipeline on one dataset.

    spark-submit jobs/run_maxrfc.py --dataset dblp --k 7 --delta 4 \
        [--scale 1.0] [--ub ad] [--no-heuristic] [--baseline]

``--ub`` is a Table-II bound combo (``bounds.COMBOS``); it defaults to
``max_rfc``'s own, ``"ad"``. ``--baseline`` runs the basic framework of
Fig. 6: ``ub_combo="s"`` (size-only pruning) with no heuristic; it
overrides ``--ub``.
"""
import argparse
import sys

sys.path.insert(0, ".")
from jobs._session import get_session  # noqa: E402

from repro.graph import gen  # noqa: E402
from repro.graph.builder import from_pandas  # noqa: E402
from repro.core.maxrfc import max_rfc  # noqa: E402


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--dataset", choices=sorted(gen.DATASETS), default="dblp")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--ub", default="ad")
    p.add_argument("--no-heuristic", action="store_true")
    p.add_argument("--baseline", action="store_true",
                   help='basic framework: ub_combo="s", no heuristic')
    args = p.parse_args()

    _, kdef, _, ddef = gen.PARAM_GRID[args.dataset]
    k = args.k if args.k is not None else kdef
    delta = args.delta if args.delta is not None else ddef
    ub = "s" if args.baseline else args.ub

    spark = get_session(f"maxrfc-{args.dataset}")
    v, e = gen.DATASETS[args.dataset](scale=args.scale)
    g = from_pandas(spark, v, e).checkpointed()
    res = max_rfc(
        g,
        k,
        delta,
        ub_combo=ub,
        use_heuristic=not (args.no_heuristic or args.baseline),
    )
    print(f"dataset={args.dataset} k={k} delta={delta} ub={ub}")
    for name, n, m, secs in res.reduction.stages:
        print(f"  stage {name:10s} n={n:7,} m={m:9,} ({secs:6.2f}s)")
    print(f"  heuristic clique size: {len(res.heur_clique)}")
    print(f"  maximum fair clique size: {res.size}")
    print(f"  clique: {sorted(res.clique)}")
    print(f"  search nodes: {res.search.nodes}  timings: "
          + ", ".join(f"{k_}={v_:.2f}s" for k_, v_ in res.timings.items()))
    spark.stop()


if __name__ == "__main__":
    main()

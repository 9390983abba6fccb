"""Print Table I (dataset statistics) for the six synthetic analogues.

    spark-submit jobs/run_table1.py [--scale 1.0]

The rows come from ``bench_harness.table1_stats``, as in
``benchmarks/bench_table1.py``.
"""
import argparse
import sys

sys.path.insert(0, ".")
from jobs._session import get_session  # noqa: E402

from repro.graph import gen  # noqa: E402
from repro.bench_harness import table1_stats  # noqa: E402


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--scale", type=float, default=1.0)
    args = p.parse_args()
    spark = get_session("table1")
    print("| dataset | n=|V| | m=|E| | d_max |")
    print("|---|---|---|---|")
    for name in sorted(gen.DATASETS):
        n, m, dmax = table1_stats(spark, name, scale=args.scale)
        print(f"| {name} | {n:,} | {m:,} | {dmax:,} |")
    spark.stop()


if __name__ == "__main__":
    main()

"""Print the Fig-4-style reduction table (remaining n/m per stage).

    spark-submit jobs/run_reduction.py [--scale 1.0] [--datasets ...]

The rows come from ``bench_harness.fig4_stages``, as in
``benchmarks/bench_reduction.py``.
"""
import argparse
import sys

sys.path.insert(0, ".")
from jobs._session import get_session  # noqa: E402

from repro.graph import gen  # noqa: E402
from repro.bench_harness import fig4_stages  # noqa: E402


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--datasets", nargs="*", default=sorted(gen.DATASETS))
    args = p.parse_args()
    spark = get_session("reduction")
    print("| dataset | k | original | EnColorfulCore | ColorfulSup | EnColorfulSup |")
    print("|---|---|---|---|---|---|")
    for name in args.datasets:
        for k in gen.PARAM_GRID[name][0]:
            st = fig4_stages(spark, name, k, scale=args.scale)
            cells = " | ".join(
                f"{st[s][0]:,} / {st[s][1]:,}"
                for s in ("original", "encore", "sup", "ensup")
            )
            print(f"| {name} | {k} | {cells} |")
    spark.stop()


if __name__ == "__main__":
    main()

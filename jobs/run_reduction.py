"""Print the Fig-4-style reduction table (remaining n/m per stage).

    spark-submit jobs/run_reduction.py [--scale 1.0] [--datasets ...]

The ColorfulSup column is ColorfulSup(k) on the EnColorfulCore(k−1)
output of G's coloring, computed here: the pipeline skips that stage,
which cannot change its kernel (DESIGN.md §3.3.7).
"""
import argparse
import sys

sys.path.insert(0, ".")
from jobs._session import get_session  # noqa: E402

from repro.graph import gen  # noqa: E402
from repro.graph.coloring import color_graph_local  # noqa: E402
from repro.core.reduction import colorful_sup_reduce, en_colorful_core  # noqa: E402
from repro.bench_harness import kernel, prepare  # noqa: E402


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
            st = kernel(spark, name, k, scale=args.scale).stage_dict()
            g = color_graph_local(prepare(spark, name, args.scale).graph)
            sup = colorful_sup_reduce(en_colorful_core(g, k - 1), k)
            st["sup"] = (sup.n, sup.m)
            cells = " | ".join(
                f"{st[s][0]:,} / {st[s][1]:,}"
                for s in ("original", "encore", "sup", "ensup")
            )
            print(f"| {name} | {k} | {cells} |")
    spark.stop()


if __name__ == "__main__":
    main()

"""Print Table II (MaxRFC runtime per ub config, k and δ sweeps).

A cell is that config's heuristic + search time in ms; ``collect`` and
``peel`` split the reduction the row's six configs share into the
collect + coloring of G and the peel stages.

    spark-submit jobs/run_table2.py [--scale 1.0] [--datasets dblp aminer]
"""
import argparse
import sys

sys.path.insert(0, ".")
from jobs._session import get_session  # noqa: E402

from repro.graph import gen  # noqa: E402
from repro.core.maxrfc import max_rfc_local  # noqa: E402
from repro.bench_harness import TABLE2_COMBOS, fmt_ms, kernel, reduce_seconds  # noqa: E402


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--datasets", nargs="*", default=sorted(gen.DATASETS))
    args = p.parse_args()
    spark = get_session("table2")
    print("| dataset | sweep | value | collect | peel | " + " | ".join(TABLE2_COMBOS)
          + " | size |")
    print("|" + "---|" * (len(TABLE2_COMBOS) + 6))
    for name in args.datasets:
        ks, kdef, ds, ddef = gen.PARAM_GRID[name]
        for sweep, values in (("k", ks), ("delta", ds)):
            for v in values:
                k = v if sweep == "k" else kdef
                d = ddef if sweep == "k" else v
                report = kernel(spark, name, k, scale=args.scale)
                cells, size = [fmt_ms(x) for x in reduce_seconds(report)], 0
                for combo in TABLE2_COMBOS:
                    res = max_rfc_local(report.graph, k, d, ub_combo=combo)
                    cells.append(fmt_ms(sum(res.timings.values())))
                    size = res.size
                print(f"| {name} | {sweep} | {v} | " + " | ".join(cells)
                      + f" | {size} |")
    spark.stop()


if __name__ == "__main__":
    main()

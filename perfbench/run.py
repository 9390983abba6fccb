#!/usr/bin/env python3
"""MaxRFC benchmark: timed end-to-end runs and per-layer traced runs.

    python3 perfbench/run.py --workload analogues --seed 0 --seconds 30 --trace 0

Run from the repository root. Each query of the workload goes through
the public entry point ``repro.core.maxrfc.max_rfc(g, k, delta)`` with
its defaults (plus a search ``time_limit``, so a runaway search is
counted as failed instead of hanging) on a ``local[N]`` SparkSession
built by ``jobs._session.get_session``, the session the jobs use.

A run:

1. generates the workload's pandas frames from ``--seed`` and, in a
   worker process while step 2 runs, computes each query's maximum with
   the benchmark's own exact search (checked against ``record.json`` for
   recorded seeds); neither is part of any metric;
2. sets up: starts the SparkSession and lifts every input with
   ``from_pandas(...).checkpointed()``, ``SETUPS`` times over, then runs
   ``WARMUP_CALLS`` warm-up ``max_rfc`` calls on a small input outside
   the timed set; ``setup_s`` is the median start-and-lift time plus the
   warm-up time (a warm-up call costs as many Spark jobs as a real
   query, too many to repeat the warm-up within the time budget);
3. runs whole passes over the queries, at least one, starting another
   only while it is expected to end within ``--seconds``, and reports
   the median pass;
4. checks every returned clique against the input frames.

With ``--trace 1`` it instead sets up once and runs one untraced, one
traced (``spans.Tracer``) and one more untraced pass, and reports the
per-layer metrics of the traced pass plus ``trace.overhead_s`` (traced
minus mean untraced solve time); all three passes must return the same
answers. Spans are written to ``.bench_build/perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"
#: Knobs of the older ``benchmarks/`` harness; they must not leak in.
FORBIDDEN_ENV = ("BENCH_MAX_ROUNDS", "BENCH_LOCAL_THRESHOLD", "BENCH_SCALE",
                 "SPARK_SHUFFLE_PARTITIONS")
DRIVER_MEMORY = "2g"
SETUPS = 3
#: Search cap per ``max_rfc`` call; a call that hits it counts as failed.
TIME_LIMIT_S = 60.0
#: How long processes left at exit may take to end before they are killed.
REAP_GRACE_S = 30.0
#: Computes a workload's exact maxima in a child process:
#: ``python3 -c MAXIMA_CODE <perfbench dir> <src dir> <workload> <seed>``.
MAXIMA_CODE = ("import json, sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
               "print(json.dumps(workloads.exact_maxima(sys.argv[3], int(sys.argv[4]))))")
PR_SET_CHILD_SUBREAPER = 36


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment_problem() -> str | None:
    """Why this checkout cannot be benchmarked, or None."""
    for name in FORBIDDEN_ENV:
        if name in os.environ:
            return f"{name} is set; unset it, the benchmark runs max_rfc's defaults"
    for rel in ("src/repro/core/maxrfc.py", "jobs/_session.py"):
        if not (ROOT / rel).is_file():
            return f"{rel} not found under {ROOT}; run from a full checkout"
    return None


def pin_spark(tmp: Path) -> None:
    """Fix master, driver memory and temporary dirs before the JVM starts.

    Every temporary file goes under ``tmp``, inside the checkout; the
    JVMs (Spark's launcher too) keep no perf data file in /tmp.
    """
    os.environ["TMPDIR"] = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", f"local[{min(4, os.cpu_count() or 1)}]",
        "--driver-memory", DRIVER_MEMORY,
        "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp}"),
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", shlex.quote(f"spark.local.dir={tmp}"),
        "pyspark-shell",
    ])


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=False)
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted([*(ROOT / "src" / "repro").rglob("*.py"), ROOT / "jobs" / "_session.py"]):
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(spark) -> dict:
    import pyspark

    sc = spark.sparkContext
    return {
        "nproc": os.cpu_count(),
        "master": sc.master,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "pyspark": pyspark.__version__,
        "java": sc._jvm.java.lang.System.getProperty("java.version"),
        "python": platform.python_version(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


class Jvm:
    """CPU and peak RSS of the Spark JVM, read from /proc."""

    def __init__(self, spark):
        self.pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
        self._tick = os.sysconf("SC_CLK_TCK")

    def cpu_s(self) -> float:
        with open(f"/proc/{self.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / self._tick

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")


def stop_spark(spark) -> None:
    """Stop the session and the JVM behind it, and wait for the JVM to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def become_subreaper() -> None:
    """Adopt orphaned descendants, so ``reap_descendants`` can wait for them.

    Spark's Python workers are children of the JVM; once it exits they
    would be re-parented out of reach and could outlive the benchmark.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _children() -> list[int]:
    me = os.getpid()
    out = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            out.append(int(d))
    return out


def reap_descendants(grace_s: float = REAP_GRACE_S) -> None:
    """Wait until every process this one started has ended.

    Processes still running after ``grace_s`` are killed; their orphans
    come back to this subreaper and are killed in turn.
    """
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def measure(seconds: float, one_pass) -> list[dict]:
    """Whole passes, at least one, while the next is expected to fit."""
    passes: list[dict] = []
    t0 = time.perf_counter()
    while True:
        passes.append(one_pass())
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    problem = environment_problem()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    become_subreaper()
    # A SIGTERM unwinds through the finally blocks, which stop Spark.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, tmp)
    finally:
        reap_descendants()
        shutil.rmtree(tmp, ignore_errors=True)


def run(args: argparse.Namespace, tmp: Path) -> int:
    pin_spark(tmp)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import spans
    import workloads
    from jobs._session import get_session
    from repro.core.maxrfc import max_rfc
    from repro.graph.builder import from_pandas

    queries = workloads.make_queries(args.workload, args.seed)
    spark = None
    tracer = None
    setup_s: list[float] = []
    # The exact maxima are computed in a child process while Spark sets up.
    maxima = subprocess.Popen(
        [sys.executable, "-c", MAXIMA_CODE, str(HERE), str(ROOT / "src"),
         args.workload, str(args.seed)],
        stdout=subprocess.PIPE, text=True)
    try:
        for _ in range(1 if args.trace else SETUPS):
            if spark is not None:
                spark.stop()
            t0 = time.perf_counter()
            spark = get_session("perfbench")
            spark.sparkContext.setLogLevel("ERROR")
            if args.trace:
                sc = spark.sparkContext
                tracer = spans.Tracer(lambda: sc._jsc.sc().dagScheduler().nextJobId())
            graphs = []
            for q in queries:
                with tracer.span("lift", query=q.name) if tracer else nullcontext():
                    graphs.append(from_pandas(spark, q.vertices, q.edges).checkpointed())
            setup_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        w = workloads.warmup_query()
        for _ in range(workloads.WARMUP_CALLS):
            max_rfc(from_pandas(spark, w.vertices, w.edges).checkpointed(), w.k, w.delta)
        warmup_s = time.perf_counter() - t0
        stdout, _ = maxima.communicate()
        if maxima.returncode != 0:
            raise RuntimeError(f"exact search exited with code {maxima.returncode}")
        by_name = json.loads(stdout)
        record = json.loads((HERE / "record.json").read_text())
        recorded = record["workloads"][args.workload]["maxima"].get(str(args.seed))
        if recorded is not None and recorded != by_name:
            raise RuntimeError(f"exact search disagrees with record.json: {by_name} vs {recorded}")
        expected = [by_name[q.name] for q in queries]
        env = fingerprint(spark)
        jvm = Jvm(spark)
        n_pass = 0

        def one_pass(traced: bool) -> dict:
            nonlocal n_pass
            n_pass += 1
            out = {"solve_s": 0.0, "query_max_s": 0.0, "cliques": [], "errors": []}
            # errors[i] is None when query i returned a maximum fair clique.
            c0 = time.process_time() + jvm.cpu_s()
            for i, (q, g, want) in enumerate(zip(queries, graphs, expected)):
                qid = n_pass * len(queries) + i
                if tracer is not None:
                    tracer.query = qid
                clique, err = None, None
                with tracer.span("query", query=q.name) if traced else nullcontext() as s:
                    t0 = time.perf_counter()
                    try:
                        res = max_rfc(g, q.k, q.delta, time_limit=TIME_LIMIT_S)
                    except Exception:  # a failed call is counted, the run goes on
                        traceback.print_exc()
                        err = f"{q.name}: max_rfc raised"
                    dt = time.perf_counter() - t0
                    if err is None:
                        clique = sorted(int(v) for v in res.clique)
                        if s is not None:
                            s["attrs"]["size"] = len(clique)
                        if not res.search.completed:
                            err = f"{q.name}: search hit the {TIME_LIMIT_S:.0f} s cap"
                        else:
                            err = workloads.check_answer(q, clique, want)
                out["solve_s"] += dt
                out["query_max_s"] = max(out["query_max_s"], dt)
                out["cliques"].append(clique)
                out["errors"].append(err)
            out["cpu_s"] = time.process_time() + jvm.cpu_s() - c0
            return out

        if args.trace:
            # Untraced passes before and after the traced one, so the JVM
            # warming up over the run does not bias trace.overhead_s.
            plain = [one_pass(False)]
            with tracer:
                traced = [one_pass(True)]
            plain.append(one_pass(False))
            everything = plain + traced
            for p in everything:
                for i, (clique, first) in enumerate(zip(p["cliques"], plain[0]["cliques"])):
                    if clique != first and p["errors"][i] is None:
                        p["errors"][i] = f"{queries[i].name}: answer differs between passes"
        else:
            everything = measure(args.seconds, lambda: one_pass(False))
        driver_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        jvm_rss = jvm.peak_rss_mb()
    finally:
        if maxima.poll() is None:
            maxima.kill()
        maxima.wait()
        if spark is not None:
            stop_spark(spark)

    attempted = sum(len(p["cliques"]) for p in everything)
    errors = [e for p in everything for e in p["errors"] if e is not None]
    for e in errors:
        print(f"FAILED {e}", file=sys.stderr)
    med = lambda key: statistics.median(p[key] for p in everything)  # noqa: E731
    if args.trace:
        metrics = spans.layer_metrics(tracer.spans, tracer.absent)
        metrics["trace.overhead_s"] = (
            traced[0]["solve_s"] - statistics.mean(p["solve_s"] for p in plain), "s")
        # Reported here, unbounded: G1's heap growth depends on timing, so
        # the JVM's peak RSS spreads by about a fifth from run to run.
        metrics["jvm_peak_rss_mb"] = (jvm_rss, "MB")
        WORK.mkdir(parents=True, exist_ok=True)
        out = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                                   "absent": sorted(tracer.absent), "spans": tracer.spans,
                                   "metrics": metrics}, indent=1))
        print(f"absent layers: {sorted(tracer.absent) or 'none'}; spans in {out}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s) + warmup_s, "s"),
            "solve_s": (med("solve_s"), "s"),
            "query_s.max": (med("query_max_s"), "s"),
            "cpu_s": (med("cpu_s"), "s"),
            "driver_peak_rss_mb": (driver_rss, "MB"),
            "answered_frac": ((attempted - len(errors)) / attempted, "ratio"),
        }
    print(f"env: {json.dumps(env)}")
    print(f"workload={args.workload} seed={args.seed} passes={len(everything)} "
          f"attempted={attempted} failed={len(errors)} "
          f"failed_frac={len(errors) / attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

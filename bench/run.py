"""selfnorm benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload ar1-paths --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
With ``--trace 0`` the workload runs untraced through ``run_experiment`` with
one worker per core, as often as fits in ``--seconds``, and the end-to-end
metrics are medians over those passes. With ``--trace 1`` the workload runs
once untraced and once traced with one worker (the two digests must agree),
then every per-layer metric is measured. The last line of standard output is
the result as one JSON object; a record with the environment (and, traced,
the spans and the per-layer self-time table) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every child
    os.environ[_var] = "1"
os.environ.pop("SELFNORM_WORKERS", None)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
TMP = ROOT / ".bench_tmp"
os.environ["TMPDIR"] = str(TMP)  # keep temporary artifacts inside the checkout
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (after the environment is pinned)

SETUP_PROBES = 5


def import_selfnorm():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "selfnorm" / "__init__.py").is_file():
        raise SystemExit(f"bench: no selfnorm package under {src}")
    sys.path.insert(0, str(src))
    import selfnorm

    if Path(selfnorm.__file__).resolve().parent != (src / "selfnorm").resolve():
        raise SystemExit(f"bench: selfnorm imported from {selfnorm.__file__}, not {src}")
    return selfnorm


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    me, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    me, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return max(me.ru_maxrss, kids.ru_maxrss) / 1024.0  # ru_maxrss is in KiB on Linux


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": nproc(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "machine": platform.machine(),
    }


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: time the import, config validation and model construction."""
    t0 = time.perf_counter()
    import_selfnorm()
    workloads.setup(workloads.build(workload, seed))
    print(repr(time.perf_counter() - t0))


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_table(title: str, metrics: dict, counts: dict) -> None:
    print(title)
    for name, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:42s} {value:>12s} {m['unit']:6s} {counts.get(name, '')}")


def run_untraced(args, w) -> dict:
    setup = measure_setup(args.workload, args.seed)
    workers = nproc()
    walls, cpus, outcomes = [], [], []
    start = time.perf_counter()
    while True:
        c0, t0 = cpu_seconds(), time.perf_counter()
        outcomes.append(workloads.run(w, workers))
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
        if time.perf_counter() - start + walls[-1] > args.seconds:
            break
    # The operations are those of one pass, so attempted and failed depend on
    # the seed only, not on how many passes fit in --seconds. Every later pass
    # must reproduce the first; one that does not is one more failure.
    first = outcomes[0]
    attempted, failed = first.attempted, first.failed
    digests = sorted({o.digest for o in outcomes})
    incorrect = sorted({x for o in outcomes for x in o.incorrect})
    same = [(o.digest, o.attempted, o.failed, o.failed_rows) ==
            (first.digest, first.attempted, first.failed, first.failed_rows) for o in outcomes]
    if not all(same):
        failed += 1
        incorrect.append(f"passes differ: digests {digests}, failed "
                         f"{[o.failed for o in outcomes]} of {[o.attempted for o in outcomes]}")
    k = len(walls)
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "cpu_s": metric(statistics.median(cpus), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    counts = {"wall_s": f"median of {k} passes", "setup_s": f"median of {len(setup)} processes",
              "cpu_s": f"median of {k} passes, driver and workers",
              "peak_rss_mb": "driver or largest child"}
    print_table(f"{w.name} seed {args.seed}: {workers} workers, {k} passes", metrics, counts)
    print(f"  failed_share {failed}/{attempted} operations")
    failed_rows = sorted({x for o in outcomes for x in o.failed_rows})
    for what in failed_rows:
        print(f"  failed row: {what}")
    for what in incorrect:
        print(f"  INCORRECT: {what}")
    print(f"  digest {' '.join(digests)}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "correct": not incorrect,
            "record": {"walls": walls, "cpus": cpus, "setup": setup, "digests": digests,
                       "failed_rows": failed_rows, "incorrect": incorrect}}


def run_traced(args, w) -> dict:
    import layers
    from tracing import Tracer

    workers = nproc()
    base = workloads.run(w, workers)
    tracer = Tracer(w.name)
    restore = tracer.install()
    try:
        root = tracer.open("bench.workload")
        one = workloads.run(w, 1)
        tracer.close(root)
        pass_spans = list(tracer.spans)
        suite = layers.LayerSuite(w, tracer, pass_spans, args.seed, workers)
        root = tracer.open("bench.layers")
        suite.measure()
        tracer.close(root)
    finally:
        restore()
    incorrect = sorted(set(base.incorrect) | set(one.incorrect)) + suite.errors
    attempted = base.attempted + one.attempted + 1 + len(layers.METRICS)
    failed = base.failed + one.failed + len(suite.errors)
    if base.digest != one.digest:
        failed += 1
        suite.values["experiments.failed"] += 1
        incorrect.append(f"digest at {workers} workers {base.digest} != at 1 worker {one.digest}")

    traced_wall = pass_spans[0].seconds
    per_span = span_cost()
    suite.values["trace.wall_s"] = traced_wall
    suite.counts["trace.wall_s"] = f"{len(pass_spans)} spans"
    suite.values["trace.overhead_pct"] = 100.0 * per_span * len(pass_spans) / traced_wall
    suite.counts["trace.overhead_pct"] = f"{per_span * 1e6:.2f} us per span"
    metrics = {name: metric(suite.values.get(name), unit)
               for name, (unit, _, _) in layers.METRICS.items()}
    print_table(f"{w.name} seed {args.seed}: traced pass with 1 worker, digests "
                f"{base.digest} ({workers} workers) {one.digest} (1 worker)", metrics, suite.counts)
    table = tracer.layer_table()
    print("  layer        calls     self_s  failed  counts")
    for layer, row in table.items():
        print(f"  {layer:12s} {row['calls']:6d} {row['self_s']:10.3f} {row['failed']:7d}  "
              + " ".join(f"{k}={v}" for k, v in sorted(row["counts"].items())))
    for what in incorrect:
        print(f"  INCORRECT: {what}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "correct": not incorrect and all(m["value"] is not None for m in metrics.values()),
            "record": {"digests": [base.digest, one.digest], "incorrect": incorrect,
                       "layer_table": table, "spans": [s.to_json() for s in tracer.spans]}}


def span_cost() -> float:
    """Seconds a traced call costs beyond the call itself."""
    from tracing import Tracer

    def probe(count: int, reps: int = 1):
        return count

    traced = Tracer("calibration").wrap("bench.probe", probe)
    n = 20_000
    t0 = time.perf_counter()
    for i in range(n):
        probe(i)
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for i in range(n):
        traced(i)
    return max(0.0, (time.perf_counter() - t0 - plain) / n)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_selfnorm()
    TMP.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    w = workloads.build(args.workload, args.seed)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    result = (run_traced if args.trace else run_untraced)(args, w)
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace, "environment": env,
              **{k: result[k] for k in ("correct", "attempted", "failed", "metrics")},
              **result["record"]}
    path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

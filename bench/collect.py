"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --workloads ar1-paths sre --seeds 1 2 3 4 5 \\
        --seconds 30 --out bench/results/example.json

Each run is ``bench/run.py`` in its own process, as the benchmark contract
runs it. The summary holds, per workload and metric, every value, the median,
the quartiles of ``statistics.quantiles(values, n=4)`` and their distance as
a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=BENCH.parent, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    env = json.loads(lines[0][len("environment "):]) if lines[0].startswith("environment ") else {}
    return {"result": json.loads(lines[-1]), "environment": env}


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    summary, env = {}, {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            r = run_once(workload, seed, args.seconds, args.trace)
            env = r["environment"]
            runs.append(r["result"])
            print(workload, seed, json.dumps(r["result"]), flush=True)
        names = runs[0]["metrics"]
        summary[workload] = {
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": {name: {"unit": runs[0]["metrics"][name]["unit"],
                               **summarise([r["metrics"][name]["value"] for r in runs])}
                        for name in names},
        }
        for name, m in summary[workload]["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{100 * m['spread']:.2f}%"
            print(f"  {workload:18s} {name:40s} median {m['median']:.6g} {m['unit']:6s} spread {spread}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"environment": env, "seeds": args.seeds, "seconds": args.seconds,
                                        "trace": args.trace, "workloads": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

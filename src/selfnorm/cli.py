"""Command-line entry point.

Subcommands mirror the experiment kinds::

    selfnorm simulate  --config cfg.yaml [--seed N] [--workers W] [--out DIR]
    selfnorm limit     --config cfg.yaml ...
    selfnorm transform --config cfg.yaml [--quad-tol T] ...
    selfnorm verify    --config cfg.yaml ...
    selfnorm diagnose  --config cfg.yaml ...

The exit code is 0 iff every report row passed. The SELFNORM_WORKERS
environment variable overrides the worker count unless --workers is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import SelfnormError
from .experiments import ExperimentConfig, load_config, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfnorm",
        description="Simulation and verification toolkit for self-normalized heavy-tailed sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in ExperimentConfig.KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="YAML experiment configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=None, help="worker processes")
        p.add_argument("--out", default=None, help="output directory (artifacts under <out>/<name>/)")
        p.add_argument("--quad-tol", type=float, default=None, help="quadrature absolute tolerance")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if config.kind != args.command:
            config = dataclasses.replace(config, kind=args.command)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        if args.quad_tol is not None:
            config = dataclasses.replace(config, quad_tol=args.quad_tol)
        report = run_experiment(config, out_dir=args.out, workers=args.workers)
    except SelfnormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for row in report.rows:
        status = "PASS" if row.passed else "FAIL"
        parts = [f"{status} {row.name}"]
        if row.analytic is not None:
            parts.append(f"analytic={row.analytic:.6g}")
        if row.mc is not None:
            parts.append(f"value={row.mc:.6g}")
        if row.stderr is not None:
            parts.append(f"se={row.stderr:.3g}")
        if row.z is not None:
            parts.append(f"z={row.z:+.2f}")
        if row.detail:
            parts.append(row.detail)
        print("  ".join(parts))
    print(("all checks passed" if report.all_passed else "some checks FAILED"))
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads, their seeded inputs and their output checks.

Every workload is a list of experiment configurations run through
``selfnorm.run_experiment``, the call behind the ``selfnorm`` CLI, plus the
reference checks the benchmark adds on top of the report rows. All inputs are
a pure function of the workload seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

AR1 = {"kind": "ar1", "phi": 0.5,
       "noise": {"kind": "pareto", "alpha": 0.5, "q_plus": 1.0, "q_minus": 0.0}}
SRE = {"kind": "sre",
       "sre_law": {"kind": "lognormal", "alpha": 0.8, "sigma": 1.0, "b_mean": 1.0, "b_sd": 0.0}}

# absolute tolerance of the empirical-versus-closed-form comparison; the same
# value the extremal-index check of ``verify`` uses for empirical clusters
CLOSED_FORM_TOL = 0.03
TRANSFORM_GRID = {"u_points": [0.5, 1.0], "x_points": [1.0, 2.0], "lambda_points": [0.5, 1.0]}


@dataclass
class Workload:
    name: str
    configs: list  # experiment config dicts, run in order
    model: dict  # the process model the workload simulates
    cluster: dict | None  # cluster dict, or None to derive it from the model
    specs: list = field(default_factory=list)  # path statistics the workload reduces
    n: int = 10_000
    n_terms: int = 2000
    cluster_mc: int = 1000


def _seed(seed: int, k: int) -> int:
    return seed * 100 + k


def build(name: str, seed: int) -> Workload:
    """The workload's experiment configs for one benchmark seed."""
    if name == "ar1-paths":
        checks = ("greenwood", "ratio_max", "ratio_student", "kurtosis",
                  "extremal_index", "lepage_laplace", "self_decomposition")
        configs = [
            dict(kind="verify", name="ar1-verify", model=AR1, n=10_000, reps=2000, p=2.0,
                 checks=list(checks), n_terms=2000, seed=_seed(seed, 1)),
            dict(kind="diagnose", name="ar1-diagnose", model=AR1, n=10_000, reps=2000,
                 seed=_seed(seed, 2)),
        ]
        specs = [{"name": "greenwood", "p": 2.0}, {"name": "ratio_max"},
                 {"name": "studentized", "p": 2.0}, {"name": "kurtosis"}]
        return Workload(name, configs, AR1, None, specs)
    if name == "empirical-limits":
        cluster = {"kind": "empirical", "alpha": 0.5, "source": AR1, "library_seed": seed}
        checks = ("extremal_index", "lepage_laplace", "self_decomposition")
        configs = [
            dict(kind="verify", name="emp-verify", model=AR1, cluster=cluster, n=1000, reps=4000,
                 p=2.0, checks=list(checks), n_terms=200, cluster_mc=1000, seed=_seed(seed, 1)),
            dict(kind="limit", name="emp-limit", cluster=cluster, reps=200, n_terms=2000, p=2.0,
                 seed=_seed(seed, 2)),
        ]
        for k, kind in enumerate(("hybrid_cf", "joint_cf_laplace", "ratio_cf")):
            configs.append(dict(kind="transform", name=f"emp-{kind}", cluster=cluster, transform=kind,
                                p=2.0, cluster_mc=1000, seed=_seed(seed, 3 + k), **TRANSFORM_GRID))
        return Workload(name, configs, AR1, cluster, n=1000, n_terms=200)
    if name == "sre":
        checks = ("greenwood", "ratio_max", "extremal_index")
        configs = [
            dict(kind="verify", name="sre-verify", model=SRE, n=10_000, reps=500, p=2.0,
                 checks=list(checks), seed=_seed(seed, 1)),
            dict(kind="diagnose", name="sre-diagnose", model=SRE, n=10_000, reps=20,
                 seed=_seed(seed, 2)),
        ]
        specs = [{"name": "greenwood", "p": 2.0}, {"name": "ratio_max"}]
        return Workload(name, configs, SRE, None, specs)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ar1-paths", "empirical-limits", "sre")


# ---------------------------------------------------------------------------
# running and checking


@dataclass
class Outcome:
    """Operations attempted and failed in one pass over a workload."""

    attempted: int = 0
    failed: int = 0
    incorrect: list = field(default_factory=list)  # reference checks that failed, and errors
    failed_rows: list = field(default_factory=list)
    digest: str = ""

    def add(self, ok: bool, what: str, reference: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            (self.incorrect if reference else self.failed_rows).append(what)


def _report_blob(report) -> bytes:
    data = report.to_json()
    data["metadata"] = {k: v for k, v in data["metadata"].items()
                        if k not in ("wall_time_s", "versions", "workers")}
    return json.dumps(data, sort_keys=True).encode()


def _hash_artifacts(h, root: Path) -> None:
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "report.json":
            h.update(path.name.encode())
            h.update(path.read_bytes())


def clear_caches() -> None:
    """Empty the package's in-process memo caches (``functools.lru_cache``),
    so every pass pays what a fresh ``selfnorm`` process pays."""
    for name, module in list(sys.modules.items()):
        if name == "selfnorm" or name.startswith("selfnorm."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def run(workload: Workload, workers: int) -> Outcome:
    """One pass: every config through ``run_experiment`` with artifacts in a
    temporary directory, then the report rows and reference checks counted."""
    import numpy as np
    from selfnorm import ExperimentConfig, SelfnormError, run_experiment

    clear_caches()
    out = Outcome()
    h = hashlib.sha256()
    reports, columns = {}, {}
    with tempfile.TemporaryDirectory(prefix="selfnorm-bench-") as tmp:
        for cfg in workload.configs:
            try:
                report = run_experiment(ExperimentConfig.from_dict(cfg), out_dir=tmp, workers=workers)
            except (SelfnormError, ArithmeticError, ValueError) as exc:
                out.add(False, f"{cfg['name']}: {type(exc).__name__}: {exc}", reference=True)
                continue
            reports[cfg["name"]] = report
            root = Path(tmp) / cfg["name"]
            h.update(_report_blob(report))
            _hash_artifacts(h, root)
            for row in report.rows:
                out.add(row.passed, f"{cfg['name']}:{row.name}")
                values = [v for v in (row.analytic, row.mc, row.stderr, row.z) if v is not None]
                if not all(math.isfinite(v) for v in values):
                    out.add(False, f"{cfg['name']}:{row.name} is not finite", reference=True)
            if cfg["kind"] == "limit":
                columns[cfg["name"]] = np.loadtxt(root / "limit_samples.csv", delimiter=",",
                                                  skiprows=1, usecols=3, ndmin=1)
            elif cfg["kind"] == "transform":
                re_im = np.loadtxt(root / "transform.csv", delimiter=",", skiprows=1,
                                   usecols=(3, 4), ndmin=2)
                columns[cfg["name"]] = re_im[:, 0] + 1j * re_im[:, 1]
    if workload.cluster is not None:
        _check_closed_forms(workload, reports, columns, out)
    out.digest = h.hexdigest()[:16]
    return out


def _check_closed_forms(workload: Workload, reports: dict, columns: dict, out: Outcome) -> None:
    """Every empirical-cluster value against the ``ar1_cluster`` closed form of
    the same AR(1) model, at an absolute tolerance:

    - the empirical Laplace oracle behind each ``lepage_laplace`` row;
    - every transform-grid value;
    - the sample Laplace transform of the limit run's zeta_p^p at lam = 1,
      with three Monte-Carlo standard errors added to the tolerance.
    """
    import numpy as np
    from selfnorm import ar1_cluster, laplace_zeta
    from selfnorm.limits import TransformGrid, evaluate_transform_grid

    noise = AR1["noise"]
    ref = ar1_cluster(AR1["phi"], noise["alpha"], (noise["q_plus"], noise["q_minus"]))
    grid = TransformGrid.from_points(u=TRANSFORM_GRID["u_points"], x=TRANSFORM_GRID["x_points"],
                                     lam=TRANSFORM_GRID["lambda_points"])
    for cfg in workload.configs:
        name = cfg["name"]
        if cfg["kind"] == "verify" and name in reports:
            for row in reports[name].rows:
                if row.name.startswith("lepage_laplace_lam"):
                    lam = float(row.name[len("lepage_laplace_lam"):])
                    closed = laplace_zeta(lam, ref, p=cfg["p"]).value.real
                    out.add(abs(row.analytic - closed) <= CLOSED_FORM_TOL,
                            f"{name}:{row.name} oracle {row.analytic:.5f} vs closed form {closed:.5f}",
                            reference=True)
        elif cfg["kind"] == "transform" and name in columns:
            closed = evaluate_transform_grid(cfg["transform"], grid, ref, p=cfg["p"]).values
            for i, (got, want) in enumerate(zip(columns[name], closed)):
                out.add(abs(got - want) <= CLOSED_FORM_TOL,
                        f"{name}[{i}] {got:.5f} vs closed form {want:.5f}", reference=True)
        elif cfg["kind"] == "limit" and name in columns:
            terms = np.exp(-(columns[name] ** cfg["p"]))
            mean, se = float(terms.mean()), float(terms.std(ddof=1) / math.sqrt(len(terms)))
            closed = laplace_zeta(1.0, ref, p=cfg["p"]).value.real
            out.add(abs(mean - closed) <= CLOSED_FORM_TOL + 3.0 * se,
                    f"{name} series Laplace {mean:.4f} (se {se:.3f}) vs closed form {closed:.4f}",
                    reference=True)


def setup(workload: Workload) -> None:
    """Config validation and model construction (the Kesten check runs in the
    SRE model's constructor); the empirical library stays lazy."""
    from selfnorm import ExperimentConfig

    for cfg in workload.configs:
        config = ExperimentConfig.from_dict(cfg)
        config.validate()
        if config.model is not None:
            config.process_model()
        if config.kind in ("limit", "transform") or config.cluster is not None:
            config.cluster_model()

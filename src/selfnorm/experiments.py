"""Declarative Monte-Carlo experiments: configuration, parallel execution,
verification reports and artifact output.

An experiment is one YAML document (nested key/value). Replicas are indexed,
each replica draws from its own counter-based stream, and reductions run in
fixed index order, so results are bit-identical whether one worker or many
execute the replicas. Reports are a pure function of the configuration except
for the recorded wall time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import os
import time
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Optional, Sequence

import numpy as np
import yaml

from . import clusters, diagnostics, limits, oracles, processes, stats
from ._pool import partition, run_tasks
from .clusters import ClusterModel, Estimate
from .errors import ConfigurationError
from .processes import (ProcessModel, check_keys, model_from_dict, model_to_dict, stationary_mean,
                        write_csv)
from .rng import derive_seed

WORKERS_ENV = "SELFNORM_WORKERS"

_SEED_PATHS = {"paths": 1, "series": 2, "diagnose": 5, "cluster": 6}


def _seed_for(seed: int, purpose: str) -> int:
    return derive_seed(seed, _SEED_PATHS[purpose])


# ---------------------------------------------------------------------------
# configuration


_DEFAULT_STATISTICS = ({"name": "ratio_max"}, {"name": "studentized", "p": 2.0})
_CENTERINGS = ("none", "analytic", "empirical")


@dataclass
class ExperimentConfig:
    kind: str
    name: str = "experiment"
    model: Optional[dict] = None
    cluster: Optional[dict] = None
    n: int = 10_000
    reps: int = 1_000
    n_terms: int = limits.DEFAULT_N_TERMS
    p: float = 2.0
    statistics: tuple = _DEFAULT_STATISTICS
    centering: str = "none"
    checks: tuple = ()
    transform: str = "stable_cf"
    u_points: tuple = ()
    x_points: tuple = ()
    lambda_points: tuple = ()
    seed: int = 0
    workers: int = 1
    z_bound: float = 3.0
    quad_tol: float = limits.QUAD_TOL
    cluster_mc: int = 10_000  # accepted and hashed, but no cluster expectation reads it
    out: Optional[str] = None

    KINDS = ("simulate", "limit", "transform", "verify", "diagnose")

    def validate(self) -> None:
        problems = []
        if self.kind not in self.KINDS:
            problems.append(f"kind: must be one of {self.KINDS}, got {self.kind!r}")
        if self.reps < 1:
            problems.append("reps: must be >= 1")
        if self.n < 1:
            problems.append("n: must be >= 1")
        if self.n_terms < 10:
            problems.append("n_terms: must be >= 10")
        if self.workers < 1:
            problems.append("workers: must be >= 1")
        if self.z_bound <= 0:
            problems.append("z_bound: must be positive")
        if self.quad_tol <= 0:
            problems.append("quad_tol: must be positive")
        if self.centering not in _CENTERINGS:
            problems.append("centering: must be none, analytic or empirical")
        if not _positive(self.p):
            problems.append(f"p: must be a positive number, got {self.p!r}")
        try:
            _ReductionPlan.build(self.statistics)
        except ConfigurationError as exc:
            problems.append(f"statistics: {exc}")
        if self.kind in ("simulate", "verify", "diagnose") and self.model is None:
            problems.append("model: required for this experiment kind")
        if self.kind in ("limit", "transform") and self.cluster is None and self.model is None:
            problems.append("cluster: required (or a model to derive it from)")
        if self.kind == "verify" and not self.checks:
            problems.append("checks: at least one named check is required")
        if self.model is not None:
            try:
                model_from_dict(self.model)
            except Exception as exc:  # surfaced per-field below
                problems.append(f"model: {exc}")
        if self.cluster is not None:
            try:
                self.cluster_model()
            except Exception as exc:
                problems.append(f"cluster: {exc}")
        if problems:
            raise ConfigurationError("invalid experiment config: " + "; ".join(problems))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(d)
        for key in ("statistics", "checks", "u_points", "x_points", "lambda_points"):
            if key in kwargs and kwargs[key] is not None:
                if not isinstance(kwargs[key], (list, tuple)):
                    raise ConfigurationError(f"{key}: must be a list, got {kwargs[key]!r}")
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for key in ("statistics", "checks", "u_points", "x_points", "lambda_points"):
            d[key] = list(d[key])
        return d

    def config_hash(self) -> str:
        """Hash of the config with its model and cluster resolved, so that
        spelling out a default value leaves it unchanged."""
        d = self.to_dict()
        if self.model is not None:
            d["model"] = model_to_dict(self.process_model())
        if self.cluster is not None:
            d["cluster"] = cluster_to_dict(self.cluster_model())
        blob = json.dumps(d, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def process_model(self) -> ProcessModel:
        if self.model is None:
            raise ConfigurationError("experiment has no process model")
        return model_from_dict(self.model)

    def cluster_model(self) -> ClusterModel:
        if self.cluster is not None:
            return cluster_from_dict(self.cluster)
        return derive_cluster(self.process_model())

    def resolved_workers(self, override: Optional[int] = None) -> int:
        if override is not None:
            return max(1, override)
        env = os.environ.get(WORKERS_ENV)
        if env:
            try:
                return max(1, int(env))
            except ValueError:
                raise ConfigurationError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
        return max(1, self.workers)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if not isinstance(data, dict):
        raise ConfigurationError("config file must hold a mapping")
    return ExperimentConfig.from_dict(data)


_CLUSTER_KEYS = {
    "iid": ("kind", "alpha", "q_plus", "q_minus"),
    "ar1_analytic": ("kind", "alpha", "phi", "q_plus", "q_minus"),
    "empirical": ("kind", "alpha", "source", "threshold_quantile", "block_half_width", "sample_length",
                  "library_seed", "floor_rel", "run_gap"),
}


def cluster_from_dict(d: dict) -> ClusterModel:
    kind = d.get("kind")
    if kind not in _CLUSTER_KEYS:
        raise ConfigurationError(f"unknown cluster kind {kind!r}")
    check_keys(d, _CLUSTER_KEYS[kind], f"{kind} cluster")
    tb = (float(d.get("q_plus", 0.5)), float(d.get("q_minus", 0.5)))
    if kind == "iid":
        return clusters.iid_cluster(float(d["alpha"]), tb)
    if kind == "ar1_analytic":
        return clusters.ar1_cluster(float(d["phi"]), float(d["alpha"]), tb)
    return clusters.empirical_cluster(
        model_from_dict(d["source"]),
        alpha=float(d["alpha"]) if "alpha" in d else None,
        threshold_quantile=float(d.get("threshold_quantile", 0.999)),
        block_half_width=int(d.get("block_half_width", 200)),
        sample_length=int(d.get("sample_length", 2_000_000)),
        library_seed=int(d.get("library_seed", 0)),
        floor_rel=float(d.get("floor_rel", 0.005)),
        run_gap=int(d.get("run_gap", 2)),
    )


def cluster_to_dict(model: ClusterModel) -> dict:
    if model.kind == "empirical":
        return {k: model_to_dict(model.source) if k == "source" else getattr(model, k)
                for k in _CLUSTER_KEYS["empirical"]}
    d = {"kind": model.kind, "alpha": model.alpha,
         "q_plus": model.tail_balance[0], "q_minus": model.tail_balance[1]}
    if model.kind == "ar1_analytic":
        d["phi"] = model.phi
    return d


def derive_cluster(model: ProcessModel, **kwargs) -> ClusterModel:
    """The cluster model implied by a process model: analytic for iid and
    AR(1), empirical block extraction for SRE."""
    if model.kind == "iid":
        return clusters.iid_cluster(model.alpha, model.noise.tail_balance)
    if model.kind == "ar1":
        return clusters.ar1_cluster(model.phi, model.alpha, model.noise.tail_balance)
    return clusters.empirical_cluster(model, **kwargs)


# ---------------------------------------------------------------------------
# reports


@dataclass
class ReportRow:
    name: str
    analytic: Optional[float]
    mc: Optional[float]
    stderr: Optional[float]
    z: Optional[float]
    passed: bool
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)
        for f in ("analytic", "mc", "stderr", "z"):
            v = getattr(self, f)
            if v is not None:
                setattr(self, f, float(v))

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class Report:
    rows: list
    metadata: dict

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_json(self) -> dict:
        return {
            "rows": [r.to_json() for r in self.rows],
            "metadata": self.metadata,
            "all_passed": self.all_passed,
        }

    def rows_to_csv(self, target) -> None:
        write_csv(target, ["name", "analytic", "mc", "stderr", "z", "passed"],
                  ((r.name, r.analytic, r.mc, r.stderr, r.z, r.passed) for r in self.rows))


def _mc_row(name: str, analytic: Estimate, mc_value: float, mc_se: float, z_bound: float) -> ReportRow:
    rep = oracles.MomentReport.compare(name, analytic, mc_value, mc_se)
    return ReportRow(name, rep.analytic_value, rep.mc_value, rep.stderr, rep.z_score,
                     abs(rep.z_score) <= z_bound)


def _tol_row(name: str, reference: float, value: float, tol: float) -> ReportRow:
    diff = abs(value - reference)
    return ReportRow(name, reference, value, None, None, diff <= tol, detail=f"|diff|={diff:.3g} tol={tol:.3g}")


# ---------------------------------------------------------------------------
# batched path statistics


# statistic name -> the parameters its spec may set, with their defaults
_STATISTICS = {
    "ratio_max": {}, "sum": {}, "max_abs": {}, "gamma": {"p": 2.0}, "studentized": {"p": 2.0},
    "greenwood": {"p": 2.0}, "kurtosis": {}, "norm_ratio": {"q": 2.0, "r": 1.0},
}
# statistics of the path about 0, whatever the run's centering
_RAW = ("greenwood", "kurtosis", "norm_ratio")


def _positive(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < value < math.inf


def _parse_spec(spec) -> tuple[str, str, dict]:
    """(label, name, parameters) of one statistic spec, or ConfigurationError."""
    if not isinstance(spec, dict):
        raise ConfigurationError(f"a statistic spec must be a mapping, got {spec!r}")
    name = spec.get("name")
    if not isinstance(name, str) or name not in _STATISTICS:
        raise ConfigurationError(f"unknown statistic {name!r}; known: {sorted(_STATISTICS)}")
    check_keys(spec, ("name", *_STATISTICS[name]), f"statistic {name}")
    params = {}
    for key, default in _STATISTICS[name].items():
        value = spec.get(key, default)
        if not _positive(value):
            raise ConfigurationError(f"statistic {name}: {key} must be a positive number, got {value!r}")
        params[key] = float(value)
    if name == "norm_ratio":
        label = f"norm_ratio_{params['q']:g}_{params['r']:g}"
    elif params:
        label = f"{name}_p{params['p']:g}"
    else:
        label = name
    return label, name, params


@dataclass(frozen=True)
class _ReductionPlan:
    """How a block of paths becomes per-replica statistics.

    Every statistic is a function of a few per-row primitives of the block
    (:func:`stats._block_sums`): the sum, the maximum modulus and max-rescaled
    power sums, taken about the run's center (``centered_ps``; ratio_max,
    sum, max_abs, gamma, studentized) or about 0 (``raw_ps``; greenwood,
    kurtosis, norm_ratio). Each primitive is computed once per block and
    center, and at center 0 the two sets are one.
    """

    specs: tuple  # (label, name, parameters) per spec
    centered_ps: Optional[tuple]  # None: no statistic reads the centered set
    raw_ps: Optional[tuple]
    greenwood: bool

    @classmethod
    def build(cls, specs: Sequence[dict], alpha: Optional[float] = None) -> "_ReductionPlan":
        """Check every spec (and, given the tail index, greenwood's
        ``alpha < min(p, 1)``) before any path is simulated."""
        if not isinstance(specs, (list, tuple)):
            raise ConfigurationError(f"statistic specs must be a list, got {specs!r}")
        parsed = tuple(_parse_spec(spec) for spec in specs)
        centered, raw = None, None
        for _, name, params in parsed:
            ps = (4.0, 2.0) if name == "kurtosis" else tuple(params.values())
            if name in _RAW:
                raw = (raw or ()) + ps
            else:
                centered = (centered or ()) + ps
            if name == "greenwood" and alpha is not None and not (alpha < 1.0 and alpha < params["p"]):
                raise ConfigurationError("the ratio statistic needs alpha < min(p, 1)")
        return cls(parsed, centered, raw, any(name == "greenwood" for _, name, _ in parsed))

    def reduce(self, values: np.ndarray, center: float) -> dict:
        """Per-replica statistics of a (m, n) block of paths."""
        if self.greenwood and np.any(values <= 0):
            raise ConfigurationError("the ratio statistic needs strictly positive paths")
        sums = stats._block_sums
        if center == 0.0:
            centered = raw = sums(values, (self.centered_ps or ()) + (self.raw_ps or ()),
                                  total=self.centered_ps is not None, first=self.greenwood)
        else:
            centered = None if self.centered_ps is None else sums(values, self.centered_ps, center)
            raw = None if self.raw_ps is None else sums(values, self.raw_ps, total=False, first=self.greenwood)
        out = {}
        for label, name, params in self.specs:
            b = raw if name in _RAW else centered
            if name == "ratio_max":
                out[label] = b.total / b.max_abs
            elif name == "sum":
                out[label] = b.total
            elif name == "max_abs":
                out[label] = b.max_abs
            elif name == "gamma":
                out[label] = b.gamma(params["p"])
            elif name == "studentized":
                out[label] = b.total / b.gamma(params["p"])
            elif name == "greenwood":
                out[label] = b.powers[params["p"]] / b.first ** params["p"]
            elif name == "kurtosis":
                out[label] = (b.gamma(4.0) / b.gamma(2.0)) ** 4
            else:
                out[label] = b.gamma(params["q"]) / b.gamma(params["r"])
        return out


def _stats_block_worker(args) -> dict:
    model_dict, n, start, stop, seed, plan, centering = args
    model = model_from_dict(model_dict)
    center = 0.0
    if centering == "analytic":
        center = stationary_mean(model)
    indices = np.arange(start, stop)
    # the budget covers the worker's peak: the simulated block and the two
    # (rows, n) buffers of stats._block_sums (the rescaled moduli and a power)
    chunk = max(1, 8_000_000 // (n + model.burn_in + 2 * n))
    pieces = []
    for lo in range(0, len(indices), chunk):
        idx = indices[lo: lo + chunk]
        values = processes._simulate_rows(model, n, seed, idx)
        if centering == "empirical":
            c = values.mean(axis=1, keepdims=True)
            values = values - c
        pieces.append(plan.reduce(values, center))
    return {k: np.concatenate([p[k] for p in pieces]) for k in pieces[0]}


def simulate_statistics(
    model: ProcessModel,
    n: int,
    reps: int,
    specs: Sequence[dict],
    centering: str = "none",
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """Arrays of per-replica statistics, replica i on substream (seed, i);
    identical output for any worker count.

    The specs become one reduction plan in the calling process, so a bad
    spec or centering fails before any path is simulated. Each block of paths is then
    simulated once and every statistic is reduced from it.
    """
    if centering not in _CENTERINGS:
        raise ConfigurationError(f"centering must be one of {_CENTERINGS}, got {centering!r}")
    plan = _ReductionPlan.build(specs, model.alpha)
    model_dict = model_to_dict(model)
    blocks = partition(reps, workers)
    tasks = [(model_dict, n, start, stop, seed, plan, centering) for start, stop in blocks]
    results = run_tasks(_stats_block_worker, tasks, workers)
    return {k: np.concatenate([r[k] for r in results]) for k in results[0]}


def _lepage_block_worker(args) -> dict:
    cluster, alpha, p, n_terms, seed, start, stop = args
    return limits.sample_limit_lepage_batch(
        cluster, alpha, p, reps=stop - start, n_terms=n_terms, seed=seed, first_index=start,
    )


def sample_limit_batch_parallel(
    cluster: ClusterModel, alpha: float, p: float, reps: int,
    n_terms: int, seed: int, workers: int = 1,
) -> dict:
    limits._lepage_validate(cluster, alpha, p, n_terms)
    blocks = partition(reps, workers)
    # workers get the driver's per-anchor table, not the library's blocks
    cluster = cluster.table_only((p,))
    tasks = [(cluster, alpha, p, n_terms, seed, start, stop) for start, stop in blocks]
    results = run_tasks(_lepage_block_worker, tasks, workers)
    return {k: np.concatenate([r[k] for r in results]) for k in results[0]}


# ---------------------------------------------------------------------------
# two-sample comparison


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def ks_bound(m: int, n: int, level: float = 0.01, slack: float = 1.5) -> float:
    """Two-sample KS critical value at the given level, widened by a slack
    factor for pre-limit bias."""
    c = math.sqrt(-math.log(level / 2.0) / 2.0)
    return slack * c * math.sqrt((m + n) / (m * n))


def compare_to_limit(
    samples: np.ndarray,
    limit_samples: np.ndarray,
    ks_bound_value: Optional[float] = None,
    level: float = 0.01,
    slack: float = 1.5,
    transform_pairs: Sequence[tuple] = (),
    sup_bound: float = 0.05,
    metadata: Optional[dict] = None,
) -> Report:
    """Distributional comparison of a statistic sample against limit-law
    samples: the two-sample KS distance, plus sup-differences over any
    supplied (name, value_a, value_b) transform-grid pairs."""
    samples = np.asarray(samples, dtype=float)
    limit_samples = np.asarray(limit_samples, dtype=float)
    if len(samples) < 1000 or len(limit_samples) < 1000:
        raise ConfigurationError("need at least 1000 samples on each side")
    bound = ks_bound_value
    if bound is None:
        bound = ks_bound(len(samples), len(limit_samples), level, slack)
    d = ks_distance(samples, limit_samples)
    rows = [ReportRow("ks_distance", bound, d, None, None, d <= bound,
                      detail=f"m={len(samples)} n={len(limit_samples)}")]
    for name, va, vb in transform_pairs:
        diff = abs(complex(va) - complex(vb))
        rows.append(ReportRow(name, None, diff, None, None, diff <= sup_bound,
                              detail=f"sup_bound={sup_bound}"))
    return Report(rows, metadata or {})


# ---------------------------------------------------------------------------
# experiment dispatch


def run_experiment(config: ExperimentConfig, out_dir=None, workers: Optional[int] = None) -> Report:
    """Validate, dispatch on the experiment kind, write artifacts, and return
    the report. Deterministic in the config (wall time aside)."""
    config.validate()
    w = config.resolved_workers(workers)
    t0 = time.monotonic()
    runner = {
        "simulate": _run_simulate,
        "limit": _run_limit,
        "transform": _run_transform,
        "verify": _run_verify,
        "diagnose": _run_diagnose,
    }[config.kind]
    rows, artifacts = runner(config, w)
    report = Report(
        rows=rows,
        metadata={
            "name": config.name,
            "kind": config.kind,
            "config_hash": config.config_hash(),
            "seed": config.seed,
            "workers": w,
            "wall_time_s": round(time.monotonic() - t0, 3),
            "versions": _versions(),
        },
    )
    target = out_dir if out_dir is not None else config.out
    if target is not None:
        root = FsPath(target) / config.name
        root.mkdir(parents=True, exist_ok=True)
        with open(root / "report.json", "w") as fh:
            json.dump(report.to_json(), fh, indent=2)
        for fname, writer in artifacts:
            with open(root / fname, "w") as fh:
                writer(fh)
    return report


def _versions() -> dict:
    import scipy

    from . import __version__

    return {"selfnorm": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _run_simulate(config: ExperimentConfig, workers: int):
    model = config.process_model()
    arrays = simulate_statistics(
        model, config.n, config.reps, config.statistics, config.centering,
        _seed_for(config.seed, "paths"), workers,
    )
    rows = []
    csv_rows = []
    for spec in config.statistics:
        # the resolved p (a default included); norm_ratio's q and r are in its label
        label, _, params = _parse_spec(spec)
        vals = arrays[label]
        se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        rows.append(ReportRow(label, None, float(vals.mean()), se, None, True, detail="summary"))
        csv_rows.extend((i, config.n, label, params.get("p"), v) for i, v in enumerate(vals))
    artifacts = [("statistics.csv", lambda fh, rows_=csv_rows: stats.stats_rows_to_csv(rows_, fh))]
    return rows, artifacts


def _run_limit(config: ExperimentConfig, workers: int):
    cluster = config.cluster_model()
    alpha = cluster.alpha
    draws = sample_limit_batch_parallel(
        cluster, alpha, config.p, config.reps, config.n_terms,
        _seed_for(config.seed, "series"), workers,
    )
    # the joint limit is heavy-tailed (no mean below index alpha < 1), so the
    # informational summary reports medians
    rows = [
        ReportRow("xi_median", None, float(np.median(draws["xi"])), None, None, True, detail="summary"),
        ReportRow("eta_median", None, float(np.median(draws["eta"])), None, None, True, detail="summary"),
        ReportRow("zeta_p_median", None, float(np.median(draws["zeta_p"])), None, None, True, detail="summary"),
        ReportRow("max_truncation_bound", None, float(draws["truncation_bound"].max()), None, None, True,
                  detail="series tail bound"),
    ]

    columns = ["xi", "eta", "zeta_p", "truncation_bound"]
    return rows, [("limit_samples.csv", lambda fh: write_csv(
        fh, ["replica"] + columns, zip(range(config.reps), *(draws[c] for c in columns))))]


def _run_transform(config: ExperimentConfig, workers: int):
    cluster = config.cluster_model()
    grid = limits.TransformGrid.from_points(
        u=config.u_points or None, x=config.x_points or None, lam=config.lambda_points or None,
    )
    out = limits.evaluate_transform_grid(
        config.transform, grid, cluster, p=config.p, quad_tol=config.quad_tol,
    )
    rows = []
    for i in range(len(out)):
        rows.append(ReportRow(
            f"{config.transform}[{i}]", None, abs(out.values[i]), out.stderr[i], None, True,
            detail=f"u={out.u[i]} x={out.x[i]} lam={out.lam[i]} re={out.values[i].real:.6g} im={out.values[i].imag:.6g}"
                   f" fallbacks={out.fallbacks[i]} quad_warnings={out.quad_warnings[i]}",
        ))
    return rows, [("transform.csv", out.to_csv)]


def _run_diagnose(config: ExperimentConfig, workers: int):
    model = config.process_model()
    seed = _seed_for(config.seed, "diagnose")
    q = min(0.4, 0.8 * min(model.alpha, 1.0))
    # one tail constant per run; a_n as in normalizing_an feeds both suffix-series diagnostics
    c, c_se = processes.tail_constant(model)
    a_n = float((config.n * c) ** (1.0 / model.alpha))
    rows = [ReportRow("scale_constant_a_n", None, a_n, a_n * c_se / (model.alpha * c), None, True,
                      detail=f"c={c:.6g} c_se={c_se:.3g}")]
    # the three diagnostics' replica blocks share one pool
    plans = [diagnostics._anticluster_plan(model, config.n, reps=config.reps, seed=seed, a_n=a_n)]
    if model.kind != "iid":
        plans += [diagnostics._coupling_plan(model, q, t_max=30, reps=config.reps, seed=seed),
                  diagnostics._coupled_anticluster_plan(model, config.n, q=q, reps=config.reps,
                                                        seed=seed, a_n=a_n)]
    ac, *coupled = diagnostics._run_diagnostics(plans, workers)
    artifacts = []
    if coupled:
        dec, cdec = coupled
        passed = True
        analytic = None
        if model.kind == "ar1":
            analytic = q * math.log(abs(model.phi))
            passed = abs(dec.fitted_log_slope - analytic) <= 0.1 * abs(analytic)
        rows.append(ReportRow("coupling_decay_slope", analytic, dec.fitted_log_slope, None, None,
                              passed, detail=f"q={q} r2={dec.r2:.4f}"))
        artifacts.append(("coupling_decay.csv", dec.to_csv))
        rows.append(ReportRow("coupled_anticluster_slope", None, cdec.fitted_log_slope, None, None,
                              bool(np.all(np.diff(cdec.values) <= 1e-12)), detail="non-increasing in k"))
        artifacts.append(("coupled_anticluster.csv", cdec.to_csv))
    rows.append(ReportRow("anticluster_stat_k1", None, float(ac.values[0]), float(ac.stderr[0]), None,
                          bool(np.all(np.diff(ac.values) <= 1e-12)), detail="non-increasing in k"))
    artifacts.append(("anticluster.csv", ac.to_csv))

    def summary(fh):
        json.dump({"anticluster": ac.to_json()}, fh, indent=2)

    artifacts.append(("diagnose_summary.json", summary))
    return rows, artifacts


# -- verify checks ----------------------------------------------------------


def _run_verify(config: ExperimentConfig, workers: int):
    """Run the configured checks in order and write their rows to verify.csv.

    The path checks share one simulation: their statistics are collected
    first and the run simulates its paths once per distinct centering (once
    on every shipped config), reducing every statistic from the same blocks.
    Each check then compares the mean of its array with its oracle.
    """
    unknown = [check for check in config.checks if check not in _CHECKS]
    if unknown:
        raise ConfigurationError(f"unknown verify check {unknown[0]!r}; known: {sorted(_CHECKS)}")
    # one cluster model for every check, so an empirical library is built once
    cluster = config.cluster_model()
    groups: dict = {}  # centering -> {path check: its statistic spec}
    for check in config.checks:
        if check in _PATH_STATISTICS:
            spec, centering = _PATH_STATISTICS[check]
            groups.setdefault(centering or config.centering, {})[check] = spec(config.p)
    model = config.process_model()
    paths = {}  # path check -> its per-replica array
    for centering, specs in groups.items():
        arrays = simulate_statistics(model, config.n, config.reps, list(specs.values()), centering,
                                     _seed_for(config.seed, "paths"), workers)
        paths.update({check: arrays[_parse_spec(spec)[0]] for check, spec in specs.items()})
    rows = []
    for check in config.checks:
        rows.extend(_CHECKS[check](config, workers, cluster, paths))
    return rows, [("verify.csv", lambda fh, rows_=rows: Report(rows_, {}).rows_to_csv(fh))]


# path check -> its statistic as a function of config.p, and the centering it
# reads the paths under (None: the config's)
_PATH_STATISTICS = {
    "greenwood": (lambda p: {"name": "greenwood", "p": p}, "none"),
    "ratio_max": (lambda p: {"name": "ratio_max"}, None),
    "ratio_student": (lambda p: {"name": "studentized", "p": p}, None),
    "kurtosis": (lambda p: {"name": "kurtosis"}, "none"),
}


def _path_row(name: str, analytic: Estimate, vals: np.ndarray, z_bound: float) -> ReportRow:
    mc, se = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))
    return _mc_row(name, analytic, mc, se, z_bound)


def _check_greenwood(config, workers, cluster, paths):
    analytic = oracles.expected_greenwood(cluster, p=config.p)
    return [_path_row(f"greenwood_p{config.p:g}", analytic, paths["greenwood"], config.z_bound)]


def _check_ratio_max(config, workers, cluster, paths):
    analytic = oracles.expected_ratio_max(cluster)
    return [_path_row("ratio_max", analytic, paths["ratio_max"], config.z_bound)]


def _check_ratio_student(config, workers, cluster, paths):
    analytic = oracles.expected_ratio_student(cluster, p=config.p)
    return [_path_row(f"studentized_p{config.p:g}", analytic, paths["ratio_student"], config.z_bound)]


def _check_kurtosis(config, workers, cluster, paths):
    analytic = oracles.expected_kurtosis_limit(cluster)
    return [_path_row("kurtosis", analytic, paths["kurtosis"], config.z_bound)]


def _check_extremal_index(config, workers, cluster, paths):
    seed = _seed_for(config.seed, "cluster")
    acc = clusters.tilted_acceptance(cluster, reps=config.reps, seed=seed)
    mx = clusters.extremal_index(cluster, method="cluster_max")
    closed = None
    if cluster.kind != "empirical":
        closed = clusters.extremal_index(cluster)
    elif cluster.source is not None and cluster.source.kind == "ar1":
        closed = Estimate(1.0 - abs(cluster.source.phi) ** cluster.alpha)
    rows = []
    if closed is None:
        rows.append(_mc_row("extremal_index_consistency", mx, acc.value, acc.stderr, config.z_bound))
    elif cluster.kind == "empirical":
        # empirical block extraction carries pre-limit bias; compare at an
        # absolute tolerance rather than in Monte-Carlo standard errors
        rows.append(_tol_row("extremal_index_acceptance", closed.value, acc.value, 0.03))
        rows.append(_tol_row("extremal_index_cluster_max", closed.value, mx.value, 0.03))
    else:
        rows.append(_mc_row("extremal_index_acceptance", closed, acc.value, acc.stderr, config.z_bound))
        rows.append(_mc_row("extremal_index_cluster_max", closed, mx.value, mx.stderr, config.z_bound))
    if cluster.kind == "empirical" and cluster.source.kind == "sre":
        sp = clusters.extremal_index(cluster, reps=config.reps, seed=derive_seed(seed, 2), method="sre_products")
        rows.append(_tol_row("extremal_index_sre_products", mx.value, sp.value, 0.05))
    return rows


def _check_lepage_laplace(config, workers, cluster, paths):
    alpha = cluster.alpha
    draws = sample_limit_batch_parallel(
        cluster, alpha, config.p, config.reps, config.n_terms, _seed_for(config.seed, "series"), workers,
    )
    zp = draws["zeta_p"] ** config.p
    lams = config.lambda_points or (0.5, 1.0, 2.0)
    # one cluster moment for every lambda, the one each laplace_zeta call would compute
    moment = clusters.cluster_moment(cluster, config.p)
    rows = []
    for lam in lams:
        closed = limits.laplace_zeta(lam, cluster, alpha, config.p, moment=moment)
        terms = np.exp(-lam * zp)
        mc, se = float(terms.mean()), float(terms.std(ddof=1) / math.sqrt(len(terms)))
        analytic = Estimate(closed.value.real, closed.stderr, 0, closed.method)
        rows.append(_mc_row(f"lepage_laplace_lam{lam:g}", analytic, mc, se, config.z_bound))
    return rows


def _check_gamma_identity(config, workers, cluster, paths):
    xs = config.x_points or (0.5, 1.0, 4.0)
    rows = []
    for row in oracles.gamma_identity_check(config.p, xs):
        rows.append(ReportRow(f"gamma_identity_x{row.x:g}", row.lhs, row.rhs, None, None, row.passed,
                              detail=f"rel_err={row.rel_err:.2e} quad_warnings={row.quad_warnings}"))
    return rows


def _check_time_change(config, workers, cluster, paths):
    report = clusters.verify_time_change(
        cluster, t=1, test_functionals=clusters.standard_functionals(),
        reps=config.reps, seed=_seed_for(config.seed, "cluster"),
    )
    rows = []
    for r in report.rows:
        if r.vacuous:
            rows.append(ReportRow(f"time_change_{r.name}", None, None, None, None, True, detail="vacuous"))
        else:
            rows.append(ReportRow(f"time_change_{r.name}", r.lhs, r.rhs, r.stderr, r.z,
                                  abs(r.z) <= config.z_bound))
    return rows


def _check_self_decomposition(config, workers, cluster, paths):
    u = (config.u_points or (1.0,))[0]
    lam = (config.lambda_points or (1.0,))[0]
    c = 0.5
    alpha, p = cluster.alpha, config.p
    kw = dict(p=p, quad_tol=config.quad_tol)
    full = limits.joint_cf_laplace(u, math.inf, lam, cluster, **kw)
    part = limits.joint_cf_laplace(c * u, math.inf, c**p * lam, cluster, **kw)
    rhs = part.value * full.value ** (1.0 - c**alpha)
    diff = abs(full.value - rhs)
    return [ReportRow("self_decomposition", 0.0, diff, None, None, diff <= 1e-6,
                      detail=f"u={u} lam={lam} c={c} fallbacks={full.fallbacks + part.fallbacks}"
                             f" quad_warnings={full.quad_warnings + part.quad_warnings}")]


_CHECKS = {
    "greenwood": _check_greenwood,
    "ratio_max": _check_ratio_max,
    "ratio_student": _check_ratio_student,
    "kurtosis": _check_kurtosis,
    "extremal_index": _check_extremal_index,
    "lepage_laplace": _check_lepage_laplace,
    "gamma_identity": _check_gamma_identity,
    "time_change": _check_time_change,
    "self_decomposition": _check_self_decomposition,
}

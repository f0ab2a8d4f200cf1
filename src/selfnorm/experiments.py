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
import functools
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Optional, Sequence

import numpy as np

from . import clusters, diagnostics, limits, oracles, processes, stats
from ._pool import Handle, Pool
from .clusters import ClusterModel, Estimate
from .errors import ConfigurationError
from .processes import (ProcessModel, check_keys, model_from_dict, model_to_dict, stationary_mean,
                        write_csv)
from .rng import derive_seed
from .stats import _integer, _parse_spec, _positive, _real, _ReductionPlan, _z_score

WORKERS_ENV = "SELFNORM_WORKERS"

_SEED_PATHS = {"paths": 1, "series": 2, "diagnose": 5, "cluster": 6}


def _seed_for(seed: int, purpose: str) -> int:
    return derive_seed(seed, _SEED_PATHS[purpose])


# ---------------------------------------------------------------------------
# configuration


_DEFAULT_STATISTICS = ({"name": "ratio_max"}, {"name": "studentized", "p": 2.0})
_CENTERINGS = ("none", "analytic", "empirical")
# the tests each transform point must pass, in order: a transform grid reads
# NaN (v != v) as an unused coordinate, x = +inf drops the max, and every
# reader needs x > 0 and lambda >= 0. Comparisons, unlike math.isnan, take any int.
_REAL, _FINITE = (lambda v: not _real(v), "a real number"), (lambda v: v != v or abs(v) == math.inf, "finite")
_POINT_RULES = {
    "u_points": (_REAL, _FINITE),
    "x_points": (_REAL, (lambda v: v != v, "other than NaN"), (lambda v: v <= 0, "positive")),
    "lambda_points": (_REAL, _FINITE, (lambda v: v < 0, ">= 0")),
}


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
        # the least value of each integer field (cluster_mc has none); every
        # verify row reports a sample stderr, which needs two replicas
        least = {"reps": 2 if self.kind == "verify" else 1, "n": 1, "n_terms": 10, "seed": 0, "workers": 1,
                 "cluster_mc": None}
        for key, low in least.items():
            value = getattr(self, key)
            if not _integer(value):
                problems.append(f"{key}: must be an integer, got {value!r}")
            elif low is not None and value < low:
                problems.append(f"{key}: must be >= {low}")
        for key in ("p", "z_bound", "quad_tol"):
            value = getattr(self, key)
            if not _positive(value):
                problems.append(f"{key}: must be a positive number, got {value!r}")
        if not isinstance(self.name, str):
            problems.append(f"name: must be a string, got {self.name!r}")
        if self.out is not None and not isinstance(self.out, (str, os.PathLike)):
            problems.append(f"out: must be a path, got {self.out!r}")
        for key in ("checks", "u_points", "x_points", "lambda_points"):
            if getattr(self, key) is None:
                problems.append(f"{key}: must be a list, got None")
        bad = [c for c in self.checks or () if not isinstance(c, str)]
        if bad:
            problems.append(f"checks: every check must be a name, got {bad[0]!r}")
        for key, rules in _POINT_RULES.items():
            for test, kind in rules:
                bad = [v for v in getattr(self, key) or () if test(v)]
                if bad:
                    problems.append(f"{key}: every point must be {kind}, got {bad[0]!r}")
                    break
        if self.centering not in _CENTERINGS:
            problems.append("centering: must be none, analytic or empirical")
        try:
            # only a simulate run reads the list, so only there must it name a statistic
            _ReductionPlan.build(self.statistics, required=self.kind == "simulate")
        except ConfigurationError as exc:
            problems.append(f"statistics: {exc}")
        if self.kind in ("simulate", "verify", "diagnose") and self.model is None:
            problems.append("model: required for this experiment kind")
        if self.kind in ("limit", "transform") and self.cluster is None and self.model is None:
            problems.append("cluster: required (or a model to derive it from)")
        if self.kind == "verify" and self.checks is not None and not self.checks:
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
        """Hash of the config with its statistic specs, model and cluster
        resolved, so that spelling out a default value leaves it unchanged."""
        d = self.to_dict()
        d["statistics"] = [{"name": name, **params} for _, name, params in map(_parse_spec, self.statistics)]
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
    import yaml  # only a config file needs PyYAML: kept out of the package import

    try:
        with open(path, "rb") as fh:  # bytes: PyYAML reports a bad encoding as a YAMLError
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config file {path} is not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError("config file must hold a mapping")
    return ExperimentConfig.from_dict(data)


_CLUSTER_KEYS = {
    "iid": ("kind", "alpha", "q_plus", "q_minus"),
    "ar1_analytic": ("kind", "alpha", "phi", "q_plus", "q_minus"),
    "empirical": ("kind", "alpha", "source", "threshold_quantile", "block_half_width", "sample_length",
                  "library_seed", "floor_rel", "run_gap"),
}
_CLUSTER_REQUIRED = {"iid": ("alpha",), "ar1_analytic": ("alpha", "phi"), "empirical": ("source",)}


def cluster_from_dict(d: dict) -> ClusterModel:
    kind = d.get("kind")
    if kind not in _CLUSTER_KEYS:
        raise ConfigurationError(f"unknown cluster kind {kind!r}")
    check_keys(d, _CLUSTER_KEYS[kind], f"{kind} cluster", _CLUSTER_REQUIRED[kind])
    tb = (float(d.get("q_plus", 0.5)), float(d.get("q_minus", 0.5)))
    if kind == "iid":
        return clusters.iid_cluster(float(d["alpha"]), tb)
    if kind == "ar1_analytic":
        return clusters.ar1_cluster(float(d["phi"]), float(d["alpha"]), tb)
    # only the keys given, each cast to the type of its field's default: every default lives in clusters.py
    cast = {**{f.name: type(f.default) for f in dataclasses.fields(ClusterModel)}, "alpha": float}
    return clusters.empirical_cluster(model_from_dict(d["source"]),
                                      **{k: cast[k](v) for k, v in d.items() if k not in ("kind", "source")})


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
    """One oracle-versus-Monte-Carlo row: z is the difference over the combined stderr."""
    z, se = _z_score(mc_value, mc_se, analytic.value, analytic.stderr)
    return ReportRow(name, analytic.value, mc_value, se, z, abs(z) <= z_bound)


def _tol_row(name: str, reference: float, value: float, tol: float) -> ReportRow:
    diff = abs(value - reference)
    return ReportRow(name, reference, value, None, None, diff <= tol, detail=f"|diff|={diff:.3g} tol={tol:.3g}")


# ---------------------------------------------------------------------------
# batched path statistics


def _stats_block(start: int, stop: int, model: ProcessModel, n: int, seed: int, plan: _ReductionPlan,
                 centering: str) -> dict:
    """Per-replica statistics of the replicas ``[start, stop)``, streamed.

    The replicas advance in groups of at most ``processes._TILE_ROWS``
    through :func:`processes._path_tiles`, ``processes._TILE_STEPS`` steps
    at a time, and each tile is folded into the plan's per-row accumulators
    and dropped, so the block holds a few tiles whatever n is. Empirical
    centering takes two passes over the same counter-based streams: the
    first accumulates the row sums, whose means center the second.
    """
    center = stationary_mean(model) if centering == "analytic" else 0.0
    indices = np.arange(start, stop)

    def tiles(idx):
        return (x for x, _ in processes._path_tiles(model, n + model.burn_in, seed, idx, skip=model.burn_in))

    pieces = []
    for rows in processes._row_groups(len(indices)):
        idx = indices[rows]
        if centering == "empirical":
            total = np.zeros(len(idx))
            for x in tiles(idx):
                total += x.sum(axis=1)
            center = (total / n)[:, None]
        pieces.append(plan.reduce_tiles(tiles(idx), len(idx), center))
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
    spec or centering fails before any path is simulated. Each path is then
    simulated once (twice under empirical centering) and every statistic is
    reduced from its tiles as they are made.
    """
    with Pool(workers) as pool:
        return _submit_statistics(pool, model, n, reps, specs, centering, seed).result()


def _submit_statistics(pool: Pool, model: ProcessModel, n: int, reps: int, specs: Sequence[dict],
                       centering: str, seed: int) -> Handle:
    """Check the arguments of :func:`simulate_statistics`, then queue its
    replica blocks on ``pool``."""
    if centering not in _CENTERINGS:
        raise ConfigurationError(f"centering must be one of {_CENTERINGS}, got {centering!r}")
    if n < 1 or reps < 1:
        raise ConfigurationError(f"n and reps must be >= 1, got n={n}, reps={reps}")
    plan = _ReductionPlan.build(specs, model.alpha, required=True)
    passes = 2 if centering == "empirical" else 1  # empirical centering simulates each path twice
    return pool.submit(_stats_block, reps, passes * (n + model.burn_in), model, n, seed, plan, centering)


def _lepage_block(start: int, stop: int, cluster: ClusterModel, p: float, n_terms: int, seed: int,
                  keys) -> dict:
    return limits._lepage_series(cluster, p, stop - start, n_terms, seed, start, keys)


def sample_limit_batch_parallel(
    cluster: ClusterModel, p: float, reps: int, n_terms: int, seed: int, workers: int = 1,
) -> dict:
    with Pool(workers) as pool:
        return _submit_limit_batch(pool, cluster, p, reps, n_terms, seed).result()


def _submit_limit_batch(pool: Pool, cluster: ClusterModel, p: float, reps: int, n_terms: int, seed: int,
                        keys=limits._LEPAGE_KEYS) -> Handle:
    """Check the arguments of :func:`sample_limit_batch_parallel`, then queue
    its replica blocks on ``pool``; they compute only the arrays in ``keys``."""
    limits._lepage_validate(cluster, cluster.alpha, p, reps, n_terms)
    # workers get the driver's per-anchor table, not the library's blocks
    cluster = cluster.table_only((p,))
    return pool.submit(_lepage_block, reps, n_terms, cluster, p, n_terms, seed, keys)


# ---------------------------------------------------------------------------
# two-sample comparison


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ConfigurationError(f"KS distance needs two non-empty samples, got sizes {a.size} and {b.size}")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def ks_bound(m: int, n: int, level: float = 0.01) -> float:
    """Two-sample KS critical value at the given level."""
    if m < 1 or n < 1:
        raise ConfigurationError(f"sample sizes must be >= 1, got m={m}, n={n}")
    if not 0.0 < level < 1.0:
        raise ConfigurationError(f"level must lie in (0, 1), got {level}")
    c = math.sqrt(-math.log(level / 2.0) / 2.0)
    return c * math.sqrt((m + n) / (m * n))


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
    draws = sample_limit_batch_parallel(
        cluster, config.p, config.reps, config.n_terms, _seed_for(config.seed, "series"), workers,
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
    # the three diagnostics queue their replica blocks on one pool before any is reduced
    with Pool(workers) as pool:
        submitted = [diagnostics._submit_anticluster(pool, model, config.n, r_n=None, k_grid=None, x=1.0,
                                                     reps=config.reps, seed=seed, a_n=a_n)]
        if model.kind != "iid":
            submitted += [diagnostics._submit_coupling(pool, model, q, t_max=30, reps=config.reps, seed=seed),
                          diagnostics._submit_coupled_anticluster(pool, model, config.n, r_n=None, k_grid=None, q=q,
                                                                  reps=config.reps, seed=seed, a_n=a_n)]
        ac, *coupled = [series() for series in submitted]
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

    The run holds one pool and queues all of its pooled work before any
    check runs. First come the path blocks, once per distinct centering (once
    on every shipped config), with every path check's statistic reduced from
    the same blocks; then the series sampler's blocks for ``lepage_laplace``.
    The checks then run in this process. Each computes its oracle before it
    reads its array, so the oracles (an empirical library's build among them)
    are computed while the workers simulate.
    """
    unknown = [check for check in config.checks if check not in _CHECKS]
    if unknown:
        raise ConfigurationError(f"unknown verify check {unknown[0]!r}; known: {sorted(_CHECKS)}")
    # one cluster model for every check, so an empirical library is built once
    cluster = config.cluster_model()
    groups: dict = {}  # centering -> {path check: its statistic spec}
    for check in config.checks:
        if check in _PATH_CHECKS:
            spec, centering, _ = _PATH_CHECKS[check]
            groups.setdefault(centering or config.centering, {})[check] = spec(config.p)
    model = config.process_model()
    with Pool(workers) as pool:
        pooled = {}  # check -> (the handle of its pooled blocks, the key it reads)
        for centering, specs in groups.items():
            handle = _submit_statistics(pool, model, config.n, config.reps, list(specs.values()), centering,
                                        _seed_for(config.seed, "paths"))
            for check, spec in specs.items():
                pooled[check] = (handle, _parse_spec(spec)[0])
        if "lepage_laplace" in config.checks:
            handle = _submit_limit_batch(pool, cluster, config.p, config.reps, config.n_terms,
                                         _seed_for(config.seed, "series"), ("zeta_p",))
            pooled["lepage_laplace"] = (handle, "zeta_p")
        rows = [row for check in config.checks for row in _CHECKS[check](config, cluster, pooled)]
    return rows, [("verify.csv", lambda fh, rows_=rows: Report(rows_, {}).rows_to_csv(fh))]


# path check -> its statistic as a function of config.p, the centering it
# reads the paths under (None: the config's) and its oracle as a function of
# (cluster, p); the statistic's label names the report row
_PATH_CHECKS = {
    "greenwood": (lambda p: {"name": "greenwood", "p": p}, "none",
                  lambda cluster, p: oracles.expected_greenwood(cluster, p=p)),
    "ratio_max": (lambda p: {"name": "ratio_max"}, None, lambda cluster, p: oracles.expected_ratio_max(cluster)),
    "ratio_student": (lambda p: {"name": "studentized", "p": p}, None,
                      lambda cluster, p: oracles.expected_ratio_student(cluster, p=p)),
    "kurtosis": (lambda p: {"name": "kurtosis"}, "none", lambda cluster, p: oracles.expected_kurtosis_limit(cluster)),
}


def _check_path(check, config, cluster, pooled):
    """One path check's row: its oracle first, so the oracle is computed
    while the workers simulate, then the mean of its pooled statistic."""
    spec, _, oracle = _PATH_CHECKS[check]
    analytic = oracle(cluster, config.p)
    handle, key = pooled[check]
    vals = handle.result()[key]
    mc, se = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))
    return [_mc_row(_parse_spec(spec(config.p))[0], analytic, mc, se, config.z_bound)]


def _check_extremal_index(config, cluster, pooled):
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


def _check_lepage_laplace(config, cluster, pooled):
    lams = config.lambda_points or (0.5, 1.0, 2.0)
    closed = limits.laplace_zeta(lams, cluster, p=config.p)
    handle, key = pooled["lepage_laplace"]
    zp = handle.result()[key] ** config.p
    rows = []
    for lam, value, stderr in zip(lams, closed.value.tolist(), closed.stderr.tolist()):
        terms = np.exp(-lam * zp)
        mc, se = float(terms.mean()), float(terms.std(ddof=1) / math.sqrt(len(terms)))
        analytic = Estimate(value.real, stderr, 0, closed.method)
        rows.append(_mc_row(f"lepage_laplace_lam{lam:g}", analytic, mc, se, config.z_bound))
    return rows


def _check_gamma_identity(config, cluster, pooled):
    xs = config.x_points or (0.5, 1.0, 4.0)
    rows = []
    for row in oracles.gamma_identity_check(config.p, xs):
        rows.append(ReportRow(f"gamma_identity_x{row.x:g}", row.lhs, row.rhs, None, None, row.passed,
                              detail=f"rel_err={row.rel_err:.2e} quad_warnings={row.quad_warnings}"))
    return rows


def _check_time_change(config, cluster, pooled):
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


def _check_self_decomposition(config, cluster, pooled):
    u = (config.u_points or (1.0,))[0]
    lam = (config.lambda_points or (1.0,))[0]
    c = 0.5
    alpha, p = cluster.alpha, config.p
    both = limits.joint_cf_laplace([u, c * u], math.inf, [lam, c**p * lam], cluster, p=p, quad_tol=config.quad_tol)
    full, part = both.value.tolist()
    diff = abs(full - part * full ** (1.0 - c**alpha))
    return [ReportRow("self_decomposition", 0.0, diff, None, None, diff <= 1e-6,
                      detail=f"u={u} lam={lam} c={c} fallbacks={both.fallbacks.sum()}"
                             f" quad_warnings={both.quad_warnings.sum()}")]


_CHECKS = {
    **{check: functools.partial(_check_path, check) for check in _PATH_CHECKS},
    "extremal_index": _check_extremal_index,
    "lepage_laplace": _check_lepage_laplace,
    "gamma_identity": _check_gamma_identity,
    "time_change": _check_time_change,
    "self_decomposition": _check_self_decomposition,
}

"""Per-layer metrics of the traced run.

Each metric times one public call on the workload's own inputs. Calls the
traced workload pass already made (oracles, checks, diagnostics, scale
constants, extremal-index estimators) are read from its spans; the rest are
called here directly, while the tracer is still installed. A workload that
has no input of the kind a call needs (the SRE law on ``ar1-paths``, say)
borrows it from the workload named in ``METRICS``.

``METRICS`` lists every metric with its unit, the direction that is better,
and the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import math
import statistics
import time

from tracing import LAYERS, Tracer
from workloads import AR1, SRE, Workload, build

_CHECKS = ("greenwood", "ratio_max", "ratio_student", "kurtosis",
           "extremal_index", "lepage_laplace", "self_decomposition")

# name: (unit, better, what it should move)
METRICS = {
    "processes.noise_ns": ("ns", "lower", "wall_s, cpu_s on ar1-paths"),
    "processes.ar1_ns": ("ns", "lower", "wall_s on ar1-paths"),
    "processes.sre_ab_ns": ("ns", "lower", "wall_s on sre"),
    "processes.sre_ns": ("ns", "lower", "wall_s on sre"),
    "processes.path_ns": ("ns", "lower", "wall_s on ar1-paths and sre"),
    "processes.coupled_ns": ("ns", "lower", "wall_s on sre; little on ar1-paths"),
    "processes.normalizing_an_s": ("s", "lower", "wall_s on sre"),
    "stats.batch_ns": ("ns", "lower", "wall_s on ar1-paths and sre"),
    "experiments.statistics_ns": ("ns", "lower", "wall_s, cpu_s on ar1-paths and sre"),
    "experiments.parallel_efficiency": ("ratio", "higher", "wall_s at unchanged cpu_s"),
    "experiments.pool_ms": ("ms", "lower", "wall_s on every workload"),
    **{f"experiments.check_s.{c}": ("s", "lower", "wall_s on its workload") for c in _CHECKS},
    "clusters.library_s": ("s", "lower", "wall_s on empirical-limits and sre"),
    "clusters.functionals_us": ("us", "lower", "wall_s on empirical-limits and sre"),
    "clusters.tilted_us": ("us", "lower", "wall_s on sre and empirical-limits"),
    "clusters.extremal_index_ms.acceptance": ("ms", "lower", "wall_s on empirical-limits and sre"),
    "clusters.extremal_index_ms.cluster_max": ("ms", "lower", "wall_s on empirical-limits and sre"),
    "clusters.extremal_index_ms.sre_products": ("ms", "lower", "wall_s on sre"),
    "limits.series_ms": ("ms", "lower", "wall_s on empirical-limits; little on ar1-paths"),
    "limits.expint_us": ("us", "lower", "wall_s on empirical-limits"),
    "limits.quad_us": ("us", "lower", "wall_s on empirical-limits; little on ar1-paths"),
    "limits.ratio_cf_us": ("us", "lower", "wall_s on empirical-limits"),
    "limits.laplace_zeta_ms": ("ms", "lower", "wall_s on empirical-limits"),
    "oracles.greenwood_ms": ("ms", "lower", "wall_s on sre"),
    "oracles.ratio_max_ms": ("ms", "lower", "wall_s on sre"),
    "diagnostics.coupling_us": ("us", "lower", "wall_s on sre; little on ar1-paths"),
    "diagnostics.anticluster_us": ("us", "lower", "wall_s on sre; little on ar1-paths"),
    "diagnostics.coupled_anticluster_us": ("us", "lower", "wall_s on sre; little on ar1-paths"),
    **{f"{layer}.failed": ("count", "lower", "failed_share: attempted and failed") for layer in LAYERS},
    "trace.wall_s": ("s", "lower", "nothing: wall time of the traced one-worker pass"),
    "trace.overhead_pct": ("%", "lower", "nothing: tracing cost as a share of trace.wall_s"),
}

_SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3, "s": 1.0}


def _clock(fn, *args, repeat: int = 1, **kwargs):
    """Median wall time of ``repeat`` calls, and the last result."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


class LayerSuite:
    """Computes every metric in ``METRICS`` for one workload."""

    def __init__(self, workload: Workload, tracer: Tracer, pass_spans: list, seed: int, nproc: int):
        from selfnorm.experiments import cluster_from_dict, derive_cluster, model_from_dict

        self.w, self.tracer = workload, tracer
        # the workload's own calls: those made inside run_experiment, not the
        # benchmark's closed-form reference checks
        inside: set = set()
        for span in pass_spans:  # a parent always precedes its children
            if span.name == "experiments.run_experiment" or span.parent in inside:
                inside.add(span.id)
        self.pass_spans = [s for s in pass_spans if s.id in inside]
        self.seed, self.nproc = seed, nproc
        self.values: dict = {}
        self.counts: dict = {}
        self.failed = {layer: 0 for layer in LAYERS}
        self.errors: list = []
        self.model = model_from_dict(workload.model)
        self.ar1 = self.model if self.model.kind == "ar1" else model_from_dict(AR1)
        self.sre = self.model if self.model.kind == "sre" else model_from_dict(SRE)
        self.cluster = (cluster_from_dict(workload.cluster) if workload.cluster
                        else derive_cluster(self.model))
        self.home = build("ar1-paths", seed)

    def _n(self, model) -> int:
        return self.w.n if model is self.model else 10_000

    def _empirical(self):
        """A fresh empirical cluster: the workload's own, else that of the
        empirical-limits workload."""
        from selfnorm.experiments import cluster_from_dict, derive_cluster

        if self.cluster.kind != "empirical":
            return cluster_from_dict(build("empirical-limits", self.seed).cluster)
        return cluster_from_dict(self.w.cluster) if self.w.cluster else derive_cluster(self.model)

    def put(self, name: str, seconds: float, count: float = 1, what: str = "call") -> None:
        unit = METRICS[name][0]
        self.values[name] = seconds / count * _SCALE[unit]
        self.counts[name] = f"{count:g} {what}"

    def from_spans(self, metric: str, span_name: str, per: str | None, fallback, **args) -> None:
        """The metric from the pass's own spans of ``span_name``, per call or
        per ``per`` count; ``fallback()`` runs the call here when the pass
        made none."""
        spans = self.tracer.find(span_name, self.pass_spans, **args)
        if not spans:
            start = len(self.tracer.spans)
            fallback()
            spans = self.tracer.find(span_name, self.tracer.spans[start:], **args)
        seconds = sum(s.seconds for s in spans)
        if per is None:
            self.put(metric, seconds, len(spans), "calls")
        else:
            self.put(metric, seconds, sum(s.counts.get(per, 0) for s in spans) or 1, per)

    def measure(self) -> None:
        for step in (self.processes, self.statistics, self.checks, self.clusters, self.limits,
                     self.oracles, self.diagnostics):
            try:
                step()
            except Exception as exc:  # one failing layer must not hide the others
                self.errors.append(f"{step.__name__}: {type(exc).__name__}: {exc}")
        for span in self.tracer.spans:
            if span.error is not None and span.layer in self.failed:
                self.failed[span.layer] += 1
        for layer, n in self.failed.items():
            self.values[f"{layer}.failed"] = n
            self.counts[f"{layer}.failed"] = "raised calls"

    # -- layers --------------------------------------------------------------

    def processes(self) -> None:
        from selfnorm import processes, stats
        from selfnorm.rng import substream

        noise, count = self.ar1.noise, 1_000_000
        t, _ = _clock(processes.sample_noise, noise, count, self.seed, repeat=3)
        self.put("processes.noise_ns", t, count, "values")

        # a block of whole paths, burn-in included, as the harness simulates them
        total = self._n(self.ar1) + self.ar1.burn_in
        rows = max(1, 4_000_000 // total)
        z = processes.sample_noise(noise, rows * total, self.seed).reshape(rows, total)
        t, x_ar1 = _clock(processes.ar1_recursion, self.ar1.phi, z, repeat=3)
        self.put("processes.ar1_ns", t, z.size, "steps")

        law = self.sre.sre_law
        t, _ = _clock(law.sample_ab, substream(self.seed, 1), count, repeat=3)
        self.put("processes.sre_ab_ns", t, count, "values")
        # the harness's rows per block at the workload's path length; the
        # cost per step depends on the rows, not on the number of steps
        rows = max(1, 8_000_000 // (self._n(self.sre) + self.sre.burn_in))
        a, b = law.sample_ab(substream(self.seed, 2), rows * 5000)
        t, x_sre = _clock(processes.sre_recursion, a.reshape(rows, 5000), b.reshape(rows, 5000))
        self.put("processes.sre_ns", t, a.size, f"steps at {rows} rows")

        block = x_sre if self.model.kind == "sre" else x_ar1
        t, _ = _clock(stats.batch_stats, block, (2.0,), repeat=3)
        self.put("stats.batch_ns", t, block.size, "values")

        n = self.w.n
        t, _ = _clock(processes.sample_path, self.model, n, self.seed, repeat=3)
        self.put("processes.path_ns", t, n, "values")
        n_c = 1000
        t, _ = _clock(processes.sample_coupled_paths, self.model, n_c, self.seed, repeat=3)
        self.put("processes.coupled_ns", t, 2 * (n_c + self.model.burn_in), "steps")

        self.from_spans("processes.normalizing_an_s", "processes.normalizing_an", None,
                        lambda: processes.normalizing_an(self.model, n))

    def statistics(self) -> None:
        import numpy as np
        from selfnorm import experiments

        home = self.w if self.w.specs else self.home
        model = self.model if self.w.specs else self.ar1
        n = home.n
        reps = max(2 * self.nproc, 2_000_000 // n)
        args = (model, n, reps, home.specs, "none", self.seed)
        t1, one = _clock(experiments.simulate_statistics, *args, workers=1)
        tn, many = _clock(experiments.simulate_statistics, *args, workers=self.nproc)
        self.put("experiments.statistics_ns", t1, reps * n, f"values ({len(home.specs)} statistics)")
        self.values["experiments.parallel_efficiency"] = t1 / (self.nproc * tn)
        self.counts["experiments.parallel_efficiency"] = f"1 vs {self.nproc} workers"
        if not all(np.array_equal(one[k], many[k]) for k in one):
            self.failed["experiments"] += 1
            self.errors.append(f"simulate_statistics differs between 1 and {self.nproc} workers")

        tiny = (model, 100, 2 * self.nproc, [{"name": "ratio_max"}], "none", self.seed)
        diffs = []
        for _ in range(3):
            t_pool, _ = _clock(experiments.simulate_statistics, *tiny, workers=self.nproc)
            t_one, _ = _clock(experiments.simulate_statistics, *tiny, workers=1)
            diffs.append(t_pool - t_one)
        self.put("experiments.pool_ms", statistics.median(diffs), 1, f"pool of {self.nproc}")

    def checks(self) -> None:
        from selfnorm import ExperimentConfig, run_experiment

        verify = self.home.configs[0]
        for check in _CHECKS:
            def fallback(check=check):
                cfg = dict(verify, checks=[check], reps=200, name=f"layer-{check}")
                run_experiment(ExperimentConfig.from_dict(cfg), workers=1)
            self.from_spans(f"experiments.check_s.{check}", f"experiments.check.{check}", None, fallback)

    def clusters(self) -> None:
        from selfnorm import clusters
        from selfnorm.experiments import derive_cluster

        fresh = self._empirical()
        first, _ = _clock(clusters.cluster_functionals, fresh, 1000, 2.0, self.seed)
        warm, _ = _clock(clusters.cluster_functionals, fresh, 1000, 2.0, self.seed)
        self.put("clusters.library_s", first - warm, 1, "library build")
        if self.cluster.kind == "empirical":
            self.cluster = fresh  # same configuration, library now built
        cluster = self.cluster
        count = 20_000
        t, _ = _clock(clusters.cluster_functionals, cluster, count, 2.0, self.seed)
        self.put("clusters.functionals_us", t, count, "draws")
        count = 5000
        t, _ = _clock(clusters.tilted_functionals, cluster, count, 2.0, self.seed)
        self.put("clusters.tilted_us", t, count, "draws")

        self.from_spans("clusters.extremal_index_ms.acceptance", "clusters.tilted_acceptance", None,
                        lambda: clusters.tilted_acceptance(cluster, 2000, self.seed))
        self.from_spans("clusters.extremal_index_ms.cluster_max", "clusters.extremal_index", None,
                        lambda: clusters.extremal_index(cluster, 2000, self.seed, method="cluster_max"),
                        method="cluster_max")
        sre_cluster = cluster if self.model.kind == "sre" else derive_cluster(self.sre)
        self.from_spans("clusters.extremal_index_ms.sre_products", "clusters.extremal_index", None,
                        lambda: clusters.extremal_index(sre_cluster, 2000, self.seed, method="sre_products"),
                        method="sre_products")

    def limits(self) -> None:
        from selfnorm import clusters, limits

        cluster, alpha = self.cluster, self.cluster.alpha
        reps = 200 if cluster.kind != "empirical" else 20
        t, _ = _clock(limits.sample_limit_lepage_batch, cluster, alpha, 2.0, reps,
                      self.w.n_terms, self.seed)
        self.put("limits.series_ms", t, reps, f"replicas of {self.w.n_terms} terms")

        atoms = clusters.cluster_atoms(cluster, p=2.0, n_mc=self.w.cluster_mc, seed=self.seed)
        n_atoms = len(atoms.weights)
        t, _ = _clock(limits.hybrid_cf, 0.7, 1.3, cluster, atoms=atoms)
        self.put("limits.expint_us", t, n_atoms, "atoms")
        t, _ = _clock(limits.joint_cf_laplace, 0.7, math.inf, 0.8, cluster, p=2.0, atoms=atoms)
        self.put("limits.quad_us", t, n_atoms, "atoms")
        tilted = clusters.tilted_atoms(cluster, p=2.0, n_mc=self.w.cluster_mc, seed=self.seed)
        t, _ = _clock(limits.ratio_cf, 0.7, cluster, atoms=tilted)
        self.put("limits.ratio_cf_us", t, len(tilted.weights), "atoms")
        self.from_spans("limits.laplace_zeta_ms", "limits.laplace_zeta", None,
                        lambda: limits.laplace_zeta(1.0, cluster, p=2.0, reps=self.w.cluster_mc,
                                                    seed=self.seed))

    def oracles(self) -> None:
        from selfnorm import oracles

        cluster = self.cluster
        self.from_spans("oracles.greenwood_ms", "oracles.expected_greenwood", None,
                        lambda: oracles.expected_greenwood(cluster, p=2.0, n_mc=10_000, seed=self.seed))
        self.from_spans("oracles.ratio_max_ms", "oracles.expected_ratio_max", None,
                        lambda: oracles.expected_ratio_max(cluster, n_mc=10_000, seed=self.seed))

    def diagnostics(self) -> None:
        from selfnorm import diagnostics

        model, n, reps = self.model, self.w.n, 200
        q = min(0.4, 0.8 * min(model.alpha, 1.0))
        self.from_spans("diagnostics.coupling_us", "diagnostics.coupling_decay", "replicas",
                        lambda: diagnostics.coupling_decay(model, q, 30, reps, self.seed))
        self.from_spans("diagnostics.anticluster_us", "diagnostics.anticluster_stat", "replicas",
                        lambda: diagnostics.anticluster_stat(model, n, reps=reps, seed=self.seed))
        self.from_spans("diagnostics.coupled_anticluster_us", "diagnostics.coupled_anticluster_stat",
                        "replicas",
                        lambda: diagnostics.coupled_anticluster_stat(model, n, q=q, reps=reps,
                                                                     seed=self.seed))

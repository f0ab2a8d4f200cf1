"""Per-draw outputs of the empirical cluster law and of the SRE path
engine, pinned bit for bit.

``tests/data/empirical_digests.json`` holds SHA-256 digests of every array
(and the exact bits of every estimate) that the calls below return for an
empirical AR(1) cluster and an empirical SRE cluster at fixed seeds, and, in
the ``sre_paths`` group, the exact bits of the SRE scale constant a_n, digests
of coupled SRE rows and of the report and CSVs of a small SRE ``diagnose``
run; the ``ar1_paths`` group holds the same for AR(1) coupled rows (one-sided
and two-sided noise, with and without burn-in) and an AR(1) ``diagnose`` run.
The ``paths`` group holds digests of the per-replica arrays of
``simulate_statistics`` for iid Pareto (every sign balance), symmetric-stable
iid, AR(1) and SRE models, every statistic and every centering the model
allows, and of the report and ``verify.csv`` of small ``verify`` runs with the
four path checks; ``paths_tiles`` holds the same arrays at a path length that
spans three time tiles, the last one partial. A change to how these are
computed must reproduce them exactly.

Regenerate the record (only for a deliberate change of value, which
CHANGES.md must then explain) with::

    PYTHONPATH=src python tests/test_bit_identity.py --record [GROUP ...]

Named groups (``ar1``, ``sre``, ``sre_paths``, ``paths``, ``paths_tiles``,
``ar1_paths``) are
computed afresh and every other group is kept byte for byte, so a change of
value in one group shows the others unchanged; no name records them all.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from selfnorm import ExperimentConfig, clusters, limits, oracles, processes, run_experiment
from selfnorm.experiments import cluster_from_dict, simulate_statistics

RECORD = Path(__file__).parent / "data" / "empirical_digests.json"

AR1 = {"kind": "ar1", "phi": 0.5,
       "noise": {"kind": "pareto", "alpha": 0.5, "q_plus": 1.0, "q_minus": 0.0}}
SRE = {"kind": "sre",
       "sre_law": {"kind": "lognormal", "alpha": 0.8, "sigma": 1.0, "b_mean": 1.0, "b_sd": 0.0}}
CLUSTERS = {
    "ar1": {"kind": "empirical", "source": AR1, "sample_length": 200_000, "library_seed": 3},
    "sre": {"kind": "empirical", "source": SRE, "sample_length": 100_000, "library_seed": 4},
}


def _array_digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def _dict_digests(d: dict) -> dict:
    return {k: _array_digest(v) for k, v in sorted(d.items())}


def _estimate(e) -> dict:
    return {"value": float(e.value).hex(), "stderr": float(e.stderr).hex(), "reps": e.reps,
            "method": e.method}


def _atoms(a) -> dict:
    return _dict_digests({"weights": a.weights, "sum_q": a.sum_q, "max_abs": a.max_abs,
                          "norm_p_p": a.norm_p_p, "sum_abs": a.sum_abs})


def digests(name: str) -> dict:
    """Digests of every empirical-cluster call on one fresh cluster."""
    c = cluster_from_dict(CLUSTERS[name])
    a = c.alpha
    out = {}
    # 12000 draws span three rng chunks of the series sampler's chunk size
    for k, p in enumerate((2.0, a, a + 1.0)):
        out[f"cluster_functionals_p{p:g}"] = _dict_digests(
            clusters.cluster_functionals(c, 12_000, p, seed=20 + k, extra_ps=(4.0,)))
    out["tilted_functionals"] = _dict_digests(clusters.tilted_functionals(c, 3000, 2.0, seed=30))
    out["tilted_functionals_p_alpha1"] = _dict_digests(clusters.tilted_functionals(c, 2000, a + 1.0, seed=31))
    out["lepage_batch"] = _dict_digests(
        limits.sample_limit_lepage_batch(c, a, 2.0, reps=20, n_terms=300, seed=40, first_index=5))
    out["cluster_atoms"] = _atoms(clusters.cluster_atoms(c, p=2.0))
    out["tilted_atoms"] = _atoms(clusters.tilted_atoms(c, p=2.0))
    out["tilted_acceptance"] = _estimate(clusters.tilted_acceptance(c, 5000, seed=43))
    out["extremal_index_cluster_max"] = _estimate(
        clusters.extremal_index(c, 5000, seed=44, method="cluster_max"))
    out["cluster_moment"] = _estimate(clusters.cluster_moment(c, 2.0))
    out["expected_greenwood"] = _estimate(oracles.expected_greenwood(c, p=2.0))
    out["expected_ratio_max"] = _estimate(oracles.expected_ratio_max(c))
    out["expected_ratio_student"] = _estimate(oracles.expected_ratio_student(c, p=2.0))
    out["expected_kurtosis_limit"] = _estimate(oracles.expected_kurtosis_limit(c))
    return out


# a short burn-in keeps the diagnose run's tail-constant chains short
SRE_DIAGNOSE = dict(kind="diagnose", name="sre-diagnose", model={**SRE, "burn_in": 200}, n=2000,
                    reps=20, seed=3)


def run_outputs(config: dict, workers: int) -> tuple[dict, dict]:
    """A small run's report without its timing fields, and the bytes of every
    artifact it writes."""
    with tempfile.TemporaryDirectory() as tmp:
        report = run_experiment(ExperimentConfig.from_dict(config), out_dir=tmp,
                                workers=workers).to_json()
        root = Path(tmp) / config["name"]
        files = {f.name: f.read_bytes() for f in sorted(root.iterdir()) if f.name != "report.json"}
    for timing in ("wall_time_s", "versions", "workers"):
        report["metadata"].pop(timing)
    return report, files


def _run_digests(config: dict) -> dict:
    report, files = run_outputs(config, workers=1)
    return {"report": hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest(),
            "files": {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}}


def sre_path_digests() -> dict:
    """The SRE scale constant, coupled SRE rows and a small diagnose run."""
    model = processes.model_from_dict(SRE)
    out = {"normalizing_an": processes.normalizing_an(model, 10_000).hex()}
    x, xs, x0, x0s = processes._coupled_rows(model, 39, 5, np.arange(7, 27))
    out["coupled_rows"] = _dict_digests({"x": x, "x_star": xs, "x0": x0, "x0_star": x0s})
    run = _run_digests(SRE_DIAGNOSE)
    out["diagnose_report"] = run["report"]
    out["diagnose_files"] = run["files"]
    return out


# phi = -0.8 with two-sided alpha = 1.5 noise, at a short burn-in and at none
AR1_TWO_SIDED = {"kind": "ar1", "phi": -0.8, "noise": {"kind": "pareto", "alpha": 1.5}}
AR1_COUPLED = {"coupled_rows": AR1, "coupled_rows_two_sided_burn50": {**AR1_TWO_SIDED, "burn_in": 50},
               "coupled_rows_two_sided_burn0": {**AR1_TWO_SIDED, "burn_in": 0}}
AR1_DIAGNOSE = dict(kind="diagnose", name="ar1-diagnose", model=AR1, n=2000, reps=20, seed=3)


def ar1_path_digests() -> dict:
    """Coupled AR(1) rows and a small AR(1) diagnose run."""
    out = {}
    for name, model in AR1_COUPLED.items():
        x, xs, x0, x0s = processes._coupled_rows(processes.model_from_dict(model), 39, 5, np.arange(7, 27))
        out[name] = _dict_digests({"x": x, "x_star": xs, "x0": x0, "x0_star": x0s})
    run = _run_digests(AR1_DIAGNOSE)
    out["diagnose_report"] = run["report"]
    out["diagnose_files"] = run["files"]
    return out


def _pareto(alpha: float, q_plus: float) -> dict:
    return {"kind": "iid", "noise": {"kind": "pareto", "alpha": alpha, "q_plus": q_plus,
                                     "q_minus": 1.0 - q_plus}}


# name -> (model, centerings the model allows); analytic centering needs alpha > 1
PATH_MODELS = {
    "iid_pareto_pos": (_pareto(0.5, 1.0), ("none", "empirical")),
    "iid_pareto_neg": (_pareto(1.5, 0.0), ("none", "analytic", "empirical")),
    "iid_pareto_mixed": (_pareto(1.5, 0.5), ("none", "analytic", "empirical")),
    "iid_stable": ({"kind": "iid", "noise": {"kind": "symmetric_stable", "alpha": 1.5}},
                   ("none", "analytic", "empirical")),
    "ar1": (AR1, ("none", "empirical")),
    "sre": ({**SRE, "burn_in": 300}, ("none", "empirical")),
}
PATH_STATISTICS = [
    {"name": "ratio_max"}, {"name": "sum"}, {"name": "max_abs"}, {"name": "gamma", "p": 2.0},
    {"name": "gamma", "p": 4.0}, {"name": "gamma", "p": 0.7}, {"name": "studentized", "p": 2.0},
    {"name": "studentized", "p": 1.0}, {"name": "kurtosis"}, {"name": "norm_ratio"},
    {"name": "norm_ratio", "q": 4.0, "r": 0.5},
]
# greenwood reads uncentered, strictly positive paths with alpha < min(p, 1)
GREENWOOD = ({"name": "greenwood", "p": 2.0}, {"name": "greenwood", "p": 1.5})
POSITIVE = ("iid_pareto_pos", "ar1", "sre")

PATH_VERIFY = dict(kind="verify", name="ar1-paths-verify", model=AR1, n=1500, reps=120, p=2.0,
                   checks=["greenwood", "ratio_max", "ratio_student", "kurtosis"], seed=5)


def _statistics_digests(n: int, reps: int) -> dict:
    """Per-replica statistics arrays of every path model and centering."""
    out = {}
    for name, (model, centerings) in PATH_MODELS.items():
        m = processes.model_from_dict(model)
        for centering in centerings:
            specs = list(PATH_STATISTICS)
            if name in POSITIVE and centering == "none":
                specs += GREENWOOD
            arrays = simulate_statistics(m, n, reps, specs, centering, seed=60)
            out[f"{name}_{centering}"] = _dict_digests(arrays)
    return out


def path_digests() -> dict:
    """Per-replica statistics arrays within one time tile, and small verify
    runs with the four path checks (one with the ratio checks under
    empirical centering)."""
    out = _statistics_digests(700, 40)
    out["verify"] = _run_digests(PATH_VERIFY)
    out["verify_empirical"] = _run_digests({**PATH_VERIFY, "centering": "empirical"})
    return out


def path_tile_digests() -> dict:
    """Per-replica statistics arrays of paths 2500 steps long: two whole time
    tiles of ``processes._TILE_STEPS`` and a partial third, so every
    accumulator carries its sums from tile to tile."""
    return _statistics_digests(2500, 12)


# every group of the record, in its order in the file
GROUPS = {**{name: (lambda name=name: digests(name)) for name in sorted(CLUSTERS)},
          "sre_paths": sre_path_digests, "paths": path_digests,
          "paths_tiles": path_tile_digests, "ar1_paths": ar1_path_digests}


def record(names=tuple(GROUPS)) -> dict:
    """The stored record with the named groups computed afresh; the other
    groups are kept as stored, byte for byte."""
    stored = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    fresh = {name: GROUPS[name]() for name in names}
    return {name: fresh[name] if name in fresh else stored[name] for name in GROUPS}


@pytest.mark.parametrize("name", sorted(CLUSTERS))
def test_empirical_outputs_bit_identical(name):
    recorded = json.loads(RECORD.read_text())[name]
    now = digests(name)
    assert now.keys() == recorded.keys()
    for call in recorded:
        assert now[call] == recorded[call], call


def test_sre_paths_bit_identical():
    recorded = json.loads(RECORD.read_text())["sre_paths"]
    now = sre_path_digests()
    assert now.keys() == recorded.keys()
    for call in recorded:
        assert now[call] == recorded[call], call


def test_ar1_paths_bit_identical():
    recorded = json.loads(RECORD.read_text())["ar1_paths"]
    now = ar1_path_digests()
    assert now.keys() == recorded.keys()
    for call in recorded:
        assert now[call] == recorded[call], call


def test_paths_bit_identical():
    recorded = json.loads(RECORD.read_text())["paths"]
    now = path_digests()
    assert now.keys() == recorded.keys()
    for call in recorded:
        assert now[call] == recorded[call], call


def test_paths_tiles_bit_identical():
    recorded = json.loads(RECORD.read_text())["paths_tiles"]
    now = path_tile_digests()
    assert now.keys() == recorded.keys()
    for call in recorded:
        assert now[call] == recorded[call], call


@pytest.mark.parametrize("centering,calls", [("none", ["none"]), ("empirical", ["none", "empirical"])])
def test_verify_simulates_once_per_centering(monkeypatch, centering, calls):
    # greenwood and kurtosis read uncentered paths, the two ratio checks the
    # config's centering: one simulation per distinct centering
    from selfnorm import experiments

    # verify queues its path blocks through the submit step behind simulate_statistics
    seen = []
    submit = experiments._submit_statistics

    def counted(pool, model, n, reps, specs, centering, seed):
        seen.append(centering)
        return submit(pool, model, n, reps, specs, centering, seed)

    monkeypatch.setattr(experiments, "_submit_statistics", counted)
    run_outputs({**PATH_VERIFY, "centering": centering}, workers=1)
    assert seen == calls


def test_verify_paths_any_worker_count(forced_pool):
    assert run_outputs(PATH_VERIFY, workers=1) == run_outputs(PATH_VERIFY, workers=2)


def test_sre_diagnose_one_tail_constant_any_worker_count(monkeypatch, forced_pool):
    # the run computes the tail constant behind a_n once (directly or through
    # normalizing_an), and two workers change no byte of the report or the
    # artifacts
    calls = []
    tail = processes.tail_constant

    def counted(model):
        calls.append(model.kind)
        return tail(model)

    monkeypatch.setattr(processes, "tail_constant", counted)
    one = run_outputs(SRE_DIAGNOSE, workers=1)
    assert calls == ["sre"]
    two = run_outputs(SRE_DIAGNOSE, workers=2)
    assert calls == ["sre", "sre"]
    assert one == two
    assert set(one[1]) == {"anticluster.csv", "coupled_anticluster.csv", "coupling_decay.csv",
                           "diagnose_summary.json"}


def test_ar1_diagnose_any_worker_count(forced_pool):
    # 47 replicas split unevenly over 2 and 3 workers change no byte of the
    # report or the artifacts
    config = {**AR1_DIAGNOSE, "reps": 47}
    one = run_outputs(config, workers=1)
    assert run_outputs(config, workers=2) == one
    assert run_outputs(config, workers=3) == one
    assert set(one[1]) == {"anticluster.csv", "coupled_anticluster.csv", "coupling_decay.csv",
                           "diagnose_summary.json"}


# a small empirical AR(1) cluster through every run kind that reads it
EMPIRICAL = {"kind": "empirical", "source": AR1, "sample_length": 50_000, "library_seed": 3}
EMPIRICAL_RUNS = {
    "verify": dict(kind="verify", name="emp-verify", model=AR1, cluster=EMPIRICAL, n=500, reps=200, p=2.0,
                   checks=["extremal_index", "lepage_laplace", "self_decomposition"], n_terms=200,
                   cluster_mc=500, seed=7),
    "limit": dict(kind="limit", name="emp-limit", cluster=EMPIRICAL, reps=60, n_terms=500, p=2.0, seed=8),
    **{kind: dict(kind="transform", name=f"emp-{kind}", cluster=EMPIRICAL, transform=kind, p=2.0,
                  cluster_mc=500, u_points=[0.5, 1.0], x_points=[1.0, 2.0], lambda_points=[0.5, 1.0], seed=9)
       for kind in ("hybrid_cf", "joint_cf_laplace", "ratio_cf")},
}


@pytest.mark.parametrize("run", sorted(EMPIRICAL_RUNS))
def test_empirical_runs_any_worker_count(run, forced_pool):
    config = EMPIRICAL_RUNS[run]
    assert run_outputs(config, workers=1) == run_outputs(config, workers=2)


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] != ["--record"] or not set(args[1:]) <= set(GROUPS):
        raise SystemExit("usage: PYTHONPATH=src python tests/test_bit_identity.py --record [GROUP ...]\n"
                         f"groups: {' '.join(GROUPS)} (default: all)")
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(record(tuple(dict.fromkeys(args[1:])) or tuple(GROUPS)), indent=1) + "\n")
    print(f"wrote {RECORD}: {' '.join(args[1:]) or 'every group'}")

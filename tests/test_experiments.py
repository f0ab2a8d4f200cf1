import dataclasses
import importlib.util
import io
import json
import math
import os
import pickle
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from selfnorm import (
    ConfigurationError,
    Estimate,
    ExperimentConfig,
    SRELaw,
    ks_bound,
    ks_distance,
    run_experiment,
    sample_limit_lepage_batch,
    simulate_statistics,
    sre_model,
)
from selfnorm import clusters, stats
from selfnorm._pool import Pool
from selfnorm.cli import main as cli_main
from selfnorm.experiments import _mc_row, cluster_from_dict, cluster_to_dict, derive_cluster, load_config
from selfnorm.processes import model_from_dict, model_to_dict
from selfnorm.stats import _parse_spec, _ReductionPlan


IID_POS_HALF = {"kind": "iid", "noise": {"kind": "pareto", "alpha": 0.5, "q_plus": 1.0, "q_minus": 0.0}}
AR1_POS_HALF = {"kind": "ar1", "phi": 0.5, "noise": {"kind": "pareto", "alpha": 0.5, "q_plus": 1.0, "q_minus": 0.0}}
SRE_POS = {"kind": "sre", "sre_law": {"kind": "lognormal", "alpha": 0.8, "sigma": 1.0, "b_mean": 1.0, "b_sd": 0.0}}


def _bench_workloads(monkeypatch):
    """``bench/workloads.py`` as a module."""
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module runs
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def small_verify_config(**over):
    base = dict(
        kind="verify",
        name="greenwood-small",
        model=IID_POS_HALF,
        n=20_000,
        reps=400,
        p=2.0,
        checks=["greenwood"],
        seed=5,
    )
    base.update(over)
    return ExperimentConfig.from_dict(base)


class TestConfig:
    def test_validation_lists_every_problem(self):
        cfg = ExperimentConfig(kind="bogus", reps=0, n=0, workers=0, centering="odd")
        with pytest.raises(ConfigurationError) as err:
            cfg.validate()
        msg = str(err.value)
        for field in ("kind", "reps", "n", "workers", "centering"):
            assert field + ":" in msg

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config fields"):
            ExperimentConfig.from_dict({"kind": "simulate", "bogus_field": 1})

    def test_round_trip_yaml(self, tmp_path):
        cfg = small_verify_config()
        path = tmp_path / "cfg.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump(cfg.to_dict(), fh)
        again = load_config(path)
        assert again.to_dict() == cfg.to_dict()
        assert again.config_hash() == cfg.config_hash()

    def test_zero_reps_invalid(self):
        with pytest.raises(ConfigurationError, match="reps"):
            small_verify_config(reps=0).validate()

    def test_cluster_round_trip(self, ar1_pos_half, sre_lognormal):
        for model in (ar1_pos_half, sre_lognormal):
            c = derive_cluster(model, sample_length=100_000) if model.kind == "sre" else derive_cluster(model)
            d = cluster_to_dict(c)
            again = cluster_from_dict(d)
            assert cluster_to_dict(again) == d

    @settings(max_examples=40, deadline=None)
    @given(
        source=st.sampled_from([AR1_POS_HALF, SRE_POS]),
        floor_rel=st.floats(0.0, 1.0, exclude_max=True),
        run_gap=st.integers(1, 50),
        threshold_quantile=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        block_half_width=st.integers(1, 500),
        sample_length=st.integers(1, 10**7),
        library_seed=st.integers(0, 2**31),
    )
    def test_empirical_cluster_round_trip(self, source, floor_rel, run_gap, threshold_quantile,
                                          block_half_width, sample_length, library_seed):
        c = clusters.empirical_cluster(
            cluster_from_dict({"kind": "empirical", "source": source}).source,
            threshold_quantile=threshold_quantile, block_half_width=block_half_width,
            sample_length=sample_length, library_seed=library_seed, floor_rel=floor_rel, run_gap=run_gap,
        )
        assert cluster_from_dict(cluster_to_dict(c)) == c


# (field, dict, what the error names): a key that the kind does not read, or
# a burn-in for an iid model, which reads none
BAD_KEYS = [
    ("model", {**AR1_POS_HALF, "phi_typo": 3}),
    ("model", {**AR1_POS_HALF, "burnin": 50}),
    ("model", {**IID_POS_HALF, "phi": 0.5}),
    ("model", {**AR1_POS_HALF, "noise": {**AR1_POS_HALF["noise"], "q_plsu": 1.0}}),
    ("model", {**SRE_POS, "sre_law": {**SRE_POS["sre_law"], "a_const": 0.5}}),
    ("model", {**SRE_POS, "sre_law": {**SRE_POS["sre_law"], "sigmaa": 0.5}}),
    ("cluster", {"kind": "iid", "alpha": 0.5, "phi_typo": 3}),
    ("cluster", {"kind": "ar1_analytic", "alpha": 0.5, "phi": 0.5, "q_plsu": 1.0}),
    ("cluster", {"kind": "empirical", "source": AR1_POS_HALF, "flor_rel": 0.01}),
    ("cluster", {"kind": "empirical", "source": AR1_POS_HALF, "q_plus": 1.0, "q_minus": 0.0}),
    ("cluster", {"kind": "empirical", "source": {**AR1_POS_HALF, "burnin": 50}}),
    ("model", {**IID_POS_HALF, "burn_in": 5}),
]
# each case as "<field>-d<k>", the id pytest gives a (field, dict) pair
BAD_KEY_CASES = [pytest.param(field, d, "reads no burn-in" if "burn_in" in d else "unknown keys",
                              id=f"{field}-d{k}") for k, (field, d) in enumerate(BAD_KEYS)]
# (field, dict, the key it lacks): a key without a default is a configuration
# error that names it, not a bare KeyError
MISSING_KEYS = [
    ("cluster", {"kind": "iid"}, "alpha"),
    ("cluster", {"kind": "ar1_analytic", "phi": 0.5}, "alpha"),
    ("cluster", {"kind": "ar1_analytic", "alpha": 0.5}, "phi"),
    ("cluster", {"kind": "empirical", "alpha": 0.5}, "source"),
    ("model", {"kind": "ar1", "phi": 0.5, "noise": {"kind": "pareto"}}, "alpha"),
    ("model", {"kind": "ar1", "phi": 0.5, "noise": {"alpha": 0.5}}, "kind"),
    ("cluster", {"kind": "empirical", "source": {"kind": "iid", "noise": {"kind": "pareto"}}}, "alpha"),
]

# (field, dict, what the error names): a value the model or cluster rejects
BAD_VALUES = [
    ("cluster", {"kind": "empirical", "source": AR1_POS_HALF, "sample_length": -5}, "sample_length"),
    ("cluster", {"kind": "empirical", "source": AR1_POS_HALF, "sample_length": 0}, "sample_length"),
]


class TestConfigKeys:
    """A key that the model, cluster, noise or SRE-law kind does not read is
    an error, not a silent default; so is a burn-in for an iid model."""

    @staticmethod
    def _config(field, d):
        if field == "model":
            return small_verify_config(model=d)
        return ExperimentConfig.from_dict(dict(kind="limit", name="keys", cluster=d, reps=20, n_terms=100))

    @pytest.mark.parametrize("field,d,match", BAD_KEY_CASES)
    def test_validate_rejects(self, field, d, match):
        with pytest.raises(ConfigurationError, match=f"{field}: .*{match}"):
            self._config(field, d).validate()

    @pytest.mark.parametrize("field,d,match", BAD_KEY_CASES)
    def test_cli_exit_2(self, field, d, match, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(self._config(field, d).to_dict(), fh)
        kind = "verify" if field == "model" else "limit"
        assert cli_main([kind, "--config", str(cfg_path)]) == 2
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("field,d,key", MISSING_KEYS)
    def test_missing_key_cli_exit_2(self, field, d, key, tmp_path, capsys):
        with pytest.raises(ConfigurationError, match=f"missing keys \\['{key}'\\]"):
            (model_from_dict if field == "model" else cluster_from_dict)(d)
        with pytest.raises(ConfigurationError, match=f"{field}: .*missing keys \\['{key}'\\]"):
            self._config(field, d).validate()
        cfg_path = tmp_path / "cfg.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(self._config(field, d).to_dict(), fh)
        kind = "verify" if field == "model" else "limit"
        assert cli_main([kind, "--config", str(cfg_path)]) == 2
        assert f"missing keys ['{key}']" in capsys.readouterr().err

    @pytest.mark.parametrize("field,d,key", BAD_VALUES)
    def test_bad_value_cli_exit_2(self, field, d, key, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(clusters._BlockLibrary, "build", lambda model: pytest.fail("built a library"))
        with pytest.raises(ConfigurationError, match=key):
            (model_from_dict if field == "model" else cluster_from_dict)(d)
        with pytest.raises(ConfigurationError, match=f"{field}: .*{key}"):
            self._config(field, d).validate()
        cfg_path = tmp_path / "cfg.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(self._config(field, d).to_dict(), fh)
        kind = "verify" if field == "model" else "limit"
        assert cli_main([kind, "--config", str(cfg_path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("content,match", [(None, "cannot read config file"),
                                               (b"kind: [unclosed\n", "not valid YAML"),
                                               (b"\x80\x81\xff", "not valid YAML")],
                             ids=["missing", "malformed", "not_utf8"])
    def test_bad_config_file_cli_exit_2(self, content, match, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        if content is not None:
            cfg_path.write_bytes(content)
        with pytest.raises(ConfigurationError, match=match):
            load_config(cfg_path)
        assert cli_main(["verify", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert match in err and str(cfg_path) in err

    def test_shipped_dicts_read_every_key(self):
        for path in sorted((Path(__file__).parents[1] / "configs").glob("*.yaml")):
            load_config(path).validate()
        for d in (IID_POS_HALF, AR1_POS_HALF, SRE_POS):
            model_from_dict(d)

    def test_hash_resolves_defaults(self):
        def limit_hash(cluster):
            return ExperimentConfig.from_dict(dict(kind="limit", name="h", cluster=cluster)).config_hash()

        plain = limit_hash({"kind": "iid", "alpha": 0.5})
        assert limit_hash({"kind": "iid", "alpha": 0.5, "q_plus": 0.5, "q_minus": 0.5}) == plain
        assert limit_hash({"kind": "iid", "alpha": 0.5, "q_plus": 0.7, "q_minus": 0.3}) != plain
        model = {"kind": "ar1", "phi": 0.5, "noise": {"kind": "pareto", "alpha": 0.5}}
        explicit = {**model, "burn_in": 57, "noise": {**model["noise"], "q_plus": 0.5, "q_minus": 0.5}}
        assert small_verify_config(model=model).config_hash() == small_verify_config(model=explicit).config_hash()
        # the derived SRE burn-in spelled out leaves the hash; another value moves it
        sre_hash = small_verify_config(model=SRE_POS).config_hash()
        assert small_verify_config(model={**SRE_POS, "burn_in": 580}).config_hash() == sre_hash
        assert small_verify_config(model={**SRE_POS, "burn_in": 579}).config_hash() != sre_hash
        # a statistic's default p, spelled out as an int or a float, leaves the hash
        spellings = ({"name": "studentized"}, {"name": "studentized", "p": 2}, {"name": "studentized", "p": 2.0})
        hashes = {small_verify_config(statistics=[spec]).config_hash() for spec in spellings}
        assert len(hashes) == 1
        assert small_verify_config(statistics=[{"name": "studentized", "p": 3}]).config_hash() not in hashes


def _reference_batch_stats(values, ps, center=0.0):
    """The batched reduction as it stood before the reduction plan."""
    v = np.asarray(values, dtype=float) - center
    a = np.abs(v)
    m = a.max(axis=1)
    out = {"sum": v.sum(axis=1), "max_abs": m}
    safe = np.where(m > 0, m, 1.0)
    scaled = a / safe[:, None]
    for p in ps:
        g = safe * np.sum(scaled**p, axis=1) ** (1.0 / p)
        out[f"gamma_{p:g}"] = np.where(m > 0, g, 0.0)
    return out


def _reference_row_statistics(values, specs, center, alpha):
    """Per-replica statistics one spec at a time, as before the reduction
    plan: the reference the plan must reproduce bit for bit."""
    out = {}
    centered_ps = sorted({float(s.get("p", 2.0)) for s in specs if s["name"] in ("studentized", "gamma")})
    bs = _reference_batch_stats(values, centered_ps or (2.0,), center=center)
    for spec in specs:
        name = spec["name"]
        label = _parse_spec(spec)[0]
        if name == "ratio_max":
            out[label] = bs["sum"] / bs["max_abs"]
        elif name == "sum":
            out[label] = bs["sum"]
        elif name == "max_abs":
            out[label] = bs["max_abs"]
        elif name == "gamma":
            out[label] = bs[f"gamma_{float(spec.get('p', 2.0)):g}"]
        elif name == "studentized":
            out[label] = bs["sum"] / bs[f"gamma_{float(spec.get('p', 2.0)):g}"]
        elif name == "greenwood":
            p = float(spec.get("p", 2.0))
            if np.any(values <= 0):
                raise ConfigurationError("the ratio statistic needs strictly positive paths")
            if not (alpha < 1.0 and alpha < p):
                raise ConfigurationError("the ratio statistic needs alpha < min(p, 1)")
            m = values.max(axis=1, keepdims=True)
            scaled = values / m
            out[label] = np.sum(scaled**p, axis=1) / np.sum(scaled, axis=1) ** p
        elif name == "kurtosis":
            rb = _reference_batch_stats(values, (4.0, 2.0), center=0.0)
            out[label] = (rb["gamma_4"] / rb["gamma_2"]) ** 4
        elif name == "norm_ratio":
            q, r = float(spec.get("q", 2.0)), float(spec.get("r", 1.0))
            rb = _reference_batch_stats(values, (q, r), center=0.0)
            out[label] = rb[f"gamma_{q:g}"] / rb[f"gamma_{r:g}"]
    return out


PLAN_SPECS = [
    {"name": "ratio_max"}, {"name": "sum"}, {"name": "max_abs"}, {"name": "gamma", "p": 2.0},
    {"name": "gamma", "p": 0.5}, {"name": "gamma", "p": 4}, {"name": "studentized", "p": 4},
    {"name": "studentized", "p": 1.0}, {"name": "studentized"}, {"name": "kurtosis"},
    {"name": "norm_ratio"}, {"name": "norm_ratio", "q": 4.0, "r": 0.5},
]
GREENWOOD_SPECS = [{"name": "greenwood", "p": 2.0}, {"name": "greenwood", "p": 1.5}]

_POINTS = st.lists(st.floats(0.01, 10.0), max_size=3)
# one strategy per ExperimentConfig field; the test fails when a field has none
CONFIG_FIELDS = dict(
    kind=st.sampled_from(ExperimentConfig.KINDS), name=st.text(min_size=1, max_size=12),
    model=st.sampled_from([None, IID_POS_HALF, AR1_POS_HALF, SRE_POS]),
    cluster=st.sampled_from([None, {"kind": "iid", "alpha": 0.5},
                             {"kind": "ar1_analytic", "alpha": 0.8, "phi": -0.5, "q_plus": 1.0, "q_minus": 0.0}]),
    n=st.integers(1, 10**6), reps=st.integers(1, 10**5), n_terms=st.integers(10, 10**4), p=st.floats(0.1, 8.0),
    statistics=st.lists(st.sampled_from(PLAN_SPECS + GREENWOOD_SPECS), min_size=1, max_size=4),
    centering=st.sampled_from(["none", "analytic", "empirical"]),
    checks=st.lists(st.sampled_from(["greenwood", "ratio_max", "extremal_index", "lepage_laplace"]), max_size=3),
    transform=st.sampled_from(["stable_cf", "hybrid_cf", "ratio_cf"]),
    u_points=_POINTS, x_points=_POINTS, lambda_points=_POINTS, seed=st.integers(0, 2**31),
    workers=st.integers(1, 8), z_bound=st.floats(0.5, 10.0), quad_tol=st.floats(1e-12, 1e-3),
    cluster_mc=st.integers(100, 10**5),
    out=st.none() | st.text(min_size=1, max_size=8),
)


@settings(max_examples=60, deadline=None)
@given(fields=st.fixed_dictionaries(CONFIG_FIELDS))
def test_every_config_field_round_trips(fields):
    # through to_dict/from_dict and YAML, every field and the config_hash survive
    assert set(fields) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    cfg = ExperimentConfig.from_dict(fields)
    for again in (ExperimentConfig.from_dict(cfg.to_dict()),
                  ExperimentConfig.from_dict(yaml.safe_load(yaml.safe_dump(cfg.to_dict())))):
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()


_ALPHA = st.floats(0.05, 1.95).filter(lambda a: a != 1.0)
# tail balances sum to 1: q_minus follows the q_plus drawn for the example
_Q_PLUS = st.shared(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), key="q_plus")
_Q_MINUS = _Q_PLUS.map(lambda q: 1.0 - q)
_PHI = st.floats(-0.95, 0.95).filter(lambda f: f != 0.0)
# one strategy per key that each model, noise, SRE-law and cluster kind reads;
# the test fails when a key has none
NOISE_KEYS = {
    "pareto": dict(kind=st.just("pareto"), alpha=_ALPHA, q_plus=_Q_PLUS, q_minus=_Q_MINUS),
    "symmetric_stable": dict(kind=st.just("symmetric_stable"), alpha=_ALPHA, q_plus=st.just(0.5),
                             q_minus=st.just(0.5)),
}
SRE_LAW_KEYS = {
    "lognormal": dict(kind=st.just("lognormal"), alpha=st.floats(0.1, 3.0), sigma=st.floats(0.1, 2.0),
                      neg_prob=st.floats(0.0, 1.0), b_mean=st.floats(-5.0, 5.0), b_sd=st.floats(0.0, 5.0)),
    "constant": dict(kind=st.just("constant"), alpha=st.floats(0.1, 3.0), a_const=st.floats(-0.9, 0.9),
                     b_mean=st.floats(-5.0, 5.0), b_sd=st.floats(0.0, 5.0)),
}
_NOISE = st.one_of(*(st.fixed_dictionaries(keys) for keys in NOISE_KEYS.values()))
_SRE_LAW = st.one_of(*(st.fixed_dictionaries(keys) for keys in SRE_LAW_KEYS.values()))
MODEL_KEYS = {
    # an iid model reads no burn-in: its only valid value is 0
    "iid": dict(kind=st.just("iid"), noise=_NOISE, burn_in=st.just(0)),
    "ar1": dict(kind=st.just("ar1"), noise=_NOISE, phi=_PHI, burn_in=st.integers(0, 10**4)),
    # a constant law has no Kesten tail, so only kesten_check=False accepts it
    "sre": dict(kind=st.just("sre"), sre_law=_SRE_LAW, burn_in=st.integers(0, 10**5),
                kesten_check=st.booleans()),
}
_MODEL = st.one_of(*(st.fixed_dictionaries(keys) for keys in MODEL_KEYS.values())).filter(
    lambda d: d["kind"] != "sre" or d["sre_law"]["kind"] == "lognormal" or not d["kesten_check"])
CLUSTER_KEYS = {
    "iid": dict(kind=st.just("iid"), alpha=_ALPHA, q_plus=_Q_PLUS, q_minus=_Q_MINUS),
    "ar1_analytic": dict(kind=st.just("ar1_analytic"), alpha=_ALPHA, phi=_PHI, q_plus=_Q_PLUS, q_minus=_Q_MINUS),
    "empirical": dict(kind=st.just("empirical"), alpha=_ALPHA, source=_MODEL,
                      threshold_quantile=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                      block_half_width=st.integers(1, 500), sample_length=st.integers(1, 10**7),
                      library_seed=st.integers(0, 2**31), floor_rel=st.floats(0.0, 1.0, exclude_max=True),
                      run_gap=st.integers(1, 50)),
}
_CLUSTER = st.one_of(*(st.fixed_dictionaries(keys) for keys in CLUSTER_KEYS.values()))


@settings(max_examples=80, deadline=None)
@given(model=_MODEL, cluster=_CLUSTER)
def test_every_model_and_cluster_key_round_trips(model, cluster):
    # a dict holding every key its kind reads comes back unchanged through
    # the model or cluster and through YAML, with an unchanged config_hash
    from selfnorm.experiments import _CLUSTER_KEYS
    from selfnorm.processes import _MODEL_KEYS, _NOISE_KEYS, _SRE_LAW_KEYS

    for strategies, keys in ((MODEL_KEYS, _MODEL_KEYS), (SRE_LAW_KEYS, _SRE_LAW_KEYS),
                             (CLUSTER_KEYS, _CLUSTER_KEYS)):
        assert {kind: set(s) for kind, s in strategies.items()} == {kind: set(k) for kind, k in keys.items()}
    assert all(set(s) == set(_NOISE_KEYS) for s in NOISE_KEYS.values())
    assert model_to_dict(model_from_dict(model)) == model
    assert cluster_to_dict(cluster_from_dict(cluster)) == cluster
    cfg = ExperimentConfig.from_dict(dict(kind="limit", name="keys", model=model, cluster=cluster))
    again = ExperimentConfig.from_dict(yaml.safe_load(yaml.safe_dump(cfg.to_dict())))
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def _plan_blocks():
    """(name, block, specs): signed and positive heavy-tailed blocks, each as
    a fresh array and as a row-strided view like the burn-in slice of a
    simulated block; the signed one has an all-zero row."""
    rng = np.random.default_rng(17)
    z = rng.random((9, 260)) ** -2.0
    signed = np.where(rng.random(z.shape) < 0.4, -z, z)
    signed[3] = 0.0
    for name, block, specs in (("signed", signed, PLAN_SPECS), ("positive", z, PLAN_SPECS + GREENWOOD_SPECS)):
        yield name, block[:, 60:].copy(), specs
        yield name + "_view", block[:, 60:], specs


class TestReductionPlan:
    @pytest.mark.parametrize("centering", ["none", "analytic", "empirical"])
    def test_plan_equals_reference(self, centering):
        for name, values, specs in _plan_blocks():
            center = 0.0
            if centering == "analytic":
                center = 1.7
            if centering == "empirical":
                values = values - values.mean(axis=1, keepdims=True)
                specs = [s for s in specs if s["name"] != "greenwood"]
            with np.errstate(all="ignore"):
                want = _reference_row_statistics(values, specs, center, alpha=0.5)
                got = _ReductionPlan.build(specs, 0.5).reduce(values, center)
            assert list(got) == list(want), name
            for label in want:
                assert got[label].tobytes() == want[label].tobytes(), (name, label)
                assert np.array_equal(got[label], want[label], equal_nan=True), (name, label)

    def test_batch_stats_equals_reference(self):
        for name, values, _ in _plan_blocks():
            for center in (0.0, -2.5):
                want = _reference_batch_stats(values, (0.5, 2.0, 4.0), center)
                got = stats.batch_stats(values, (0.5, 2.0, 4.0), center)
                assert list(got) == list(want)
                for key in want:
                    assert got[key].tobytes() == want[key].tobytes(), (name, center, key)

    def test_greenwood_needs_positive_paths(self):
        values = np.array([[1.0, 2.0, 3.0], [1.0, -2.0, 3.0]])
        with pytest.raises(ConfigurationError, match="strictly positive"):
            _ReductionPlan.build(GREENWOOD_SPECS, 0.5).reduce(values, 0.0)

    def test_bad_input_fails_before_simulation(self, monkeypatch):
        from selfnorm import processes

        def no_paths(*args):
            raise AssertionError("simulated a path")

        monkeypatch.setattr(processes, "_simulate_rows", no_paths)
        monkeypatch.setattr(processes, "_path_tiles", no_paths)
        model = model_from_dict({"kind": "iid", "noise": {"kind": "pareto", "alpha": 1.5}})
        with pytest.raises(ConfigurationError, match="alpha < min"):
            simulate_statistics(model, 100, 4, [{"name": "ratio_max"}, {"name": "greenwood"}])
        with pytest.raises(ConfigurationError, match="unknown statistic"):
            simulate_statistics(model, 100, 4, [{"name": "ratio_max"}, {"name": "bogus"}])
        with pytest.raises(ConfigurationError, match="centering must be"):
            simulate_statistics(model, 100, 4, [{"name": "sum"}], "emprical")


BAD_STATISTICS = [
    (["ratio_max"], "must be a mapping"),
    ([{"name": "ratio_max"}, 3], "must be a mapping"),
    ([{"name": "bogus"}], "unknown statistic"),
    ([{"p": 2.0}], "unknown statistic"),
    ([{"name": "studentized", "pp": 4}], "unknown keys"),
    ([{"name": "ratio_max", "p": 2.0}], "unknown keys"),
    ([{"name": "gamma", "p": 0}], "positive number"),
    ([{"name": "studentized", "p": -1}], "positive number"),
    ([{"name": "greenwood", "p": "2"}], "positive number"),
    ([{"name": "norm_ratio", "q": 0.0}], "positive number"),
    ([{"name": "norm_ratio", "r": -1.0}], "positive number"),
    ([{"name": "studentized"}, {"name": "studentized", "p": 2}], "studentized_p2 is listed twice"),
    ([], "at least one statistic"),
]
BAD_FIELDS = [
    ({"p": 0.0}, "p: must be a positive number"),
    ({"p": -2.0}, "p: must be a positive number"),
    ({"ps": [2.0]}, "unknown config fields"),
    ({"ks_level": 0.01}, "unknown config fields"),
    ({"statistics": {"name": "ratio_max"}}, "statistics: must be a list"),
    ({"statistics": None}, "statistic specs must be a list"),
    # a scalar of the wrong type, or out of range, as a YAML file may give it
    ({"reps": "10"}, "reps: must be an integer, got '10'"),
    ({"reps": 1.5}, "reps: must be an integer, got 1.5"),
    ({"n": 1.5}, "n: must be an integer, got 1.5"),
    ({"n_terms": True}, "n_terms: must be an integer, got True"),
    ({"workers": "2"}, "workers: must be an integer, got '2'"),
    ({"cluster_mc": "1000"}, "cluster_mc: must be an integer, got '1000'"),
    ({"seed": 1.5}, "seed: must be an integer, got 1.5"),
    ({"seed": -1}, "seed: must be >= 0"),
    ({"z_bound": "abc"}, "z_bound: must be a positive number, got 'abc'"),
    ({"quad_tol": "1e-8"}, "quad_tol: must be a positive number, got '1e-8'"),
    ({"u_points": ["a", 1.0]}, "u_points: every point must be a real number, got 'a'"),
    ({"lambda_points": [0.5, None]}, "lambda_points: every point must be a real number, got None"),
    # every reader of a point needs x > 0 and lambda >= 0: refused before any
    # cluster or library is built
    ({"x_points": [1.0, 0.0]}, "x_points: every point must be positive, got 0.0"),
    ({"x_points": [-2]}, "x_points: every point must be positive, got -2"),
    ({"lambda_points": [0.5, -1.0]}, "lambda_points: every point must be >= 0, got -1.0"),
    # a YAML null where a list belongs
    ({"checks": None}, "checks: must be a list, got None"),
    ({"u_points": None}, "u_points: must be a list, got None"),
    ({"x_points": None}, "x_points: must be a list, got None"),
    ({"lambda_points": None}, "lambda_points: must be a list, got None"),
    # checks and the run (its output directory) are named by strings, and the
    # run writes under a path
    ({"kind": "verify", "checks": [{"a": 1}]}, "checks: every check must be a name, got {'a': 1}"),
    ({"kind": "verify", "checks": ["greenwood", 3]}, "checks: every check must be a name, got 3"),
    ({"name": [1]}, "name: must be a string, got [1]"),
    ({"out": [1]}, "out: must be a path, got [1]"),
    # every verify row reports a sample stderr
    ({"kind": "verify", "checks": ["greenwood"], "reps": 1}, "reps: must be >= 2"),
]


class TestStatisticSpecs:
    """A bad statistic spec or p, or a field the config does not have, is a
    configuration error (CLI exit 2) found before any path is simulated."""

    BASE = dict(kind="simulate", name="specs", model=IID_POS_HALF, n=50, reps=4)

    def _config(self, **over):
        return ExperimentConfig.from_dict({**self.BASE, **over})

    @staticmethod
    def _cases():
        return [({"statistics": bad}, match) for bad, match in BAD_STATISTICS] + BAD_FIELDS

    def test_validate_rejects(self):
        for over, match in self._cases():
            with pytest.raises(ConfigurationError, match=re.escape(match)):
                self._config(**over).validate()

    def test_cli_exit_2(self, tmp_path, capsys):
        for k, (over, match) in enumerate(self._cases()):
            cfg_path = tmp_path / f"cfg{k}.yaml"
            with open(cfg_path, "w") as fh:
                yaml.safe_dump({**self.BASE, **over}, fh)
            command = over.get("kind", self.BASE["kind"])
            assert cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2, over
            assert match in capsys.readouterr().err, over

    @pytest.mark.parametrize("key, value", [("x_points", math.nan), ("lambda_points", math.nan),
                                            ("u_points", math.nan), ("u_points", math.inf),
                                            ("u_points", -math.inf), ("lambda_points", math.inf),
                                            ("lambda_points", -math.inf)])
    def test_refuses_points_a_grid_cannot_read(self, key, value):
        # a transform grid reads NaN as an unused coordinate, so x = nan gave
        # the x = inf value and lambda = nan the lambda = 0 value; u = inf ran
        # the continued fraction to its term limit
        with pytest.raises(ConfigurationError, match=f"{key}: every point must be (finite|other than NaN), got"):
            self._config(kind="transform", **{key: [1.0, value]}).validate()

    def test_x_point_at_infinity_validates(self):
        # x = +inf drops the max from the hybrid transform
        self._config(kind="transform", x_points=[math.inf, 1.0]).validate()

    def test_good_specs_validate(self):
        self._config(statistics=PLAN_SPECS + GREENWOOD_SPECS, p=0.5).validate()
        # only a simulate run reads the statistics, so another kind may list none
        for kind in ("limit", "diagnose"):
            self._config(kind=kind, statistics=[]).validate()

    def test_bench_workload_configs_validate(self, monkeypatch):
        workloads = _bench_workloads(monkeypatch)
        for name in workloads.WORKLOADS:
            for seed in (1, 7):
                for cfg in workloads.build(name, seed).configs:
                    ExperimentConfig.from_dict(cfg).validate()


class TestParallel:
    def test_serial_parallel_bit_equality(self, ar1_pos_half, forced_pool):
        specs = [{"name": "ratio_max"}, {"name": "studentized", "p": 2.0}]
        a = simulate_statistics(ar1_pos_half, 2000, 64, specs, seed=7, workers=1)
        b = simulate_statistics(ar1_pos_half, 2000, 64, specs, seed=7, workers=3)
        for key in a:
            assert np.array_equal(a[key], b[key])

    def test_lepage_parallel_equality(self, forced_pool):
        cluster = {"kind": "iid", "alpha": 0.5, "q_plus": 1.0, "q_minus": 0.0}
        from selfnorm.experiments import sample_limit_batch_parallel

        c = cluster_from_dict(cluster)
        a = sample_limit_batch_parallel(c, 2.0, reps=40, n_terms=200, seed=8, workers=1)
        b = sample_limit_batch_parallel(c, 2.0, reps=40, n_terms=200, seed=8, workers=4)
        for key in a:
            assert np.array_equal(a[key], b[key])

    @pytest.mark.parametrize("reps", [0, -1])
    def test_lepage_reps_domain(self, reps):
        from selfnorm.experiments import sample_limit_batch_parallel

        c = cluster_from_dict({"kind": "iid", "alpha": 0.5, "q_plus": 1.0, "q_minus": 0.0})
        with pytest.raises(ConfigurationError, match="reps must be >= 1"):
            sample_limit_batch_parallel(c, 2.0, reps=reps, n_terms=100, seed=8, workers=2)

    def test_custom_sre_law(self):
        # a custom law has no config dict: its blocks get the model itself.
        # Its sampler makes the bench law's draws from the replica stream, so
        # the statistics are the bench law's, bit for bit
        def sampler(rng, size):
            return np.exp(-0.4 + rng.standard_normal(size)), np.ones(size)

        custom = sre_model(SRELaw(alpha=0.8, kind="custom", sampler=sampler), burn_in=200, kesten_check=False)
        bench = sre_model(SRELaw(alpha=0.8, sigma=1.0, b_mean=1.0, b_sd=0.0), burn_in=200)
        specs = [{"name": "ratio_max"}, {"name": "greenwood", "p": 2.0}]
        got = simulate_statistics(custom, 300, 5, specs, seed=3, workers=1)
        want = simulate_statistics(bench, 300, 5, specs, seed=3, workers=1)
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    def test_batch_matches_library_sampler(self):
        from selfnorm.clusters import iid_cluster

        c = iid_cluster(0.5, (1.0, 0.0))
        a = sample_limit_lepage_batch(c, 0.5, 2.0, reps=5, n_terms=100, seed=9)
        from selfnorm.experiments import sample_limit_batch_parallel

        b = sample_limit_batch_parallel(c, 2.0, reps=5, n_terms=100, seed=9, workers=1)
        assert np.array_equal(a["xi"], b["xi"])


class TestEmpiricalWorkers:
    """An empirical cluster gives the same run at any worker count, its library
    is built once per process, and pool workers never build one."""

    CLUSTER = {"kind": "empirical", "source": AR1_POS_HALF, "sample_length": 200_000, "library_seed": 2}

    @pytest.fixture
    def builds(self, monkeypatch):
        # libraries built before the count starts, or with the counting build, stay out of the memo
        clusters._shared_library.cache_clear()
        driver = os.getpid()
        calls = []
        build = clusters._BlockLibrary.build.__func__

        def guarded(cls, model):
            if os.getpid() != driver:
                raise AssertionError("a pool worker built an empirical library")
            calls.append(model)
            return build(cls, model)

        monkeypatch.setattr(clusters._BlockLibrary, "build", classmethod(guarded))
        yield calls
        clusters._shared_library.cache_clear()

    @staticmethod
    def _run(cfg: dict, workers: int, out) -> tuple[dict, dict]:
        run_experiment(ExperimentConfig.from_dict(cfg), out_dir=out, workers=workers)
        root = out / cfg["name"]
        report = json.loads((root / "report.json").read_text())
        for timing in ("wall_time_s", "workers"):
            report["metadata"].pop(timing)
        files = {f.name: f.read_bytes() for f in sorted(root.iterdir()) if f.name != "report.json"}
        return report, files

    @pytest.mark.parametrize("cfg", [
        dict(kind="limit", name="emp-limit", cluster=CLUSTER, reps=40, n_terms=300, p=2.0, seed=3),
        dict(kind="verify", name="emp-verify", model=AR1_POS_HALF, cluster=CLUSTER, n=1000, reps=300,
             p=2.0, checks=["extremal_index", "lepage_laplace"], n_terms=200, seed=4),
    ], ids=["limit", "verify"])
    def test_worker_count_invariance(self, cfg, tmp_path, builds, forced_pool):
        one = self._run(cfg, 1, tmp_path / "one")
        two = self._run(cfg, 2, tmp_path / "two")
        assert len(builds) == 1
        assert one == two

    def test_equal_clusters_build_once_per_process(self, tmp_path, builds):
        cfg = dict(kind="limit", name="emp-limit", cluster=self.CLUSTER, reps=20, n_terms=100, p=2.0, seed=3)
        self._run(cfg, 1, tmp_path / "a")
        self._run({**cfg, "seed": 4}, 1, tmp_path / "b")
        assert len(builds) == 1
        self._run({**cfg, "cluster": {**self.CLUSTER, "library_seed": 3}}, 1, tmp_path / "c")
        assert len(builds) == 2

    def test_bench_pass_rebuilds_after_clear_caches(self, tmp_path, builds, monkeypatch):
        workloads = _bench_workloads(monkeypatch)
        cfg = dict(kind="limit", name="emp-limit", cluster=self.CLUSTER, reps=20, n_terms=100, p=2.0, seed=3)
        first = self._run(cfg, 1, tmp_path / "a")
        workloads.clear_caches()
        assert self._run(cfg, 1, tmp_path / "b") == first
        assert len(builds) == 2

    def test_overlapped_verify_any_worker_count(self, tmp_path, builds, forced_pool):
        # path blocks and series blocks queue on one pool while the driver
        # builds the SRE-sourced library for the oracles
        cluster = {"kind": "empirical", "source": SRE_POS, "sample_length": 200_000, "library_seed": 3}
        cfg = dict(kind="verify", name="overlap", model=SRE_POS, cluster=cluster, n=1000, reps=80, p=2.0,
                   checks=["greenwood", "ratio_max", "ratio_student", "lepage_laplace", "kurtosis"],
                   centering="empirical", n_terms=100, seed=6)
        one, two, three = (self._run(cfg, w, tmp_path / str(w)) for w in (1, 2, 3))
        assert len(builds) == 1
        assert one == two == three

    def test_shipped_cluster_draws_without_blocks(self, builds):
        c = cluster_from_dict(self.CLUSTER)
        want = clusters.cluster_functionals(c, 3000, 2.0, seed=5)
        shipped = pickle.loads(pickle.dumps(c.table_only((2.0,))))
        assert shipped._library.segments is None
        got = clusters.cluster_functionals(shipped, 3000, 2.0, seed=5)
        assert len(builds) == 1
        assert all(np.array_equal(want[k], got[k]) for k in want)


def _pid(start, stop):
    return np.array([os.getpid()])


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of every process pool executor made, in order."""
    import concurrent.futures

    made = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return made


@pytest.mark.usefixtures("forced_pool")
class TestOnePool:
    """A run holds one pool: a verify run queues its path blocks and its series
    blocks on the same executor, a diagnose run the blocks of its three
    diagnostics, and each shuts it down, after an error too. Every submit is
    forced onto the pool, however small."""

    CFG = dict(kind="verify", name="one-pool", model=AR1_POS_HALF, n=4000, reps=200, p=2.0,
               checks=["greenwood", "ratio_max", "kurtosis", "lepage_laplace"], n_terms=200, seed=3)
    DIAGNOSE = dict(kind="diagnose", name="one-pool-diagnose", model=AR1_POS_HALF, n=2000, reps=200, seed=3)

    def test_verify_starts_one_pool(self, pools):
        report = run_experiment(ExperimentConfig.from_dict(self.CFG), workers=2)
        assert [r.name for r in report.rows][-1] == "lepage_laplace_lam2"
        assert pools == [2]

    def test_one_worker_starts_no_pool(self, pools):
        run_experiment(ExperimentConfig.from_dict(self.CFG), workers=1)
        assert pools == []

    def test_failed_oracle_leaves_no_worker(self, monkeypatch, pools):
        import multiprocessing

        from selfnorm import oracles

        # the first check's oracle raises while the workers still hold path
        # and series blocks
        failure = RuntimeError("oracle failed")

        def failing(*args, **kwargs):
            raise failure

        monkeypatch.setattr(oracles, "expected_greenwood", failing)
        with pytest.raises(RuntimeError) as raised:
            run_experiment(ExperimentConfig.from_dict(self.CFG), workers=2)
        assert raised.value is failure
        assert pools == [2]
        assert multiprocessing.active_children() == []

    def test_diagnose_starts_one_pool(self, pools):
        report = run_experiment(ExperimentConfig.from_dict(self.DIAGNOSE), workers=2)
        assert [r.name for r in report.rows] == ["scale_constant_a_n", "coupling_decay_slope",
                                                 "coupled_anticluster_slope", "anticluster_stat_k1"]
        assert pools == [2]

    def test_failed_diagnose_block_leaves_no_worker(self, monkeypatch, pools):
        import multiprocessing

        from selfnorm import diagnostics

        # every anticluster block raises in its worker, with the coupled
        # diagnostics' blocks queued behind them
        def failing(*args, **kwargs):
            raise RuntimeError("block failed", os.getpid())

        monkeypatch.setattr(diagnostics, "_simulate_rows", failing)
        with pytest.raises(RuntimeError) as raised:
            run_experiment(ExperimentConfig.from_dict(self.DIAGNOSE), workers=2)
        message, pid = raised.value.args
        assert type(raised.value) is RuntimeError and message == "block failed" and pid != os.getpid()
        assert pools == [2]
        assert multiprocessing.active_children() == []

    def test_one_task_runs_in_a_worker(self):
        # at one worker a task runs in this process; at more, in a worker, alone in its submit too
        for workers in (1, 2):
            with Pool(workers) as pool:
                (pid,) = pool.submit(_pid, 1, 1).result()
            assert (pid == os.getpid()) == (workers == 1)


class TestSmallSubmits:
    """A submit that holds too little work to repay a worker runs in the
    driver at any worker count, and gives what the pool gives."""

    # (reps, values per replica) of submits; the burn-ins are 57 steps for the
    # benchmark AR(1) model and 580 for the benchmark SRE model
    IN_DRIVER = {
        "empirical-limits verify series": (4000, 200),
        "empirical-limits limit series": (200, 2000),
        "ar1-paths diagnose anticluster": (2000, 40 + 57),
        "ar1-paths diagnose coupling": (2000, 30 + 2 * 57),
        "ar1-paths diagnose coupled anticluster": (2000, 40 + 2 * 57),
        "sre diagnose anticluster": (20, 40 + 580),
        "sre diagnose coupling": (20, 30 + 2 * 580),
        "sre diagnose coupled anticluster": (20, 40 + 2 * 580),
        "diagnose_ar1 anticluster": (3000, 101 + 57),
        "diagnose_ar1 coupling": (3000, 30 + 2 * 57),
        "diagnose_ar1 coupled anticluster": (3000, 101 + 2 * 57),
    }
    IN_POOL = {
        "ar1-paths paths": (2000, 10_000 + 57),
        "ar1-paths series": (2000, 2000),
        "sre paths": (500, 10_000 + 580),
        "limit_iid series": (5000, 4000),
        "simulate_ar1 paths": (500, 100_000 + 57),
        "verify_ar1 paths": (3000, 100_000 + 57),
        "verify_iid paths": (2000, 100_000),
        "verify_iid series": (2000, 2000),
        # 100 terms hold little work per replica, 20,000 replicas a lot
        "empirical series 20,000 x 100": (20_000, 100),
    }

    def test_burn_ins_of_the_table(self):
        assert model_from_dict(AR1_POS_HALF).burn_in == 57
        assert model_from_dict(SRE_POS).burn_in == 580

    def test_classification(self):
        from selfnorm._pool import repays_pool

        assert {name for name, size in self.IN_DRIVER.items() if repays_pool(*size)} == set()
        assert {name for name, size in self.IN_POOL.items() if not repays_pool(*size)} == set()

    def test_small_submit_runs_in_the_driver(self, pools):
        with Pool(2) as pool:
            (pid,) = pool.submit(_pid, 4000, 200).result()
        assert pid == os.getpid() and pools == []

    @pytest.mark.parametrize("cfg", [
        dict(kind="verify", name="emp-verify", model=AR1_POS_HALF, cluster=TestEmpiricalWorkers.CLUSTER, n=1000,
             reps=4000, p=2.0, checks=["extremal_index", "lepage_laplace", "self_decomposition"], n_terms=200,
             cluster_mc=1000, seed=5),
        dict(kind="limit", name="emp-limit", cluster=TestEmpiricalWorkers.CLUSTER, reps=200, n_terms=2000, p=2.0,
             seed=6),
    ], ids=["verify", "limit"])
    def test_empirical_limits_sizes_fork_no_process(self, cfg, tmp_path, pools, monkeypatch):
        from selfnorm import _pool

        # the benchmark's empirical-limits sizes, at two workers
        driver = TestEmpiricalWorkers._run(cfg, 2, tmp_path / "driver")
        assert pools == []
        monkeypatch.setattr(_pool, "_POOL_VALUES", 0)
        assert TestEmpiricalWorkers._run(cfg, 2, tmp_path / "pool") == driver
        assert pools == [2]


class TestRunExperiment:
    def test_verify_greenwood_passes(self):
        report = run_experiment(small_verify_config())
        assert report.all_passed
        row = report.rows[0]
        assert row.analytic == pytest.approx(0.5, rel=1e-12)
        assert abs(row.z) <= 3.0

    def test_reports_are_deterministic(self, tmp_path):
        cfg = small_verify_config(out=None)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(cfg, out_dir=out_a)
        run_experiment(cfg, out_dir=out_b)
        csv_a = (out_a / cfg.name / "verify.csv").read_bytes()
        csv_b = (out_b / cfg.name / "verify.csv").read_bytes()
        assert csv_a == csv_b
        ja = json.loads((out_a / cfg.name / "report.json").read_text())
        jb = json.loads((out_b / cfg.name / "report.json").read_text())
        ja["metadata"].pop("wall_time_s")
        jb["metadata"].pop("wall_time_s")
        assert ja == jb

    def test_simulate_writes_statistics_csv(self, tmp_path):
        cfg = ExperimentConfig.from_dict(dict(
            kind="simulate", name="sim", model=IID_POS_HALF, n=500, reps=50, seed=1,
            statistics=[{"name": "ratio_max"}, {"name": "gamma", "p": 2.0}],
        ))
        report = run_experiment(cfg, out_dir=tmp_path)
        assert report.all_passed
        text = (tmp_path / "sim" / "statistics.csv").read_text()
        assert text.startswith("replica,n,statistic,p,value")
        assert text.count("ratio_max") == 50

    def test_statistics_csv_holds_resolved_p(self, tmp_path):
        # a default p is written as used, a statistic without p gets an empty
        # cell, and the first column counts replicas
        cfg = ExperimentConfig.from_dict(dict(
            kind="simulate", name="sim", model=IID_POS_HALF, n=200, reps=3, seed=1,
            statistics=[{"name": "studentized"}, {"name": "norm_ratio", "q": 4.0, "r": 0.5},
                        {"name": "kurtosis"}],
        ))
        run_experiment(cfg, out_dir=tmp_path)
        lines = (tmp_path / "sim" / "statistics.csv").read_text().splitlines()
        assert lines[0] == "replica,n,statistic,p,value"
        cells = [line.split(",")[:4] for line in lines[1:]]
        assert cells == ([[str(i), "200", "studentized_p2", "2"] for i in range(3)]
                         + [[str(i), "200", "norm_ratio_4_0.5", ""] for i in range(3)]
                         + [[str(i), "200", "kurtosis", ""] for i in range(3)])

    def test_limit_experiment(self, tmp_path):
        cfg = ExperimentConfig.from_dict(dict(
            kind="limit", name="lim", cluster={"kind": "iid", "alpha": 0.5, "q_plus": 1.0, "q_minus": 0.0},
            reps=30, n_terms=100, p=2.0, seed=2,
        ))
        report = run_experiment(cfg, out_dir=tmp_path)
        assert report.all_passed
        lines = (tmp_path / "lim" / "limit_samples.csv").read_text().strip().split("\n")
        assert len(lines) == 31

    def test_transform_experiment(self, tmp_path):
        cfg = ExperimentConfig.from_dict(dict(
            kind="transform", name="tr", transform="hybrid_cf",
            cluster={"kind": "ar1_analytic", "alpha": 0.5, "phi": 0.5, "q_plus": 1.0, "q_minus": 0.0},
            u_points=[0.5, 1.0], x_points=[1.0, 1.0], seed=3,
        ))
        report = run_experiment(cfg, out_dir=tmp_path)
        assert report.all_passed
        text = (tmp_path / "tr" / "transform.csv").read_text()
        assert text.startswith("u,x,lambda,re,im,stderr,method")

    def test_diagnose_experiment(self, tmp_path):
        cfg = ExperimentConfig.from_dict(dict(
            kind="diagnose", name="diag",
            model={"kind": "ar1", "phi": 0.5,
                   "noise": {"kind": "pareto", "alpha": 0.5, "q_plus": 1.0, "q_minus": 0.0}},
            n=10_000, reps=800, seed=4,
        ))
        report = run_experiment(cfg, out_dir=tmp_path)
        assert report.all_passed
        assert (tmp_path / "diag" / "coupling_decay.csv").exists()

    def test_verify_many_checks(self):
        cfg = ExperimentConfig.from_dict(dict(
            kind="verify", name="multi", model=IID_POS_HALF, n=20_000, reps=300,
            p=2.0, seed=6,
            checks=["ratio_max", "gamma_identity", "extremal_index", "lepage_laplace", "self_decomposition"],
            n_terms=500,
        ))
        report = run_experiment(cfg)
        assert report.all_passed, [r for r in report.rows if not r.passed]

    def test_lepage_laplace_reads_one_cluster_moment(self, monkeypatch):
        # three lambdas, one atom table: the check computes the cluster moment once
        from selfnorm import limits

        calls = []
        atoms = clusters.cluster_atoms

        def counted(*args, **kwargs):
            calls.append(args)
            return atoms(*args, **kwargs)

        monkeypatch.setattr(clusters, "cluster_atoms", counted)
        monkeypatch.setattr(limits, "cluster_atoms", counted)
        cfg = ExperimentConfig.from_dict(dict(kind="verify", name="ll", model=IID_POS_HALF, n=100, reps=50,
                                              p=2.0, checks=["lepage_laplace"], n_terms=100, seed=3))
        rows = run_experiment(cfg).rows
        assert [r.name for r in rows] == ["lepage_laplace_lam0.5", "lepage_laplace_lam1", "lepage_laplace_lam2"]
        assert len(calls) == 1

    def test_laplace_checks_make_one_transform_call(self, monkeypatch):
        # every lambda of lepage_laplace in one laplace_zeta call, both points
        # of self_decomposition in one joint_cf_laplace call
        from selfnorm import limits

        calls = []
        for name in ("laplace_zeta", "joint_cf_laplace"):
            def counted(*args, _call=getattr(limits, name), _name=name, **kwargs):
                calls.append(_name)
                return _call(*args, **kwargs)

            monkeypatch.setattr(limits, name, counted)
        cfg = ExperimentConfig.from_dict(dict(kind="verify", name="ll", model=IID_POS_HALF, n=100, reps=50, p=2.0,
                                              checks=["lepage_laplace", "self_decomposition"], n_terms=100, seed=3))
        rows = run_experiment(cfg).rows
        assert [r.name for r in rows][-1] == "self_decomposition" and rows[-1].passed
        assert sorted(calls) == ["joint_cf_laplace", "laplace_zeta"]

    def test_gamma_identity_rows_count_quad_warnings(self, warning_quad):
        cfg = ExperimentConfig.from_dict(dict(kind="verify", name="gi", model=IID_POS_HALF, n=100, reps=10,
                                              p=2.0, checks=["gamma_identity"], x_points=[0.5, 4.0]))
        rows = run_experiment(cfg).rows
        assert [r.name for r in rows] == ["gamma_identity_x0.5", "gamma_identity_x4"]
        assert all(r.passed and r.detail.endswith(" quad_warnings=1") for r in rows), rows

    def test_time_change_check(self):
        cfg = ExperimentConfig.from_dict(dict(
            kind="verify", name="tc",
            model={"kind": "ar1", "phi": 0.5, "noise": {"kind": "pareto", "alpha": 0.5}},
            cluster={"kind": "ar1_analytic", "alpha": 1.0, "phi": 0.5},
            n=100, reps=20_000, checks=["time_change"], seed=7,
        ))
        report = run_experiment(cfg)
        assert report.all_passed


class TestMcRow:
    """An oracle-versus-Monte-Carlo report row: z is the difference over the
    combined stderr, and exact agreement decides when that stderr vanishes."""

    def test_z_score(self):
        row = _mc_row("x", Estimate(1.0, 0.0), 1.3, 0.1, z_bound=4.0)
        assert (row.name, row.analytic, row.mc, row.stderr) == ("x", 1.0, 1.3, 0.1)
        assert row.z == pytest.approx(3.0) and row.passed
        assert not _mc_row("x", Estimate(1.0, 0.0), 1.3, 0.1, z_bound=2.0).passed
        combined = _mc_row("x", Estimate(2.0, 0.3), 1.0, 0.4, z_bound=4.0)
        assert combined.stderr == pytest.approx(0.5) and combined.z == pytest.approx(-2.0)

    def test_exact_agreement_passes(self):
        row = _mc_row("x", Estimate(0.75, 0.0), 0.75 + 1e-12, 0.0, z_bound=4.0)
        assert row.stderr == 0.0 and row.z == 0.0 and row.passed

    def test_disagreement_fails(self):
        row = _mc_row("x", Estimate(0.75, 0.0), 0.7501, 0.0, z_bound=4.0)
        assert row.z == math.inf and not row.passed


class TestCompareToLimit:
    """The two-sample KS distance and its plain critical value."""

    def test_identical_samples_zero_distance(self):
        x = np.random.default_rng(1).standard_normal(2000)
        assert ks_distance(x, x.copy()) == 0.0

    def test_ks_matches_scipy(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(1500), rng.standard_normal(2500) + 0.1
        assert ks_distance(a, b) == pytest.approx(ks_2samp(a, b).statistic, rel=1e-12)

    def test_bound_formula(self):
        # c(0.01) = sqrt(-ln(0.005)/2) = 1.6276, times sqrt(2/n)
        got = ks_bound(5000, 5000, level=0.01)
        assert got == pytest.approx(math.sqrt(-math.log(0.005) / 2) * math.sqrt(2 / 5000), rel=1e-12)

    @pytest.mark.parametrize("a,b", [([], [1.0, 2.0]), ([1.0, 2.0], [])], ids=["first", "second"])
    def test_empty_sample_is_refused(self, a, b):
        with pytest.raises(ConfigurationError, match="non-empty"):
            ks_distance(np.array(a), np.array(b))

    @pytest.mark.parametrize("m,n", [(0, 10), (10, 0), (-1, 10)])
    def test_bound_refuses_empty_sizes(self, m, n):
        with pytest.raises(ConfigurationError, match="sample sizes"):
            ks_bound(m, n)

    @pytest.mark.parametrize("level", [0.0, 1.0, 2.0, -0.1])
    def test_bound_refuses_levels_outside_zero_one(self, level):
        with pytest.raises(ConfigurationError, match="level"):
            ks_bound(10, 10, level=level)

    def test_negative_control_mismatched_alpha(self, pareto_pos_half):
        # ratio samples at alpha = 0.5 vs series samples at alpha = 0.8: fail
        from selfnorm.clusters import iid_cluster

        arrays = simulate_statistics(pareto_pos_half, 20_000, 1500, [{"name": "ratio_max"}], seed=11)
        wrong = sample_limit_lepage_batch(iid_cluster(0.8, (1.0, 0.0)), 0.8, 2.0, reps=1500, n_terms=1000, seed=12)
        assert ks_distance(arrays["ratio_max"], wrong["xi"] / wrong["eta"]) > ks_bound(1500, 1500)


def _writer_cases():
    from selfnorm import diagnostics, limits, processes, stats
    from selfnorm.experiments import Report, ReportRow

    grid = limits.TransformGrid.from_points(u=[0.5, 1.0], x=[1.0])
    grid.values[:] = [1 + 2j, 3 - 4j]
    grid.stderr[:] = [0.1, 0.2]
    decay = diagnostics.DecaySeries(np.arange(1, 4), np.array([0.5, 0.25, 0.125]), np.array([0.01, 0.02, 0.03]),
                                    -0.69, 0.99)
    return {
        "TransformGrid.to_csv": grid.to_csv,
        "Report.rows_to_csv": Report([ReportRow("a", 1.0, None, 0.1, -0.3, True),
                                      ReportRow("b", None, 2.5, None, None, False)], {}).rows_to_csv,
        "stats_rows_to_csv": lambda t: stats.stats_rows_to_csv(
            [(0, 10, "ratio_max", None, 0.5), (1, 10, "greenwood_p2", 2.0, 0.25)], t),
        "DecaySeries.to_csv": decay.to_csv,
    }


class TestWriters:
    @pytest.mark.parametrize("name", sorted(_writer_cases()))
    def test_path_and_stream_give_the_same_text(self, name, tmp_path):
        write = _writer_cases()[name]
        buf = io.StringIO()
        write(buf)
        write(tmp_path / "out")
        assert buf.getvalue()
        assert (tmp_path / "out").read_text() == buf.getvalue()


class TestCLI:
    def test_cli_verify_pass(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(small_verify_config(n=10_000, reps=200).to_dict(), fh)
        code = cli_main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS greenwood_p2" in out
        assert (tmp_path / "out" / "greenwood-small" / "report.json").exists()

    def test_cli_seed_override_changes_hash(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(small_verify_config(n=5_000, reps=150).to_dict(), fh)
        assert cli_main(["verify", "--config", str(cfg_path), "--seed", "99"]) in (0, 1)

    def test_cli_bad_config_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump({"kind": "verify", "reps": 0, "checks": ["greenwood"]}, fh)
        code = cli_main(["verify", "--config", str(cfg_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_workers_env_override(self, monkeypatch):
        cfg = small_verify_config(workers=1)
        monkeypatch.setenv("SELFNORM_WORKERS", "2")
        assert cfg.resolved_workers() == 2
        assert cfg.resolved_workers(override=5) == 5
        monkeypatch.delenv("SELFNORM_WORKERS")
        assert cfg.resolved_workers() == 1

    def test_diagnose_without_kesten_tail_exit_2(self, tmp_path, capsys):
        law = {"kind": "constant", "alpha": 0.8, "a_const": 0.0}
        cfg = dict(kind="diagnose", name="no-tail", n=1000, reps=10,
                   model={"kind": "sre", "sre_law": law, "burn_in": 20, "kesten_check": False})
        cfg_path = tmp_path / "cfg.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(cfg, fh)
        assert cli_main(["diagnose", "--config", str(cfg_path)]) == 2
        assert "no Kesten tail" in capsys.readouterr().err

    def test_bad_workers_env_exit_2(self, tmp_path, monkeypatch, capsys):
        cfg_path = tmp_path / "cfg.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(small_verify_config(n=1000, reps=20).to_dict(), fh)
        monkeypatch.setenv("SELFNORM_WORKERS", "abc")
        assert cli_main(["verify", "--config", str(cfg_path)]) == 2
        assert "SELFNORM_WORKERS" in capsys.readouterr().err

"""The streaming path engine: time tiles against whole rows, streamed
statistics against a whole-row reduction, worker counts and the memory
bound; the atom draws against the ``searchsorted`` formula and, on a
uniform law, ``floor(u n)``.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from selfnorm import clusters, limits, processes
from selfnorm.clusters import ClusterAtoms
from selfnorm.errors import ConfigurationError
from selfnorm.experiments import _stats_block, simulate_statistics
from selfnorm.processes import (NoiseSpec, SRELaw, ar1_model, ar1_recursion, iid_model, sre_model, sre_recursion,
                                stationary_mean)
from selfnorm.rng import derive_seed, substream
from selfnorm.stats import _parse_spec, _ReductionPlan

BENCH_LAW = SRELaw(alpha=0.8, sigma=1.0, b_mean=1.0, b_sd=0.0)
MODELS = {
    "iid_pareto_pos": iid_model(NoiseSpec("pareto", 0.5, (1.0, 0.0))),
    "iid_pareto_neg": iid_model(NoiseSpec("pareto", 1.5, (0.0, 1.0))),
    "iid_pareto_two_sided": iid_model(NoiseSpec("pareto", 1.5, (0.3, 0.7))),
    "iid_stable": iid_model(NoiseSpec("symmetric_stable", 1.5)),
    "ar1_pos_phi": ar1_model(0.5, NoiseSpec("pareto", 1.5)),
    "ar1_neg_phi": ar1_model(-0.95, NoiseSpec("pareto", 0.8, (1.0, 0.0))),
    "sre_constant_b": sre_model(BENCH_LAW),
    # laws with more than one draw call, each on its own stream
    "sre_neg_prob": sre_model(SRELaw(alpha=0.8, sigma=1.0, neg_prob=0.3)),
    "sre_b_sd": sre_model(SRELaw(alpha=0.5, sigma=0.7, neg_prob=0.3, b_mean=0.5, b_sd=2.0)),
    "sre_constant_a": sre_model(SRELaw(alpha=0.9, kind="constant", a_const=0.5, b_sd=1.0),
                                kesten_check=False),
}


def _call_streams(seed, *path):
    """The stream of each draw call of the replica ``path``, built by
    ``substream``: call 0 reads ``(seed, *path)``, call k >= 1
    ``(derive_seed(seed, processes._CALL_TAG, k), *path)``."""
    return (substream(derive_seed(seed, processes._CALL_TAG, k) if k else seed, *path) for k in itertools.count())


def _whole_row(model, size, streams):
    """One path of ``size`` steps from zero, burn-in kept: each draw call of
    the model drawn whole from the next of ``streams``, then one recursion
    over the row."""
    law = model.sre_law if model.kind == "sre" else model.noise
    draws = [getattr(rng, call)(size) for rng, call in zip(streams, law.draw_calls)]
    if model.kind == "sre":
        return sre_recursion(*law._from_draws(draws, size))
    z = law._from_draws(draws)
    return z if model.kind == "iid" else ar1_recursion(model.phi, z)


def _whole_rows(model, n, seed, indices):
    """Each replica's stationary path as one whole row (:func:`_whole_row`
    on its call streams), burn-in dropped."""
    return np.stack([_whole_row(model, n + model.burn_in, _call_streams(seed, int(i)))[model.burn_in:]
                     for i in indices])


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("tile", [processes._TILE_STEPS, 100, 7])
def test_joined_tiles_equal_whole_rows(monkeypatch, name, tile):
    # 1501 + burn-in is a multiple of none of the tile lengths
    model, idx = MODELS[name], np.array([0, 3, 8, 300])
    assert (1501 + model.burn_in) % tile
    monkeypatch.setattr(processes, "_TILE_STEPS", tile)
    got, want = processes._simulate_rows(model, 1501, 6, idx), _whole_rows(model, 1501, 6, idx)
    assert np.array_equal(got, want)
    # a single path runs as one tile of its whole length
    for i, row in zip(idx, want):
        assert np.array_equal(processes.sample_path(model, 1501, 6, int(i)).values, row)


def test_row_groups_and_coupled_burn_in():
    # more rows than one group, and coupled start states from streamed burn-ins
    model, idx = MODELS["ar1_neg_phi"], np.arange(processes._TILE_ROWS + 5)
    assert np.array_equal(processes._simulate_rows(model, 50, 2, idx), _whole_rows(model, 50, 2, idx))
    x, xs, x0, x0s = processes._coupled_rows(model, 20, 2, idx[:3])
    for r, i in enumerate(idx[:3]):
        for k, start in ((1, x0), (2, x0s)):
            assert start[r] == _whole_row(model, model.burn_in, _call_streams(2, int(i), k))[-1]


def _engine_keys(model, seed, indices, *suffix):
    """The Philox key of every generator of a :class:`processes._TileDraws`,
    per draw call, as a list of ``(call, row, key)``."""
    draws = processes._TileDraws(model, 10, seed, indices, *suffix)
    try:
        return [(k, r, tuple(int(w) for w in gen.bit_generator.state["state"]["key"]))
                for k, gens in enumerate(draws.gens) for r, gen in enumerate(gens)]
    finally:
        draws.close()


def _seed_sequence_key(seed, *path):
    return tuple(int(w) for w in np.random.SeedSequence(entropy=seed, spawn_key=path).generate_state(2, np.uint64))


def test_draw_call_streams_are_disjoint():
    # three draw calls (log|A|, A's sign, B) on plain rows and on the three
    # coupled suffixes: call k's streams are numpy's SeedSequence keys under
    # derive_seed(seed, _CALL_TAG, k), and none of a later call's keys is a
    # key of call 0 on a plain or a coupled row of the same seed
    model, seed, idx = MODELS["sre_b_sd"], 7, np.array([0, 1, 2, 5, 300])
    assert len(model.sre_law.draw_calls) == 3
    first, later = set(), set()
    for suffix in ((), (0,), (1,), (2,)):
        for k, r, key in _engine_keys(model, seed, idx, *suffix):
            call_seed = derive_seed(seed, processes._CALL_TAG, k) if k else seed
            assert key == _seed_sequence_key(call_seed, int(idx[r]), *suffix), (suffix, k, r)
            (later if k else first).add(key)
    assert len(first) == 4 * len(idx) and len(later) == 8 * len(idx)
    assert not first & later


@pytest.mark.parametrize("spec", [NoiseSpec("pareto", 1.5, (0.3, 0.7)), NoiseSpec("symmetric_stable", 1.5)],
                         ids=["two-sided", "stable"])
def test_sample_noise_is_row_zero_of_an_iid_path(spec):
    got = processes.sample_noise(spec, 3000, 12)
    assert np.array_equal(got, processes._simulate_rows(iid_model(spec), 3000, 12, np.array([0]))[0])
    assert np.array_equal(got, _whole_row(iid_model(spec), 3000, _call_streams(12, 0)))


STATISTICS = [
    {"name": "ratio_max"}, {"name": "sum"}, {"name": "max_abs"}, {"name": "gamma", "p": 0.7},
    {"name": "gamma", "p": 4.0}, {"name": "studentized", "p": 2.0}, {"name": "studentized", "p": 1.0},
    {"name": "kurtosis"}, {"name": "norm_ratio"}, {"name": "norm_ratio", "q": 4.0, "r": 0.5},
]
GREENWOOD = [{"name": "greenwood", "p": 2.0}, {"name": "greenwood", "p": 1.5}]


def _gamma(a, p):
    m = a.max(axis=1)
    return m * np.sum((a / m[:, None]) ** p, axis=1) ** (1.0 / p)


def _reference_statistics(values, specs, center):
    """Every statistic of whole rows, written out: the centered set about
    ``center``, the raw set about 0. Also, per label, the scale of the
    rounding a sum carries (its l1 norm over its normaliser)."""
    v = values - center
    a, raw = np.abs(v), np.abs(values)
    total, l1 = v.sum(axis=1), a.sum(axis=1)
    out, scale = {}, {}
    for spec in specs:
        label, name, params = _parse_spec(spec)
        p = params.get("p")
        if name == "ratio_max":
            out[label], scale[label] = total / a.max(axis=1), l1 / a.max(axis=1)
        elif name == "sum":
            out[label], scale[label] = total, l1
        elif name == "max_abs":
            out[label] = a.max(axis=1)
        elif name == "gamma":
            out[label] = _gamma(a, p)
        elif name == "studentized":
            out[label], scale[label] = total / _gamma(a, p), l1 / _gamma(a, p)
        elif name == "greenwood":
            m = values.max(axis=1, keepdims=True)
            out[label] = np.sum((values / m) ** p, axis=1) / np.sum(values / m, axis=1) ** p
        elif name == "kurtosis":
            out[label] = (_gamma(raw, 4.0) / _gamma(raw, 2.0)) ** 4
        else:
            out[label] = _gamma(raw, params["q"]) / _gamma(raw, params["r"])
    return out, scale


@pytest.mark.parametrize("name", ["iid_pareto_pos", "iid_pareto_two_sided", "iid_stable", "ar1_pos_phi",
                                  "ar1_neg_phi", "sre_constant_b"])
@pytest.mark.parametrize("centering", ["none", "analytic", "empirical"])
def test_streamed_statistics_match_whole_rows(name, centering):
    model, n, reps = MODELS[name], 5000, 12
    if centering == "analytic" and model.alpha < 1.0:
        pytest.skip("analytic centering needs alpha > 1")
    positive = name in ("iid_pareto_pos", "sre_constant_b")
    specs = STATISTICS + (GREENWOOD if positive and model.alpha < 1.0 else [])
    got = simulate_statistics(model, n, reps, specs, centering, seed=4)
    values = processes._simulate_rows(model, n, 4, np.arange(reps))
    center = {"none": 0.0, "analytic": stationary_mean(model) if centering == "analytic" else 0.0,
              "empirical": values.mean(axis=1, keepdims=True)}[centering]
    want, scale = _reference_statistics(values, specs, center)
    assert list(got) == list(want)
    for label in want:
        bound = 1e-13 * (np.abs(want[label]) + scale.get(label, 0.0))
        assert np.all(np.abs(got[label] - want[label]) <= bound), label


def test_raw_statistics_ignore_the_centering():
    # kurtosis and norm_ratio are taken about 0 under every centering, and
    # greenwood reads the uncentered, strictly positive paths
    model = ar1_model(0.5, NoiseSpec("pareto", 1.5))
    specs = [{"name": "kurtosis"}, {"name": "norm_ratio", "q": 4.0, "r": 0.5}]
    runs = [simulate_statistics(model, 500, 4, specs, c, seed=3) for c in ("none", "analytic", "empirical")]
    for run in runs[1:]:
        for label in run:
            assert np.array_equal(run[label], runs[0][label]), label
    positive = ar1_model(0.5, NoiseSpec("pareto", 0.5, (1.0, 0.0)))
    specs = [{"name": "greenwood", "p": 2.0}, {"name": "sum"}]
    none = simulate_statistics(positive, 500, 4, specs, "none", seed=3)
    empirical = simulate_statistics(positive, 500, 4, specs, "empirical", seed=3)
    assert np.array_equal(empirical["greenwood_p2"], none["greenwood_p2"])
    assert np.all(np.abs(empirical["sum"]) <= 1e-9 * np.abs(none["sum"]))


def test_greenwood_rejects_a_signed_tile():
    model = iid_model(NoiseSpec("pareto", 0.5, (0.5, 0.5)))
    with pytest.raises(ConfigurationError, match="strictly positive"):
        simulate_statistics(model, 3000, 4, GREENWOOD, seed=1)


@pytest.mark.parametrize("centering", ["none", "empirical"])
def test_any_worker_count(centering, forced_pool):
    # 600 replicas: groups of 256 rows split differently at 1, 2 and 3
    # workers; a two-sided AR(1), and SRE laws with one and three draw calls
    for name in ("ar1_pos_phi", "sre_constant_b", "sre_b_sd"):
        model = MODELS[name]
        specs = STATISTICS + (GREENWOOD if name == "sre_constant_b" and centering == "none" else [])
        one = simulate_statistics(model, 1100, 600, specs, centering, seed=9, workers=1)
        for workers in (2, 3):
            many = simulate_statistics(model, 1100, 600, specs, centering, seed=9, workers=workers)
            for label in one:
                assert np.array_equal(many[label], one[label]), (name, workers, label)


def _worker_peak(model, n, rows, plan):
    tracemalloc.start()
    try:
        _stats_block(0, rows, model, n, 5, plan, "none")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_worker_memory_does_not_grow_with_n():
    model = ar1_model(0.5, NoiseSpec("pareto", 0.5, (1.0, 0.0)))
    specs = [{"name": "greenwood", "p": 2.0}, {"name": "ratio_max"}, {"name": "studentized", "p": 2.0},
             {"name": "kurtosis"}]
    plan = _ReductionPlan.build(specs, model.alpha)
    _worker_peak(model, 2000, 64, plan)  # the generator pool and the kernel, once
    small, large = _worker_peak(model, 10_000, 64, plan), _worker_peak(model, 100_000, 64, plan)
    assert large <= 1.2 * small, (small, large)


def test_goldie_burn_in_streams():
    # tail_constant streams its 64 chains' burn-in through tiles and holds
    # only the 2000 kept steps and their B, so a 100,000-step burn-in (52 MB
    # per whole-row array) peaks below 16 MB; (c, se) are pinned bit for bit,
    # as a reference that draws each chain's log|A| and B normals as whole
    # rows from their two streams computes them
    model = sre_model(SRELaw(alpha=0.8, sigma=1.0, b_mean=1.0, b_sd=0.5), burn_in=100_000)
    tracemalloc.start()
    try:
        c, se = processes.tail_constant(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert (c.hex(), se.hex()) == ("0x1.de40486f322b0p+0", "0x1.231b1bfc6680ap-8")


def test_library_build_streams():
    # the default-size library of the benchmark AR(1) keeps its 64 chains
    # (15.3 MB) and adds a few MB on top while it finds its threshold and
    # anchors and fills its table: no temporary the size of the chains
    source = ar1_model(0.5, NoiseSpec("pareto", 0.5, (1.0, 0.0)))
    cluster = clusters.empirical_cluster(source, sample_length=2_000_000)
    tracemalloc.start()
    try:
        lib = clusters._BlockLibrary.build(cluster)
        lib.table((2.0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lib.n_anchors > 1000
    assert peak < lib.segments.nbytes + 4 * 2**20, (peak, lib.segments.nbytes)


# ---------------------------------------------------------------------------
# the series sampler's atom draws


class _Uniforms:
    """A stand-in generator whose ``random`` returns the given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, count):
        assert count == len(self.u)
        return self.u


def _atoms(weights):
    w = np.asarray(weights, dtype=float)
    one = np.ones(len(w))
    return ClusterAtoms(alpha=0.5, p=2.0, weights=w, sum_q=one, max_abs=one, norm_p_p=one, sum_abs=one,
                        exact=True)


@pytest.mark.parametrize("weights", [(0.5, 0.5), (0.3, 0.7), (0.9, 0.1), (1.0, 0.0), (0.0, 1.0),
                                     (0.2, 0.3, 0.5)])
def test_atom_draws_equal_searchsorted(weights):
    law = _atoms(weights)
    cdf = np.cumsum(law.weights)
    rng = np.random.default_rng(1)
    u = np.concatenate([rng.random(5000), cdf[:-1], np.nextafter(cdf[:-1], 0.0),
                        np.nextafter(cdf[:-1], 1.0), [0.0, np.nextafter(1.0, 0.0)]])
    u = u[(u >= 0.0) & (u < 1.0)]
    want = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    got = law.draw(len(u), _Uniforms(u))
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _uniform_atoms(n):
    # a zero-stride weight row: a uniform law's map reads only the number of atoms
    w = np.broadcast_to(1.0 / n, (n,))
    return ClusterAtoms(alpha=0.5, p=2.0, weights=w, sum_q=w, max_abs=w, norm_p_p=w, sum_abs=w, exact=False,
                        uniform=True)


@pytest.mark.parametrize("n", [1, 3, 1968, 2**31 + 1])
def test_uniform_atom_draws_are_floor(n):
    # rng.random gives u = g 2^-53: take the grid points at and next to each
    # k/n, with 0 and 1 - 2^-53
    first = {k: -(-k * 2**53 // n) for k in (1, 2, n // 2, n - 1) if 0 < k < n}
    g = sorted({0, 2**53 - 1} | {f + d for f in first.values() for d in (-1, 0, 1) if 0 <= f + d < 2**53})
    u = np.array(g, dtype=float) * 2.0**-53
    got = _uniform_atoms(n).draw(len(u), _Uniforms(u))
    assert got.dtype == np.intp and np.array_equal(got, np.floor(u * n))
    # the rounded product never reaches n, and moves an index by at most one
    # grid point: it is the exact floor, or one above it just below an integer
    exact = np.array([x * n >> 53 for x in g])
    assert got[-1] == n - 1 and np.all(np.diff(got) >= 0)
    assert np.all((got == exact) | ((got == exact + 1) & np.isin(np.array(g) + 1, list(first.values()))))
    assert all(got[g.index(f)] == k for k, f in first.items())


def test_sole_atom():
    assert _atoms((1.0, 0.0)).sole_atom == 0 and _atoms((0.0, 1.0)).sole_atom == 1
    assert _atoms((0.5, 0.5)).sole_atom is None and _atoms((0.999, 0.0)).sole_atom is None
    assert _uniform_atoms(1).sole_atom == 0 and _uniform_atoms(3).sole_atom is None


@pytest.mark.parametrize("tail_balance", [(1.0, 0.0), (0.0, 1.0)])
def test_series_sampler_skips_sole_atom_draws(monkeypatch, tail_balance):
    # one-signed clusters: the skipped draws were the last of each replica's
    # stream and all returned the sole atom, so nothing moves
    cluster = clusters.ar1_cluster(0.5, 0.5, tail_balance)
    skipped = limits.sample_limit_lepage_batch(cluster, 0.5, 2.0, reps=30, n_terms=400, seed=2)
    monkeypatch.setattr(ClusterAtoms, "sole_atom", property(lambda self: None))
    drawn = limits.sample_limit_lepage_batch(cluster, 0.5, 2.0, reps=30, n_terms=400, seed=2)
    for key in drawn:
        assert np.array_equal(skipped[key], drawn[key]), key

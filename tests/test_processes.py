import importlib.machinery
import itertools
import math
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from selfnorm import (
    ConfigurationError,
    ModelError,
    NoiseSpec,
    SRELaw,
    UnsupportedError,
    ar1_model,
    iid_model,
    normalizing_an,
    processes,
    sample_coupled_paths,
    sample_noise,
    sample_path,
    sre_model,
    stationary_mean,
)
from selfnorm.clusters import empirical_cluster, extremal_index
from selfnorm.processes import (
    _BURN_IN_EPS,
    _SRE_TILE,
    ProcessModel,
    _simulate_rows,
    ar1_recursion,
    model_from_dict,
    model_to_dict,
    pareto_quantile,
    sre_recursion,
    stable_tail_constant,
    tail_constant,
)
from selfnorm.rng import derive_seed, substream


def _call_streams(seed, *path):
    """The stream of each draw call of the replica ``path``, built by
    ``substream``: call 0 reads ``(seed, *path)``, call k >= 1
    ``(derive_seed(seed, processes._CALL_TAG, k), *path)``."""
    return (substream(derive_seed(seed, processes._CALL_TAG, k) if k else seed, *path) for k in itertools.count())


def _noise(spec, streams, size):
    """A row of noise, each draw call drawn whole from the next of ``streams``."""
    return spec._from_draws([getattr(rng, call)(size) for rng, call in zip(streams, spec.draw_calls)])


class TestNoise:
    def test_pareto_quantile_identity(self):
        # U = 0.25, alpha = 0.5 -> 0.25^(-2) = 16
        assert pareto_quantile(0.25, 0.5) == pytest.approx(16.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [2.0, 1.0, 0.0, -0.3, 2.5])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ConfigurationError):
            NoiseSpec("pareto", alpha)

    def test_tail_balance_domain(self):
        with pytest.raises(ConfigurationError):
            NoiseSpec("pareto", 0.5, (0.7, 0.7))
        with pytest.raises(ConfigurationError):
            NoiseSpec("pareto", 0.5, (-0.1, 1.1))

    def test_pareto_tail_frozen(self, within_se):
        # P(|Z| > 10) = 10^{-0.5} = 0.31622776601683794, exact sampler CDF
        z = sample_noise(NoiseSpec("pareto", 0.5), 10**6, seed=11)
        p_hat = np.mean(np.abs(z) > 10.0)
        se = math.sqrt(0.31622776601683794 * (1 - 0.31622776601683794) / 10**6)
        within_se(p_hat, 0.31622776601683794, se, k=3)

    def test_pareto_tail_grid(self, within_se):
        spec = NoiseSpec("pareto", 0.8)
        z = np.abs(sample_noise(spec, 10**6, seed=3))
        for zq in (2.0, 5.0, 10.0):
            p = zq**-0.8
            within_se(np.mean(z > zq), p, math.sqrt(p * (1 - p) / 10**6), k=4)

    def test_sign_balance(self, within_se):
        z = sample_noise(NoiseSpec("pareto", 0.5, (0.7, 0.3)), 10**5, seed=4)
        within_se(np.mean(z > 0), 0.7, math.sqrt(0.21 / 10**5), k=4)

    def test_stable_cf_matches(self, within_se):
        # standard symmetric alpha-stable: E cos(uZ) = exp(-|u|^alpha)
        alpha = 1.3
        z = sample_noise(NoiseSpec("symmetric_stable", alpha), 10**6, seed=5)
        for u in (0.5, 1.0):
            emp = np.cos(u * z)
            within_se(emp.mean(), math.exp(-(u**alpha)), emp.std(ddof=1) / 1000.0, k=4)

    def test_stable_tail(self):
        # P(|Z| > z) ~ C_alpha z^{-alpha}; the constant is asymptotic, so test
        # far out and allow a few percent of pre-asymptotic deficit
        alpha = 0.7
        z = np.abs(sample_noise(NoiseSpec("symmetric_stable", alpha), 2 * 10**6, seed=6))
        c = stable_tail_constant(alpha)
        for zq in (100.0, 300.0):
            ratio = np.mean(z > zq) / (c * zq**-alpha)
            assert 0.93 < ratio < 1.05

    def test_deterministic(self):
        spec = NoiseSpec("pareto", 0.5)
        a = sample_noise(spec, 1000, seed=7)
        b = sample_noise(spec, 1000, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_noise(spec, 1000, seed=8))


class TestPaths:
    def test_iid_path_equals_noise(self, pareto_pos_half):
        p = sample_path(pareto_pos_half, 50, seed=9)
        z = sample_noise(pareto_pos_half.noise, 50, seed=9)
        assert np.array_equal(p.values, z)

    def test_ar1_recursion_hook(self):
        # z = (1, 1, 1), phi = 0.5, x0 = 0 -> (1, 1.5, 1.75)
        assert np.allclose(ar1_recursion(0.5, np.ones(3)), [1.0, 1.5, 1.75])

    def test_ar1_recursion_with_state(self):
        # the engine runs a start of 2 and one of 0 over the same noise: the
        # paths differ by the start's decay 2 * 0.5^t
        model = ar1_model(0.5, NoiseSpec("pareto", 1.5))
        ((x, _),) = processes._path_tiles(model, 2, 3, np.arange(1), start=[[2.0], [0.0]])
        assert np.allclose(x[0] - x[1], [[1.0, 0.5]])

    def test_sre_recursion_hook(self):
        a = np.array([0.5, 0.5])
        b = np.array([1.0, 1.0])
        assert np.allclose(sre_recursion(a, b, x0=0.0), [1.0, 1.5])

    def test_sre_zero_a_equals_b(self):
        law = SRELaw(alpha=0.9, kind="constant", a_const=0.0)
        model = sre_model(law, burn_in=0, kesten_check=False)
        p = sample_path(model, 40, seed=10)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=10, spawn_key=(0,))))
        _, b = law.sample_ab(rng, 40)
        assert np.array_equal(p.values, b)

    def test_path_determinism_and_immutability(self, ar1_pos_half):
        p1 = sample_path(ar1_pos_half, 200, seed=12)
        p2 = sample_path(ar1_pos_half, 200, seed=12)
        assert np.array_equal(p1.values, p2.values)
        with pytest.raises(ValueError):
            p1.values[0] = 1.0

    def test_n_domain(self, pareto_pos_half):
        with pytest.raises(ConfigurationError):
            sample_path(pareto_pos_half, 0, seed=1)


def _lfilter_reference(phi, noise, x0=0.0):
    """The AR(1) recursion through ``scipy.signal.lfilter`` itself, plus the
    start's geometric decay: what ``ar1_recursion`` must equal bit for bit."""
    from scipy.signal import lfilter

    out = lfilter([1.0], [1.0, -phi], noise, axis=-1)
    x0 = np.asarray(x0, dtype=float)
    if x0.any():
        out = out + x0[..., None] * phi ** np.arange(1, noise.shape[-1] + 1)
    return out


AR1_KERNEL_PHIS = [-0.95, -0.5, 0.3, 0.5, 0.95]


class TestAR1Kernel:
    """``ar1_recursion`` calls lfilter's compiled kernel without importing
    ``scipy.signal``; its values are lfilter's, bit for bit."""

    @pytest.mark.parametrize("phi", AR1_KERNEL_PHIS)
    @pytest.mark.parametrize("shape", [(400,), (6, 300), (2, 3, 200)])
    def test_matches_lfilter(self, phi, shape):
        z = np.random.default_rng(31).standard_cauchy(shape)
        assert np.array_equal(ar1_recursion(phi, z), _lfilter_reference(phi, z))

    @pytest.mark.parametrize("phi", AR1_KERNEL_PHIS)
    def test_non_contiguous_noise(self, phi):
        base = np.random.default_rng(33).standard_cauchy((300, 8))
        for z in (base.T, base.T[::2, ::3], base[::-2, 1]):
            assert not z.flags.c_contiguous
            assert np.array_equal(ar1_recursion(phi, z), _lfilter_reference(phi, z))

    @pytest.mark.parametrize("phi", AR1_KERNEL_PHIS)
    @pytest.mark.parametrize("tile", [processes._TILE_STEPS, 100, 7])
    def test_start_decay_through_the_engine(self, monkeypatch, phi, tile):
        # a scalar start and one start per row, run by the path engine over
        # its own noise in tiles, equal lfilter plus the start's decay
        model, idx, n = ar1_model(phi, NoiseSpec("pareto", 1.5), burn_in=0), np.arange(6), 1100
        z = np.stack([_noise(model.noise, _call_streams(31, int(i)), n) for i in idx])
        starts = np.stack([np.full(6, 1.7), np.random.default_rng(32).standard_normal(6)])
        monkeypatch.setattr(processes, "_TILE_STEPS", tile)
        got = np.empty((2, 6, n))
        processes._join(processes._path_tiles(model, n, 31, idx, start=starts), got)
        assert np.array_equal(got, _lfilter_reference(phi, z, starts))

    def test_later_scipy_signal_import(self):
        # in a fresh interpreter: the kernel runs without scipy.signal, which
        # still imports afterwards, with an lfilter that agrees
        code = """
            import sys
            import numpy as np
            from selfnorm import processes
            z = np.random.default_rng(34).standard_cauchy((5, 400))
            before = processes.ar1_recursion(-0.8, z)
            assert processes._LINEAR_FILTER is not None and 'scipy.signal' not in sys.modules
            import scipy.signal
            assert np.array_equal(before, scipy.signal.lfilter([1.0], [1.0, 0.8], z))
            assert np.array_equal(scipy.signal._sigtools._linear_filter(
                np.array([1.0]), np.array([1.0, 0.8]), z, -1), before)
            assert np.array_equal(processes.ar1_recursion(-0.8, z), before)
        """
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, check=True, timeout=120)


class TestGammaUfuncs:
    """gamma, gammainc and gammaln come from scipy.special's extension module,
    loaded without running scipy/special/__init__.py: the same ufunc objects."""

    @pytest.mark.parametrize("special_first", [False, True], ids=["special_after", "special_before"])
    def test_same_ufuncs_as_scipy_special(self, special_first):
        # in a fresh interpreter, with scipy.special imported after selfnorm or before it
        code = f"""
            import sys
            import numpy as np
            if {special_first}:
                import scipy.special
            from selfnorm import limits, oracles, processes
            assert ('scipy.special' in sys.modules) == {special_first}
            import scipy.special
            x = np.array([0.3, 1.5, 4.0, 7.25, 40.0])
            for ours, theirs in ((processes.gamma_fn, scipy.special.gamma), (processes.gammaln, scipy.special.gammaln)):
                assert ours is theirs
                assert np.array_equal(ours(x), theirs(x))
            assert processes.gammainc is scipy.special.gammainc
            assert np.array_equal(processes.gammainc(0.5, x), scipy.special.gammainc(0.5, x))
            assert limits.gamma_fn is oracles.gamma_fn is scipy.special.gamma
            assert limits.gammainc is scipy.special.gammainc and limits.gammaln is scipy.special.gammaln
        """
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, check=True, timeout=120)

    @pytest.mark.parametrize("missing", ["module", "name"])
    def test_fallback_gives_the_same_ufuncs(self, monkeypatch, missing):
        import scipy.special

        name = "scipy.special._special_ufuncs"
        if missing == "module":
            # the extension is not loaded and its file is not found
            monkeypatch.delitem(sys.modules, name, raising=False)
            find = importlib.machinery.PathFinder.find_spec
            monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", classmethod(
                lambda cls, fullname, path=None, target=None: None if fullname == name else find(fullname, path, target)))
            assert processes._scipy_extension(name) is None
        else:
            # an extension without gammaln
            monkeypatch.setattr(processes, "_scipy_extension", lambda _: types.SimpleNamespace(gamma=None, gammainc=None))
        got = processes._gamma_ufuncs()
        assert got[0] is scipy.special.gamma and got[1] is scipy.special.gammainc and got[2] is scipy.special.gammaln
        assert got == (processes.gamma_fn, processes.gammainc, processes.gammaln)


class TestCoupled:
    def test_iid_unsupported(self, pareto_pos_half):
        with pytest.raises(UnsupportedError):
            sample_coupled_paths(pareto_pos_half, 10, seed=1)

    def test_ar1_identity(self, ar1_pos_half):
        # X_t - X*_t = phi^t (X_0 - X*_0), exactly per path
        x, xs = sample_coupled_paths(ar1_pos_half, 50, seed=13)
        t = np.arange(1, 51)
        expected = 0.5**t * (x.initial - xs.initial)
        assert np.allclose(x.values - xs.values, expected, rtol=1e-10, atol=1e-12)

    def test_sre_constant_identity(self):
        law = SRELaw(alpha=0.9, kind="constant", a_const=0.25)
        model = sre_model(law, burn_in=50, kesten_check=False)
        x, xs = sample_coupled_paths(model, 30, seed=14)
        t = np.arange(1, 31)
        expected = 0.25**t * (x.initial - xs.initial)
        assert np.allclose(x.values - xs.values, expected, rtol=1e-9, atol=1e-14)

    def test_marginal_distribution_equality(self, ar1_pos_half):
        # KS between the two coupled marginals below the 1% two-sample critical value
        from selfnorm.processes import _coupled_rows

        x, xs, _, _ = _coupled_rows(ar1_pos_half, 1, 21, np.arange(10**4))
        stat = ks_2samp(x[:, 0], xs[:, 0]).statistic
        crit = 1.628 * math.sqrt(2.0 / 10**4)
        assert stat < crit


def _coupled_rows_per_replica(model, n, seed, indices):
    """The coupled SRE rows one replica at a time, each draw call from its
    own stream, as scalar recursions: the reference the batched
    ``_coupled_rows`` must reproduce bit for bit."""
    law, burn = model.sre_law, model.burn_in
    x, xs = np.empty((len(indices), n)), np.empty((len(indices), n))
    x0, x0s = np.empty(len(indices)), np.empty(len(indices))
    for r, idx in enumerate(indices):
        aa, ba = _sample_ab_reference(law, _call_streams(seed, int(idx), 1), burn)
        ab, bb = _sample_ab_reference(law, _call_streams(seed, int(idx), 2), burn)
        a, b = _sample_ab_reference(law, _call_streams(seed, int(idx), 0), n)
        x0[r] = sre_recursion(aa, ba)[-1] if burn else 0.0
        x0s[r] = sre_recursion(ab, bb)[-1] if burn else 0.0
        x[r] = sre_recursion(a, b, x0=x0[r])
        xs[r] = sre_recursion(a, b, x0=x0s[r])
    return x, xs, x0, x0s


def _ar1_coupled_rows_per_replica(model, n, seed, indices):
    """The coupled AR(1) rows one replica at a time, each window a one-row
    ``lfilter`` plus its start's decay: the reference the batched
    ``_coupled_rows`` must reproduce bit for bit."""
    burn = model.burn_in
    x, xs = np.empty((len(indices), n)), np.empty((len(indices), n))
    x0, x0s = np.empty(len(indices)), np.empty(len(indices))
    for r, idx in enumerate(indices):
        za = _noise(model.noise, _call_streams(seed, int(idx), 1), burn)
        zb = _noise(model.noise, _call_streams(seed, int(idx), 2), burn)
        z = _noise(model.noise, _call_streams(seed, int(idx), 0), n)
        s_a = ar1_recursion(model.phi, za)[-1] if burn else 0.0
        s_b = ar1_recursion(model.phi, zb)[-1] if burn else 0.0
        x[r] = _lfilter_reference(model.phi, z, s_a)
        xs[r] = _lfilter_reference(model.phi, z, s_b)
        x0[r], x0s[r] = s_a, s_b
    return x, xs, x0, x0s


class TestCoupledRowsBatched:
    @pytest.mark.parametrize("law, burn_in, first", [
        (SRELaw(alpha=0.8, sigma=1.0, b_mean=1.0, b_sd=0.5), 300, 0),
        (SRELaw(alpha=0.8, sigma=1.0, b_mean=1.0, b_sd=0.5), 0, 0),
        (SRELaw(alpha=1.2, sigma=0.7, neg_prob=0.3), 150, 11),
        (SRELaw(alpha=1.2, sigma=0.7, neg_prob=0.3), 0, 5),
    ], ids=["burn", "no-burn", "neg-burn-offset", "neg-no-burn-offset"])
    def test_equals_per_replica_loop(self, law, burn_in, first):
        from selfnorm.processes import _coupled_rows

        model = sre_model(law, burn_in=burn_in)
        indices = np.arange(first, first + 13)
        got = _coupled_rows(model, 37, 8, indices)
        want = _coupled_rows_per_replica(model, 37, 8, indices)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("model", [
        ar1_model(0.5, NoiseSpec("pareto", 0.5, (1.0, 0.0))),
        ar1_model(-0.8, NoiseSpec("pareto", 1.5), burn_in=50),
        ar1_model(-0.8, NoiseSpec("pareto", 1.5), burn_in=0),
    ], ids=["positive-default-burn", "two-sided-burn50", "two-sided-no-burn"])
    def test_ar1_equals_per_replica_loop(self, model):
        from selfnorm.processes import _coupled_rows

        indices = np.arange(4, 4 + 13)
        got = _coupled_rows(model, 37, 8, indices)
        want = _ar1_coupled_rows_per_replica(model, 37, 8, indices)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("tile", [100, 7])
    @pytest.mark.parametrize("model, reference", [
        (sre_model(SRELaw(alpha=0.8, sigma=1.0, b_mean=1.0, b_sd=0.5), burn_in=300), _coupled_rows_per_replica),
        (sre_model(SRELaw(alpha=1.2, sigma=0.7, neg_prob=0.3), burn_in=0), _coupled_rows_per_replica),
        (ar1_model(-0.8, NoiseSpec("pareto", 1.5), burn_in=50), _ar1_coupled_rows_per_replica),
        (ar1_model(0.5, NoiseSpec("pareto", 0.5, (1.0, 0.0)), burn_in=0), _ar1_coupled_rows_per_replica),
    ], ids=["sre-burn", "sre-no-burn", "ar1-burn", "ar1-no-burn"])
    def test_any_tile_length(self, monkeypatch, model, reference, tile):
        # windows and burn-ins over several tiles: the AR(1) start's decay
        # and the SRE state are carried from tile to tile
        monkeypatch.setattr(processes, "_TILE_STEPS", tile)
        indices = np.arange(2, 2 + 13)
        got = processes._coupled_rows(model, 250, 8, indices)
        want = reference(model, 250, 8, indices)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_rows_independent_of_batching(self):
        from selfnorm.processes import _coupled_rows

        model = sre_model(SRELaw(alpha=1.2, sigma=0.7, neg_prob=0.3), burn_in=100)
        whole = _coupled_rows(model, 20, 4, np.arange(3, 15))
        parts = [_coupled_rows(model, 20, 4, np.arange(lo, lo + 4)) for lo in (3, 7, 11)]
        for k, arr in enumerate(whole):
            assert np.array_equal(arr, np.concatenate([p[k] for p in parts]))


class TestScaleConstants:
    def test_an_iid_pareto(self, pareto_pos_half):
        assert normalizing_an(pareto_pos_half, 10**4) == pytest.approx(1e8, rel=1e-12)

    def test_an_ar1_formula_and_tail(self, within_se):
        # (n / (1 - 0.5^1.5))^(2/3), cross-checked against the empirical tail
        model = ar1_model(0.5, NoiseSpec("pareto", 1.5))
        n = 10**4
        a_n = normalizing_an(model, n)
        assert a_n == pytest.approx((n / (1 - 0.5**1.5)) ** (2.0 / 3.0), rel=1e-12)
        from selfnorm.processes import _simulate_rows

        sample = np.abs(_simulate_rows(model, 5000, 77, np.arange(400))).ravel()
        count = np.mean(sample > a_n) * n
        within_se(count, 1.0, math.sqrt(n / sample.size), k=4)

    def test_an_sre_self_consistent(self, sre_lognormal):
        # n P(|X| > a_n) on 8000 held-out rows of 2500 steps, 500 rows at a
        # time; the rows' spread sizes the sample, so the [0.8, 1.2] band is
        # at least 3 stderr wide on either side of 1
        n, rows, steps = 10**4, 8000, 2500
        a_n = normalizing_an(sre_lognormal, n)
        hits = np.concatenate([np.mean(np.abs(_simulate_rows(sre_lognormal, steps, 99, np.arange(lo, lo + 500))) > a_n,
                                       axis=1) for lo in range(0, rows, 500)])
        ratio, se = n * hits.mean(), n * hits.std(ddof=1) / math.sqrt(rows)
        assert se <= 0.067, se
        assert 0.8 <= ratio <= 1.2, (ratio, se)

    SHORT_BURN = sre_model(SRELaw(alpha=0.8, sigma=1.0, b_mean=1.0, b_sd=0.0), burn_in=200)
    # the bench SRE model: alpha = 0.8, sigma = 1, B = 1, default burn-in
    BENCH_SRE = sre_model(SRELaw(alpha=0.8, sigma=1.0, b_mean=1.0, b_sd=0.0))

    def test_tail_constant_closed_forms(self, pareto_pos_half):
        assert tail_constant(pareto_pos_half) == (1.0, 0.0)
        model = ar1_model(-0.5, NoiseSpec("symmetric_stable", 1.5))
        c, se = tail_constant(model)
        assert c == stable_tail_constant(1.5) / (1.0 - 0.5**1.5) and se == 0.0

    def test_goldie_bench_model(self, within_se):
        # 1.867 from an independent estimate on 512 chains of 250 stationary values
        c, se = tail_constant(self.BENCH_SRE)
        within_se(c, 1.867, se, k=3)
        assert normalizing_an(self.BENCH_SRE, 10**4) == pytest.approx((1e4 * c) ** 1.25, rel=1e-12)

    @pytest.mark.parametrize("tile", [100, 7])
    @pytest.mark.parametrize("b_sd", [0.0, 0.5], ids=["constant-b", "drawn-b"])
    def test_goldie_any_tile_length(self, monkeypatch, b_sd, tile):
        # the chains stream through the path engine: the same bits at any tile length
        model = sre_model(SRELaw(alpha=0.8, sigma=1.0, b_mean=1.0, b_sd=b_sd))
        want = tail_constant(model)
        monkeypatch.setattr(processes, "_TILE_STEPS", tile)
        assert tail_constant(model) == want

    def test_goldie_stderr_covers_seed_spread(self, monkeypatch):
        cs, ses = [], []
        for seed in range(10):
            monkeypatch.setattr(processes, "_GOLDIE_SEED", 1000 + seed)
            c, se = tail_constant(self.BENCH_SRE)
            cs.append(c)
            ses.append(se)
        assert 0.5 <= np.std(cs, ddof=1) / np.mean(ses) <= 2.0

    def test_lognormal_log_moment_closed_form(self, within_se):
        # E|A|^alpha log|A| = alpha sigma^2 / 2 under E|A|^alpha = 1
        law = SRELaw(alpha=0.8, sigma=1.0, neg_prob=0.3)
        assert law.abs_a_log_moment(0.8) == pytest.approx(0.4, rel=1e-12)
        a, _ = law.sample_ab(np.random.default_rng(5), 2 * 10**6)
        terms = np.abs(a) ** 0.8 * np.log(np.abs(a))
        within_se(float(terms.mean()), 0.4, float(terms.std(ddof=1) / math.sqrt(terms.size)), k=3)

    def test_an_sre_custom_law_matches_lognormal(self):
        # a custom sampler making the lognormal law's draws gets the same
        # numerator and a Monte-Carlo denominator: the same a_n within 3 stderr
        def sampler(rng, size):
            a = np.exp(-0.4 + rng.standard_normal(size))
            return a, 1.0 + 0.0 * rng.standard_normal(size)

        custom = sre_model(SRELaw(alpha=0.8, kind="custom", sampler=sampler), burn_in=200,
                           kesten_check=False)
        with pytest.raises(ConfigurationError, match="cannot be serialised"):
            model_to_dict(custom)
        n = 10**4
        want = normalizing_an(self.SHORT_BURN, n)
        got = normalizing_an(custom, n)
        c, se = tail_constant(custom)
        assert got != want
        assert abs(got - want) <= 3.0 * got * se / (0.8 * c)

    @pytest.mark.parametrize("a_const", [0.0, 0.5, -0.5])
    def test_no_kesten_tail_raises(self, a_const):
        model = sre_model(SRELaw(alpha=0.8, kind="constant", a_const=a_const), burn_in=20,
                          kesten_check=False)
        with pytest.raises(ModelError, match="no Kesten tail"):
            normalizing_an(model, 100)

    def test_mean_symmetric_zero(self, pareto_sym_half):
        model = iid_model(NoiseSpec("pareto", 1.5, (0.5, 0.5)))
        assert stationary_mean(model) == 0.0

    def test_mean_iid_positive(self):
        model = iid_model(NoiseSpec("pareto", 1.5, (1.0, 0.0)))
        assert stationary_mean(model) == pytest.approx(3.0, rel=1e-12)

    def test_mean_ar1(self):
        model = ar1_model(0.5, NoiseSpec("pareto", 1.5, (1.0, 0.0)))
        assert stationary_mean(model) == pytest.approx(6.0, rel=1e-12)

    def test_mean_needs_alpha_above_one(self, pareto_pos_half):
        with pytest.raises(UnsupportedError):
            stationary_mean(pareto_pos_half)

    def test_mean_sre(self, sre_lognormal):
        law = sre_lognormal.sre_law
        expected = law.b_mean / (1.0 - law.mean_a())
        assert stationary_mean(sre_lognormal) == pytest.approx(expected)

    def test_mean_sre_custom_sampler_mc(self):
        # non-analytic (A, B) laws fall back to a Monte-Carlo mean
        def sampler(rng, size):
            a = 0.3 * np.ones(size)
            b = 2.0 + rng.standard_normal(size)
            return a, b

        law = SRELaw(alpha=1.5, kind="custom", sampler=sampler)
        model = sre_model(law, burn_in=100, kesten_check=False)
        assert stationary_mean(model) == pytest.approx(2.0 / 0.7, rel=0.01)


class TestSREChecks:
    def test_kesten_holds_lognormal(self):
        sre_model(SRELaw(alpha=0.8, sigma=0.7))  # no error

    def test_kesten_fails_for_wrong_scale(self):
        law = SRELaw(alpha=0.8, sigma=0.7, kind="custom",
                     sampler=lambda rng, size: (1.5 * np.exp(0.7 * rng.standard_normal(size) - 0.8 * 0.49 / 2), rng.standard_normal(size)))
        with pytest.raises(ModelError):
            sre_model(law)

    def test_non_contractive_rejected(self):
        law = SRELaw(alpha=0.8, kind="constant", a_const=1.5)
        with pytest.raises(ModelError):
            sre_model(law, kesten_check=False)

    def test_constant_zero_allowed_with_check_off(self):
        sre_model(SRELaw(alpha=0.8, kind="constant", a_const=0.0), kesten_check=False)


# the bench SRE law: alpha = 0.8, sigma = 1, B = 1, so E log|A| = -0.4
BENCH_LAW = SRELaw(alpha=0.8, sigma=1.0, b_mean=1.0, b_sd=0.0)


def _lognormal_sampler(rng, size):
    # the bench law's draws through the custom-law path
    return np.exp(-0.4 + rng.standard_normal(size)), np.ones(size)


class TestBurnIn:
    """The default burn-in: the smallest t with t E log|A| + 8 sd(log|A|) sqrt(t)
    <= log(1e-17)."""

    @pytest.mark.parametrize("phi, steps", [(0.5, 57), (0.8, 176), (0.95, 764), (0.99, 3895)])
    def test_ar1_values(self, phi, steps):
        noise = NoiseSpec("pareto", 1.5)
        assert ar1_model(phi, noise).burn_in == steps
        assert ar1_model(-phi, noise).burn_in == steps
        # the smallest t with |phi|^t <= eps
        assert phi**steps <= _BURN_IN_EPS < phi ** (steps - 1)

    def test_sre_values(self):
        assert sre_model(BENCH_LAW).burn_in == 580
        zero = SRELaw(alpha=0.8, kind="constant", a_const=0.0)
        assert sre_model(zero, kesten_check=False).burn_in == 0
        half = SRELaw(alpha=0.8, kind="constant", a_const=-0.5)
        assert sre_model(half, kesten_check=False).burn_in == 57

    def test_custom_law_estimates_the_rate(self):
        custom = sre_model(SRELaw(alpha=0.8, kind="custom", sampler=_lognormal_sampler))
        assert abs(custom.burn_in - 580) <= 3
        # log|A| is clipped at log(eps) where A = 0: an all-zero A takes one step
        zeros = SRELaw(alpha=0.8, kind="custom", sampler=lambda rng, size: (np.zeros(size), np.ones(size)))
        assert sre_model(zeros, kesten_check=False).burn_in == 1

    def test_iid_reads_none(self):
        assert iid_model(NoiseSpec("pareto", 0.5)).burn_in == 0
        with pytest.raises(ConfigurationError, match="reads no burn-in"):
            ProcessModel(kind="iid", noise=NoiseSpec("pareto", 0.5), burn_in=3)

    def test_explicit_value_wins(self):
        noise = NoiseSpec("pareto", 0.5)
        assert ar1_model(0.5, noise, burn_in=10).burn_in == 10
        assert sre_model(BENCH_LAW, burn_in=0).burn_in == 0
        d = {"kind": "ar1", "phi": 0.5, "noise": {"kind": "pareto", "alpha": 0.5}}
        assert model_from_dict(d).burn_in == 57
        assert model_from_dict({**d, "burn_in": 10}).burn_in == 10
        with pytest.raises(ConfigurationError, match="burn_in must be >= 0"):
            model_from_dict({**d, "burn_in": -1})

    @pytest.mark.parametrize("phi", [0.5, -0.8, 0.99])
    def test_ar1_start_forgotten(self, phi):
        # zero and stationary starts, run through the same burn-in innovations,
        # end within eps |x0| of each other (plus the rounding of the sum)
        model = ar1_model(phi, NoiseSpec("pareto", 1.5))
        idx = np.arange(200)
        x0 = _simulate_rows(model, 1, 7, idx)[:, 0]
        # the engine's last burn-in step from both starts
        ends, burn = np.empty((2, len(idx), 1)), model.burn_in
        tiles = processes._path_tiles(model, burn, 8, idx, skip=burn - 1, start=[np.zeros(len(idx)), x0])
        processes._join(tiles, ends)
        zero_start = ends[0, :, 0]
        gap = np.abs(ends[1, :, 0] - zero_start)
        assert np.all(gap <= _BURN_IN_EPS * np.abs(x0) + np.spacing(np.abs(zero_start)))

    def test_sre_start_forgotten(self):
        # the start's weight after the burn-in is |A_1 ... A_t|, at most eps on
        # every one of 2000 chains
        model, idx = sre_model(BENCH_LAW), np.arange(2000)
        for rows in processes._row_groups(len(idx)):
            draws = processes._TileDraws(model, model.burn_in, 9, idx[rows])
            a, _ = draws.next(model.burn_in)
            assert np.abs(np.prod(a, axis=1)).max() <= _BURN_IN_EPS
            draws.close()


class TestInterfaces:
    def test_model_round_trip(self, ar1_pos_half, sre_lognormal):
        for model in (ar1_pos_half, sre_lognormal):
            again = model_from_dict(model_to_dict(model))
            assert model_to_dict(again) == model_to_dict(model)
            assert again == model

    def test_dict_holds_resolved_burn_in(self):
        d = model_to_dict(sre_model(BENCH_LAW))
        assert d["burn_in"] == 580
        assert model_from_dict(d).burn_in == 580


# ---------------------------------------------------------------------------
# the SRE engine against the code it replaced


def _sre_recursion_reference(a, b, x0=0.0):
    """The per-step loop that the tiled ``sre_recursion`` replaced."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    out = np.empty_like(b)
    state = np.broadcast_to(np.asarray(x0, dtype=float), a.shape[:-1]).copy()
    for t in range(a.shape[-1]):
        state = a[..., t] * state + b[..., t]
        out[..., t] = state
    return out


def _sample_ab_reference(law, streams, size):
    """(A, B) of a non-custom law as written out before A was computed in
    place and a constant B went undrawn, each draw call from the next of
    ``streams``: ``itertools.repeat(rng)`` is ``SRELaw.sample_ab`` on one
    stream, :func:`_call_streams` a path's layout."""
    streams = iter(streams)
    if law.kind == "constant":
        a = np.full(size, law.a_const)
    else:
        a = np.exp(law.mu + law.sigma * next(streams).standard_normal(size))
        if law.neg_prob > 0:
            a = np.where(next(streams).random(size) < law.neg_prob, -a, a)
    b = law.b_mean + law.b_sd * next(streams).standard_normal(size)
    return a, b


class TestSREEngine:
    @pytest.mark.parametrize("n", [0, 1, _SRE_TILE - 1, _SRE_TILE, _SRE_TILE + 1, 2 * _SRE_TILE + 3])
    @pytest.mark.parametrize("lead", [(), (5,), (3, 4)], ids=str)
    def test_tiles_match_the_step_loop(self, n, lead):
        rng = np.random.default_rng(n + len(lead))
        shape = (*lead, n)
        # signed multipliers with E log|A| < 0, so long rows neither overflow nor vanish
        a = np.exp(rng.normal(-0.3, 1.0, shape)) * rng.choice([-1.0, 1.0], shape)
        starts = {"zero": 0.0, "scalar": 2.5, "per_row": rng.normal(size=lead)}
        for b in (rng.normal(size=shape), np.broadcast_to(1.5, shape)):
            for name, x0 in starts.items():
                got = sre_recursion(a, b, x0=x0)
                assert got.shape == shape
                assert np.array_equal(got, _sre_recursion_reference(a, b, x0)), (name, b.strides)

    @pytest.mark.parametrize("law", [
        BENCH_LAW,
        SRELaw(alpha=0.8, sigma=1.0, neg_prob=0.3),
        SRELaw(alpha=0.9, kind="constant", a_const=0.5),
        SRELaw(alpha=0.5, sigma=0.7, neg_prob=0.3, b_mean=0.5, b_sd=2.0),
    ], ids=["bench", "neg_prob", "constant", "b_sd"])
    def test_sample_ab_matches_the_written_out_formula(self, law):
        new, old = substream(4, 1), substream(4, 1)
        a, b = law.sample_ab(new, 1000)
        ra, rb = _sample_ab_reference(law, itertools.repeat(old), 1000)
        assert np.array_equal(a, ra) and np.array_equal(b, rb)
        if law.b_sd != 0:
            # the same draws were taken, so the stream goes on where it did
            assert new.random() == old.random()

    def test_constant_b_rows_are_a_view(self):
        draws = processes._TileDraws(sre_model(BENCH_LAW), 300, 3, np.arange(4))
        _, b = draws.next(300)
        draws.close()
        assert b.strides == (0, 0) and not b.flags.writeable
        assert np.array_equal(b, np.full((4, 300), BENCH_LAW.b_mean))

    def test_constant_b_paths_match_the_written_out_engine(self):
        model = sre_model(BENCH_LAW)
        n, idx = 700, np.array([0, 3, 8])
        ref = np.stack([_sre_recursion_reference(*_sample_ab_reference(BENCH_LAW, _call_streams(6, int(i)),
                                                                        n + model.burn_in))
                        for i in idx])
        assert np.array_equal(_simulate_rows(model, n, 6, idx), ref[:, model.burn_in:])

    def test_sre_products_one_chunk_matches_the_written_out_formula(self):
        # with b_sd = 0 the second chunk's A values moved, since the first
        # chunk no longer draws B normals; one chunk is unchanged
        cluster = empirical_cluster(sre_model(BENCH_LAW))
        reps, seed, t_len = 3000, 4, max(200, math.ceil(80.0 / BENCH_LAW.alpha))
        assert reps <= 4_000_000 // t_len
        a, _ = _sample_ab_reference(BENCH_LAW, itertools.repeat(substream(seed, 17)), reps * t_len)
        sup = np.max(np.cumprod(np.abs(a).reshape(reps, t_len), axis=1) ** BENCH_LAW.alpha, axis=1)
        vals = np.clip(1.0 - sup, 0.0, None)
        est = extremal_index(cluster, reps, seed, method="sre_products")
        assert est.value == float(vals.mean())
        assert est.stderr == float(vals.std(ddof=1) / math.sqrt(reps))

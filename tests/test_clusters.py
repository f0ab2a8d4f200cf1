import math

import numpy as np
import pytest

from selfnorm import (
    BoundedFunctional,
    ConfigurationError,
    NoiseSpec,
    SamplingError,
    SRELaw,
    UnsupportedError,
    ar1_cluster,
    ar1_model,
    cluster_moment,
    empirical_cluster,
    extremal_index,
    iid_cluster,
    sample_cluster,
    sample_spectral_tail,
    sample_tilted_cluster,
    sre_model,
    standard_functionals,
    tilted_acceptance,
    verify_time_change,
)
from selfnorm.clusters import (
    ClusterModel,
    _draw_ar1_tail,
    _tail_windows,
    cluster_functionals,
    default_horizon,
    tilted_atoms,
    tilted_functionals,
)
from selfnorm.rng import substream


def truncated_abs_mean_series(model, lags, reps, seed):
    """Monte-Carlo series E[|Theta_j| ^ 1] over ``lags = (lo, hi)``; the partial
    sums of this series being numerically Cauchy is the summability probe that
    backs the anti-clustering hypothesis for the shipped models."""
    lo, hi = lags
    _, wins = _tail_windows(model, substream(seed, 19), reps, lo, hi)
    return np.minimum(np.abs(wins), 1.0).mean(axis=0)


class TestSpectralTail:
    def test_iid_spike(self):
        d = sample_spectral_tail(iid_cluster(0.5, (1.0, 0.0)), horizon=4, seed=1)
        assert (d.t_min, d.t_max) == (0, 0)
        assert d.values[0] == 1.0
        assert d.value_at(3) == 0.0

    def test_theta0_modulus_one(self):
        model = ar1_cluster(-0.6, 0.9, (0.3, 0.7))
        for seed in range(40):
            d = sample_spectral_tail(model, horizon=6, seed=seed)
            assert abs(d.value_at(0)) == pytest.approx(1.0, abs=1e-14)

    def test_geometric_j_law_frozen(self, within_se):
        # phi = 0.5, alpha = 1: P(J = 0) = 1 - 0.5 = 0.5 and P(J = 1) = 0.25
        model = ar1_cluster(0.5, 1.0)
        j, _ = _draw_ar1_tail(model, substream(2), 10**5)
        within_se(np.mean(j == 0), 0.5, math.sqrt(0.25 / 10**5), k=3)
        within_se(np.mean(j == 1), 0.25, math.sqrt(0.1875 / 10**5), k=3)

    def test_forward_shape(self):
        model = ar1_cluster(0.5, 0.8, (1.0, 0.0))
        d = sample_spectral_tail(model, horizon=8, seed=5)
        t = np.arange(d.t_min, d.t_max + 1)
        assert np.allclose(d.values, d.value_at(0) * 0.5 ** (t - 0.0) * np.sign(0.5) ** t)

    def test_negative_phi_alternates(self):
        model = ar1_cluster(-0.5, 0.8, (1.0, 0.0))
        d = sample_spectral_tail(model, horizon=6, seed=7)
        vals = [d.value_at(t) for t in range(0, 4)]
        signs = np.sign(vals)
        assert np.allclose(signs, [signs[0] * (-1) ** t for t in range(4)])

    def test_spike_probs_negative_phi(self, within_se):
        # P(Theta_0 = +1) = (q+ + q- r) / (1 + r), r = |phi|^alpha, for phi < 0
        model = ar1_cluster(-0.5, 0.8, (0.8, 0.2))
        r = 0.5**0.8
        pp = (0.8 + 0.2 * r) / (1 + r)
        assert model.spike_probs[0] == pytest.approx(pp, rel=1e-14)
        _, theta0 = _draw_ar1_tail(model, substream(8), 10**5)
        within_se(np.mean(theta0 > 0), pp, math.sqrt(pp * (1 - pp) / 10**5), k=3.5)

    def test_horizon_domain(self):
        with pytest.raises(ConfigurationError):
            sample_spectral_tail(iid_cluster(0.5), horizon=-1, seed=0)


class TestClusterDraws:
    @pytest.mark.parametrize("phi,alpha", [(0.5, 0.5), (0.5, 1.0), (-0.7, 0.9), (0.9, 1.5)])
    def test_normalization_invariant(self, phi, alpha):
        model = ar1_cluster(phi, alpha)
        for seed in range(25):
            d = sample_cluster(model, seed=seed)
            mass = np.sum(np.abs(d.values) ** alpha)
            assert mass <= 1.0 + 1e-12
            assert mass >= 1.0 - d.truncation_error - 1e-12
            assert d.max_abs <= 1.0 + 1e-12

    def test_ar1_max_is_constant(self):
        # max |Q| = (1 - |phi|^alpha)^(1/alpha) for every draw
        phi, alpha = 0.5, 0.8
        model = ar1_cluster(phi, alpha)
        target = (1 - 0.5**0.8) ** (1 / 0.8)
        for seed in range(20):
            assert sample_cluster(model, seed=seed).max_abs == pytest.approx(target, rel=1e-12)

    def test_iid_single_spike(self):
        d = sample_cluster(iid_cluster(0.5, (0.0, 1.0)), seed=3)
        assert np.array_equal(d.values, [-1.0])

    @pytest.mark.parametrize("sampler", [sample_cluster, sample_tilted_cluster])
    def test_horizon_domain(self, sampler):
        with pytest.raises(ConfigurationError, match="horizon"):
            sampler(ar1_cluster(0.5, 0.8), horizon=-2, seed=1)

    def test_iid_rejects_phi(self):
        with pytest.raises(ConfigurationError, match="phi"):
            ClusterModel(kind="iid", alpha=0.5, phi=0.3)
        assert ClusterModel(kind="iid", alpha=0.5, phi=0).phi == 0.0
        assert iid_cluster(0.5).phi == 0.0

    def test_default_horizon_mass(self):
        model = ar1_cluster(0.8, 0.6)
        h = default_horizon(model)
        r = 0.8**0.6
        assert r**h / (1 - r) < 1e-10
        assert r ** (h - 1) / (1 - r) >= 1e-10


class TestTilted:
    def test_iid_tilt_is_identity(self):
        d = sample_tilted_cluster(iid_cluster(0.5, (1.0, 0.0)), seed=4)
        assert np.array_equal(d.values, [1.0])

    def test_max_normalised(self):
        model = ar1_cluster(0.6, 0.9)
        for seed in range(10):
            d = sample_tilted_cluster(model, seed=seed)
            assert d.max_abs == pytest.approx(1.0, rel=1e-12)

    def test_ar1_tilted_sum_constant(self):
        # positive noise, phi = 0.5: sum of the max-normalised cluster = 2
        model = ar1_cluster(0.5, 0.5, (1.0, 0.0))
        for seed in range(10):
            d = sample_tilted_cluster(model, seed=seed)
            assert d.sum() == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("phi,alpha", [(0.5, 0.8), (-0.7, 0.9), (0.9, 1.5)])
    def test_geometric_tilt_is_the_same_draw(self, phi, alpha):
        # max|Q| = (1 - |phi|^alpha)^(1/alpha) for every J: the tilt leaves the law as it is
        model = ar1_cluster(phi, alpha, (0.3, 0.7))
        max_q = (1.0 - abs(phi) ** alpha) ** (1.0 / alpha)
        for seed in range(30):
            d, t = sample_cluster(model, seed=seed), sample_tilted_cluster(model, seed=seed)
            assert (t.t_min, t.t_max, t.truncation_error) == (d.t_min, d.t_max, d.truncation_error)
            assert np.array_equal(t.values, d.values / max_q)

    def test_empirical_tilt_is_the_reweighted_law(self, within_se):
        # anchors drawn with weight max|Q|^alpha: the mean tilted sum is the tilted atoms' mean
        model = empirical_cluster(ar1_model(0.5, NoiseSpec("pareto", 0.8)), sample_length=200_000)
        sums = np.array([sample_tilted_cluster(model, seed=s).sum() for s in range(2000)])
        law = tilted_atoms(model, p=2.0)
        within_se(sums.mean(), float(np.sum(law.weights * law.sum_q)), sums.std(ddof=1) / math.sqrt(2000), k=3)

    def test_iid_tilt_is_the_spike(self):
        model = iid_cluster(0.5, (0.4, 0.6))
        signs = set()
        for seed in range(20):
            d = sample_tilted_cluster(model, horizon=5, seed=seed)
            assert (d.t_min, d.t_max, d.truncation_error) == (0, 0, 0.0)
            assert np.array_equal(d.values, sample_cluster(model, seed=seed).values)
            signs.add(float(d.values[0]))
        assert signs == {1.0, -1.0}

    def test_acceptance_rate_frozen(self, within_se):
        # acceptance probability is deterministic: 1 - |phi|^alpha
        model = ar1_cluster(0.5, 0.8)
        est = tilted_acceptance(model, reps=10**5, seed=5)
        within_se(est.value, 1 - 0.5**0.8, est.stderr, k=3)

    def test_tilt_correctness_identity(self, within_se):
        # E h(Qtilde) = E[max|Q|^a h(Q / max|Q|)] / theta for bounded h,
        # exercised where the tilt actually reweights (empirical kind)
        model = empirical_cluster(ar1_model(0.5, NoiseSpec("pareto", 0.8)), sample_length=500_000)
        def h(sum_q, max_abs):
            return np.minimum(np.abs(sum_q), 1.5)
        ft = tilted_functionals(model, 40_000, p=2.0, seed=6)
        lhs = h(ft["sum_q"], 1.0)
        f = cluster_functionals(model, 40_000, p=2.0, seed=7)
        w = f["max_abs"] ** model.alpha
        rhs_terms = w * h(f["sum_q"] / f["max_abs"], 1.0)
        rhs = rhs_terms.mean() / w.mean()
        se = math.hypot(lhs.std(ddof=1) / 200.0, rhs_terms.std(ddof=1) / w.mean() / 200.0)
        within_se(lhs.mean(), rhs, se, k=3)


class TestExtremalIndex:
    def test_iid_is_one(self):
        assert extremal_index(iid_cluster(0.7)).value == 1.0

    def test_ar1_closed_form(self):
        # phi = 0.5, alpha = 1 -> 0.5
        assert extremal_index(ar1_cluster(0.5, 1.0)).value == pytest.approx(0.5, rel=1e-12)

    def test_sre_zero_a_is_one(self):
        model = sre_model(SRELaw(alpha=0.8, kind="constant", a_const=0.0), burn_in=100, kesten_check=False)
        emp = empirical_cluster(model, alpha=0.8, sample_length=200_000, block_half_width=20)
        est = extremal_index(emp, reps=2_000, seed=8, method="sre_products")
        assert est.value == 1.0 and est.stderr == 0.0

    def test_three_estimators_agree(self, within_se):
        # closed form vs acceptance rate vs E max|Q|^alpha, within 3 combined se
        model = ar1_cluster(0.5, 0.8)
        closed = extremal_index(model)
        acc = tilted_acceptance(model, reps=10**5, seed=9)
        mx = extremal_index(model, reps=10**4, seed=10, method="cluster_max")
        within_se(acc.value, closed.value, acc.stderr, k=3)
        within_se(mx.value, closed.value, math.hypot(mx.stderr, 1e-15), k=3)

    @pytest.mark.parametrize("method", ["bogus", "acceptance", "", "Cluster_max"])
    def test_unknown_method_rejected(self, method):
        analytic = ar1_cluster(0.5, 0.8)
        empirical = empirical_cluster(ar1_model(0.5, NoiseSpec("pareto", 0.8)), sample_length=50_000)
        for model in (analytic, empirical):
            with pytest.raises(ConfigurationError, match="extremal index method"):
                extremal_index(model, reps=100, method=method)


class TestClusterMoment:
    def test_p_equals_alpha(self):
        assert cluster_moment(ar1_cluster(0.4, 0.7), 0.7).value == pytest.approx(1.0, rel=1e-12)

    def test_iid_any_p(self):
        assert cluster_moment(iid_cluster(0.5), 3.7).value == 1.0

    def test_ar1_closed_form_frozen(self):
        # (1 - 0.5^0.5) / (1 - 0.25)^(0.25)
        val = cluster_moment(ar1_cluster(0.5, 0.5), 2.0).value
        assert val == pytest.approx((1 - 0.5**0.5) / 0.75**0.25, rel=1e-12)
        assert val == pytest.approx(0.3147342461719, rel=1e-10)

    def test_empirical_cross_check(self):
        model = empirical_cluster(ar1_model(0.5, NoiseSpec("pareto", 0.5, (1.0, 0.0))), sample_length=10**6)
        closed = cluster_moment(ar1_cluster(0.5, 0.5, (1.0, 0.0)), 2.0).value
        mc = cluster_moment(model, 2.0)
        assert abs(mc.value - closed) < 0.02 + 3 * mc.stderr

    def test_mc_needs_p_above_alpha(self):
        model = empirical_cluster(ar1_model(0.5, NoiseSpec("pareto", 0.8)), sample_length=200_000)
        with pytest.raises(UnsupportedError):
            cluster_moment(model, 0.5)


class TestSummability:
    def test_partial_sums_cauchy(self):
        # E[|Theta_j| ^ 1] = |phi|^j for j >= 0: increments fall below 1e-6
        # beyond j* = log(1e-6)/log|phi|
        model = ar1_cluster(0.5, 1.0)
        jstar = math.ceil(math.log(1e-6) / math.log(0.5))
        series = truncated_abs_mean_series(model, (0, jstar + 5), reps=4_000, seed=12)
        assert np.all(series[jstar + 1:] < 1e-6)
        assert series[0] == pytest.approx(1.0)

    def test_backward_lags_match_geometric(self, within_se):
        # E[|Theta_{-j}| ^ 1] = P(J >= j) = |phi|^(alpha j)
        model = ar1_cluster(0.5, 0.8)
        series = truncated_abs_mean_series(model, (-3, 0), reps=30_000, seed=13)
        for k, j in enumerate((3, 2, 1)):
            p = 0.5 ** (0.8 * j)
            within_se(series[k], p, math.sqrt(p * (1 - p) / 30_000), k=3.5)


class TestTimeChange:
    def test_ar1_identity_holds(self):
        model = ar1_cluster(0.5, 1.0)
        report = verify_time_change(model, t=1, test_functionals=standard_functionals(1), reps=10**5, seed=14)
        assert report.max_abs_z() <= 3.0
        assert not any(r.vacuous for r in report.rows)

    def test_t_zero_is_identity_case(self):
        model = ar1_cluster(0.5, 0.9)
        report = verify_time_change(model, t=0, test_functionals=standard_functionals(1), reps=30_000, seed=15)
        assert report.max_abs_z() <= 3.0

    def test_iid_nonzero_t_vacuous(self):
        report = verify_time_change(iid_cluster(0.5), t=2, test_functionals=standard_functionals(1), reps=1000, seed=16)
        assert all(r.vacuous for r in report.rows)

    def test_unbounded_functional_rejected(self):
        bad = BoundedFunctional(lambda w: float(np.sum(w)), bound=math.inf, name="unbounded", half_width=1)
        with pytest.raises(ConfigurationError):
            verify_time_change(ar1_cluster(0.5, 1.0), 1, [bad], reps=100, seed=17)

    def test_bound_violation_detected(self):
        lying = BoundedFunctional(lambda w: 5.0, bound=1.0, name="lying", half_width=1)
        with pytest.raises(ConfigurationError):
            verify_time_change(ar1_cluster(0.5, 1.0), 1, [lying], reps=100, seed=18)

    def test_plain_callable_rejected(self):
        with pytest.raises(ConfigurationError):
            verify_time_change(ar1_cluster(0.5, 1.0), 1, [lambda w: 0.0], reps=100, seed=19)


class TestEmpirical:
    def test_no_exceedances_error(self):
        # a constant path has nothing above its own quantile
        model = sre_model(SRELaw(alpha=0.8, kind="constant", a_const=0.0, b_mean=1.0, b_sd=0.0),
                          burn_in=10, kesten_check=False)
        emp = empirical_cluster(model, alpha=0.8, sample_length=50_000, block_half_width=10)
        with pytest.raises(SamplingError, match="lower threshold_quantile"):
            sample_cluster(emp, seed=1)

    def test_empirical_draw_invariants(self):
        model = empirical_cluster(ar1_model(0.5, NoiseSpec("pareto", 0.8)), sample_length=300_000)
        for seed in range(5):
            d = sample_cluster(model, seed=seed)
            assert np.sum(np.abs(d.values) ** model.alpha) == pytest.approx(1.0, abs=1e-10)
            assert d.max_abs <= 1.0 + 1e-12

import math
import warnings

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from selfnorm import (
    ConfigurationError,
    NoiseSpec,
    UnsupportedError,
    ar1_cluster,
    ar1_model,
    empirical_cluster,
    expected_greenwood,
    expected_kurtosis_limit,
    expected_ratio_max,
    expected_ratio_student,
    gamma_identity_check,
    iid_cluster,
)
from selfnorm.clusters import tilted_functionals
from selfnorm.experiments import simulate_statistics
from selfnorm.processes import pareto_quantile
from selfnorm.rng import substream


def ratio_student_l2(cluster) -> float:
    """The p = 2 studentized-moment oracle computed through the l^2-normalised,
    ``||Q||_2^alpha``-tilted geometric cluster, whose sum is
    ``(q+ - q-) sqrt(1 - phi^2) / (1 - phi)`` (phi = 0 for iid)."""
    a, phi = cluster.alpha, cluster.phi
    gfac = gamma_fn((1.0 - a) / 2.0) / (gamma_fn(0.5) * gamma_fn(1.0 - a / 2.0))
    qp, qm = cluster.tail_balance
    return gfac * (qp - qm) * math.sqrt(1.0 - phi**2) / (1.0 - phi)


class TestRatioMax:
    def test_iid_positive_half(self):
        # 1 / (1 - alpha) = 2
        assert expected_ratio_max(iid_cluster(0.5, (1.0, 0.0))).value == pytest.approx(2.0, rel=1e-14)

    def test_iid_symmetric_zero(self):
        assert expected_ratio_max(iid_cluster(0.5)).value == 0.0

    def test_ar1_value_four(self):
        # (1 / (1 - phi)) / (1 - alpha) = 4 at phi = alpha = 0.5
        c = ar1_cluster(0.5, 0.5, (1.0, 0.0))
        assert expected_ratio_max(c).value == pytest.approx(4.0, rel=1e-14)

    def test_ar1_mc_cross_check(self, within_se):
        # the tilted-cluster sampler independently confirms the analytic value
        c = ar1_cluster(0.5, 0.5, (1.0, 0.0))
        f = tilted_functionals(c, 50_000, p=2.0, seed=1)
        mc = f["sum_q"].mean() / (1 - 0.5)
        assert mc == pytest.approx(4.0, rel=1e-12)  # two-atom law is exact here
        emp = empirical_cluster(ar1_model(0.5, NoiseSpec("pareto", 0.5, (1.0, 0.0))), sample_length=10**6)
        est = expected_ratio_max(emp)
        assert abs(est.value - 4.0) < 0.15 + 3 * est.stderr

    def test_alpha_above_one(self):
        c = iid_cluster(1.5, (1.0, 0.0))
        assert expected_ratio_max(c).value == pytest.approx(1.0 / (1 - 1.5), rel=1e-14)


class TestRatioStudent:
    def test_iid_gamma_arithmetic(self):
        # Gamma(0.25) / (Gamma(0.5) Gamma(0.75)) = 1.6692536833
        v = expected_ratio_student(iid_cluster(0.5, (1.0, 0.0)), p=2.0).value
        assert v == pytest.approx(gamma_fn(0.25) / (gamma_fn(0.5) * gamma_fn(0.75)), rel=1e-14)
        assert v == pytest.approx(1.6692536833481468, rel=1e-12)

    def test_iid_symmetric_zero(self):
        assert expected_ratio_student(iid_cluster(0.5), p=2.0).value == 0.0

    @pytest.mark.parametrize("cluster", [
        iid_cluster(0.5, (1.0, 0.0)),
        iid_cluster(0.7, (0.6, 0.4)),
        ar1_cluster(0.5, 0.5, (1.0, 0.0)),
        ar1_cluster(-0.4, 0.8, (0.5, 0.5)),
    ])
    def test_p2_rewriting_agrees(self, cluster):
        a = expected_ratio_student(cluster, p=2.0).value
        b = ratio_student_l2(cluster)
        assert a == pytest.approx(b, abs=1e-12)

    def test_p_domain(self):
        with pytest.raises(ConfigurationError):
            expected_ratio_student(iid_cluster(0.5), p=0.4)

    def test_heavy_range_flagged_experimental(self):
        with pytest.warns(RuntimeWarning, match="experimental"):
            est = expected_ratio_student(iid_cluster(1.5, (1.0, 0.0)), p=2.0)
        assert est.method.endswith("experimental")

    def test_empirical_matches_analytic(self):
        emp = empirical_cluster(ar1_model(0.5, NoiseSpec("pareto", 0.5, (1.0, 0.0))), sample_length=10**6)
        closed = expected_ratio_student(ar1_cluster(0.5, 0.5, (1.0, 0.0)), p=2.0).value
        est = expected_ratio_student(emp, p=2.0)
        assert abs(est.value - closed) < 0.08 * abs(closed) + 3 * est.stderr

    def test_iid_path_mc_cross_check(self, within_se, pareto_pos_half):
        # studentized sums: MC mean of S/gamma_2 approaches the gamma-ratio value
        arrays = simulate_statistics(pareto_pos_half, 10**5, 600, [{"name": "studentized", "p": 2.0}], seed=6)
        vals = arrays["studentized_p2"]
        target = gamma_fn(0.25) / (gamma_fn(0.5) * gamma_fn(0.75))
        within_se(vals.mean(), target, vals.std(ddof=1) / math.sqrt(len(vals)), k=3)


class TestGreenwood:
    def test_iid_p2_is_one_minus_alpha(self):
        assert expected_greenwood(iid_cluster(0.5, (1.0, 0.0)), p=2.0).value == pytest.approx(0.5, rel=1e-14)

    def test_iid_p3_frozen(self):
        # Gamma(2.5) / (Gamma(3) Gamma(0.5)) = 0.375
        v = expected_greenwood(iid_cluster(0.5, (1.0, 0.0)), p=3.0).value
        assert v == pytest.approx(0.375, rel=1e-12)

    def test_ar1_closed_form(self):
        # (1 - alpha) (1 - phi)^2 / (1 - phi^2) at p = 2
        v = expected_greenwood(ar1_cluster(0.5, 0.5, (1.0, 0.0)), p=2.0).value
        assert v == pytest.approx(0.5 * 0.25 / 0.75, rel=1e-13)

    def test_positive_cluster_required(self):
        with pytest.raises(ConfigurationError):
            expected_greenwood(iid_cluster(0.5, (0.5, 0.5)), p=2.0)
        with pytest.raises(ConfigurationError):
            expected_greenwood(ar1_cluster(-0.5, 0.5, (1.0, 0.0)), p=2.0)

    def test_alpha_domain(self):
        with pytest.raises(UnsupportedError):
            expected_greenwood(iid_cluster(1.5, (1.0, 0.0)), p=2.0)

    def test_decreasing_in_alpha(self):
        vals = [expected_greenwood(iid_cluster(a, (1.0, 0.0)), p=2.0).value for a in np.arange(0.1, 0.95, 0.1)]
        assert np.all(np.diff(vals) < 0)

    def test_ar1_path_mc_cross_check(self, within_se):
        model = ar1_model(0.5, NoiseSpec("pareto", 0.5, (1.0, 0.0)))
        arrays = simulate_statistics(model, 10**5, 600, [{"name": "greenwood", "p": 2.0}], seed=4)
        vals = arrays["greenwood_p2"]
        closed = expected_greenwood(ar1_cluster(0.5, 0.5, (1.0, 0.0)), p=2.0).value
        within_se(vals.mean(), closed, vals.std(ddof=1) / math.sqrt(len(vals)), k=3)


class TestKurtosis:
    def test_iid_value(self):
        assert expected_kurtosis_limit(iid_cluster(0.5)).value == pytest.approx(0.75, rel=1e-14)

    def test_monotone_to_zero_as_alpha_grows(self):
        vals = [expected_kurtosis_limit(iid_cluster(a)).value for a in (1.0, 1.5, 1.9, 1.99)]
        assert np.all(np.diff(vals) < 0)
        assert vals[-1] == pytest.approx(0.005, rel=1e-10)

    def test_ar1_closed_form(self):
        v = expected_kurtosis_limit(ar1_cluster(0.5, 1.0)).value
        assert v == pytest.approx(0.5 * 0.75 / 1.25, rel=1e-13)

    def test_iid_alpha_one_path_mc(self, within_se):
        # sample kurtosis of Pareto(1) data converges in mean to 1 - 1/2 = 0.5;
        # the full-path statistic is the oracle
        rng = substream(5)
        reps, n = 500, 10**5
        vals = np.empty(reps)
        for i in range(reps):
            x = pareto_quantile(rng.random(n), 1.0)
            x2 = x * x
            m = x2.max()
            s = x2 / m
            vals[i] = np.sum(s * s) / np.sum(s) ** 2
        within_se(vals.mean(), 0.5, vals.std(ddof=1) / math.sqrt(reps), k=3)


class TestGammaIdentity:
    def test_unit_case(self):
        rows = gamma_identity_check(1.0, [1.0])
        assert rows[0].rhs == pytest.approx(1.0, rel=1e-10)
        assert rows[0].passed

    def test_sqrt_case(self):
        rows = gamma_identity_check(2.0, [4.0])
        assert rows[0].lhs == pytest.approx(0.5)
        assert rows[0].rel_err <= 1e-8
        assert rows[0].quad_warnings == 0

    def test_small_p(self):
        rows = gamma_identity_check(0.5, [1.0, 0.7, 3.0])
        assert all(r.passed for r in rows)

    def test_quad_warnings_are_counted(self, warning_quad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # recorded by the check, never shown
            rows = gamma_identity_check(2.0, [1.0, 4.0])
        assert [r.quad_warnings for r in rows] == [1, 1]
        assert all(r.passed for r in rows)

    def test_domains(self):
        with pytest.raises(ConfigurationError):
            gamma_identity_check(-1.0, [1.0])
        with pytest.raises(ConfigurationError):
            gamma_identity_check(1.0, [0.0])

import cmath
import io
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from selfnorm import (
    ConfigurationError,
    DegeneratePathError,
    TransformGrid,
    UnsupportedError,
    ar1_cluster,
    expected_greenwood,
    expected_kurtosis_limit,
    expected_ratio_max,
    expected_ratio_student,
    hybrid_cf,
    iid_cluster,
    joint_cf_laplace,
    laplace_zeta,
    normalizing_an,
    ratio_cf,
    ratio_modulus_laplace,
    sample_limit_lepage_batch,
    stable_cf,
)
from selfnorm.clusters import ClusterAtoms, cluster_law
from selfnorm.experiments import cluster_from_dict, simulate_statistics
from selfnorm.limits import (
    _SERIES_BLOCK,
    _lepage_series,
    _atom_log_damped,
    _stable_atom,
    _tail_exp_integral,
    evaluate_transform_grid,
    stable_scale_const,
)
from selfnorm.rng import substream, substreams


class TestPrimitives:
    @pytest.mark.parametrize("alpha,b,z", [(0.5, 1.3, 0.7), (0.8, -2.0, 1.5), (1.5, 0.9, 0.4)])
    def test_tail_integral_vs_oscillatory_quadrature(self, alpha, b, z):
        got = _tail_exp_integral(alpha, b, z)
        period = 2 * math.pi / abs(b)
        ref_re = mpmath.quadosc(lambda y: mpmath.cos(b * y) * alpha * y ** (-alpha - 1), [z, mpmath.inf], period=period)
        ref_im = mpmath.quadosc(lambda y: mpmath.sin(b * y) * alpha * y ** (-alpha - 1), [z, mpmath.inf], period=period)
        assert got.real == pytest.approx(float(ref_re), abs=1e-10)
        assert got.imag == pytest.approx(float(ref_im), abs=1e-10)

    def test_tail_integral_zero_b(self):
        assert _tail_exp_integral(0.7, 0.0, 2.0) == pytest.approx(2.0**-0.7)

    def test_stable_atom_vs_quadrature_small_alpha(self):
        # int_0^1 (e^{iby}-1) d(-y^-a) + tail via expint == stable atom
        alpha, b = 0.6, 1.7
        head = quad(lambda y: (np.exp(1j * b * y) - 1) * alpha * y ** (-alpha - 1), 0, 1,
                    complex_func=True, epsabs=1e-12, limit=200)[0]
        total = head + _tail_exp_integral(alpha, b, 1.0) - 1.0
        assert complex(total) == pytest.approx(complex(_stable_atom(b, alpha)), abs=1e-8)

    def test_damped_atom_alpha_above_one(self):
        # independent oracle: substitute y = v^2 to tame the origin, add the
        # exact power-law tail of the (-1 - iby) part
        alpha, p, b, c = 1.5, 2.0, 1.1, 0.8
        got = _atom_log_damped(alpha, p, b, c, math.inf, 1e-10)
        Y = 40.0

        def f(v):
            y = v * v
            return (np.exp(1j * b * y - c * y**p) - 1 - 1j * b * y) * alpha * y ** (-alpha - 1) * 2 * v

        head = quad(f, 0, math.sqrt(Y), complex_func=True, epsabs=1e-12, limit=400)[0]
        tail = -(Y**-alpha) - 1j * b * alpha / (alpha - 1.0) * Y ** (1.0 - alpha)
        assert complex(got) == pytest.approx(complex(head + tail), abs=1e-7)

    def test_damped_atom_alpha_below_one(self):
        alpha, p, b, c = 0.5, 2.0, 1.0, 1.0
        got = _atom_log_damped(alpha, p, b, c, math.inf, 1e-10)

        def f(v):
            y = v * v
            return (np.exp(1j * b * y - c * y**p) - 1) * alpha * y ** (-alpha - 1) * 2 * v

        Y = 40.0
        head = quad(f, 0, math.sqrt(Y), complex_func=True, epsabs=1e-12, limit=400)[0]
        assert complex(got) == pytest.approx(complex(head - Y**-alpha), abs=1e-7)


class TestStableCF:
    def test_u_zero(self):
        assert stable_cf(0.0, iid_cluster(0.5)).value == 1.0 + 0j

    def test_conjugate_symmetry_and_modulus(self):
        c = ar1_cluster(0.5, 0.8, (0.7, 0.3))
        for u in (0.3, 1.0, 2.4):
            a = stable_cf(u, c).value
            b = stable_cf(-u, c).value
            assert b == pytest.approx(a.conjugate(), rel=1e-12)
            assert abs(a) <= 1.0

    def test_symmetric_cluster_real(self):
        c = iid_cluster(0.5, (0.5, 0.5))
        v = stable_cf(1.3, c).value
        assert v.imag == pytest.approx(0.0, abs=1e-15)

    def test_iid_positive_closed_form(self):
        # exp(-c_a |u|^a (1 - i tan(pi a/2))) for the single +1 atom
        alpha = 0.5
        c_a = stable_scale_const(alpha)
        for u in (0.5, 2.0):
            expected = cmath.exp(-c_a * u**alpha * (1 - 1j))
            assert stable_cf(u, iid_cluster(alpha, (1.0, 0.0))).value == pytest.approx(expected, rel=1e-12)

    def test_vs_empirical_cf_iid(self, pareto_pos_half):
        n, reps = 20_000, 5000
        arrays = simulate_statistics(pareto_pos_half, n, reps, [{"name": "sum"}], seed=21)
        a_n = normalizing_an(pareto_pos_half, n)
        s = arrays["sum"] / a_n
        for u in (0.5, 1.0):
            emp = np.exp(1j * u * s).mean()
            assert abs(emp - stable_cf(u, iid_cluster(0.5, (1.0, 0.0))).value) < 0.05

    def test_vs_empirical_cf_ar1(self, ar1_pos_half):
        n, reps = 20_000, 4000
        arrays = simulate_statistics(ar1_pos_half, n, reps, [{"name": "sum"}], seed=22)
        a_n = normalizing_an(ar1_pos_half, n)
        s = arrays["sum"] / a_n
        cluster = ar1_cluster(0.5, 0.5, (1.0, 0.0))
        for u in (0.5, 1.0):
            emp = np.exp(1j * u * s).mean()
            assert abs(emp - stable_cf(u, cluster).value) < 0.06

    def test_alpha_one_rejected(self):
        with pytest.raises(ConfigurationError):
            stable_cf(1.0, iid_cluster(1.0))


class TestHybridCF:
    def test_u_zero_is_frechet(self):
        c = ar1_cluster(0.5, 0.8)
        theta = 1 - 0.5**0.8
        for x in (0.5, 1.0, 2.0):
            v = hybrid_cf(0.0, x, c).value
            assert v == pytest.approx(math.exp(-theta * x**-0.8), rel=1e-12)

    def test_large_x_tends_to_stable_cf(self):
        c = iid_cluster(0.5, (1.0, 0.0))
        for u in (0.5, 1.0):
            assert abs(hybrid_cf(u, 1e6, c).value - stable_cf(u, c).value) < 1e-4

    def test_monotone_in_x_at_u_zero(self):
        c = ar1_cluster(0.7, 0.6)
        xs = np.linspace(0.2, 5.0, 12)
        vals = [hybrid_cf(0.0, x, c).value.real for x in xs]
        assert np.all(np.diff(vals) >= 0)

    def test_x_domain(self):
        with pytest.raises(ConfigurationError):
            hybrid_cf(1.0, 0.0, iid_cluster(0.5))

    def test_vs_lepage_empirical_hybrid(self, within_se):
        # the series sampler is the independent oracle for the transform
        c = iid_cluster(0.5, (1.0, 0.0))
        d = sample_limit_lepage_batch(c, 0.5, 2.0, reps=20_000, n_terms=2_000, seed=23)
        for (u, x) in ((0.5, 1.0), (1.0, 0.5), (1.0, 2.0)):
            terms = np.exp(1j * u * d["xi"]) * (d["eta"] <= x)
            emp = terms.mean()
            se = math.sqrt((terms.real.var(ddof=1) + terms.imag.var(ddof=1)) / len(terms))
            got = hybrid_cf(u, x, c).value
            assert abs(emp - got) <= 4 * se


class TestLaplaceZeta:
    def test_lambda_zero(self):
        assert laplace_zeta(0.0, iid_cluster(0.5), p=2.0).value == 1.0

    def test_iid_frozen_value(self):
        # exp(-Gamma(0.75)) = 0.2936353163 at lam = 1, alpha = 0.5, p = 2
        v = laplace_zeta(1.0, iid_cluster(0.5), p=2.0).value.real
        assert v == pytest.approx(math.exp(-gamma_fn(0.75)), rel=1e-14)
        assert v == pytest.approx(0.29363531626628, abs=1e-12)

    def test_clustering_inequality(self):
        # dependence raises the transform pointwise (cluster moment <= 1)
        iid = iid_cluster(0.5)
        dep = ar1_cluster(0.5, 0.5)
        for lam in (0.3, 1.0, 4.0):
            assert laplace_zeta(lam, dep, p=2.0).value.real >= laplace_zeta(lam, iid, p=2.0).value.real

    def test_complete_monotonicity_grid(self):
        c = ar1_cluster(0.6, 0.7)
        lams = np.linspace(0.05, 5.0, 40)
        vals = np.array([laplace_zeta(l, c, p=2.0).value.real for l in lams])
        d1 = np.diff(vals)
        d2 = np.diff(d1)
        assert np.all(d1 <= 0)
        assert np.all(d2 >= 0)

    def test_p_domain(self):
        with pytest.raises(ConfigurationError):
            laplace_zeta(1.0, iid_cluster(0.5), p=0.4)


class TestJointTransform:
    def test_reduces_to_hybrid_at_lambda_zero(self):
        c = ar1_cluster(0.5, 0.5, (1.0, 0.0))
        a = joint_cf_laplace(1.0, 1.5, 0.0, c, p=2.0).value
        b = hybrid_cf(1.0, 1.5, c).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_marginal_laplace(self):
        # (u, x, lam) = (0, inf, lam) -> the zeta Laplace transform
        c = iid_cluster(0.5, (1.0, 0.0))
        for lam in (0.5, 2.0):
            a = joint_cf_laplace(0.0, math.inf, lam, c, p=2.0).value
            b = laplace_zeta(lam, c, p=2.0).value
            assert abs(a - b) < 1e-8

    def test_marginal_frechet(self):
        c = ar1_cluster(0.5, 0.8)
        theta = 1 - 0.5**0.8
        a = joint_cf_laplace(0.0, 1.3, 0.0, c, p=2.0).value
        assert a == pytest.approx(cmath.exp(-theta * 1.3**-0.8), rel=1e-12)

    def test_self_decomposition_identity(self):
        # Phi(u,lam) = Phi(cu, c^p lam) * Phi(u,lam)^(1-c^a), quadrature only
        cluster = iid_cluster(0.5, (1.0, 0.0))
        u = lam = 1.0
        c = 0.5
        p = 2.0
        full = joint_cf_laplace(u, math.inf, lam, cluster, p=p).value
        part = joint_cf_laplace(c * u, math.inf, c**p * lam, cluster, p=p).value
        assert abs(full - part * full ** (1 - c**0.5)) < 1e-6

    @pytest.mark.parametrize("n", [2, 4])
    def test_infinite_divisibility(self, n):
        cluster = ar1_cluster(0.5, 0.5, (1.0, 0.0))
        u = lam = 1.0
        p = 2.0
        alpha = 0.5
        full = joint_cf_laplace(u, math.inf, lam, cluster, p=p).value
        piece = joint_cf_laplace(n ** (-1 / alpha) * u, math.inf, n ** (-p / alpha) * lam, cluster, p=p).value
        assert abs(full - piece**n) < 1e-7

    def test_vs_lepage_samples(self, within_se):
        c = iid_cluster(0.5, (1.0, 0.0))
        d = sample_limit_lepage_batch(c, 0.5, 2.0, reps=20_000, n_terms=2_000, seed=24)
        u, x, lam = 0.7, 1.2, 0.6
        terms = np.exp(1j * u * d["xi"] - lam * d["zeta_p"] ** 2) * (d["eta"] <= x)
        emp = terms.mean()
        se = math.sqrt((terms.real.var(ddof=1) + terms.imag.var(ddof=1)) / len(terms))
        got = joint_cf_laplace(u, x, lam, c, p=2.0).value
        assert abs(emp - got) <= 4 * se

    def test_heavy_range_continuity_to_stable(self):
        # alpha in (1,2): lam -> 0 recovers the (compensated) stable CF at the
        # O(lam^(alpha/p)) rate of the Laplace factor
        c = iid_cluster(1.5, (0.5, 0.5))
        u = 1.0
        a = joint_cf_laplace(u, math.inf, 1e-4, c, p=2.0).value
        b = stable_cf(u, c).value
        assert abs(a - b) < 0.01

    def test_heavy_range_self_decomposition(self):
        cluster = iid_cluster(1.5, (0.7, 0.3))
        u = lam = 1.0
        p = 2.0
        full = joint_cf_laplace(u, math.inf, lam, cluster, p=p).value
        part = joint_cf_laplace(0.5 * u, math.inf, 0.5**p * lam, cluster, p=p).value
        assert abs(full - part * full ** (1 - 0.5**1.5)) < 1e-6

    def test_finite_x_with_lambda_vs_lepage(self):
        c = iid_cluster(0.5, (1.0, 0.0))
        d = sample_limit_lepage_batch(c, 0.5, 2.0, reps=20_000, n_terms=2_000, seed=25)
        u, x, lam = 0.0, 1.0, 1.0
        terms = np.exp(-lam * d["zeta_p"] ** 2) * (d["eta"] <= x)
        emp = terms.mean()
        se = terms.std(ddof=1) / math.sqrt(len(terms))
        got = joint_cf_laplace(u, x, lam, c, p=2.0).value.real
        assert abs(emp - got) <= 4 * se


class TestRatioCF:
    def test_u_zero_is_one(self):
        assert ratio_cf(0.0, ar1_cluster(0.5, 0.5)).value == pytest.approx(1.0 + 0j)

    def test_mean_from_derivative(self):
        # central difference at 0 matches E[R] = 2 for iid positive alpha = 0.5
        c = iid_cluster(0.5, (1.0, 0.0))
        h = 1e-4
        der = (ratio_cf(h, c).value - ratio_cf(-h, c).value) / (2j * h)
        assert abs(der - 2.0) < 1e-3

    def test_ar1_mean_from_derivative(self):
        c = ar1_cluster(0.5, 0.5, (1.0, 0.0))
        h = 1e-4
        der = (ratio_cf(h, c).value - ratio_cf(-h, c).value) / (2j * h)
        assert abs(der - 4.0) < 1e-3

    def test_vs_lepage_ratio_samples(self):
        c = iid_cluster(0.5, (1.0, 0.0))
        d = sample_limit_lepage_batch(c, 0.5, 2.0, reps=20_000, n_terms=2_000, seed=26)
        r = d["xi"] / d["eta"]
        for u in (0.5, 1.0):
            terms = np.exp(1j * u * r)
            emp = terms.mean()
            se = math.sqrt((terms.real.var(ddof=1) + terms.imag.var(ddof=1)) / len(terms))
            assert abs(emp - ratio_cf(u, c).value) <= 3 * se

    def test_degenerate_guard(self):
        atoms = ClusterAtoms(
            alpha=0.5, p=None, weights=np.array([0.5, 0.5]), sum_q=np.zeros(2),
            max_abs=np.ones(2), norm_p_p=np.ones(2), sum_abs=np.ones(2), exact=True,
        )
        with pytest.raises(DegeneratePathError):
            ratio_cf(1.0, iid_cluster(0.5), atoms=atoms)


class TestNumericalDiagnostics:
    def test_hopeless_oscillation_raises_with_diagnostics(self):
        # tiny Laplace damping with p < 1 leaves an astronomically long
        # oscillation window; the engine must refuse, not return garbage
        from selfnorm.errors import NumericalError

        c = iid_cluster(0.5, (1.0, 0.0))
        with pytest.raises(NumericalError, match="estimated error"):
            joint_cf_laplace(5.0, math.inf, 1e-10, c, p=0.7)


class TestRatioModulusLaplace:
    def test_lambda_zero_is_one(self):
        from selfnorm.limits import ratio_modulus_laplace

        assert ratio_modulus_laplace(0.0, iid_cluster(0.5, (1.0, 0.0)), p=2.0).value == 1.0

    def test_vs_lepage_pairs(self):
        # (zeta_p / eta)^p >= 1 for the single-spike cluster; the series
        # sampler is the only available oracle here
        from selfnorm.limits import ratio_modulus_laplace

        c = iid_cluster(0.5, (1.0, 0.0))
        d = sample_limit_lepage_batch(c, 0.5, 2.0, reps=20_000, n_terms=2_000, seed=30)
        r = (d["zeta_p"] / d["eta"]) ** 2
        assert np.all(r >= 1.0 - 1e-12)
        for lam in (0.3, 1.0):
            terms = np.exp(-lam * r)
            emp, se = terms.mean(), terms.std(ddof=1) / math.sqrt(len(terms))
            got = ratio_modulus_laplace(lam, c, p=2.0).value.real
            assert abs(emp - got) <= 3 * se

    def test_ar1_dependent_case(self):
        from selfnorm.limits import ratio_modulus_laplace

        c = ar1_cluster(0.5, 0.5, (1.0, 0.0))
        d = sample_limit_lepage_batch(c, 0.5, 2.0, reps=20_000, n_terms=2_000, seed=31)
        r = (d["zeta_p"] / d["eta"]) ** 2
        terms = np.exp(-r)
        emp, se = terms.mean(), terms.std(ddof=1) / math.sqrt(len(terms))
        got = ratio_modulus_laplace(1.0, c, p=2.0).value.real
        assert abs(emp - got) <= 3 * se


    @pytest.mark.parametrize("alpha,p", [(0.5, 2.0), (0.8, 2.0), (1.5, 2.0), (1.2, 4.0), (0.3, 1.0)])
    def test_closed_form_vs_quadrature(self, alpha, p):
        # one atom with ||Q||_p^p = c at lam = 1 gives e^-c over the
        # denominator 1 + int_1^inf (1 - e^{-c s^(-p/alpha)}) ds, here by quad
        from selfnorm.limits import ratio_modulus_laplace

        one = np.ones(1)
        for c in (1e-6, 1e-2, 1.0, 5.0, 50.0):
            atoms = ClusterAtoms(alpha=alpha, p=p, weights=one, sum_q=one, max_abs=one,
                                 norm_p_p=np.array([c]), sum_abs=one, exact=True)
            head, _ = quad(lambda s: -math.expm1(-c * s ** (-p / alpha)), 1.0, np.inf,
                           epsabs=1e-14, epsrel=1e-13, limit=4000)
            want = math.exp(-c) / (1.0 + head)
            got = ratio_modulus_laplace(1.0, iid_cluster(alpha), p=p, atoms=atoms).value
            assert got.imag == 0.0
            assert got.real == pytest.approx(want, rel=1e-10, abs=0.0), (alpha, p, c)


def _lepage_per_replica(cluster, alpha, p, reps, n_terms, seed, first_index):
    """The series sampler one replica at a time: the reference that the
    blocked sampler must match bit for bit."""
    law = cluster_law(cluster, (p,))
    out = {k: np.empty(reps) for k in ("xi", "eta", "zeta_p", "truncation_bound")}
    for off, rng in enumerate(substreams(seed, range(first_index, first_index + reps))):
        gam = np.cumsum(rng.standard_exponential(n_terms))
        k = law.draw(n_terms, rng)
        w = gam ** (-1.0 / alpha)
        out["eta"][off] = np.max(w * law.max_abs[k])
        out["xi"][off] = np.sum(w * law.sum_q[k])
        out["zeta_p"][off] = np.sum(gam ** (-p / alpha) * law.norm_p_p[k]) ** (1.0 / p)
        mean_l1 = float(law.sum_abs[k].mean())
        out["truncation_bound"][off] = mean_l1 * gam[-1] ** (-1.0 / alpha) * n_terms / (1.0 / alpha - 1.0)
    return out


_SERIES_CLUSTERS = {
    "iid": lambda: iid_cluster(0.5, (0.3, 0.7)),
    "ar1_analytic": lambda: ar1_cluster(-0.6, 0.5, (0.4, 0.6)),
    "empirical": lambda: cluster_from_dict({
        "kind": "empirical", "sample_length": 200_000, "library_seed": 4,
        "source": {"kind": "ar1", "phi": 0.5,
                   "noise": {"kind": "pareto", "alpha": 0.5, "q_plus": 1.0, "q_minus": 0.0}}}),
}


class TestLepageSampler:
    @pytest.mark.parametrize("n_terms", [10, 200, 2000, 5000])
    @pytest.mark.parametrize("kind", sorted(_SERIES_CLUSTERS))
    def test_blocks_match_per_replica_loop(self, kind, n_terms):
        # two blocks, the second partial, from a first index past 0
        cluster = _SERIES_CLUSTERS[kind]()
        reps = _SERIES_BLOCK // n_terms + 3
        got = sample_limit_lepage_batch(cluster, 0.5, 2.0, reps, n_terms, seed=11, first_index=17)
        want = _lepage_per_replica(cluster, 0.5, 2.0, reps, n_terms, seed=11, first_index=17)
        for key in want:
            assert np.array_equal(got[key], want[key]), (key, np.flatnonzero(got[key] != want[key])[:5])

    @pytest.mark.parametrize("kind", sorted(_SERIES_CLUSTERS))
    def test_zeta_p_only_equals_full_call(self, kind):
        cluster = _SERIES_CLUSTERS[kind]()
        full = sample_limit_lepage_batch(cluster, 0.5, 2.0, 300, 200, seed=6, first_index=8)
        only = _lepage_series(cluster, 2.0, 300, 200, 6, 8, ("zeta_p",))
        assert list(only) == ["zeta_p"]
        assert only["zeta_p"].tobytes() == full["zeta_p"].tobytes()

    @pytest.mark.parametrize("kwargs, name", [(dict(reps=10, n_terms=200.5), "n_terms"),
                                              (dict(reps=2.5, n_terms=200), "reps"),
                                              (dict(reps=True, n_terms=200), "reps")])
    def test_refuses_non_integer_sizes(self, kwargs, name):
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            sample_limit_lepage_batch(iid_cluster(0.5), 0.5, 2.0, seed=1, **kwargs)

    def test_eta_is_first_arrival_iid(self):
        # single positive spike: the sup is attained at the first arrival
        c = iid_cluster(0.5, (1.0, 0.0))
        d = sample_limit_lepage_batch(c, 0.5, 2.0, reps=1, n_terms=500, seed=27)
        rng = substream(27, 0)
        gam1 = np.cumsum(rng.standard_exponential(500))[0]
        assert d["eta"][0] == pytest.approx(gam1 ** (-2.0), rel=1e-12)

    @pytest.mark.parametrize("reps", [0, -1])
    def test_refuses_reps_below_one(self, reps):
        with pytest.raises(ConfigurationError, match="reps must be >= 1"):
            sample_limit_lepage_batch(iid_cluster(0.5), 0.5, 2.0, reps=reps, n_terms=100, seed=1)

    def test_preconditions(self):
        c = iid_cluster(0.5)
        with pytest.raises(ConfigurationError):
            sample_limit_lepage_batch(c, 0.5, 0.4, reps=1, seed=1)  # p <= alpha
        with pytest.raises(UnsupportedError):
            sample_limit_lepage_batch(iid_cluster(1.5), 1.5, 2.0, reps=1, seed=1)
        with pytest.raises(ConfigurationError):
            sample_limit_lepage_batch(c, 0.5, 2.0, reps=1, n_terms=5, seed=1)
        with pytest.raises(ConfigurationError, match="disagrees"):
            sample_limit_lepage_batch(c, 0.6, 2.0, reps=1, seed=1)

    def test_alpha_near_one_warns(self):
        with pytest.warns(RuntimeWarning):
            sample_limit_lepage_batch(iid_cluster(0.95), 0.95, 2.0, reps=1, n_terms=100, seed=1)

    def test_determinism_and_truncation_bound(self):
        c = ar1_cluster(0.5, 0.5, (1.0, 0.0))
        a = sample_limit_lepage_batch(c, 0.5, 2.0, reps=1, n_terms=1000, seed=28)
        b = sample_limit_lepage_batch(c, 0.5, 2.0, reps=1, n_terms=1000, seed=28)
        assert all(np.array_equal(a[k], b[k]) for k in ("xi", "eta", "zeta_p"))
        assert a["truncation_bound"][0] > 0
        big = sample_limit_lepage_batch(c, 0.5, 2.0, reps=1, n_terms=10_000, seed=28)
        assert big["truncation_bound"][0] < a["truncation_bound"][0]

    def test_laplace_oracle_small(self, within_se):
        # E[e^{-zeta^2}] = exp(-Gamma(0.75)) = 0.29366, the mandatory check on
        # the modulus component of the series
        c = iid_cluster(0.5, (1.0, 0.0))
        d = sample_limit_lepage_batch(c, 0.5, 2.0, reps=20_000, n_terms=2_000, seed=29)
        terms = np.exp(-d["zeta_p"] ** 2)
        within_se(terms.mean(), math.exp(-gamma_fn(0.75)), terms.std(ddof=1) / math.sqrt(20_000), k=3)


class TestEmpiricalTransform:
    """Transform grids: their CSV and their pointwise evaluation."""

    def test_grid_csv(self):
        grid = TransformGrid.from_points(u=[0.5, 1.0], x=[1.0])
        grid.values[:] = [1 + 2j, 3 + 4j]
        grid.stderr[:] = [0.1, 0.2]
        grid.method = "test"
        buf = io.StringIO()
        grid.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "u,x,lambda,re,im,stderr,method"
        assert lines[1].split(",")[3] == "1"

    def test_evaluate_grid_matches_pointwise(self):
        c = ar1_cluster(0.5, 0.5, (1.0, 0.0))
        grid = TransformGrid.from_points(u=[0.5, 1.0], x=[1.0, 2.0])
        out = evaluate_transform_grid("hybrid_cf", grid, c)
        for i, (u, x) in enumerate(zip(grid.u, grid.x)):
            assert out.values[i] == pytest.approx(hybrid_cf(u, x, c).value, rel=1e-12)


# each transform and oracle, called with the cluster's alpha after the cluster
_STALE_ALPHA_CALLS = {
    "stable_cf": lambda c: stable_cf(1.0, c, 0.5),
    "hybrid_cf": lambda c: hybrid_cf(1.0, 1.0, c, 0.5),
    "laplace_zeta": lambda c: laplace_zeta(1.0, c, 0.5),
    "joint_cf_laplace": lambda c: joint_cf_laplace(1.0, 1.0, 1.0, c, 0.5),
    "ratio_modulus_laplace": lambda c: ratio_modulus_laplace(1.0, c, 0.5),
    "ratio_cf": lambda c: ratio_cf(1.0, c, 0.5),
    "evaluate_transform_grid": lambda c: evaluate_transform_grid(
        "stable_cf", TransformGrid.from_points(u=[1.0]), c, 0.5),
    "expected_ratio_max": lambda c: expected_ratio_max(c, 0.5),
    "expected_ratio_student": lambda c: expected_ratio_student(c, 0.5),
    "expected_greenwood": lambda c: expected_greenwood(c, 0.5),
    "expected_kurtosis_limit": lambda c: expected_kurtosis_limit(c, 0.5),
}


@pytest.mark.parametrize("name", sorted(_STALE_ALPHA_CALLS))
def test_alpha_comes_from_the_cluster(name):
    # alpha is the cluster's: a stale positional alpha is a TypeError, never
    # read as the parameter that follows the cluster
    with pytest.raises(TypeError):
        _STALE_ALPHA_CALLS[name](ar1_cluster(0.5, 0.5, (1.0, 0.0)))

"""The cluster law as weighted atoms, checked against the closed forms of the
analytic kinds, and its batch-means standard errors against library noise.

The analytic oracles, moments and tilted functionals are weighted means over
the two atoms of ``cluster_law``. Their closed forms live here, as the
independent second route, and are compared with the atom law at rel 1e-12.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from selfnorm import (
    NoiseSpec,
    SRELaw,
    ar1_cluster,
    ar1_model,
    cluster_moment,
    empirical_cluster,
    expected_greenwood,
    expected_kurtosis_limit,
    expected_ratio_max,
    expected_ratio_student,
    extremal_index,
    iid_cluster,
    sre_model,
)
from selfnorm import clusters
from selfnorm.clusters import (
    ClusterAtoms,
    _weighted_estimate,
    cluster_atoms,
    cluster_functionals,
    cluster_law,
    tilted_atoms,
    tilted_functionals,
)
from selfnorm.experiments import cluster_to_dict
from selfnorm.rng import substream

REL = 1e-12

ANALYTIC = [
    iid_cluster(0.5, (1.0, 0.0)),
    iid_cluster(0.7, (0.3, 0.7)),
    iid_cluster(1.5, (0.6, 0.4)),
    ar1_cluster(0.5, 0.5, (1.0, 0.0)),
    ar1_cluster(-0.4, 0.8, (0.5, 0.5)),
    ar1_cluster(0.7, 1.3, (0.8, 0.2)),
    ar1_cluster(-0.6, 0.6, (0.3, 0.7)),
]
# ids read the config form, in which an iid cluster has no phi
IDS = [f"{c.kind}-phi{cluster_to_dict(c).get('phi')}-a{c.alpha}-q{c.tail_balance[0]}" for c in ANALYTIC]
POSITIVE = [c for c in ANALYTIC if c.tail_balance[1] == 0.0 and (c.phi or 0.0) >= 0.0 and c.alpha < 1.0]


def _phi(c):
    return c.phi if c.kind == "ar1_analytic" else 0.0


def approx(x):
    return pytest.approx(x, rel=REL, abs=0.0 if x else 1e-15)


@pytest.mark.parametrize("c", ANALYTIC, ids=IDS)
class TestClosedForms:
    def test_law_atoms(self, c):
        phi, a = _phi(c), c.alpha
        r = abs(phi) ** a
        scale = (1 - r) ** (1 / a)
        law = cluster_law(c, (2.0, 3.5))
        assert law.exact and list(law.weights) == list(c.tail_balance)
        assert list(law.sum_q) == [approx(scale / (1 - phi)), approx(-scale / (1 - phi))]
        assert list(law.max_abs) == [approx(scale)] * 2
        assert list(law.sum_abs) == [approx(scale / (1 - abs(phi)))] * 2
        for q in (2.0, 3.5):
            assert list(law.norms[q]) == [approx((1 - r) ** (q / a) / (1 - abs(phi) ** q))] * 2

    def test_tilted_law(self, c):
        # the analytic norms are deterministic, so the tilt does not reweight
        phi = _phi(c)
        t = tilted_atoms(c, p=2.5)
        assert t.exact
        assert list(t.weights) == [approx(c.tail_balance[0]), approx(c.tail_balance[1])]
        assert list(t.sum_q) == [approx(1 / (1 - phi)), approx(-1 / (1 - phi))]
        assert list(t.max_abs) == [1.0, 1.0]
        assert list(t.sum_abs) == [approx(1 / (1 - abs(phi)))] * 2
        assert list(t.norm_p_p) == [approx(1 / (1 - abs(phi) ** 2.5))] * 2
        f = tilted_functionals(c, 2000, p=2.5, seed=1)
        assert np.allclose(np.abs(f["sum_q"]), 1 / (1 - phi), rtol=REL, atol=0)
        assert np.allclose(f["sum_abs_p"], 1 / (1 - abs(phi) ** 2.5), rtol=REL, atol=0)

    def test_extremal_index(self, c):
        for method in ("auto", "cluster_max"):
            est = extremal_index(c, reps=100, method=method)
            assert est.value == approx(1 - abs(_phi(c)) ** c.alpha)
            assert est.stderr == 0.0

    @pytest.mark.parametrize("p", [0.4, 2.0, 3.0])
    def test_cluster_moment(self, c, p):
        phi, a = _phi(c), c.alpha
        r = abs(phi) ** a
        assert cluster_moment(c, p).value == approx((1 - r) / (1 - abs(phi) ** p) ** (a / p))

    def test_ratio_max(self, c):
        (qp, qm), a = c.tail_balance, c.alpha
        assert expected_ratio_max(c).value == approx((qp - qm) / (1 - _phi(c)) / (1 - a))

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_ratio_student(self, c, p):
        (qp, qm), a, phi = c.tail_balance, c.alpha, _phi(c)
        gfac = gamma_fn((1 - a) / p) / (gamma_fn(1 / p) * gamma_fn(1 - a / p))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # alpha > 1 is flagged experimental
            got = expected_ratio_student(c, p=p).value
        assert got == approx(gfac * (qp - qm) * (1 - abs(phi) ** p) ** (1 / p) / (1 - phi))

    def test_kurtosis(self, c):
        a, phi2 = c.alpha, _phi(c) ** 2
        assert expected_kurtosis_limit(c).value == approx((1 - a / 2) * (1 - phi2) / (1 + phi2))


@pytest.mark.parametrize("c", POSITIVE, ids=[IDS[ANALYTIC.index(c)] for c in POSITIVE])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_greenwood_closed_form(c, p):
    a, phi = c.alpha, _phi(c)
    gfac = gamma_fn(p - a) / (gamma_fn(p) * gamma_fn(1 - a))
    assert expected_greenwood(c, p=p).value == approx(gfac * (1 - phi) ** p / (1 - phi**p))


def test_two_atom_draw_is_the_sign_draw():
    # the inverse CDF of rng.random over the atoms (q+, q-) is rng.random < q+
    c = ar1_cluster(-0.6, 0.8, (0.3, 0.7))
    f = cluster_functionals(c, 10_000, 2.0, seed=4)
    signs = np.where(substream(4, 11).random(10_000) < 0.3, 1.0, -1.0)
    assert np.array_equal(np.sign(f["sum_q"]), signs)


@pytest.fixture(scope="module")
def emp():
    return empirical_cluster(ar1_model(0.5, NoiseSpec("pareto", 0.8)), sample_length=300_000, library_seed=5)


class TestEmpiricalLaw:
    def test_one_atom_per_anchor(self, emp):
        law = cluster_law(emp, (2.0,))
        lib = emp._empirical_library()
        assert len(law.weights) == lib.n_anchors and np.all(law.weights == 1.0 / lib.n_anchors)
        assert np.array_equal(law.group, lib.anchor_chain)
        assert np.array_equal(law.norm_p_p, lib.table((2.0,))[2.0])

    def test_tilt_is_exact_reweighting(self, emp):
        # E h(Qtilde) = E[max|Q|^a h(Q / max|Q|)] / E[max|Q|^a] over the library
        law = cluster_law(emp, (2.0,))
        t = law.tilted()
        w = law.max_abs**emp.alpha
        h = np.minimum(np.abs(law.sum_q / law.max_abs), 1.5)
        assert np.sum(t.weights * np.minimum(np.abs(t.sum_q), 1.5)) == pytest.approx(
            np.sum(w * h) / np.sum(w), rel=REL)
        assert np.all(t.max_abs == 1.0)

    def test_tilted_draws_follow_the_tilted_law(self, emp):
        t = cluster_law(emp, (2.0,)).tilted()
        f = tilted_functionals(emp, 200_000, p=2.0, seed=6)
        for v in (np.sort(t.sum_q)[len(t.sum_q) // 2], 1.5):
            p = float(np.sum(t.weights[t.sum_q <= v]))
            assert abs(np.mean(f["sum_q"] <= v) - p) <= 4 * math.sqrt(p * (1 - p) / 200_000)

    def test_tilted_atoms_reweight_cluster_atoms(self, emp):
        a, t = cluster_atoms(emp, p=2.0), tilted_atoms(emp, p=2.0)
        w = a.max_abs**emp.alpha
        assert np.allclose(t.weights, w / w.sum(), rtol=REL)
        assert np.allclose(t.norm_p_p, a.norm_p_p / a.max_abs**2, rtol=REL)
        assert np.array_equal(t.group, a.group)


class TestWeightedEstimate:
    def test_exact_atoms_have_no_stderr(self):
        est = _weighted_estimate(cluster_law(iid_cluster(0.5, (0.3, 0.7)), (2.0,)), 1.0, np.array([1.0, -1.0]))
        assert est.value == approx(-0.4) and est.stderr == 0.0 and est.method == "closed_form"

    def test_batch_means_formula(self):
        rng = np.random.default_rng(3)
        n = 300
        v, g = rng.standard_normal(n) + 1j * rng.standard_normal(n), rng.random(n)
        group = rng.integers(0, 7, size=n)
        atoms = ClusterAtoms(alpha=0.5, p=2.0, weights=np.full(n, 1.0 / n), sum_q=v.real, max_abs=g,
                             norm_p_p=g, sum_abs=g, exact=False, reps=n, group=group)
        est = _weighted_estimate(atoms, g, v)
        r = np.sum(g * v) / np.sum(g)
        chain_sums = np.array([np.sum(g[group == b] * (v[group == b] - r)) for b in range(7)])
        assert est.value == pytest.approx(r, rel=REL)
        assert est.stderr == pytest.approx(math.sqrt(np.sum(np.abs(chain_sums) ** 2) * 7 / 6) / np.sum(g), rel=1e-10)
        assert est.reps == n

    def test_independent_draws_give_the_iid_stderr(self):
        # one draw per group: the linearised stderr of a ratio of means
        rng = np.random.default_rng(4)
        n = 400
        v = rng.standard_normal(n)
        atoms = ClusterAtoms(alpha=0.5, p=2.0, weights=np.full(n, 1.0 / n), sum_q=v, max_abs=v, norm_p_p=v,
                             sum_abs=v, exact=False, reps=n, group=np.arange(n))
        est = _weighted_estimate(atoms, 1.0, v)
        assert est.stderr == pytest.approx(v.std(ddof=1) / math.sqrt(n), rel=1e-10)


def test_stderr_covers_library_seed_spread():
    """The spread of an empirical estimate across library seeds is what its
    stderr has to describe. A resampling stderr that ignores the library's own
    noise understates it more than tenfold; batch means over the chains must
    come within 2x."""
    source = ar1_model(0.5, NoiseSpec("pareto", 0.5, (1.0, 0.0)))
    greenwood, theta = [], []
    for seed in range(20):
        c = empirical_cluster(source, library_seed=seed)
        greenwood.append(expected_greenwood(c, p=2.0))
        theta.append(extremal_index(c, method="cluster_max"))
    for name, ests in (("greenwood", greenwood), ("extremal_index", theta)):
        ratio = np.std([e.value for e in ests], ddof=1) / np.mean([e.stderr for e in ests])
        assert 0.5 <= ratio <= 2.0, (name, ratio)


class TestExactSums:
    """On an empirical cluster every expectation is the explicit 1/n-weighted
    sum over the ``cluster_law`` columns, one term per library anchor, and its
    stderr is the batch-means stderr over all of them. The ``n_mc``, ``seed``
    and ``reps`` keywords that some calls still accept change nothing."""

    A, U, X, LAM = 0.5, 0.8, 1.5, 0.7

    @pytest.fixture(scope="class")
    def c(self):
        # a positive cluster, so that the greenwood oracle applies
        return empirical_cluster(ar1_model(0.5, NoiseSpec("pareto", self.A, (1.0, 0.0))),
                                 sample_length=200_000, library_seed=3)

    @staticmethod
    def _mean(law, v):
        return np.sum(np.full(len(law.weights), 1.0 / len(law.weights)) * v)

    def _ratio(self, law, g, v):
        return self._mean(law, g * v) / self._mean(law, g)

    def test_oracles_and_moments(self, c):
        a = self.A
        law = cluster_law(c, (2.0, 4.0))
        n2, n4, m, s, l1 = law.norm_p_p, law.norms[4.0], law.max_abs, law.sum_q, law.sum_abs
        gs = gamma_fn((1 - a) / 2) / (gamma_fn(0.5) * gamma_fn(1 - a / 2))
        gg = gamma_fn(2 - a) / gamma_fn(1 - a)
        cases = [
            (expected_ratio_max(c), 1 / (1 - a), m**a, s / m),
            (expected_ratio_student(c, p=2.0), gs, n2 ** (a / 2), s / np.sqrt(n2)),
            (expected_greenwood(c, p=2.0), gg, l1**a, n2 / l1**2),
            (expected_kurtosis_limit(c), 1 - a / 2, n2 ** (a / 2), n4 / n2**2),
            (cluster_moment(c, 2.0), 1.0, 1.0, n2 ** (a / 2)),
            (extremal_index(c, method="cluster_max"), 1.0, 1.0, m**a),
        ]
        for est, factor, g, v in cases:
            assert est.value == pytest.approx(factor * self._ratio(law, g, v), rel=1e-14, abs=0.0)
            assert est.stderr == pytest.approx(abs(factor) * _weighted_estimate(law, g, v).stderr, rel=1e-14)
            assert est.reps == len(law.weights) == c._empirical_library().n_anchors

    def test_transforms(self, c):
        from selfnorm import limits

        a, u, x, lam = self.A, self.U, self.X, self.LAM
        law = cluster_law(c, (2.0,))
        s, m, n2 = law.sum_q, law.max_abs, law.norm_p_p
        stable = limits._stable_atom(u * s, a)
        hybrid = stable - limits._tail_exp_integral(a, u * s, x / m)
        damped = limits._damped_log(a, 2.0, u * s, lam * n2, x / m, limits.QUAD_TOL)[0]
        for tv, per_atom in ((limits.stable_cf(u, c), stable), (limits.hybrid_cf(u, x, c), hybrid),
                             (limits.joint_cf_laplace(u, x, lam, c, p=2.0), damped)):
            want = np.exp(self._mean(law, per_atom))
            assert abs(tv.value - want) <= 1e-14 * abs(want)
            assert tv.stderr == pytest.approx(abs(want) * _weighted_estimate(law, 1.0, per_atom).stderr, rel=1e-12)
        # the tilted ratio transforms: ratios of max|Q|^alpha-weighted sums
        st = s / m
        num = np.exp(1j * u * st)
        den = limits._tail_exp_integral(a, u * st, 1.0) - limits._stable_atom(u * st, a)
        want = self._mean(law, m**a * num) / self._mean(law, m**a * den)
        assert abs(limits.ratio_cf(u, c).value - want) <= 1e-14 * abs(want)
        cq, r = lam * n2 / m**2, a / 2
        num = np.exp(-cq)
        den = num + cq**r * limits.gammainc(1 - r, cq) * gamma_fn(1 - r)
        want = self._mean(law, m**a * num) / self._mean(law, m**a * den)
        assert limits.ratio_modulus_laplace(lam, c, p=2.0).value.real == pytest.approx(want, rel=1e-14)
        want = math.exp(-gamma_fn(1 - a / 2) * self._mean(law, n2 ** (a / 2)) * lam ** (a / 2))
        assert limits.laplace_zeta(lam, c, p=2.0).value.real == pytest.approx(want, rel=1e-14)

    def test_kept_keywords_change_nothing(self, c):
        def bits(obj):
            if isinstance(obj, ClusterAtoms):
                return [obj.weights.tobytes(), obj.sum_q.tobytes(), obj.max_abs.tobytes(),
                        obj.norm_p_p.tobytes(), obj.sum_abs.tobytes(), obj.group.tobytes()]
            return [complex(obj.value).real.hex(), complex(obj.value).imag.hex(), float(obj.stderr).hex()]

        from selfnorm import limits

        calls = [
            lambda k, seed: cluster_atoms(c, p=2.0, n_mc=k, seed=seed),
            lambda k, seed: tilted_atoms(c, p=2.0, n_mc=k, seed=seed),
            lambda k, seed: limits.laplace_zeta(self.LAM, c, p=2.0, reps=k, seed=seed),
            lambda k, seed: expected_greenwood(c, p=2.0, n_mc=k, seed=seed),
            lambda k, seed: expected_ratio_max(c, n_mc=k, seed=seed),
            lambda k, seed: extremal_index(c, reps=k, seed=seed, method="cluster_max"),
        ]
        for call in calls:
            assert bits(call(500, 1)) == bits(call(100_000, 7))


def _lognormal_ab(rng, size):
    # the bench SRE law (alpha 0.8, sigma 1, B = 1) as a custom sampler
    return np.exp(-0.4 + rng.standard_normal(size)), np.ones(size)


class TestSharedLibrary:
    """Equal empirical clusters share one read-only library per process."""

    SOURCE = ar1_model(0.5, NoiseSpec("pareto", 0.8))

    @pytest.fixture(autouse=True)
    def builds(self, monkeypatch):
        clusters._shared_library.cache_clear()
        calls = []
        build = clusters._BlockLibrary.build.__func__

        def counted(cls, model):
            calls.append(model)
            return build(cls, model)

        monkeypatch.setattr(clusters._BlockLibrary, "build", classmethod(counted))
        yield calls
        clusters._shared_library.cache_clear()

    def test_equal_models_share_one_build(self, builds):
        a = empirical_cluster(self.SOURCE, sample_length=50_000, library_seed=5)
        b = empirical_cluster(ar1_model(0.5, NoiseSpec("pareto", 0.8, [0.5, 0.5])), sample_length=50_000,
                              library_seed=5)
        assert a == b and a is not b
        assert a._empirical_library() is b._empirical_library()
        other = empirical_cluster(self.SOURCE, sample_length=50_000, library_seed=6)
        assert other._empirical_library() is not a._empirical_library()
        assert len(builds) == 2

    def test_library_arrays_are_read_only(self):
        c = empirical_cluster(self.SOURCE, sample_length=50_000, library_seed=5)
        law = cluster_law(c, (2.0, 3.0))
        lib = c._empirical_library()
        arrays = [lib.segments, lib.anchor_chain, lib.anchor_pos, *lib.columns.values(),
                  law.sum_q, law.max_abs, law.norm_p_p, law.norms[3.0], law.group]
        # max_abs, sum_q, sum_abs, and the exponents 2, 3 and alpha
        assert len(lib.columns) == 6
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_one_trim_per_library(self, monkeypatch):
        # h = 1500 puts about 2,000 anchors in chunks of 666: several chunks
        h = 1500
        c = empirical_cluster(self.SOURCE, threshold_quantile=0.99, block_half_width=h,
                              sample_length=200_000, library_seed=5)
        lib, alpha = c._empirical_library(), c.alpha
        trim = clusters._own_cluster_theta
        chunks = []
        monkeypatch.setattr(clusters, "_own_cluster_theta", lambda blocks, *a: chunks.append(1) or trim(blocks, *a))
        lib.table((2.0,))
        lib.table((alpha,))
        n, chunk = lib.n_anchors, 2_000_000 // (2 * h + 1)
        assert len(chunks) == -(-n // chunk) > 1
        # the alpha column as its own per-exponent pass over the anchors gives it
        ref = np.empty(n)
        for lo in range(0, n, chunk):
            theta = trim(lib.blocks(np.arange(lo, min(lo + chunk, n))), h, lib.floor_rel, lib.run_gap)
            absth = np.abs(theta)
            scale = np.sum(absth**alpha, axis=1) ** (1.0 / alpha)
            ref[lo:lo + chunk] = np.sum(absth**alpha, axis=1) / scale**alpha
        assert np.array_equal(lib.columns[alpha], ref)

    def test_custom_sre_library_is_not_shared(self, builds):
        def cluster():
            law = SRELaw(alpha=0.8, kind="custom", sampler=_lognormal_ab)
            return empirical_cluster(sre_model(law), sample_length=20_000, library_seed=1)

        a, b = cluster(), cluster()
        assert a == b
        assert a._empirical_library() is not b._empirical_library()
        assert len(builds) == 2
        assert clusters._shared_library.cache_info().currsize == 0

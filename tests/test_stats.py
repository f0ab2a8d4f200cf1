import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfnorm import (
    ConfigurationError,
    DegeneratePathError,
    NoiseSpec,
    compute_stats,
    greenwood,
    iid_model,
    kurtosis_ratio,
    norm_ratio,
    ratio_max,
    sample_path,
    studentized,
)
from selfnorm.stats import batch_stats, stats_rows_to_csv


class TestComputeStats:
    def test_three_four_five(self):
        s = compute_stats(np.array([3.0, 4.0]), ps=(2.0,))
        assert s.sum == 7.0
        assert s.max_abs == 4.0
        assert s.modulus(2.0) == pytest.approx(5.0, rel=1e-15)
        assert ratio_max(s) == pytest.approx(1.75)
        assert studentized(s, 2.0) == pytest.approx(1.4)

    def test_all_zero_flagged(self):
        s = compute_stats(np.zeros(5), ps=(1.0, 2.0))
        assert s.degenerate and s.max_abs == 0.0
        with pytest.raises(DegeneratePathError):
            ratio_max(s)
        with pytest.raises(DegeneratePathError):
            studentized(s, 2.0)

    def test_ones_l1(self):
        s = compute_stats(np.ones(17), ps=(1.0,))
        assert s.modulus(1.0) == pytest.approx(17.0)
        assert s.max_abs == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_stats(np.array([]), ps=(2.0,))
        with pytest.raises(ConfigurationError):
            compute_stats(np.ones(3), ps=())
        with pytest.raises(ConfigurationError):
            compute_stats(np.ones(3), ps=(-1.0,))

    def test_missing_modulus(self):
        s = compute_stats(np.ones(3), ps=(2.0,))
        with pytest.raises(ConfigurationError):
            s.modulus(3.0)

    def test_centering_policies(self):
        model = iid_model(NoiseSpec("pareto", 1.5, (1.0, 0.0)))
        path = sample_path(model, 500, seed=1)
        s_none = compute_stats(path, ps=(2.0,), centering="none")
        s_emp = compute_stats(path, ps=(2.0,), centering="empirical")
        s_ana = compute_stats(path, ps=(2.0,), centering="analytic")
        assert s_emp.sum == pytest.approx(0.0, abs=1e-8)
        assert s_ana.sum == pytest.approx(s_none.sum - 500 * 3.0, rel=1e-12)
        # the moduli use the same centered series as the sum
        assert s_emp.modulus(2.0) != s_none.modulus(2.0)

    def test_explicit_mean(self):
        s = compute_stats(np.array([2.0, 4.0]), ps=(1.0,), centering="analytic", mean=3.0)
        assert s.sum == 0.0
        assert s.max_abs == 1.0

    def test_overflow_free_moduli(self):
        # raw p-th powers overflow doubles; the max-rescaled form must not
        x = np.array([1e300, 5e299])
        s = compute_stats(x, ps=(2.0,))
        assert np.isfinite(s.modulus(2.0))
        assert s.modulus(2.0) == pytest.approx(1e300 * math.sqrt(1.25), rel=1e-12)

    def test_vector_valued_paths(self):
        x = np.array([[3.0, 0.0], [0.0, 4.0]])
        s = compute_stats(x, ps=(2.0,))
        assert s.max_abs == 4.0
        assert np.allclose(s.sum, [3.0, 4.0])
        assert s.modulus(2.0) == pytest.approx(5.0)


class TestRatioStatistics:
    def test_single_point(self):
        s = compute_stats(np.array([7.0]), ps=(2.0,))
        assert ratio_max(s) == 1.0
        assert greenwood(np.array([7.0]), 2.0, alpha=0.5) == 1.0
        assert norm_ratio(np.array([7.0]), 3.0, 1.0) == 1.0
        assert kurtosis_ratio(np.array([7.0])) == 1.0

    def test_greenwood_ones(self):
        n = 11
        assert greenwood(np.ones(n), 2.0, alpha=0.5) == pytest.approx(1.0 / n, rel=1e-14)

    def test_greenwood_domain(self):
        with pytest.raises(ConfigurationError):
            greenwood(np.array([1.0, -2.0]), 2.0, alpha=0.5)
        with pytest.raises(ConfigurationError):
            greenwood(np.ones(3), 2.0, alpha=1.5)
        with pytest.raises(ConfigurationError):
            greenwood(np.ones(3), 0.4, alpha=0.5)
        with pytest.raises(ConfigurationError):
            greenwood(np.ones(3), 2.0)  # alpha undeclared

    def test_greenwood_from_path(self, pareto_pos_half):
        p = sample_path(pareto_pos_half, 100, seed=2)
        assert 0.0 < greenwood(p, 2.0) <= 1.0

    def test_norm_ratio_pair_of_ones(self):
        assert norm_ratio(np.ones(2), 2.0, 1.0) == pytest.approx(math.sqrt(2) / 2)

    def test_kurtosis_pair_of_ones(self):
        assert kurtosis_ratio(np.ones(2)) == pytest.approx(0.5)

    def test_studentized_l1_bound_positive_data(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.random(20) + 0.01
            s = compute_stats(x, ps=(1.0,))
            assert abs(studentized(s, 1.0)) <= 1.0 + 1e-12


@st.composite
def paths(draw, min_size=2, max_size=60):
    vals = draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).filter(lambda v: abs(v) > 1e-9),
        min_size=min_size, max_size=max_size,
    ))
    return np.array(vals)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(paths(), st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_equivariance(self, x, c):
        ps = (1.0, 2.0)
        s1 = compute_stats(x, ps=ps)
        s2 = compute_stats(c * x, ps=ps)
        assert ratio_max(s2) == pytest.approx(ratio_max(s1), rel=1e-9)
        assert studentized(s2, 2.0) == pytest.approx(studentized(s1, 2.0), rel=1e-9)
        assert norm_ratio(c * x, 2.0, 1.0) == pytest.approx(norm_ratio(x, 2.0, 1.0), rel=1e-9)
        assert kurtosis_ratio(c * x) == pytest.approx(kurtosis_ratio(x), rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(paths(), st.floats(min_value=0.2, max_value=4.0), st.floats(min_value=0.1, max_value=4.0))
    def test_lp_monotonicity(self, x, p, dp):
        r = p + dp
        s = compute_stats(x, ps=(p, r))
        assert s.modulus(p) >= s.modulus(r) - 1e-9 * s.modulus(p)

    @settings(max_examples=200, deadline=None)
    @given(paths().map(np.abs).filter(lambda x: np.all(x > 0)))
    def test_greenwood_bounds(self, x):
        t = greenwood(x, 2.0, alpha=0.5)
        assert 1.0 / len(x) - 1e-12 <= t <= 1.0 + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(paths(), st.floats(min_value=0.5, max_value=3.0))
    def test_scale_equivariance_greenwood(self, x, c):
        x = np.abs(x) + 1e-6
        t1 = greenwood(x, 2.0, alpha=0.5)
        t2 = greenwood(c * x, 2.0, alpha=0.5)
        assert t2 == pytest.approx(t1, rel=1e-9)


class TestBatch:
    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        rows = rng.standard_t(1.5, size=(7, 40))
        bs = batch_stats(rows, ps=(1.0, 2.0))
        for i in range(7):
            s = compute_stats(rows[i], ps=(1.0, 2.0))
            assert bs["sum"][i] == pytest.approx(s.sum, rel=1e-12)
            assert bs["max_abs"][i] == pytest.approx(s.max_abs)
            assert bs["gamma_2"][i] == pytest.approx(s.modulus(2.0), rel=1e-12)

    def test_batch_zero_rows(self):
        bs = batch_stats(np.zeros((2, 5)), ps=(2.0,))
        assert np.all(bs["gamma_2"] == 0.0)

    def test_csv_writer(self, tmp_path):
        rows = [(0, 10, "ratio_max", None, 1.5), (1, 10, "studentized_p2", 2.0, 0.7)]
        target = tmp_path / "stats.csv"
        stats_rows_to_csv(rows, target)
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "replica,n,statistic,p,value"
        assert lines[1].startswith("0,10,ratio_max,,")

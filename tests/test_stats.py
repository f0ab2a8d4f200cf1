import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfnorm import ConfigurationError, processes, sample_path, simulate_statistics
from selfnorm.stats import _ReductionPlan, batch_stats, stats_rows_to_csv


def reduce_row(x, specs, alpha=None):
    """The statistics of one path, uncentered, through the reduction plan the
    runners execute: label -> float."""
    got = _ReductionPlan.build(specs, alpha).reduce(np.asarray(x, dtype=float)[None, :], 0.0)
    return {label: float(v[0]) for label, v in got.items()}


class TestComputeStats:
    """The sum, the maximum modulus and the moduli of one path."""

    def test_three_four_five(self):
        s = reduce_row([3.0, 4.0], [{"name": "sum"}, {"name": "max_abs"}, {"name": "gamma", "p": 2.0},
                                    {"name": "ratio_max"}, {"name": "studentized", "p": 2.0}])
        assert s["sum"] == 7.0
        assert s["max_abs"] == 4.0
        assert s["gamma_p2"] == pytest.approx(5.0, rel=1e-15)
        assert s["ratio_max"] == pytest.approx(1.75)
        assert s["studentized_p2"] == pytest.approx(1.4)

    def test_all_zero_flagged(self):
        # a vanishing modulus is 0, and a ratio by it 0/0
        specs = [{"name": "ratio_max"}, {"name": "studentized", "p": 2.0}, {"name": "gamma", "p": 1.0},
                 {"name": "max_abs"}]
        with np.errstate(invalid="ignore"):
            s = reduce_row(np.zeros(5), specs)
        assert math.isnan(s["ratio_max"]) and math.isnan(s["studentized_p2"])
        assert s["gamma_p1"] == 0.0 and s["max_abs"] == 0.0

    def test_ones_l1(self):
        s = reduce_row(np.ones(17), [{"name": "gamma", "p": 1.0}, {"name": "max_abs"}])
        assert s["gamma_p1"] == pytest.approx(17.0)
        assert s["max_abs"] == 1.0

    def test_empty_rejected(self, pareto_pos_half, monkeypatch):
        def no_paths(*args, **kwargs):
            raise AssertionError("simulated a path")

        monkeypatch.setattr(processes, "_path_tiles", no_paths)
        with pytest.raises(ConfigurationError, match="at least one statistic"):
            simulate_statistics(pareto_pos_half, 10, 3, [])
        with pytest.raises(ConfigurationError):
            simulate_statistics(pareto_pos_half, 0, 3, [{"name": "ratio_max"}])
        with pytest.raises(ConfigurationError):
            simulate_statistics(pareto_pos_half, 10, 0, [{"name": "ratio_max"}])
        with pytest.raises(ConfigurationError):
            _ReductionPlan.build({"name": "gamma", "p": 2.0})
        with pytest.raises(ConfigurationError):
            _ReductionPlan.build([{"name": "gamma", "p": -1.0}])

    def test_overflow_free_moduli(self):
        # raw p-th powers overflow doubles; the max-rescaled form must not
        g = reduce_row([1e300, 5e299], [{"name": "gamma", "p": 2.0}])["gamma_p2"]
        assert np.isfinite(g)
        assert g == pytest.approx(1e300 * math.sqrt(1.25), rel=1e-12)


def greenwood(x, p, alpha):
    return reduce_row(x, [{"name": "greenwood", "p": p}], alpha)[f"greenwood_p{p:g}"]


def norm_ratio(x, q, r):
    return reduce_row(x, [{"name": "norm_ratio", "q": q, "r": r}])[f"norm_ratio_{q:g}_{r:g}"]


def kurtosis(x):
    return reduce_row(x, [{"name": "kurtosis"}])["kurtosis"]


class TestRatioStatistics:
    def test_single_point(self):
        x = np.array([7.0])
        assert reduce_row(x, [{"name": "ratio_max"}])["ratio_max"] == 1.0
        assert greenwood(x, 2.0, alpha=0.5) == 1.0
        assert norm_ratio(x, 3.0, 1.0) == 1.0
        assert kurtosis(x) == 1.0

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

    def test_greenwood_from_path(self, pareto_pos_half):
        p = sample_path(pareto_pos_half, 100, seed=2)
        assert 0.0 < greenwood(p.values, 2.0, pareto_pos_half.alpha) <= 1.0

    def test_norm_ratio_pair_of_ones(self):
        assert norm_ratio(np.ones(2), 2.0, 1.0) == pytest.approx(math.sqrt(2) / 2)

    def test_kurtosis_pair_of_ones(self):
        assert kurtosis(np.ones(2)) == pytest.approx(0.5)

    def test_studentized_l1_bound_positive_data(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.random(20) + 0.01
            assert abs(reduce_row(x, [{"name": "studentized", "p": 1.0}])["studentized_p1"]) <= 1.0 + 1e-12


@st.composite
def paths(draw, min_size=2, max_size=60):
    vals = draw(st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).filter(lambda v: abs(v) > 1e-9),
        min_size=min_size, max_size=max_size,
    ))
    return np.array(vals)


RATIOS = [{"name": "ratio_max"}, {"name": "studentized", "p": 2.0}, {"name": "norm_ratio", "q": 2.0, "r": 1.0},
          {"name": "kurtosis"}]


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(paths(), st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_equivariance(self, x, c):
        s1 = reduce_row(x, RATIOS)
        s2 = reduce_row(c * x, RATIOS)
        for label in s1:
            assert s2[label] == pytest.approx(s1[label], rel=1e-9), label

    @settings(max_examples=200, deadline=None)
    @given(paths(), st.floats(min_value=0.2, max_value=4.0), st.floats(min_value=0.1, max_value=4.0))
    def test_lp_monotonicity(self, x, p, dp):
        r = p + dp
        s = reduce_row(x, [{"name": "gamma", "p": p}, {"name": "gamma", "p": r}])
        gp, gr = s[f"gamma_p{p:g}"], s[f"gamma_p{r:g}"]
        assert gp >= gr - 1e-9 * gp

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

import io
import math

import numpy as np
import pytest

from selfnorm import ConfigurationError, NoiseSpec, SRELaw, UnsupportedError, ar1_model, sre_model
from selfnorm._pool import Pool, partition, repays_pool
from selfnorm.diagnostics import (
    _anticluster_rows,
    _coupling_rows,
    _rows_block,
    _submit_anticluster,
    _submit_coupled_anticluster,
    _submit_coupling,
    anticluster_stat,
    coupled_anticluster_stat,
    coupling_decay,
)
from selfnorm.processes import _coupled_rows, normalizing_an


class TestCouplingDecay:
    def test_ar1_slope_matches_rate(self, ar1_pos_half):
        # E|X_t - X*_t|^q decays like |phi|^(qt): slope q log 0.5 within 10%
        q = 0.4
        series = coupling_decay(ar1_pos_half, q=q, t_max=25, reps=4000, seed=1)
        target = q * math.log(0.5)
        assert abs(series.fitted_log_slope - target) <= 0.1 * abs(target)
        assert series.r2 > 0.99
        assert np.all(series.values >= 0)

    def test_sre_zero_a_identically_zero(self):
        model = sre_model(SRELaw(alpha=0.8, kind="constant", a_const=0.0), burn_in=20, kesten_check=False)
        series = coupling_decay(model, q=0.3, t_max=10, reps=200, seed=2)
        assert np.all(series.values == 0.0)
        assert math.isnan(series.fitted_log_slope)

    def test_initial_states_independent(self, ar1_pos_half):
        # the time-0 gap E|X_0 - X*_0|^q is positive (independent copies)
        _, _, x0, x0s = _coupled_rows(ar1_pos_half, 1, 3, np.arange(500))
        assert np.mean(np.abs(x0 - x0s) ** 0.4) > 0

    def test_iid_unsupported(self, pareto_pos_half):
        with pytest.raises(UnsupportedError):
            coupling_decay(pareto_pos_half, q=0.4, t_max=5, reps=10)

    def test_q_domain(self, ar1_pos_half):
        with pytest.raises(ConfigurationError):
            coupling_decay(ar1_pos_half, q=0.6, t_max=5, reps=10)  # q >= alpha ^ 1

    @pytest.mark.parametrize("reps", [20, 300])
    def test_stderr_is_sample_stderr_of_rows(self, ar1_pos_half, reps):
        # the stderr is the replicas' sample stderr (ddof = 1), not the population one
        series = coupling_decay(ar1_pos_half, q=0.4, t_max=8, reps=reps, seed=4)
        rows = _coupling_rows(ar1_pos_half, 4, np.arange(reps), 8, 0.4)
        assert series.values.tobytes() == rows.mean(axis=0).tobytes()
        assert series.stderr.tobytes() == (rows.std(axis=0, ddof=1) / math.sqrt(reps)).tobytes()


class TestAnticluster:
    def test_iid_exact_value_at_k1(self, pareto_pos_half, within_se):
        # E[(|X|/a_n) ^ 1] = 2/a - 1/a^2 exactly for Pareto(1/2), a = sqrt(a_n)
        n, r_n = 10**4, 40
        series = anticluster_stat(pareto_pos_half, n, r_n=r_n, k_grid=[1, 5, r_n, r_n + 1],
                                  reps=4000, seed=3)
        a_n = normalizing_an(pareto_pos_half, n)
        term = 2.0 / a_n**0.5 - 1.0 / a_n
        expected = n * r_n * term**2
        within_se(series.values[0], expected, series.stderr[0], k=3)
        assert series.values[-1] == 0.0  # empty-sum convention at k = r_n + 1

    def test_non_increasing_exact(self, ar1_pos_half):
        series = anticluster_stat(ar1_pos_half, 10**4, reps=500, seed=4)
        assert np.all(np.diff(series.values) <= 1e-15)

    def test_decreases_with_n(self, ar1_pos_half):
        v = []
        for n in (10**4, 10**5):
            s = anticluster_stat(ar1_pos_half, n, r_n=30, k_grid=[2], reps=3000, seed=5)
            v.append(s.values[0])
        assert v[1] < v[0]

    def test_r_n_domain(self, pareto_pos_half):
        with pytest.raises(ConfigurationError):
            anticluster_stat(pareto_pos_half, 100, r_n=100, reps=10, seed=1)
        with pytest.raises(ConfigurationError):
            anticluster_stat(pareto_pos_half, 1000, r_n=10, k_grid=[12], reps=10, seed=1)

    @pytest.mark.parametrize("reps", [0, 1])
    def test_reps_domain(self, ar1_pos_half, reps):
        # a standard error needs two replicas, as in coupling_decay
        with pytest.raises(ConfigurationError):
            anticluster_stat(ar1_pos_half, 1000, reps=reps, seed=1)
        with pytest.raises(ConfigurationError):
            coupled_anticluster_stat(ar1_pos_half, 1000, q=0.4, reps=reps, seed=1)


class TestCoupledAnticluster:
    def test_sre_zero_a_is_zero(self):
        model = sre_model(SRELaw(alpha=0.8, kind="constant", a_const=0.0), burn_in=20, kesten_check=False)
        # the law has no Kesten tail, so a_n is passed rather than computed
        series = coupled_anticluster_stat(model, 10**4, r_n=20, q=0.3, reps=300, seed=6, a_n=1.0)
        assert np.all(series.values == 0.0)

    def test_ar1_negative_slope(self, ar1_pos_half):
        series = coupled_anticluster_stat(ar1_pos_half, 10**4, r_n=30, q=0.4, reps=2000, seed=7)
        assert series.fitted_log_slope < 0
        assert np.all(np.diff(series.values) <= 1e-15)

    def test_underflow_beyond_coupling_horizon(self):
        # phi^t underflows: far cutoffs are exactly zero numerically
        model = ar1_model(0.01, NoiseSpec("pareto", 0.5, (1.0, 0.0)), burn_in=50)
        series = coupled_anticluster_stat(model, 10**4, r_n=400, q=0.4,
                                          k_grid=[1, 300, 400], reps=50, seed=8)
        assert series.values[0] > 0.0
        assert series.values[-1] == 0.0


@pytest.mark.usefixtures("forced_pool")
class TestWorkers:
    """Every diagnostic reduces its replica blocks in the calling process, so
    the series is the same at any worker count, with its blocks in workers."""

    @staticmethod
    def _same(submit, *args):
        def series(workers):
            with Pool(workers) as pool:
                return submit(pool, *args)()

        a, b = series(1), series(3)
        assert a.index.tolist() == b.index.tolist()
        assert a.values.tobytes() == b.values.tobytes()
        assert a.stderr.tobytes() == b.stderr.tobytes()
        assert (a.fitted_log_slope, a.r2) == (b.fitted_log_slope, b.r2)

    def test_coupling_decay(self, ar1_pos_half):
        self._same(_submit_coupling, ar1_pos_half, 0.4, 12, 47, 11)

    def test_anticluster_stat(self, ar1_pos_half):
        self._same(_submit_anticluster, ar1_pos_half, 2000, None, None, 1.0, 47, 12, None)

    def test_coupled_anticluster_stat(self, ar1_pos_half):
        self._same(_submit_coupled_anticluster, ar1_pos_half, 2000, None, None, 0.4, 47, 13, None)

    def test_coupling_blocks_hold_whole_chunks(self):
        # t_max + two burn-ins = 159,990 steps per replica: 120 replicas repay
        # a pool, which cuts them into blocks of whole replicas; joined in
        # replica order, the blocks give the rows of one whole block
        model = ar1_model(0.5, NoiseSpec("pareto", 0.5, (1.0, 0.0)), burn_in=79_990)
        params = {"t_max": 10, "q": 0.4}
        assert repays_pool(120, 10 + 2 * model.burn_in)
        whole = _rows_block(0, 120, _coupling_rows, model, 15, params)
        for workers, edges in ((3, [(0, 40), (40, 80), (80, 120)]), (2, [(0, 60), (60, 120)])):
            assert partition(120, workers) == edges
            blocks = [_rows_block(lo, hi, _coupling_rows, model, 15, params) for lo, hi in edges]
            assert np.concatenate(blocks).tobytes() == whole.tobytes()
        self._same(_submit_coupling, model, 0.4, 10, 120, 15)

    def test_suffix_rows_do_not_depend_on_their_chunk(self, ar1_pos_half):
        # 600 replicas make three chunks of the path engine's row groups
        params = {"r_n": 20, "k_grid": np.array([1, 5, 21]), "a_n": 1e4, "x": 1.0}
        chunked = _rows_block(0, 600, _anticluster_rows, ar1_pos_half, 16, params)
        whole = _anticluster_rows(ar1_pos_half, 16, np.arange(600), **params)
        assert chunked.tobytes() == whole.tobytes()


class TestSeriesExport:
    def test_csv_and_json(self, ar1_pos_half):
        series = coupling_decay(ar1_pos_half, q=0.4, t_max=6, reps=100, seed=10)
        buf = io.StringIO()
        series.to_csv(buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "index,value,stderr"
        assert len(lines) == 7
        j = series.to_json()
        assert set(j) == {"fitted_log_slope", "r2", "index", "values", "stderr"}

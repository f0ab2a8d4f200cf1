"""Finite-sample decay diagnostics for the mixing and anti-clustering
hypotheses behind the limit theorems.

These are evidence, not proofs: every underlying condition is a double limit
in n and k, so at any fixed budget the reports can only say "consistent with"
the hypothesised decay.

Each diagnostic is a per-replica row function (``_coupling_rows``,
``_anticluster_rows``, ``_coupled_anticluster_rows``) and a submit step
(``_submit_coupling``, ``_submit_anticluster``,
``_submit_coupled_anticluster``) that checks its arguments and queues
:func:`_rows_block` on a run's :class:`_pool.Pool`, which cuts the replicas
into blocks and joins the rows in replica order. The call returned waits for
the rows and reduces them in the calling process with :func:`_series`, so
every series is identical for any worker count. A ``diagnose`` run submits
all three to its one pool, which runs a submit too small to repay a worker
in this process; each public estimator runs its own on a one-worker pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, UnsupportedError
from ._pool import Pool
from .processes import ProcessModel, _coupled_rows, _row_groups, _simulate_rows, normalizing_an, write_csv


@dataclass(frozen=True)
class DecaySeries:
    index: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    fitted_log_slope: float
    r2: float

    def to_csv(self, target) -> None:
        write_csv(target, ["index", "value", "stderr"], zip(self.index, self.values, self.stderr))

    def to_json(self) -> dict:
        return {
            "fitted_log_slope": self.fitted_log_slope,
            "r2": self.r2,
            "index": [int(i) for i in self.index],
            "values": list(map(float, self.values)),
            "stderr": list(map(float, self.stderr)),
        }


def _fit_log_slope(index: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    mask = values > 0
    if mask.sum() < 2:
        return math.nan, math.nan
    x = np.asarray(index, dtype=float)[mask]
    y = np.log(values[mask])
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def _check_q(model: ProcessModel, q: float) -> None:
    if model.kind == "iid":
        raise UnsupportedError("coupling diagnostics need a Markov recursion (ar1 or sre)")
    if not (0.0 < q < min(model.alpha, 1.0)):
        raise ConfigurationError("q must satisfy 0 < q < min(alpha, 1)")


def _rows_block(start: int, stop: int, rows_fn, model: ProcessModel, seed: int, params: dict) -> np.ndarray:
    """The rows of the replicas ``[start, stop)``, computed in the path
    engine's row groups, which bound their memory. A replica's row does not
    depend on the group it is computed in."""
    indices = np.arange(start, stop)
    return np.concatenate([rows_fn(model, seed, indices[rows], **params) for rows in _row_groups(stop - start)])


def _series(rows: np.ndarray, index: np.ndarray, scale: float) -> DecaySeries:
    """``scale`` times the replica mean of ``rows`` per column, its sample
    stderr and the fitted log-slope over ``index``."""
    # C order whatever the blocks' layout, so that a reduction over replicas adds in one fixed order
    rows = np.ascontiguousarray(rows)
    mean = scale * rows.mean(axis=0)
    se = scale * rows.std(axis=0, ddof=1) / math.sqrt(len(rows))
    slope, r2 = _fit_log_slope(index, mean)
    return DecaySeries(index, mean, se, slope, r2)


def _coupling_rows(model, seed, indices, t_max, q):
    """Per replica, |X_t - X*_t|^q for t = 1..t_max."""
    x, xs, _, _ = _coupled_rows(model, t_max, seed, indices)
    # in place over the first path, the same values as abs(x - xs) ** q
    d = np.abs(np.subtract(x, xs, out=x), out=x)
    d **= q
    return d


def _submit_coupling(pool: Pool, model: ProcessModel, q: float, t_max: int, reps: int,
                     seed: int) -> Callable[[], DecaySeries]:
    """Check the arguments of :func:`coupling_decay`, then queue its replica
    blocks on ``pool``; the call returned waits for them and reduces them."""
    _check_q(model, q)
    if t_max < 2 or reps < 2:
        raise ConfigurationError("need t_max >= 2 and reps >= 2")
    handle = pool.submit(_rows_block, reps, t_max + 2 * model.burn_in, _coupling_rows, model, seed,
                         {"t_max": t_max, "q": q})
    return lambda: _series(handle.result(), np.arange(1, t_max + 1), 1.0)


def coupling_decay(model: ProcessModel, q: float, t_max: int, reps: int, seed: int = 0) -> DecaySeries:
    """Monte-Carlo series E|X_t - X*_t|^q for t = 1..t_max with the fitted
    log-slope; geometric contraction shows up as a negative linear log trend
    (slope ``q log|phi|`` for AR(1))."""
    with Pool(1) as pool:
        return _submit_coupling(pool, model, q, t_max, reps, seed)()


def _suffix_rows(terms: np.ndarray, k_grid: np.ndarray) -> np.ndarray:
    """Per replica, the sums of ``terms[:, j-1]`` over j >= k for every k in
    ``k_grid`` (k = r_n + 1 gives the empty sum 0)."""
    csum = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
    csum = np.concatenate([csum, np.zeros((len(terms), 1))], axis=1)
    return csum[:, k_grid - 1]


def _submit_suffix(pool, rows_fn, params, burn_ins, model, n, r_n, k_grid, reps, seed,
                   a_n) -> Callable[[], DecaySeries]:
    """Queue on ``pool`` the replica blocks of n * sum_{j=k}^{r_n} E[term_j]
    for every cutoff k, with standard errors from the replica-level suffix
    sums; the call returned waits for them and reduces them. Nested sums on
    one sample make the series non-increasing in k exactly. ``r_n`` defaults
    to ``floor(n^0.4)`` and ``a_n`` to ``normalizing_an(model, n)``. A
    replica's row is a window of about r_n steps after ``burn_ins`` burn-ins."""
    if r_n is None:
        r_n = int(n**0.4)
    if reps < 2:
        raise ConfigurationError("need reps >= 2")
    if r_n >= n:
        raise ConfigurationError("r_n must be < n")
    if k_grid is None:
        k_grid = np.unique(np.geomspace(1, r_n, num=min(12, r_n)).astype(int))
    k_grid = np.asarray(sorted(set(int(k) for k in k_grid)))
    if k_grid[0] < 1 or k_grid[-1] > r_n + 1:
        # k = r_n + 1 is allowed and yields the empty-sum value 0
        raise ConfigurationError("k_grid must lie inside [1, r_n + 1]")
    if a_n is None:
        a_n = normalizing_an(model, n)
    params = {**params, "r_n": r_n, "k_grid": k_grid, "a_n": a_n}
    handle = pool.submit(_rows_block, reps, r_n + 1 + burn_ins * model.burn_in, rows_fn, model, seed, params)
    return lambda: _series(handle.result(), k_grid, n)


def _anticluster_rows(model, seed, indices, r_n, k_grid, a_n, x):
    rows = _simulate_rows(model, r_n + 1, seed, indices)
    t = np.minimum(np.abs(rows) / a_n, x)
    return _suffix_rows(t[:, 1:] * t[:, :1], k_grid)


def _submit_anticluster(pool, model, n, r_n, k_grid, x, reps, seed, a_n) -> Callable[[], DecaySeries]:
    """Check the arguments of :func:`anticluster_stat`, then queue its replica
    blocks on ``pool``; the call returned waits for them and reduces them."""
    if x <= 0:
        raise ConfigurationError("x must be positive")
    return _submit_suffix(pool, _anticluster_rows, {"x": x}, 1, model, n, r_n, k_grid, reps, seed, a_n)


def anticluster_stat(
    model: ProcessModel,
    n: int,
    r_n: Optional[int] = None,
    k_grid: Optional[Sequence[int]] = None,
    x: float = 1.0,
    reps: int = 2_000,
    seed: int = 0,
    a_n: Optional[float] = None,
) -> DecaySeries:
    """Truncated-product anti-clustering statistic
    ``n sum_{j=k}^{r_n} E[(|X_j|/a_n ^ x)(|X_0|/a_n ^ x)]`` per cutoff k.

    The default block length is ``r_n = floor(n^0.4)``, which keeps
    ``r_n = o(a_n^2 / n)`` for the shipped models on both sides of alpha = 1.
    ``a_n`` defaults to ``normalizing_an(model, n)``; pass it to reuse one
    already computed.
    """
    with Pool(1) as pool:
        return _submit_anticluster(pool, model, n, r_n, k_grid, x, reps, seed, a_n)()


def _coupled_anticluster_rows(model, seed, indices, r_n, k_grid, a_n, q):
    xrow, xsrow, x0, _ = _coupled_rows(model, r_n, seed, indices)
    left = np.minimum((np.abs(xrow - xsrow) / a_n) ** q, 1.0)
    right = np.minimum((np.abs(x0) / a_n) ** q, 1.0)
    return _suffix_rows(left * right[:, None], k_grid)


def _submit_coupled_anticluster(pool, model, n, r_n, k_grid, q, reps, seed,
                                a_n) -> Callable[[], DecaySeries]:
    """Check the arguments of :func:`coupled_anticluster_stat`, then queue its
    replica blocks on ``pool``; the call returned waits for them and reduces
    them."""
    _check_q(model, q)
    return _submit_suffix(pool, _coupled_anticluster_rows, {"q": q}, 2, model, n, r_n, k_grid, reps, seed, a_n)


def coupled_anticluster_stat(
    model: ProcessModel,
    n: int,
    r_n: Optional[int] = None,
    k_grid: Optional[Sequence[int]] = None,
    q: float = 0.4,
    reps: int = 2_000,
    seed: int = 0,
    a_n: Optional[float] = None,
) -> DecaySeries:
    """Coupled variant: ``n sum_{t=k}^{r_n}
    E[(|X_t - X*_t|^q / a_n^q ^ 1)(|X_0|^q / a_n^q ^ 1)]`` per cutoff k,
    with X* the coupled copy and X_0 the state before the shared window.
    ``a_n`` defaults to ``normalizing_an(model, n)``."""
    with Pool(1) as pool:
        return _submit_coupled_anticluster(pool, model, n, r_n, k_grid, q, reps, seed, a_n)()

"""Finite-sample decay diagnostics for the mixing and anti-clustering
hypotheses behind the limit theorems.

These are evidence, not proofs: every underlying condition is a double limit
in n and k, so at any fixed budget the reports can only say "consistent with"
the hypothesised decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, UnsupportedError
from .processes import ProcessModel, _coupled_rows, _simulate_rows, normalizing_an, write_csv


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


def coupling_decay(model: ProcessModel, q: float, t_max: int, reps: int, seed: int = 0) -> DecaySeries:
    """Monte-Carlo series E|X_t - X*_t|^q for t = 1..t_max with the fitted
    log-slope; geometric contraction shows up as a negative linear log trend
    (slope ``q log|phi|`` for AR(1))."""
    _check_q(model, q)
    if t_max < 2 or reps < 2:
        raise ConfigurationError("need t_max >= 2 and reps >= 2")
    chunk = max(1, 4_000_000 // (t_max + model.burn_in))
    acc = np.zeros(t_max)
    acc2 = np.zeros(t_max)
    done = 0
    while done < reps:
        m = min(chunk, reps - done)
        x, xs, _, _ = _coupled_rows(model, t_max, seed, np.arange(done, done + m))
        d = np.abs(x - xs) ** q
        acc += d.sum(axis=0)
        acc2 += (d**2).sum(axis=0)
        done += m
    mean = acc / reps
    var = np.maximum(acc2 / reps - mean**2, 0.0)
    se = np.sqrt(var / reps)
    idx = np.arange(1, t_max + 1)
    slope, r2 = _fit_log_slope(idx, mean)
    return DecaySeries(idx, mean, se, slope, r2)


def _suffix_series(model, n, r_n, k_grid, reps, seed, term_fn, a_n=None):
    """n * sum_{j=k}^{r_n} E[term_j] for every cutoff k, with standard errors
    from the replica-level suffix sums. Nested sums on one sample make the
    series non-increasing in k exactly. ``a_n`` defaults to
    ``normalizing_an(model, n)``."""
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
    chunk = max(1, 2_000_000 // (r_n + 1 + model.burn_in))
    sums = np.zeros((reps, len(k_grid)))
    done = 0
    while done < reps:
        m = min(chunk, reps - done)
        terms = term_fn(np.arange(done, done + m), a_n)  # (m, r_n) for j = 1..r_n
        csum = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]  # suffix sums over j >= k
        csum = np.concatenate([csum, np.zeros((m, 1))], axis=1)
        sums[done: done + m] = csum[:, k_grid - 1]
        done += m
    mean = n * sums.mean(axis=0)
    se = n * sums.std(axis=0, ddof=1) / math.sqrt(reps)
    slope, r2 = _fit_log_slope(k_grid, mean)
    return DecaySeries(k_grid, mean, se, slope, r2)


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
    if x <= 0:
        raise ConfigurationError("x must be positive")
    if r_n is None:
        r_n = int(n**0.4)

    def term_fn(indices, a_n):
        rows = _simulate_rows(model, r_n + 1, seed, indices)
        t = np.minimum(np.abs(rows) / a_n, x)
        return t[:, 1:] * t[:, :1]

    return _suffix_series(model, n, r_n, k_grid, reps, seed, term_fn, a_n)


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
    _check_q(model, q)
    if r_n is None:
        r_n = int(n**0.4)

    def term_fn(indices, a_n):
        xrow, xsrow, x0, _ = _coupled_rows(model, r_n, seed, indices)
        left = np.minimum((np.abs(xrow - xsrow) / a_n) ** q, 1.0)
        right = np.minimum((np.abs(x0) / a_n) ** q, 1.0)
        return left * right[:, None]

    return _suffix_series(model, n, r_n, k_grid, reps, seed, term_fn, a_n)


def mixing_coupling_sum(
    model: ProcessModel,
    n: int,
    q: float,
    p: float,
    reps: int = 2_000,
    seed: int = 0,
    ell_n: Optional[int] = None,
    r_n: Optional[int] = None,
) -> dict:
    """Block-mixing coupling aggregate
    ``k_n a_n^{-q} sum_{t=ell_n}^{r_n} (E|X_t - X*_t|^q)^((1/p) v 1)``.

    The intermediate length defaults to ``ell_n = ceil(2 log n)``; it is
    exposed because the theory only pins it up to a large-enough constant.
    """
    _check_q(model, q)
    if r_n is None:
        r_n = int(n**0.4)
    if ell_n is None:
        ell_n = max(1, math.ceil(2.0 * math.log(n)))
    if not (1 <= ell_n < r_n < n):
        raise ConfigurationError("need 1 <= ell_n < r_n < n")
    series = coupling_decay(model, q, r_n, reps, seed)
    expo = max(1.0 / p, 1.0)
    a_n = normalizing_an(model, n)
    k_n = n // r_n
    value = k_n * a_n ** (-q) * float(np.sum(series.values[ell_n - 1:] ** expo))
    return {"value": value, "ell_n": ell_n, "r_n": r_n, "k_n": k_n, "a_n": a_n, "series": series}

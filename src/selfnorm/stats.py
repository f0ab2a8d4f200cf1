"""Self-normalised sample functionals of one path.

All ratio statistics are scale equivariant by construction: the moduli are
accumulated in max-rescaled form (factor out ``max|X_t|`` before taking
powers), which keeps ``sum |X_t|^p`` inside double range even when the raw
powers would overflow at small tail indices, and makes the ratios exactly
invariant under ``X -> c X``. Single-path reductions use exact (fsum)
accumulation. Batched reductions fold a block one time tile at a time: numpy's
pairwise summation within a tile, the same rescaling carried against the
running maximum from tile to tile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, DegeneratePathError
from .processes import Path, stationary_mean, write_csv


@dataclass(frozen=True)
class PathStats:
    """The triple (sum, max, moduli) of one path plus the centering policy.

    ``moduli`` maps p to ``gamma_p = (sum_t |X_t|^p)^(1/p)``.
    """

    sum: float
    max_abs: float
    moduli: Mapping[float, float]
    n: int
    centering: str = "none"

    @property
    def degenerate(self) -> bool:
        return self.max_abs == 0.0

    def modulus(self, p: float) -> float:
        try:
            return self.moduli[float(p)]
        except KeyError:
            raise ConfigurationError(f"gamma_{p} was not computed for this path") from None


def _values_of(path: Union[Path, np.ndarray]) -> np.ndarray:
    if isinstance(path, Path):
        return np.asarray(path.values, dtype=float)
    return np.asarray(path, dtype=float)


def _abs_of(values: np.ndarray) -> np.ndarray:
    if values.ndim == 1:
        return np.abs(values)
    return np.sqrt(np.sum(values**2, axis=-1))


def _centering_value(path, values, centering, mean):
    if centering == "none":
        return 0.0
    if centering == "empirical":
        return values.mean(axis=0)
    if centering == "analytic":
        if mean is not None:
            return mean
        if isinstance(path, Path):
            return stationary_mean(path.model)
        raise ConfigurationError("analytic centering needs a Path with a model, or an explicit mean")
    raise ConfigurationError(f"unknown centering policy {centering!r}")


def compute_stats(
    path: Union[Path, np.ndarray],
    ps: Sequence[float],
    centering: str = "none",
    mean: Optional[float] = None,
) -> PathStats:
    """Sum, maximum modulus and the gamma_p moduli of one path.

    Under ``analytic`` or ``empirical`` centering the same centered series
    feeds both the sum and the moduli.
    """
    if len(ps) == 0:
        raise ConfigurationError("ps must be non-empty")
    if any(p <= 0 for p in ps):
        raise ConfigurationError("every p must be positive")
    values = _values_of(path)
    if values.size == 0:
        raise ConfigurationError("empty path")
    c = _centering_value(path, values, centering, mean)
    centered = values - c
    a = _abs_of(centered)
    m = float(a.max())
    total = math.fsum(centered) if centered.ndim == 1 else centered.sum(axis=0)
    moduli = {}
    if m == 0.0:
        for p in ps:
            moduli[float(p)] = 0.0
    else:
        scaled = a / m
        for p in ps:
            moduli[float(p)] = m * math.fsum(scaled**p) ** (1.0 / p)
    return PathStats(sum=total, max_abs=m, moduli=moduli, n=len(a), centering=centering)


class _BlockSums:
    """Per-row primitives of a (reps, n) block of paths about a center c,
    folded in one time tile after another with :meth:`add`.

    ``total`` is ``sum_t (X_t - c)``, ``max_abs`` is ``M = max_t |X_t - c|``,
    ``powers[p]`` is the max-rescaled power sum ``sum_t (|X_t - c| / M)^p`` and
    ``first`` the rescaled first power ``sum_t |X_t - c| / M``; a row with
    ``M = 0`` is rescaled by 1. ``total`` and ``first`` are None unless asked
    for. The power sums are carried against the running max: a tile is
    rescaled by the max so far, and when a tile raises it from M to M' the
    sums so far are multiplied by ``(M / M')^p``, so every power stays at
    most 1 however heavy the tail. ``c`` is a scalar or one center per row,
    shaped (reps, 1).
    """

    def __init__(self, rows: int, ps: Sequence[float], center=0.0, total: bool = True,
                 first: bool = False):
        self.center = center
        self.total = np.zeros(rows) if total else None
        self.max_abs = np.zeros(rows)
        self.powers = {p: np.zeros(rows) for p in dict.fromkeys(ps)}
        self.first = np.zeros(rows) if first else None
        self._empty = True
        # two tile-sized work arrays (the rescaled moduli and a power), kept
        # from tile to tile: allocating them afresh costs a page fault per page
        self._work = [np.empty(0), np.empty(0)]

    def _tile(self, k: int, shape: tuple) -> np.ndarray:
        size = shape[0] * shape[1]
        if self._work[k].size < size:
            self._work[k] = np.empty(size)
        return self._work[k][:size].reshape(shape)

    def add(self, values: np.ndarray) -> None:
        """Fold in the next (reps, t) tile of the paths; ``values`` is not
        written. At ``center == 0`` the centered copy is skipped: ``x - 0.0``
        is ``x`` bit for bit."""
        values = np.asarray(values, dtype=float)
        scaled = self._tile(0, values.shape)
        if np.ndim(self.center) == 0 and self.center == 0.0:
            row_sums = values.sum(axis=1) if self.total is not None else None
            np.abs(values, out=scaled)
        else:
            np.subtract(values, self.center, out=scaled)
            row_sums = scaled.sum(axis=1) if self.total is not None else None
            np.abs(scaled, out=scaled)
        m = scaled.max(axis=1)
        if not self._empty:
            m = np.maximum(m, self.max_abs)
        scale = np.where(m > 0, m, 1.0)
        scaled /= scale[:, None]
        # M / M' for the sums so far; the first tile is the whole of a
        # one-tile block and is taken as it is, bit for bit
        carry = None if self._empty else self.max_abs / scale
        power = self._tile(1, values.shape)
        for p, acc in self.powers.items():
            tile = np.sum(np.power(scaled, p, out=power), axis=1)
            self.powers[p] = tile if carry is None else acc * carry**p + tile
        if self.first is not None:
            tile = np.sum(scaled, axis=1)
            self.first = tile if carry is None else self.first * carry + tile
        if row_sums is not None:
            self.total = row_sums if carry is None else self.total + row_sums
        self.max_abs = m
        self._empty = False

    def gamma(self, p: float) -> np.ndarray:
        """``gamma_p = M (sum_t (|X_t - c| / M)^p)^(1/p)``, 0 on an all-zero row."""
        m = self.max_abs
        g = np.where(m > 0, m, 1.0) * self.powers[p] ** (1.0 / p)
        return np.where(m > 0, g, 0.0)


def batch_stats(values: np.ndarray, ps: Sequence[float], center: float = 0.0) -> dict:
    """Vectorised sums, maxima and moduli for a (reps, n) matrix of paths.

    Returns arrays ``sum`` and ``max_abs`` plus one ``gamma_p`` array per p,
    using the same max-rescaled accumulation as :func:`compute_stats`.
    """
    values = np.asarray(values, dtype=float)
    b = _BlockSums(len(values), ps, center)
    b.add(values)
    out = {"sum": b.total, "max_abs": b.max_abs}
    for p in ps:
        out[f"gamma_{p:g}"] = b.gamma(p)
    return out


def ratio_max(stats: PathStats) -> float:
    """Sum over maximum, S_n / M_n."""
    if stats.degenerate:
        raise DegeneratePathError("ratio of a degenerate (all-zero) path")
    return stats.sum / stats.max_abs


def studentized(stats: PathStats, p: float) -> float:
    """Sum over the l^p modulus, S_n / gamma_p."""
    g = stats.modulus(p)
    if g <= 0.0:
        raise DegeneratePathError("studentizing by a vanishing modulus")
    return stats.sum / g


def greenwood(path: Union[Path, np.ndarray], p: float, alpha: Optional[float] = None) -> float:
    """Ratio statistic ``sum X^p / (sum X)^p`` on strictly positive data.

    Requires a declared tail index ``alpha < min(p, 1)``; taken from the
    path's model when available.
    """
    values = _values_of(path)
    if values.ndim != 1:
        raise ConfigurationError("the ratio statistic is univariate")
    if values.size == 0 or np.any(values <= 0.0):
        raise ConfigurationError("the ratio statistic needs strictly positive data")
    if alpha is None and isinstance(path, Path):
        alpha = path.model.alpha
    if alpha is None:
        raise ConfigurationError("declare the tail index alpha")
    if not (alpha < 1.0 and alpha < p):
        raise ConfigurationError("the ratio statistic needs alpha < min(p, 1)")
    m = float(values.max())
    scaled = values / m
    return math.fsum(scaled**p) / math.fsum(scaled) ** p


def norm_ratio(path: Union[Path, np.ndarray], q: float, r: float) -> float:
    """gamma_q / gamma_r; at most 1 when q >= r."""
    if q <= 0 or r <= 0:
        raise ConfigurationError("norm orders must be positive")
    stats = compute_stats(path, ps=(q, r))
    if stats.degenerate:
        raise DegeneratePathError("norm ratio of a degenerate path")
    return stats.modulus(q) / stats.modulus(r)


def kurtosis_ratio(path: Union[Path, np.ndarray]) -> float:
    """Scaled sample kurtosis ``||X||_4^4 / ||X||_2^4``, always in (0, 1]."""
    return norm_ratio(path, 4.0, 2.0) ** 4


def stats_rows_to_csv(rows, target) -> None:
    """Batch output rows (replica, n, statistic, p or None, value) as CSV."""
    write_csv(target, ["replica", "n", "statistic", "p", "value"], rows)

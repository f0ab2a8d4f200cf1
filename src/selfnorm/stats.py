"""Self-normalised statistics of blocks of paths: the statistic specs, the
reduction plan that turns a block into per-replica values, and the per-row
accumulators it folds the block into, one time tile at a time.

All ratio statistics are scale equivariant by construction: the moduli are
accumulated in max-rescaled form (factor out ``max|X_t|`` before taking
powers), which keeps ``sum |X_t|^p`` inside double range even when the raw
powers would overflow at small tail indices, and makes the ratios exactly
invariant under ``X -> c X``. A block is folded one time tile at a time:
numpy's pairwise summation within a tile, the same rescaling carried against
the running maximum from tile to tile.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError
from .processes import check_keys, write_csv


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
    from one max-rescaled fold of the whole block.
    """
    values = np.asarray(values, dtype=float)
    b = _BlockSums(len(values), ps, center)
    b.add(values)
    out = {"sum": b.total, "max_abs": b.max_abs}
    for p in ps:
        out[f"gamma_{p:g}"] = b.gamma(p)
    return out


# statistic name -> the parameters its spec may set, with their defaults
_STATISTICS = {
    "ratio_max": {}, "sum": {}, "max_abs": {}, "gamma": {"p": 2.0}, "studentized": {"p": 2.0},
    "greenwood": {"p": 2.0}, "kurtosis": {}, "norm_ratio": {"q": 2.0, "r": 1.0},
}
# statistics of the path about 0, whatever the run's centering
_RAW = ("greenwood", "kurtosis", "norm_ratio")


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _positive(value) -> bool:
    return _real(value) and 0 < value < math.inf


def _z_score(value: float, value_se: float, reference: float, reference_se: float) -> tuple[float, float]:
    """``(value - reference) / se`` and the combined stderr ``se``. A
    degenerate comparison (se below 1e-10 of the larger magnitude, or of 1;
    say a deterministic cluster functional) falls back to exact agreement
    instead of dividing by about 0: z is 0 within 1e-9 of that scale, else inf."""
    se = math.hypot(value_se, reference_se)
    diff = value - reference
    scale = max(1.0, abs(value), abs(reference))
    if se < 1e-10 * scale:
        return (0.0 if abs(diff) <= 1e-9 * scale else math.inf), se
    return diff / se, se


def _parse_spec(spec) -> tuple[str, str, dict]:
    """(label, name, parameters) of one statistic spec, or ConfigurationError."""
    if not isinstance(spec, dict):
        raise ConfigurationError(f"a statistic spec must be a mapping, got {spec!r}")
    name = spec.get("name")
    if not isinstance(name, str) or name not in _STATISTICS:
        raise ConfigurationError(f"unknown statistic {name!r}; known: {sorted(_STATISTICS)}")
    check_keys(spec, ("name", *_STATISTICS[name]), f"statistic {name}")
    params = {}
    for key, default in _STATISTICS[name].items():
        value = spec.get(key, default)
        if not _positive(value):
            raise ConfigurationError(f"statistic {name}: {key} must be a positive number, got {value!r}")
        params[key] = float(value)
    if name == "norm_ratio":
        label = f"norm_ratio_{params['q']:g}_{params['r']:g}"
    elif params:
        label = f"{name}_p{params['p']:g}"
    else:
        label = name
    return label, name, params


@dataclass(frozen=True)
class _ReductionPlan:
    """How a block of paths becomes per-replica statistics.

    Every statistic is a function of a few per-row primitives of the paths
    (:class:`_BlockSums`): the sum, the maximum modulus and
    max-rescaled power sums, taken about the run's center (``centered_ps``;
    ratio_max, sum, max_abs, gamma, studentized) or about 0 (``raw_ps``;
    greenwood, kurtosis, norm_ratio), whatever the run's centering. Each
    primitive is accumulated once per center, tile by tile, and at center 0
    the two sets are one.
    """

    specs: tuple  # (label, name, parameters) per spec
    centered_ps: Optional[tuple]  # None: no statistic reads the centered set
    raw_ps: Optional[tuple]
    greenwood: bool

    @classmethod
    def build(cls, specs: Sequence[dict], alpha: Optional[float] = None, required: bool = False) -> "_ReductionPlan":
        """Check every spec (and, given the tail index, greenwood's
        ``alpha < min(p, 1)``) before any path is simulated. Two specs with
        one label (``p: 2`` and ``p: 2.0``, or a default spelled out) would
        write every replica twice and are rejected, and so is an empty list
        where a statistic is ``required``."""
        if not isinstance(specs, (list, tuple)):
            raise ConfigurationError(f"statistic specs must be a list, got {specs!r}")
        if required and not specs:
            raise ConfigurationError("statistic specs must name at least one statistic")
        parsed = tuple(_parse_spec(spec) for spec in specs)
        centered, raw = None, None
        labels = set()
        for label, name, params in parsed:
            if label in labels:
                raise ConfigurationError(f"statistic {label} is listed twice")
            labels.add(label)
            ps = (4.0, 2.0) if name == "kurtosis" else tuple(params.values())
            if name in _RAW:
                raw = (raw or ()) + ps
            else:
                centered = (centered or ()) + ps
            if name == "greenwood" and alpha is not None and not (alpha < 1.0 and alpha < params["p"]):
                raise ConfigurationError("the ratio statistic needs alpha < min(p, 1)")
        return cls(parsed, centered, raw, any(name == "greenwood" for _, name, _ in parsed))

    def reduce(self, values: np.ndarray, center) -> dict:
        """Per-replica statistics of a whole (m, n) block of paths."""
        return self.reduce_tiles([values], len(values), center)

    def reduce_tiles(self, tiles, rows: int, center) -> dict:
        """Per-replica statistics of ``rows`` paths given as (rows, t) tiles
        in time order: the centered set about ``center`` (a scalar or one
        center per row, shaped (rows, 1)), the raw set about 0."""
        if np.ndim(center) == 0 and center == 0.0:
            centered = raw = _BlockSums(rows, (self.centered_ps or ()) + (self.raw_ps or ()),
                                        total=self.centered_ps is not None, first=self.greenwood)
        else:
            centered = None if self.centered_ps is None else _BlockSums(rows, self.centered_ps, center)
            raw = (None if self.raw_ps is None
                   else _BlockSums(rows, self.raw_ps, total=False, first=self.greenwood))
        folds = [b for b in dict.fromkeys((centered, raw)) if b is not None]
        for tile in tiles:
            if self.greenwood and np.any(tile <= 0):
                raise ConfigurationError("the ratio statistic needs strictly positive paths")
            for b in folds:
                b.add(tile)
        out = {}
        for label, name, params in self.specs:
            b = raw if name in _RAW else centered
            if name == "ratio_max":
                out[label] = b.total / b.max_abs
            elif name == "sum":
                out[label] = b.total
            elif name == "max_abs":
                out[label] = b.max_abs
            elif name == "gamma":
                out[label] = b.gamma(params["p"])
            elif name == "studentized":
                out[label] = b.total / b.gamma(params["p"])
            elif name == "greenwood":
                out[label] = b.powers[params["p"]] / b.first ** params["p"]
            elif name == "kurtosis":
                out[label] = (b.gamma(4.0) / b.gamma(2.0)) ** 4
            else:
                out[label] = b.gamma(params["q"]) / b.gamma(params["r"])
        return out


def stats_rows_to_csv(rows, target) -> None:
    """Batch output rows (replica, n, statistic, p or None, value) as CSV."""
    write_csv(target, ["replica", "n", "statistic", "p", "value"], rows)

"""Spectral tail processes, extremal clusters and their moments.

The spectral tail process Theta describes the conditional shape of the series
around a large value at time 0 (``|Theta_0| = 1``). The cluster process is its
l^alpha normalisation ``Q = Theta / ||Theta||_alpha`` and satisfies
``sum_t |Q_t|^alpha = 1`` and ``max_t |Q_t| <= 1``. The tilted cluster is the
max-renormalised version of Q under the ``max_t |Q_t|^alpha`` change of
measure.

Three cluster kinds are supported:

* ``ar1_analytic`` -- the geometric cluster of the AR(1) model, with closed
  forms for all norms, the extremal index ``1 - |phi|^alpha`` and the cluster
  moments;
* ``iid`` -- the geometric cluster at phi = 0: a single signed spike at t = 0;
* ``empirical`` -- clusters extracted as normalised blocks around threshold
  exceedances of a simulated source process (the only route shipped for SRE
  models, whose two-sided tail process has no convenient closed form).

Every limit law depends on the cluster only through expectations of its
functionals ``max|Q|``, ``sum Q``, ``||Q||_1`` and ``||Q||_p^p``, under Q and
under the tilt. ``cluster_law`` gives their law as weighted atoms: two exact
atoms for a geometric cluster, one atom per library anchor for an empirical
cluster. The tilted law is the same atoms reweighted exactly by
``max|Q|^alpha``. Batched draws, the transform engine's atoms, the oracles and
the moment estimators all read this one law; ``cluster_law`` is the only place
where a cluster expectation depends on the kind. Single tail, cluster and
tilted paths come from one sampler; tilted draws are by reweighting, no rejection.

An empirical library is simulated on first use and shared, read-only, by every
equal model in the process (:func:`_shared_library`), so runs on one cluster
build it once; a library whose source is a custom SRE law, whose sampler is
an arbitrary callable, belongs to its model instance alone. Its per-anchor
functionals are tabulated once per exponent p, so every draw costs a gather.
A ``table_only`` copy of the model carries that table without the blocks; it
is what pool workers receive. Estimates from a library report
batch-means standard errors over its independent chains, which include the
noise of the library itself.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, SamplingError, UnsupportedError
from .processes import ProcessModel, _simulate_rows
from .rng import substream

TRUNCATION_TARGET = 1e-10
# empirical libraries kept by _shared_library: one per distinct cluster model
LIBRARY_CACHE_SIZE = 4


@dataclass(frozen=True)
class Estimate:
    """A numeric result with its Monte-Carlo provenance.

    ``stderr`` is 0 and ``method`` is ``"closed_form"`` for analytic values.
    """

    value: float
    stderr: float = 0.0
    reps: int = 0
    method: str = "closed_form"


@dataclass(frozen=True)
class ClusterModel:
    kind: str  # iid | ar1_analytic | empirical
    alpha: float
    tail_balance: tuple[float, float] = (0.5, 0.5)
    phi: Optional[float] = None
    source: Optional[ProcessModel] = None
    threshold_quantile: float = 0.999
    block_half_width: int = 200
    sample_length: int = 2_000_000
    library_seed: int = 0
    floor_rel: float = 0.005
    run_gap: int = 2

    def __post_init__(self):
        if self.kind not in ("iid", "ar1_analytic", "empirical"):
            raise ConfigurationError(f"unknown cluster kind {self.kind!r}")
        if self.alpha <= 0:
            raise ConfigurationError("cluster tail index must be positive")
        qp, qm = self.tail_balance
        if qp < 0 or qm < 0 or abs(qp + qm - 1.0) > 1e-12:
            raise ConfigurationError("tail balance must be nonnegative and sum to 1")
        object.__setattr__(self, "tail_balance", (qp, qm))  # a hashable model, whatever was passed
        if self.kind == "iid":
            # the geometric cluster at phi = 0: every analytic formula reads phi
            if self.phi not in (None, 0.0):
                raise ConfigurationError("an iid cluster takes no phi (it is the geometric cluster at phi = 0)")
            object.__setattr__(self, "phi", 0.0)
        if self.kind == "ar1_analytic":
            if self.phi is None or not (-1.0 < self.phi < 1.0) or self.phi == 0.0:
                raise ConfigurationError("ar1_analytic requires phi in (-1, 1) \\ {0}")
        if self.kind == "empirical":
            if self.source is None:
                raise ConfigurationError("empirical cluster requires a source ProcessModel")
            if not (0.0 < self.threshold_quantile < 1.0):
                raise ConfigurationError("threshold_quantile must lie in (0, 1)")
            if self.block_half_width < 1:
                raise ConfigurationError("block_half_width must be >= 1")
            if not (0.0 <= self.floor_rel < 1.0) or self.run_gap < 1:
                raise ConfigurationError("need 0 <= floor_rel < 1 and run_gap >= 1")
        object.__setattr__(self, "_library", None)

    @property
    def spike_probs(self) -> tuple[float, float]:
        """Marginal sign probabilities P(Theta_0 = +1), P(Theta_0 = -1)."""
        qp, qm = self.tail_balance
        if self.kind == "empirical" or self.phi >= 0:
            return qp, qm
        r = abs(self.phi) ** self.alpha
        pp = (qp + qm * r) / (1.0 + r)
        return pp, 1.0 - pp

    def _empirical_library(self) -> "_BlockLibrary":
        lib = getattr(self, "_library", None)
        if lib is None:
            custom = self.source.kind == "sre" and self.source.sre_law.kind == "custom"
            lib = _BlockLibrary.build(self) if custom else _shared_library(self)
            object.__setattr__(self, "_library", lib)
        return lib

    def table_only(self, exponents: Sequence[float]) -> "ClusterModel":
        """A copy whose empirical library holds the per-anchor table, filled
        for ``exponents``, but not the blocks: what a pool worker needs to draw
        ``cluster_functionals`` at those exponents without rebuilding the
        library. Analytic kinds are returned as they are."""
        if self.kind != "empirical":
            return self
        lib = self._empirical_library()
        lib.table(exponents)
        copy = dataclasses.replace(self)
        object.__setattr__(copy, "_library", dataclasses.replace(lib, segments=None))
        return copy


def iid_cluster(alpha: float, tail_balance=(0.5, 0.5)) -> ClusterModel:
    return ClusterModel(kind="iid", alpha=float(alpha), tail_balance=tuple(tail_balance))


def ar1_cluster(phi: float, alpha: float, tail_balance=(0.5, 0.5)) -> ClusterModel:
    return ClusterModel(
        kind="ar1_analytic", alpha=float(alpha), phi=float(phi), tail_balance=tuple(tail_balance)
    )


def empirical_cluster(
    source: ProcessModel,
    alpha: Optional[float] = None,
    threshold_quantile: float = 0.999,
    block_half_width: int = 200,
    sample_length: int = 2_000_000,
    library_seed: int = 0,
    floor_rel: float = 0.005,
    run_gap: int = 2,
) -> ClusterModel:
    """Cluster model backed by blocks around exceedances of a simulated path.

    A raw block also contains ordinary values and unrelated extreme events,
    whose l^alpha mass does not vanish at finite thresholds; each block is
    therefore restricted to the anchor's own cluster, cutting at the first run
    of ``run_gap`` consecutive entries below ``floor_rel`` (relative to the
    anchor) on either side.

    Normalisation always uses the declared ``alpha`` (defaulting to the source
    model's), never an estimated one, so cluster-shape error is not confounded
    with tail-index estimation error.
    """
    return ClusterModel(
        kind="empirical",
        alpha=float(alpha if alpha is not None else source.alpha),
        source=source,
        threshold_quantile=threshold_quantile,
        block_half_width=block_half_width,
        sample_length=sample_length,
        library_seed=library_seed,
        floor_rel=floor_rel,
        run_gap=run_gap,
    )


@dataclass
class _BlockLibrary:
    """Blocks of a simulated source path around its threshold exceedances
    (the anchors), and a table of per-anchor cluster functionals.

    An anchor's own-cluster Q is a pure function of the anchor, so its
    ``max|Q|``, ``sum Q``, ``||Q||_1`` and ``||Q||_q^q`` are computed once per
    library (the last once per exponent q) and a draw of them is a gather.
    """

    segments: Optional[np.ndarray]  # (chains, seg_len); None in a table-only copy
    anchor_chain: np.ndarray
    anchor_pos: np.ndarray
    threshold: float
    half_width: int
    alpha: float
    floor_rel: float
    run_gap: int
    # per-anchor values: "max_abs", "sum_q", "sum_abs", and ||Q||_q^q under each
    # exponent q asked for and under alpha
    columns: dict = field(default_factory=dict)

    @classmethod
    def build(cls, model: ClusterModel) -> "_BlockLibrary":
        h = model.block_half_width
        chains = 64
        seg_len = max(-(-model.sample_length // chains), 4 * h + 4)
        rows = _simulate_rows(model.source, seg_len, model.library_seed, np.arange(chains))
        absrows = np.abs(rows)
        threshold = float(np.quantile(absrows, model.threshold_quantile))
        mask = absrows > threshold
        mask[:, :h] = False
        mask[:, seg_len - h:] = False
        chain_idx, pos_idx = np.nonzero(mask)
        for a in (rows, chain_idx, pos_idx):
            a.flags.writeable = False
        return cls(rows, chain_idx, pos_idx, threshold, h, model.alpha, model.floor_rel, model.run_gap)

    @property
    def n_anchors(self) -> int:
        return len(self.anchor_pos)

    def blocks(self, which: np.ndarray) -> np.ndarray:
        """Blocks (len(which), 2h+1) around the selected anchors."""
        if self.segments is None:
            raise SamplingError("a table-only copy of the block library has no blocks")
        h = self.half_width
        offs = np.arange(-h, h + 1)
        return self.segments[
            self.anchor_chain[which][:, None], self.anchor_pos[which][:, None] + offs[None, :]
        ]

    def require_anchors(self) -> None:
        if self.n_anchors == 0:
            raise SamplingError(
                "no exceedances above the threshold; lower threshold_quantile "
                "or enlarge sample_length"
            )

    def table(self, exponents: Sequence[float]) -> dict:
        """The per-anchor columns, with ``||Q||_q^q`` for each q in
        ``exponents``; each column is computed once per library, and the
        first call fills ``q = alpha`` with the base columns."""
        # the base pass adds ||Q||_alpha^alpha too: its sum is the one the scale needs
        base = () if "max_abs" in self.columns else ("max_abs", "sum_q", "sum_abs", self.alpha)
        missing = [q for q in dict.fromkeys(exponents) if q not in self.columns and q not in base]
        if not (base or missing):
            return self.columns
        # anchor chunks bound the memory of the (chunk, 2h+1) blocks
        n, h = self.n_anchors, self.half_width
        new = {k: np.empty(n) for k in (*base, *missing)}
        chunk = max(1, 2_000_000 // (2 * h + 1))
        for lo in range(0, n, chunk):
            sl = slice(lo, min(lo + chunk, n))
            theta = _own_cluster_theta(self.blocks(np.arange(sl.start, sl.stop)), h, self.floor_rel, self.run_gap)
            absth = np.abs(theta)
            mass = np.sum(absth**self.alpha, axis=1)
            scale = mass ** (1.0 / self.alpha)
            if base:
                new["max_abs"][sl] = absth.max(axis=1) / scale
                new["sum_q"][sl] = theta.sum(axis=1) / scale
                new["sum_abs"][sl] = absth.sum(axis=1) / scale
                new[self.alpha][sl] = mass / scale**self.alpha
            for q in missing:
                new[q][sl] = np.sum(absth**q, axis=1) / scale**q
        for a in new.values():
            a.flags.writeable = False
        self.columns.update(new)
        return self.columns


@functools.lru_cache(maxsize=LIBRARY_CACHE_SIZE)
def _shared_library(model: ClusterModel) -> _BlockLibrary:
    """The block library of ``model``, built once per process for every equal
    model: the dataclass equality covers every field the build and the table
    read. Its arrays are read-only, since every run on the model reads them."""
    return _BlockLibrary.build(model)


# ---------------------------------------------------------------------------
# draws


@dataclass(frozen=True)
class TailProcessDraw:
    """Spectral tail process on a finite window; values outside are zero."""

    t_min: int
    t_max: int
    values: np.ndarray
    backward_extent: int  # J; indices below -J carry exact zeros
    truncated: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def value_at(self, t: int) -> float:
        if t < self.t_min or t > self.t_max:
            return 0.0
        return float(self.values[t - self.t_min])


@dataclass(frozen=True)
class ClusterDraw:
    t_min: int
    t_max: int
    values: np.ndarray
    alpha: float
    truncation_error: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def sum(self) -> float:
        return float(np.sum(self.values))


@dataclass(frozen=True)
class TiltedClusterDraw(ClusterDraw):
    """Cluster renormalised so that its maximum modulus over all t is 1."""


def default_horizon(model: ClusterModel) -> int:
    """Forward truncation horizon leaving l^alpha mass below 1e-10 (AR(1));
    the block half-width for empirical clusters; 0 at phi = 0 (iid)."""
    if model.kind == "empirical":
        return model.block_half_width
    if model.phi == 0.0:
        return 0
    r = abs(model.phi) ** model.alpha
    h = math.log(TRUNCATION_TARGET * (1.0 - r)) / math.log(r)
    return max(1, math.ceil(h))


def _horizon(model: ClusterModel, horizon: Optional[int]) -> int:
    """The checked horizon of a single-path draw (``default_horizon`` for
    None); 0 at phi = 0, whose tail process is the spike at t = 0."""
    if horizon is None:
        horizon = default_horizon(model)
    if horizon < 0:
        raise ConfigurationError("horizon must be >= 0")
    return 0 if model.phi == 0.0 else horizon


def _own_cluster_theta(blocks: np.ndarray, centre: int, floor_rel: float, gap: int) -> np.ndarray:
    """Anchor-normalised blocks restricted to the anchor's own cluster.

    Zeroes everything beyond the first run of ``gap`` consecutive entries with
    ``|X_{s+t}/X_s| <= floor_rel`` on either side of the centre, removing the
    l^alpha mass of ordinary values and unrelated extreme events that a wide
    finite-threshold block inevitably contains.
    """
    theta = blocks / np.abs(blocks[:, centre])[:, None]
    if floor_rel <= 0.0:
        return theta
    m, w = theta.shape
    below = np.abs(theta) <= floor_rel
    cb = np.zeros((m, w + 1))
    np.cumsum(below, axis=1, out=cb[:, 1:])
    runend = np.zeros((m, w), dtype=bool)
    if w > gap:
        runend[:, gap - 1:] = (cb[:, gap:] - cb[:, :-gap]) == gap
    cols = np.arange(w)
    leftcond = runend[:, :centre]
    has_l = leftcond.any(axis=1)
    last_l = centre - 1 - np.argmax(leftcond[:, ::-1], axis=1)
    lcut = np.where(has_l, last_l, -1)
    rightcond = runend[:, centre + gap:]
    if rightcond.shape[1] > 0:
        has_r = rightcond.any(axis=1)
        first_e = centre + gap + np.argmax(rightcond, axis=1)
        rstart = np.where(has_r, first_e - gap + 1, w)
    else:
        rstart = np.full(m, w)
    keep = (cols[None, :] > lcut[:, None]) & (cols[None, :] < rstart[:, None])
    return np.where(keep, theta, 0.0)


def _draw_ar1_tail(model: ClusterModel, rng: np.random.Generator, size: int):
    """(J, Theta_0) for the geometric tail process: J geometric with
    P(J = j) = |phi|^(alpha j) (1 - |phi|^alpha), so J = 0 at phi = 0; the
    noise spike sign theta_Z (probabilities q+/q-) independent of J;
    Theta_0 = theta_Z sign(phi)^J. The marginal law of Theta_0 is ``spike_probs``."""
    r = abs(model.phi) ** model.alpha
    j = rng.geometric(1.0 - r, size=size) - 1
    theta_z = np.where(rng.random(size) < model.tail_balance[0], 1.0, -1.0)
    return j, theta_z * np.sign(model.phi) ** j


def _tail_windows(model: ClusterModel, rng: np.random.Generator, reps: int, lo: int, hi: int,
                  tilted: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(J, windows): tail-process values on [lo, hi] for ``reps`` draws, shape
    (reps, hi-lo+1). J is a geometric draw's backward extent (zeros below -J)
    and an empirical draw's library anchor (zeros outside its block), drawn
    with ``tilted`` from the max|Q|^alpha-reweighted law; a geometric law is
    its own tilt, its max|Q| being the same for every J."""
    t_idx = np.arange(lo, hi + 1)
    if model.kind == "empirical":
        lib = model._empirical_library()
        lib.require_anchors()
        if tilted:
            which = cluster_law(model, (model.alpha,)).tilted().draw(reps, rng)
        else:
            which = rng.integers(0, lib.n_anchors, size=reps)
        h = lib.half_width
        theta = _own_cluster_theta(lib.blocks(which), h, model.floor_rel, model.run_gap)
        vals = np.zeros((reps, len(t_idx)))
        a, b = max(lo, -h), min(hi, h)
        if a <= b:
            vals[:, a - lo: b - lo + 1] = theta[:, a + h: b + h + 1]
        return which, vals
    j, theta0 = _draw_ar1_tail(model, rng, reps)
    # integer exponents keep negative phi exact; lags below every -J are zeroed
    # anyway, so clipping them keeps phi^t finite (phi = 0 included)
    pows = np.asarray(model.phi, dtype=float) ** np.maximum(t_idx, -j.max(initial=0))
    return j, np.where(t_idx[None, :] >= -j[:, None], theta0[:, None] * pows[None, :], 0.0)


def sample_spectral_tail(model: ClusterModel, horizon: int, seed: int) -> TailProcessDraw:
    """Draw the spectral tail process on the window [-min(J, horizon), horizon].

    A backward extent J beyond the horizon is recorded as truncation, not an
    error. An empirical draw lies on its block: the window is [-h, h] with h
    the smaller of the horizon and the block half-width.
    """
    h = _horizon(model, horizon)
    if model.kind == "empirical":
        w = min(h, model.block_half_width)
        _, win = _tail_windows(model, substream(seed), 1, -w, w)
        return TailProcessDraw(-w, w, win[0], backward_extent=w, truncated=h > w)
    j, win = _tail_windows(model, substream(seed), 1, -h, h)
    j = int(j[0])
    back = min(j, h)
    return TailProcessDraw(-back, h, win[0, h - back:], backward_extent=j, truncated=j > h)


def _cluster_path(model: ClusterModel, horizon: Optional[int], seed: int, tilted: bool):
    """One path of Q = Theta / ||Theta||_alpha, or with ``tilted`` of the
    tilted law over its max|Q|. A geometric path lies on [-min(J, horizon),
    horizon], with the exact norm ``|phi|^(-alpha J) / (1 - |phi|^alpha)`` of
    Theta, the exactly-known discarded l^alpha mass and, whatever the window
    holds, ``max|Q| = (1 - |phi|^alpha)^(1/alpha)``. An empirical path is its
    anchor's whole block."""
    h, alpha = _horizon(model, horizon), model.alpha
    if model.kind == "empirical":
        h = model.block_half_width
        which, win = _tail_windows(model, substream(seed), 1, -h, h, tilted)
        theta, t_min = win[0], -h
        norm_pow = float(np.sum(np.abs(theta) ** alpha))
        block = model._empirical_library().blocks(which)[0]
        raw = block / abs(block[h])
        # the measured sub-floor mass that the own-cluster restriction discarded
        # stands in for the unobserved mass outside the kept window
        cut = np.sum(np.abs(raw[(theta == 0.0) & (np.abs(raw) <= model.floor_rel)]) ** alpha)
    else:
        j, win = _tail_windows(model, substream(seed), 1, -h, h)
        j, phi_abs, r = int(j[0]), abs(model.phi), abs(model.phi) ** alpha
        t_min = -min(j, h)
        theta = win[0, h + t_min:]
        norm_pow = phi_abs ** (-alpha * j) / (1.0 - r)
        # the l^alpha mass of Theta beyond the window: forward past h, backward below -h
        cut = phi_abs ** (alpha * (h + 1)) / (1.0 - r) + float(np.sum(phi_abs ** (-alpha * np.arange(h + 1, j + 1))))
    q = theta / norm_pow ** (1.0 / alpha)
    trunc = float(cut / norm_pow)
    if not tilted:
        return ClusterDraw(t_min, h, q, alpha=alpha, truncation_error=trunc)
    max_q = np.max(np.abs(q)) if model.kind == "empirical" else (1.0 - r) ** (1.0 / alpha)
    return TiltedClusterDraw(t_min, h, q / max_q, alpha=alpha, truncation_error=trunc)


def sample_cluster(model: ClusterModel, horizon: Optional[int] = None, seed: int = 0) -> ClusterDraw:
    """Draw the cluster process Q = Theta / ||Theta||_alpha."""
    return _cluster_path(model, horizon, seed, tilted=False)


def sample_tilted_cluster(model: ClusterModel, horizon: Optional[int] = None, seed: int = 0) -> TiltedClusterDraw:
    """One whole tilted cluster path ``Q / max|Q|``, Q drawn from the
    ``max|Q|^alpha``-reweighted law: an empirical anchor with weight
    proportional to its tabulated ``max|Q|^alpha``; a geometric path as
    :func:`sample_cluster` draws it, since its max|Q| does not depend on J. A
    truncated geometric window may miss the max, which sits at t = -J."""
    return _cluster_path(model, horizon, seed, tilted=True)


def tilted_acceptance(model: ClusterModel, reps: int, seed: int = 0) -> Estimate:
    """Acceptance rate of the rejection step that proposes Q and accepts it
    with probability ``max_t |Q_t|^alpha`` (valid since ``max|Q| <= 1``).

    Its expectation is ``E[max|Q|^alpha]``, i.e. the extremal index, so the
    rate doubles as an estimator of theta.
    """
    f = cluster_functionals(model, reps, p=model.alpha, seed=seed)
    acc = substream(seed, 7).random(reps) < f["max_abs"] ** model.alpha
    rate = float(np.mean(acc))
    se = math.sqrt(max(rate * (1.0 - rate), 1e-300) / reps)
    return Estimate(rate, se, reps, "acceptance_rate")


# ---------------------------------------------------------------------------
# the cluster law: weighted atoms of the cluster functionals, read by the
# series sampler, the transform engine, the oracles and the moment estimators


@dataclass(frozen=True)
class ClusterAtoms:
    """Weighted atoms of (sum Q, max|Q|, ||Q||_p^p, ||Q||_1).

    ``exact`` laws are the two atoms of an analytic kind. Otherwise the atoms
    are the ``reps`` anchors of an empirical library, and ``group`` holds each
    atom's library chain. ``norms`` maps every exponent q the law was built
    for to ``||Q||_q^q``; ``norm_p_p`` is the one at ``p``.
    A law with ``draw_chunk > 0`` is uniform and is drawn by ``rng.integers``
    calls of at most that many indices: the chunks are part of the draw
    sequence, and other sizes would change every seeded empirical result.
    """

    alpha: float
    p: Optional[float]
    weights: np.ndarray
    sum_q: np.ndarray
    max_abs: np.ndarray
    norm_p_p: np.ndarray
    sum_abs: np.ndarray
    exact: bool
    reps: int = 0
    group: Optional[np.ndarray] = None
    norms: dict = field(default_factory=dict)
    draw_chunk: int = 0

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Atom indices of ``count`` independent draws from the law; a weighted
        law is drawn by the inverse CDF of ``rng.random``."""
        n = len(self.weights)
        if self.draw_chunk:
            step = self.draw_chunk
            return np.concatenate([rng.integers(0, n, size=min(step, count - lo))
                                   for lo in range(0, count, step)] or [np.zeros(0, dtype=np.int64)])
        return np.minimum(np.searchsorted(np.cumsum(self.weights), rng.random(count), side="right"), n - 1)

    def tilted(self) -> "ClusterAtoms":
        """The tilted cluster law by exact reweighting: weights proportional to
        ``w max|Q|^alpha``, functionals of the max-renormalised ``Q / max|Q|``."""
        m = self.max_abs
        w = self.weights * m**self.alpha
        return dataclasses.replace(
            self, weights=w / w.sum(), sum_q=self.sum_q / m, max_abs=np.ones(len(m)),
            norm_p_p=self.norm_p_p / m**self.p, sum_abs=self.sum_abs / m,
            norms={q: v / m**q for q, v in self.norms.items()}, draw_chunk=0,
        )


def cluster_law(model: ClusterModel, exponents: Sequence[float]) -> ClusterAtoms:
    """The law of the cluster functionals, with ``||Q||_q^q`` for every q in
    ``exponents`` (the first is ``p``).

    A geometric cluster is exact: one atom per sign of the spike,
    weighted by the tail balance, holding the closed-form functionals of the
    geometric cluster ``Q_t = (1 - |phi|^alpha)^(1/alpha) phi^t``, t >= 0
    (phi = 0 for iid). An empirical cluster has one atom per library anchor,
    weighted 1/n_anchors, read from the library's per-anchor table.
    """
    qs = tuple(dict.fromkeys(exponents))
    if model.kind == "empirical":
        lib = model._empirical_library()
        lib.require_anchors()
        table = lib.table(qs)
        n = lib.n_anchors
        return ClusterAtoms(
            alpha=model.alpha, p=qs[0], weights=np.full(n, 1.0 / n), sum_q=table["sum_q"],
            max_abs=table["max_abs"], norm_p_p=table[qs[0]], sum_abs=table["sum_abs"], exact=False,
            reps=n, group=lib.anchor_chain, norms={q: table[q] for q in qs},
            draw_chunk=max(1, 2_000_000 // (2 * lib.half_width + 1)),
        )
    alpha, phi = model.alpha, model.phi
    r = abs(phi) ** alpha
    scale = (1.0 - r) ** (1.0 / alpha)
    mag = scale / (1.0 - phi)
    norms = {q: np.full(2, (1.0 - r) ** (q / alpha) / (1.0 - abs(phi) ** q)) for q in qs}
    return ClusterAtoms(
        alpha=alpha, p=qs[0], weights=np.array(model.tail_balance), sum_q=np.array([mag, -mag]),
        max_abs=np.full(2, scale), norm_p_p=norms[qs[0]], sum_abs=np.full(2, scale / (1.0 - abs(phi))),
        exact=True, norms=norms,
    )


def cluster_atoms(model: ClusterModel, p: Optional[float] = None, n_mc=None, seed=None) -> ClusterAtoms:
    """The cluster law at ``p`` (default alpha + 1): the exact atoms of an
    analytic kind, every anchor of an empirical library. ``n_mc`` and
    ``seed`` are accepted for existing callers; no cluster kind reads them."""
    return cluster_law(model, (model.alpha + 1.0 if p is None else float(p),))


def tilted_atoms(model: ClusterModel, p: Optional[float] = None, n_mc=None, seed=None) -> ClusterAtoms:
    """The :func:`cluster_atoms` law reweighted to the tilted law; no cluster
    kind reads ``n_mc`` or ``seed``."""
    return cluster_atoms(model, p).tilted()


def cluster_functionals(model: ClusterModel, count: int, p: float, seed=0, rng=None, extra_ps=()) -> dict:
    """Arrays of per-draw reductions of Q, drawn from :func:`cluster_law`:
    ``max_abs``, ``sum_q`` (signed sum), ``sum_abs`` (l1 norm) and
    ``sum_abs_p`` (l^p norm to the p-th power).

    ``extra_ps`` requests further l^q powers on the same draws, returned under
    keys ``sum_abs_p{q:g}``.
    """
    law = cluster_law(model, (p, *extra_ps))
    k = law.draw(count, substream(seed, 11) if rng is None else rng)
    out = {"max_abs": law.max_abs[k], "sum_q": law.sum_q[k], "sum_abs": law.sum_abs[k],
           "sum_abs_p": law.norm_p_p[k]}
    out.update({f"sum_abs_p{q:g}": law.norms[q][k] for q in extra_ps})
    return out


def tilted_functionals(model: ClusterModel, count: int, p: float, seed=0) -> dict:
    """Per-draw reductions ``sum_q``, ``sum_abs`` and ``sum_abs_p`` of the
    tilted cluster, drawn from the exactly reweighted law."""
    law = cluster_law(model, (p,)).tilted()
    k = law.draw(count, substream(seed, 13))
    return {"sum_q": law.sum_q[k], "sum_abs": law.sum_abs[k], "sum_abs_p": law.norm_p_p[k]}


def _weighted_estimate(atoms: ClusterAtoms, weight, value, method: str = "monte_carlo") -> Estimate:
    """``sum w g v / sum w g`` over the atoms: w their weights, g ``weight``
    and v ``value`` (scalars or per-atom arrays, real or complex).

    The stderr is 0 for exact atoms. For a library it is the batch-means
    stderr over the chains in ``atoms.group``: the linearised residuals
    ``w g (v - estimate)`` are summed per chain and the chain sums taken as
    independent (Kuensch 1989, Ann. Statist. 17:1217). Anchors of one chain
    are dependent, so this counts the noise of the library itself, which the
    spread of the per-anchor values does not see.
    """
    a = atoms.weights * weight
    total = np.sum(a)
    est = (np.sum(a * value) / total).item()
    if atoms.exact:
        return Estimate(est, 0.0, 0, "closed_form")
    resid = np.broadcast_to(a * (value - est), a.shape)
    chains = np.count_nonzero(np.bincount(atoms.group))
    if chains < 2:
        return Estimate(est, math.nan, atoms.reps, method)
    ss = sum(float(np.sum(np.bincount(atoms.group, part) ** 2)) for part in (resid.real, resid.imag))
    return Estimate(est, math.sqrt(ss * chains / (chains - 1)) / abs(total), atoms.reps, method)


# ---------------------------------------------------------------------------
# extremal index and cluster moments


def extremal_index(model: ClusterModel, reps: int = 100_000, seed: int = 0, method: str = "auto") -> Estimate:
    """Extremal index theta = E[max_t |Q_t|^alpha].

    Exact for the analytic kinds (1 for iid, ``1 - |phi|^alpha`` for AR(1)).
    Empirical kinds use the running supremum of the multiplier products when
    the source is an SRE, ``theta = E[(1 - sup_{t>=1} |A_1...A_t|^alpha)_+]``
    over ``reps`` draws on ``seed``, or the mean of ``max|Q|^alpha`` over the
    library anchors (``method="cluster_max"``, always available as a
    cross-check, which reads neither ``reps`` nor ``seed``).
    """
    if method not in ("auto", "cluster_max", "sre_products"):
        raise ConfigurationError(
            f"unknown extremal index method {method!r}; known: auto, cluster_max, sre_products")
    if method == "sre_products" or (method == "auto" and model.source is not None and model.source.kind == "sre"):
        if model.kind != "empirical" or model.source.kind != "sre":
            raise ConfigurationError("the product estimator requires an empirical SRE cluster")
        rng = substream(seed, 17)
        t_len = max(200, math.ceil(80.0 / model.alpha))
        vals = np.empty(reps)
        chunk = max(1, 4_000_000 // t_len)
        done = 0
        while done < reps:
            m = min(chunk, reps - done)
            a, _ = model.source.sre_law.sample_ab(rng, m * t_len)
            prods = np.cumprod(np.abs(a).reshape(m, t_len), axis=1)
            sup = np.max(prods**model.alpha, axis=1)
            vals[done: done + m] = np.clip(1.0 - sup, 0.0, None)
            done += m
        return Estimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(reps)), reps, "sre_products")
    atoms = cluster_atoms(model, model.alpha)
    return _weighted_estimate(atoms, 1.0, atoms.max_abs**model.alpha, "cluster_max")


def cluster_moment(model: ClusterModel, p: float) -> Estimate:
    """E[||Q||_p^alpha]; equals 1 at p = alpha by the cluster normalisation."""
    if p <= 0:
        raise ConfigurationError("p must be positive")
    atoms = cluster_atoms(model, p)
    if p <= model.alpha and not atoms.exact:
        raise UnsupportedError("empirical cluster moments need p > alpha")
    return _weighted_estimate(atoms, 1.0, atoms.norm_p_p ** (model.alpha / p))


# ---------------------------------------------------------------------------
# time-change diagnostics


@dataclass(frozen=True)
class BoundedFunctional:
    """A bounded test functional of a (2h+1)-window of tail-process values."""

    fn: Callable[[np.ndarray], float]
    bound: float
    name: str
    half_width: int = 1


def standard_functionals(h: int = 1) -> list[BoundedFunctional]:
    return [
        BoundedFunctional(lambda w: float(w[0] > 0), 1.0, "left_positive", h),
        BoundedFunctional(lambda w: min(abs(float(w[-1])), 1.0), 1.0, "right_clipped_abs", h),
        BoundedFunctional(lambda w: math.cos(float(np.sum(w))), 1.0, "cos_window_sum", h),
    ]


@dataclass(frozen=True)
class TimeChangeRow:
    name: str
    lhs: float
    rhs: float
    stderr: float
    z: float
    vacuous: bool


@dataclass(frozen=True)
class TimeChangeReport:
    t: int
    reps: int
    rows: tuple

    def to_json(self) -> dict:
        return {"t": self.t, "reps": self.reps, "rows": [row.__dict__ for row in self.rows]}

    def max_abs_z(self) -> float:
        zs = [abs(r.z) for r in self.rows if not r.vacuous]
        return max(zs) if zs else 0.0


def verify_time_change(
    model: ClusterModel,
    t: int,
    test_functionals: Sequence[BoundedFunctional],
    reps: int = 100_000,
    seed: int = 0,
) -> TimeChangeReport:
    """Monte-Carlo check of the identity relating the law of the tail-process
    window conditional on ``Theta_{-t} != 0`` to the ``|Theta_t|^alpha``-tilted
    law of the window around t rescaled by ``|Theta_t|``.

    Both sides are estimated on independent streams and compared in combined
    standard-error units. Cases with ``P(Theta_{-t} != 0) = 0`` are reported as
    vacuous rather than failed.
    """
    if model.kind == "empirical":
        raise UnsupportedError("time-change verification needs two-sided analytic draws")
    for f in test_functionals:
        if not isinstance(f, BoundedFunctional):
            raise ConfigurationError("test functionals must be BoundedFunctional instances")
        if not (np.isfinite(f.bound) and f.bound > 0):
            raise ConfigurationError(f"functional {f.name!r} must declare a finite positive bound")

    alpha = model.alpha
    rows = []
    for k, f in enumerate(test_functionals):
        hw = f.half_width
        rng_l = substream(seed, 31, k)
        rng_r = substream(seed, 32, k)
        lo_l, hi_l = min(-hw, -t), max(hw, -t)
        _, win_l = _tail_windows(model, rng_l, reps, lo_l, hi_l)
        cond = win_l[:, -t - lo_l] != 0.0
        sub = win_l[cond][:, (-hw - lo_l): (hw - lo_l) + 1]
        lo_r, hi_r = min(t - hw, t), max(t + hw, t)
        _, win_r = _tail_windows(model, rng_r, reps, lo_r, hi_r)
        theta_t = win_r[:, t - lo_r]
        wts = np.abs(theta_t) ** alpha
        nz = wts > 0.0
        if not np.any(cond) or not np.any(nz):
            rows.append(TimeChangeRow(f.name, math.nan, math.nan, math.nan, 0.0, True))
            continue
        lhs_vals = np.fromiter((f.fn(w) for w in sub), dtype=float, count=len(sub))
        _check_bound(lhs_vals, f)
        lhs = float(lhs_vals.mean())
        se_l = float(lhs_vals.std(ddof=1) / math.sqrt(len(sub))) if len(sub) > 1 else 0.0
        scaled = win_r[nz, (t - hw - lo_r):(t + hw - lo_r) + 1] / np.abs(theta_t[nz])[:, None]
        fvals = np.zeros(reps)
        fvals[nz] = np.fromiter((f.fn(w) for w in scaled), dtype=float, count=int(nz.sum()))
        _check_bound(fvals, f)
        wbar = float(wts.mean())
        rhs = float(np.mean(wts * fvals) / wbar)
        resid = wts * (fvals - rhs)
        se_r = float(np.sqrt(np.mean(resid**2) / reps) / wbar)
        se = math.hypot(se_l, se_r)
        diff = lhs - rhs
        scale = max(1.0, abs(lhs), abs(rhs))
        if se < 1e-10 * scale:
            # both sides degenerate (the functional is constant here): compare exactly
            z = 0.0 if abs(diff) <= 1e-9 * scale else math.inf
        else:
            z = diff / se
        rows.append(TimeChangeRow(f.name, lhs, rhs, se, z, False))
    return TimeChangeReport(t, reps, tuple(rows))


def _check_bound(vals: np.ndarray, f: BoundedFunctional) -> None:
    if np.any(np.abs(vals) > f.bound + 1e-12):
        raise ConfigurationError(f"functional {f.name!r} exceeded its declared bound {f.bound}")

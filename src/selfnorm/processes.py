"""Stationary heavy-tailed example processes.

Three model families are shipped, all univariate:

* ``iid`` -- independent regularly varying noise (two-sided Pareto with
  tail-balance probabilities, or symmetric alpha-stable via the
  Chambers-Mallows-Stuck transform);
* ``ar1`` -- the causal AR(1) recursion ``X_t = phi X_{t-1} + Z_t`` driven by
  such noise;
* ``sre`` -- the causal solution of the affine stochastic recurrence
  ``X_t = A_t X_{t-1} + B_t`` under the Kesten moment condition
  ``E|A|^alpha = 1``.

All three are Markov chains ``X_t = A_t X_{t-1} + B_t`` (AR(1): ``A = phi``,
``B = Z``; iid: ``A = 0``), so one engine, :func:`_path_tiles`, simulates
them: every path, coupled window and Goldie chain. A replica's innovations
come from one Philox stream per draw call of the model
(``NoiseSpec.draw_calls``, ``SRELaw.draw_calls``): call 0 reads the replica
stream ``(seed, i, *suffix)`` and call k >= 1 the stream
``(derive_seed(seed, _CALL_TAG, k), i, *suffix)``, each from its start. The
engine streams paths through time in tiles of ``_TILE_STEPS`` steps: every
row keeps one generator per draw call, draws its next values per tile, and
the recursion carries its state from tile to tile. Joined, the tiles are the
same at any tile length, bit for bit, so a consumer that folds tiles into
accumulators needs memory for one tile, whatever the path length. Only a
custom SRE law, whose sampler draws from one stream as it likes, has its rows
drawn whole from the replica stream. An iid model reads no burn-in; AR(1)
and SRE models burn in from a zero start for as long as their contraction
rate needs to forget it (:func:`_burn_in_steps`).

All samplers are pure functions of ``(model, n, seed)``: identical arguments
produce bit-identical paths. ``write_csv`` is the one CSV writer of the
package.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy

from .errors import ConfigurationError, ModelError, UnsupportedError
from .rng import _rekey, _stream_keys, derive_seed, substream, substreams

PARETO = "pareto"
SYMMETRIC_STABLE = "symmetric_stable"

# the derived burn-in's bound on the start's weight, and its margin in standard deviations
_BURN_IN_EPS = 1e-17
_BURN_IN_Z = 8.0

# internal seeds for construction-time moment checks (independent of user seeds)
_KESTEN_SEED = 0x5EEDC0DE
_KESTEN_DRAWS = 2_000_000
# internal stream and size of the stationary sample behind the SRE tail constant
_GOLDIE_SEED = 0x601D1E
_GOLDIE_CHAINS = 64
_GOLDIE_KEEP = 2_000
# time steps per tile of sre_recursion: a (tile, rows) slab of A, B and X stays in cache
_SRE_TILE = 256
# the path engine's tiles: at most _TILE_ROWS replicas advance together, _TILE_STEPS
# steps at a time, so one float64 tile is at most 2 MB whatever the path length
_TILE_ROWS = 256
_TILE_STEPS = 1024
# the seed path of a draw call's stream: call k >= 1 reads under derive_seed(seed, _CALL_TAG, k)
_CALL_TAG = 0xCA11
# lfilter's compiled kernel, ``_linear_filter(b, a, x, axis)``, set by :func:`_ar1_kernel`
_LINEAR_FILTER = None


def _scipy_extension(name: str):
    """The compiled scipy module ``name`` (say ``scipy.signal._sigtools``),
    loaded from its file on its own, so the ``__init__.py`` of its package
    never runs; None when scipy has no such file. A module already in
    ``sys.modules`` lends itself.
    """
    module = sys.modules.get(name)
    if module is None:
        package = name.split(".")[1:-1]
        spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(scipy.__path__[0], *package)])
        if spec is None:
            return None
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # loading registers the bare module; a later import of its package makes its own
        sys.modules.pop(name, None)
    return module


def _gamma_ufuncs():
    """``gamma``, ``gammainc`` and ``gammaln`` from ``scipy.special._special_ufuncs``:
    the very ufuncs ``scipy.special`` exports, without the array-API layer its
    ``__init__.py`` imports (``numpy.testing``, ``numpy.f2py``), which is most
    of the time an import of ``scipy.special`` takes. A scipy without that
    module, or whose module lacks one of the three, gives them the usual way.
    """
    module = _scipy_extension("scipy.special._special_ufuncs")
    try:
        return module.gamma, module.gammainc, module.gammaln
    except AttributeError:  # no module (None) or an older layout
        from scipy.special import gamma, gammainc, gammaln

        return gamma, gammainc, gammaln


gamma_fn, gammainc, gammaln = _gamma_ufuncs()


def _validate_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha < 2.0) or alpha == 1.0:
        raise ConfigurationError(
            f"tail index alpha must lie in (0,1) or (1,2), got {alpha!r}"
        )
    return alpha


@dataclass(frozen=True)
class NoiseSpec:
    """Regularly varying iid noise.

    ``pareto`` draws ``|Z| = U^(-1/alpha)`` (so ``P(|Z| > z) = z^-alpha`` for
    ``z > 1`` exactly) with sign ``+`` with probability ``q_plus``;
    ``symmetric_stable`` draws a standard symmetric alpha-stable variable.
    """

    kind: str
    alpha: float
    tail_balance: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        if self.kind not in (PARETO, SYMMETRIC_STABLE):
            raise ConfigurationError(f"unknown noise kind {self.kind!r}")
        _validate_alpha(self.alpha)
        qp, qm = self.tail_balance
        if qp < 0 or qm < 0 or abs(qp + qm - 1.0) > 1e-12:
            raise ConfigurationError(
                f"tail balance must satisfy q+ , q- >= 0 and q+ + q- = 1, got {self.tail_balance!r}"
            )
        object.__setattr__(self, "tail_balance", (qp, qm))  # a hashable model, whatever was passed
        if self.kind == SYMMETRIC_STABLE and self.tail_balance != (0.5, 0.5):
            raise ConfigurationError("symmetric stable noise is symmetric; tail_balance must be (0.5, 0.5)")

    @property
    def q_plus(self) -> float:
        return self.tail_balance[0]

    @property
    def q_minus(self) -> float:
        return self.tail_balance[1]

    def tail_constant(self) -> float:
        """c with P(|Z| > z) ~ c z^-alpha; exactly 1 for the Pareto kind."""
        if self.kind == PARETO:
            return 1.0
        return stable_tail_constant(self.alpha)

    def mean(self) -> float:
        if self.alpha <= 1.0:
            raise UnsupportedError("noise mean requires alpha > 1")
        if self.kind == PARETO:
            return (self.q_plus - self.q_minus) * self.alpha / (self.alpha - 1.0)
        return 0.0

    @property
    def draw_calls(self) -> tuple[str, ...]:
        """The ``Generator`` methods a row of noise is drawn by, each from a
        stream of its own in the path engine: the Pareto moduli's uniforms,
        then (two-sided only) the signs' uniforms; the stable law's uniforms,
        then its exponentials. One-signed noise draws no signs: they would
        all compare alike."""
        if self.kind == SYMMETRIC_STABLE:
            return ("random", "standard_exponential")
        return ("random",) if self.q_plus in (0.0, 1.0) else ("random", "random")

    def _from_draws(self, draws) -> np.ndarray:
        """The noise from one array per :attr:`draw_calls` entry, all of one
        shape; a Pareto draw is computed in place in the first array."""
        if self.kind == PARETO:
            z = np.power(draws[0], -1.0 / self.alpha, out=draws[0])  # pareto_quantile's map
            if self.q_plus != 1.0:
                # a sign of -1 where the sign's uniform is at least q_plus: z * -1 is -z exactly
                np.negative(z, out=z, where=True if self.q_plus == 0.0 else draws[1] >= self.q_plus)
            return z
        # Chambers-Mallows-Stuck, symmetric case
        a = self.alpha
        v = math.pi * (draws[0] - 0.5)
        return (
            np.sin(a * v)
            / np.cos(v) ** (1.0 / a)
            * (np.cos((1.0 - a) * v) / draws[1]) ** ((1.0 - a) / a)
        )


def stable_tail_constant(alpha: float) -> float:
    """c_alpha with P(|Z| > z) ~ c_alpha z^-alpha for a standard symmetric
    alpha-stable Z, alpha in (0,2)\\{1}."""
    return (1.0 - alpha) / (gamma_fn(2.0 - alpha) * math.cos(math.pi * alpha / 2.0))


@dataclass(frozen=True)
class SRELaw:
    """Law of the iid pairs (A, B) in ``X_t = A_t X_{t-1} + B_t``.

    ``lognormal``: ``|A| = exp(N(mu, sigma^2))`` with ``mu = -alpha sigma^2/2``
    so that ``E|A|^alpha = 1`` holds exactly; ``A`` is negated with probability
    ``neg_prob``. ``constant``: ``A = a_const`` (a degenerate test law for
    which the Kesten condition cannot hold; construct the model with
    ``kesten_check=False``). ``B ~ N(b_mean, b_sd^2)`` in both cases, unless a
    user ``sampler(rng, size) -> (A, B)`` is supplied.

    Two distributional requirements (non-arithmetic log|A| given A != 0, and
    P(Ax + B = x) < 1 for all x) cannot be verified numerically and remain
    user obligations.
    """

    alpha: float
    kind: str = "lognormal"
    sigma: float = 1.0
    neg_prob: float = 0.0
    a_const: float = 0.0
    b_mean: float = 0.0
    b_sd: float = 1.0
    sampler: Optional[Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]] = None

    def __post_init__(self):
        if self.kind not in ("lognormal", "constant", "custom"):
            raise ConfigurationError(f"unknown SRE law kind {self.kind!r}")
        if self.kind == "custom" and self.sampler is None:
            raise ConfigurationError("custom SRE law requires a sampler")
        if float(self.alpha) <= 0:
            raise ConfigurationError("SRE tail index must be positive")
        if not (0.0 <= self.neg_prob <= 1.0):
            raise ConfigurationError("neg_prob must lie in [0, 1]")

    @property
    def mu(self) -> float:
        return -self.alpha * self.sigma**2 / 2.0

    @property
    def constant_b(self) -> bool:
        """B is the constant ``b_mean``: a non-custom law with ``b_sd == 0``."""
        return self.kind != "custom" and self.b_sd == 0

    def sample_ab(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """``size`` iid pairs (A, B) from the one stream ``rng``, the draw
        calls one after another: what the moment checks and the Monte-Carlo
        means read. A path of a law with more than one draw call reads each
        call from its own stream (:class:`_TileDraws`), so it is not this
        layout; a law with one call, or a custom one, is."""
        if self.kind == "custom":
            a, b = self.sampler(rng, size)
            return np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        a, b = self._from_draws([getattr(rng, call)(size) for call in self.draw_calls], size)
        return a, np.full(size, self.b_mean) if self.constant_b else b

    @property
    def draw_calls(self) -> tuple[str, ...]:
        """The ``Generator`` methods a row of (A, B) of a non-custom law is
        drawn by, in order: the normals of log|A| (lognormal), the uniforms of
        A's sign (if ``neg_prob > 0``), the normals of B. The path engine
        reads each call from a stream of its own; :meth:`sample_ab` reads them
        one after another from one stream. A constant A or B is not drawn: B's
        normals would all be multiplied by 0."""
        return (("standard_normal",) if self.kind == "lognormal" else ()) + (
            ("random",) if self.kind == "lognormal" and self.neg_prob > 0 else ()) + (
            () if self.constant_b else ("standard_normal",))

    def _from_draws(self, draws, shape) -> tuple[np.ndarray, np.ndarray]:
        """(A, B) of the given shape from one array per :attr:`draw_calls`
        entry, computed in place in those arrays: ``exp(mu + sigma Z)`` and
        ``b_mean + b_sd Z`` take the same IEEE operations as written out, so
        every value equals the expression's. A constant B is a read-only
        0-stride view of ``b_mean``."""
        draws = iter(draws)
        if self.kind == "constant":
            a = np.full(shape, self.a_const)
        else:
            a = next(draws)
            a *= self.sigma
            a += self.mu
            np.exp(a, out=a)
            if self.neg_prob > 0:
                np.negative(a, out=a, where=next(draws) < self.neg_prob)
        if self.constant_b:
            return a, np.broadcast_to(self.b_mean, shape)
        b = next(draws)
        b *= self.b_sd
        b += self.b_mean
        return a, b

    def abs_a_moment(self, q: float) -> Optional[float]:
        """E|A|^q in closed form where available, else None."""
        if self.kind == "lognormal":
            return math.exp(q * self.mu + q**2 * self.sigma**2 / 2.0)
        if self.kind == "constant":
            return abs(self.a_const) ** q if self.a_const != 0 else (0.0 if q > 0 else 1.0)
        return None

    def abs_a_log_moment(self, q: float) -> Optional[float]:
        """E[|A|^q log|A|] in closed form where available, else None."""
        if self.kind == "lognormal":
            return (self.mu + q * self.sigma**2) * math.exp(q * self.mu + q**2 * self.sigma**2 / 2.0)
        if self.kind == "constant":
            return abs(self.a_const) ** q * math.log(abs(self.a_const)) if self.a_const != 0 else 0.0
        return None

    def mean_a(self) -> Optional[float]:
        if self.kind == "lognormal":
            return (1.0 - 2.0 * self.neg_prob) * math.exp(self.mu + self.sigma**2 / 2.0)
        if self.kind == "constant":
            return self.a_const
        return None

    def mean_b(self) -> Optional[float]:
        if self.kind == "custom":
            return None
        return self.b_mean


@dataclass(frozen=True)
class ProcessModel:
    """An iid, AR(1) or SRE model. ``burn_in``, the steps run from a zero start
    before the first observation, defaults to None: the model then derives it
    from its contraction rate E log|A| (:func:`_burn_in_steps`)."""

    kind: str
    noise: Optional[NoiseSpec] = None
    phi: Optional[float] = None
    sre_law: Optional[SRELaw] = None
    burn_in: Optional[int] = None
    kesten_check: bool = True

    @property
    def alpha(self) -> float:
        if self.kind == "sre":
            return self.sre_law.alpha
        return self.noise.alpha

    def __post_init__(self):
        if self.kind not in ("iid", "ar1", "sre"):
            raise ConfigurationError(f"unknown process kind {self.kind!r}")
        if self.burn_in is not None and self.burn_in < 0:
            raise ConfigurationError("burn_in must be >= 0")
        if self.kind == "iid" and self.burn_in:
            raise ConfigurationError(f"an iid model reads no burn-in, got burn_in={self.burn_in}")
        if self.kind in ("iid", "ar1") and self.noise is None:
            raise ConfigurationError(f"{self.kind} model requires a NoiseSpec")
        rate = (-math.inf, 0.0)  # iid: A = 0 forgets the start at once
        if self.kind == "ar1":
            if self.phi is None or not (-1.0 < self.phi < 1.0) or self.phi == 0.0:
                raise ConfigurationError("ar1 requires phi in (-1, 1) \\ {0}")
            # the driver builds every model, so a forked pool inherits the kernel
            _ar1_kernel()
            rate = (math.log(abs(self.phi)), 0.0)
        if self.kind == "sre":
            if self.sre_law is None:
                raise ConfigurationError("sre model requires an SRELaw")
            rate = _check_sre_law(self.sre_law, self.kesten_check)
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", _burn_in_steps(*rate))
        # likewise a forked pool inherits the generators for one tile group
        _warm_generators(_TILE_ROWS)


def iid_model(noise: NoiseSpec) -> ProcessModel:
    return ProcessModel(kind="iid", noise=noise)


def ar1_model(phi: float, noise: NoiseSpec, burn_in: Optional[int] = None) -> ProcessModel:
    """AR(1) model; ``burn_in=None`` derives the burn-in from ``log|phi|``."""
    return ProcessModel(kind="ar1", noise=noise, phi=float(phi), burn_in=burn_in)


def sre_model(law: SRELaw, burn_in: Optional[int] = None, kesten_check: bool = True) -> ProcessModel:
    """SRE model; ``burn_in=None`` derives the burn-in from the law's E log|A|."""
    return ProcessModel(kind="sre", sre_law=law, burn_in=burn_in, kesten_check=kesten_check)


def _burn_in_steps(gamma: float, s: float) -> int:
    """The smallest t >= 0 with ``t gamma + z s sqrt(t) <= log(eps)`` for
    ``gamma = E log|A| < 0`` and its standard deviation ``s``: the start's
    weight |A_1 ... A_t| is below eps unless its log lies z standard
    deviations above its mean (Kesten 1973, Acta Math. 131:207); 0 for A = 0."""
    if gamma == -math.inf:
        return 0
    zs, log_eps = _BURN_IN_Z * s, math.log(_BURN_IN_EPS)
    root = (zs + math.sqrt(zs * zs + 4.0 * gamma * log_eps)) / (-2.0 * gamma)
    return math.ceil(root * root)


def _check_sre_law(law: SRELaw, kesten_check: bool) -> tuple[float, float]:
    """Reject a non-contractive law (and, with ``kesten_check``, one missing
    E|A|^alpha = 1); return the mean and standard deviation of log|A|, from
    the probe's draws for a custom law, clipped at log(eps) where A = 0."""
    # contractivity probe: some q < alpha must have E|A|^q < 1; a custom law,
    # the one kind without closed forms, is probed on draws
    absa = np.abs(law.sample_ab(substream(_KESTEN_SEED, 1), _KESTEN_DRAWS)[0]) if law.kind == "custom" else None
    moments = [law.abs_a_moment(q) if absa is None else float(np.mean(absa**q))
               for q in (law.alpha * f for f in (0.125, 0.25, 0.5, 0.75, 0.875))]
    if all(m >= 1.0 for m in moments):
        raise ModelError("non-contractive SRE law: estimated E|A|^q >= 1 for all probed q < alpha")
    if law.kind == "lognormal":
        rate = (law.mu, law.sigma)
    elif law.kind == "constant":
        rate = (math.log(abs(law.a_const)) if law.a_const else -math.inf, 0.0)
    else:
        log_a = np.log(np.maximum(absa, _BURN_IN_EPS))
        rate = (float(log_a.mean()), float(log_a.std()))
    if not kesten_check:
        return rate
    if law.kind == "lognormal":
        est, se = law.abs_a_moment(law.alpha), 0.0
    else:
        vals = np.abs(law.sample_ab(substream(_KESTEN_SEED, 2), _KESTEN_DRAWS)[0]) ** law.alpha
        est, se = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))
    if abs(est - 1.0) > 1e-3 + 4.0 * se:
        raise ModelError(
            f"Kesten condition fails: E|A|^alpha = {est:.6f} (se {se:.2g}), expected 1 within 1e-3"
        )
    return rate


@dataclass(frozen=True)
class Path:
    """One simulated sample path (post burn-in, stationary regime)."""

    values: np.ndarray
    model: ProcessModel
    seed: int
    initial: Optional[float] = None  # state just before the first observation

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# noise and recursions


def pareto_quantile(u, alpha: float):
    """Inverse CDF of the standard Pareto modulus: ``|Z| = u^(-1/alpha)`` maps
    Uniform(0,1) to ``P(|Z| > z) = z^-alpha``, z > 1."""
    return np.asarray(u, dtype=float) ** (-1.0 / alpha)


def _ar1_kernel():
    """``scipy.signal._sigtools._linear_filter``, the C loop behind ``lfilter``.

    Loaded by :func:`_scipy_extension`, so ``scipy/signal/__init__.py``, which
    takes longer to import than this whole package and pulls in
    ``scipy.stats``, ``scipy.interpolate`` and ``scipy.optimize``, never runs.
    Held in a module global for the life of the process.
    """
    global _LINEAR_FILTER
    if _LINEAR_FILTER is None:
        _LINEAR_FILTER = _scipy_extension("scipy.signal._sigtools")._linear_filter
    return _LINEAR_FILTER


def ar1_recursion(phi: float, noise: np.ndarray) -> np.ndarray:
    """Run ``X_t = phi X_{t-1} + Z_t`` from a zero start over a noise array,
    batched over its leading axes (recursion along the last):
    ``lfilter([1], [1, -phi], noise)`` bit for bit, the same compiled kernel,
    called without importing ``scipy.signal`` (:func:`_ar1_kernel`).
    """
    return _ar1_kernel()(np.array([1.0]), np.array([1.0, -phi]), np.asarray(noise, dtype=float), -1)


def sre_recursion(a: np.ndarray, b: np.ndarray, x0=0.0) -> np.ndarray:
    """Run ``X_t = A_t X_{t-1} + B_t`` along the last axis from state ``x0``
    (a scalar or one start per leading index).

    ``b`` is broadcast to the shape of ``a``, so a constant B may be a 0-stride
    view. The rows run on time-major tiles of ``_SRE_TILE`` steps: each tile
    of A and B is copied transposed into a preallocated buffer, one ufunc pair
    per step advances every row at once into preallocated rows, and the tile
    is written back transposed. Each value takes the same multiply and add as
    the step written out, so the result does not depend on the tiling.
    """
    a = np.asarray(a, dtype=float)
    shape, n = a.shape, a.shape[-1]
    rows = math.prod(shape[:-1])
    a = a.reshape(rows, n)
    b = np.broadcast_to(np.asarray(b, dtype=float), shape).reshape(rows, n)
    out = np.empty((rows, n))
    state = np.broadcast_to(np.asarray(x0, dtype=float), shape[:-1]).reshape(rows).copy()
    tile = max(1, min(n, _SRE_TILE))
    a_buf, b_buf, x_buf = (np.empty((tile, rows)) for _ in range(3))
    # the product goes to its own row: numpy's in-place path is slow on one row
    prod = np.empty(rows)
    for lo in range(0, n, tile):
        hi = min(lo + tile, n)
        a_t, x_t = a_buf[:hi - lo], x_buf[:hi - lo]
        np.copyto(a_t, a[:, lo:hi].T)
        b_t = b[:, lo:hi].T  # a B constant in time is read in place
        if b.strides[1]:
            b_t = b_buf[:hi - lo]
            np.copyto(b_t, b[:, lo:hi].T)
        for a_s, b_s, x_s in zip(a_t, b_t, x_t):
            np.multiply(a_s, state, prod)
            np.add(prod, b_s, x_s)
            state = x_s
        out[:, lo:hi] = x_t.T
    return out.reshape(shape)


# idle generators for the path engine, which re-keys them with rng._rekey
_IDLE_GENERATORS: list = []


def _warm_generators(count: int) -> None:
    """At least ``count`` idle generators; each costs about 10 us to build."""
    while len(_IDLE_GENERATORS) < count:
        _IDLE_GENERATORS.append(np.random.Generator(np.random.Philox(0)))


def _take_generators(count: int) -> list:
    _warm_generators(count)
    taken = _IDLE_GENERATORS[len(_IDLE_GENERATORS) - count:]
    del _IDLE_GENERATORS[len(_IDLE_GENERATORS) - count:]
    return taken


class _TileDraws:
    """The innovations of a group of replica rows, drawn tile after tile:
    ``next(t)`` returns the next ``t`` innovations of every row, ``(Z,)``
    for iid and AR(1) and ``(A, B)`` for SRE, each a ``(rows, t)`` array.
    A constant B (:attr:`SRELaw.constant_b`) is not drawn: it is a
    read-only 0-stride view of ``b_mean``.

    Each row holds one generator per draw call of its law, each at the start
    of a stream of its own: call 0 of row ``i`` reads the replica stream
    ``(seed, i, *suffix)``, call k >= 1 the stream
    ``(derive_seed(seed, _CALL_TAG, k), i, *suffix)``, so no call depends on
    how many outputs another takes. A user sampler draws its calls from one
    stream as it likes, so a custom law's rows are drawn whole from the
    replica stream. ``tile`` is the longest ``t`` asked for (default
    ``_TILE_STEPS``). The returned arrays are reused by the next call.
    """

    def __init__(self, model: ProcessModel, size: int, seed: int, indices, *suffix: int,
                 tile: Optional[int] = None):
        self.model, self.rows, law = model, len(indices), model.sre_law if model.kind == "sre" else model.noise
        self.gens, self.whole, self.offset = [], None, 0
        if law.kind == "custom":
            self.whole = (np.empty((self.rows, size)), np.empty((self.rows, size)))
            for r, rng in enumerate(substreams(seed, indices, *suffix)):
                self.whole[0][r], self.whole[1][r] = law.sample_ab(rng, size)
            return
        calls, tile = law.draw_calls, tile or _TILE_STEPS
        self.gens = [_take_generators(self.rows) for _ in calls]
        self.buffers = [np.empty(self.rows * min(size, tile)) for _ in calls]
        for k, gens in enumerate(self.gens):
            keys = _stream_keys(derive_seed(seed, _CALL_TAG, k) if k else seed, indices, *suffix)
            for gen, key in zip(gens, keys.tolist()):
                _rekey(gen, key)
        self.calls = [[getattr(g, call) for g in gens] for call, gens in zip(calls, self.gens)]

    def next(self, t: int) -> tuple:
        if self.whole is not None:
            self.offset += t
            return tuple(w[:, self.offset - t:self.offset] for w in self.whole)
        draws = [buf[:self.rows * t].reshape(self.rows, t) for buf in self.buffers]
        for out, calls in zip(draws, self.calls):
            for row, call in zip(out, calls):
                call(out=row)
        if self.model.kind == "sre":
            return self.model.sre_law._from_draws(draws, (self.rows, t))
        return (self.model.noise._from_draws(draws),)

    def close(self) -> None:
        for gens in self.gens:
            _IDLE_GENERATORS.extend(gens)
        self.gens = []


def _path_tiles(model: ProcessModel, steps: int, seed: int, indices, *suffix: int, skip: int = 0,
                start=None, tile: Optional[int] = None):
    """The paths of the replica rows ``indices`` (at most ``_TILE_ROWS``
    of them, for the memory bound) over ``steps`` steps of the replica
    streams ``(seed, i, *suffix)`` (each draw call on its own stream,
    :class:`_TileDraws`), ``tile`` steps at a time (default
    ``_TILE_STEPS``).

    Yields ``(x, block)`` for steps ``skip`` to ``steps - 1`` in order: the
    path tile and the innovations block (:class:`_TileDraws`) it was run
    over; the steps before ``skip`` run through tiles of their own. Paths
    start from zero, shaped ``(rows, t)``, or from each row of ``start``, a
    ``(k, rows)`` stack of states before step 0 run over the same
    innovations, shaped ``(k, rows, t)``. An AR(1) tile runs lfilter's
    kernel from zero with its state ``zi`` carried from the last tile's
    ``zf`` and adds each start's decay ``x0 phi^t``, t counted from the
    start; an SRE tile runs :func:`sre_recursion` from the last tile's final
    values. Joined, the tiles are the same at any tile length, bit for bit.
    A tile and its block are valid until the next one is asked for.
    """
    tile = tile or _TILE_STEPS
    draws = _TileDraws(model, steps, seed, indices, *suffix, tile=tile)
    state = np.zeros(len(indices)) if start is None else np.asarray(start, dtype=float)
    if model.kind == "ar1":
        coef, zi = (np.array([1.0]), np.array([1.0, -model.phi])), np.zeros((len(indices), 1))
    try:
        for first, stop in ((0, skip), (skip, steps)):
            for lo in range(first, stop, tile):
                t = min(tile, stop - lo)
                block = draws.next(t)
                if model.kind == "iid":
                    x = block[0]
                elif model.kind == "ar1":
                    x, zi = _ar1_kernel()(*coef, block[0], -1, zi)
                    if start is not None:
                        x = x + state[..., None] * model.phi ** np.arange(lo + 1, lo + t + 1)
                else:
                    x = sre_recursion(np.broadcast_to(block[0], state.shape + (t,)), block[1], x0=state)
                    state = x[..., -1].copy()
                if first == skip:
                    yield x, block
    finally:
        draws.close()


def _join(tiles, out: np.ndarray, b_out: Optional[np.ndarray] = None) -> None:
    """Write the path tiles of :func:`_path_tiles` side by side into
    ``out``, time last, and, given ``b_out``, their blocks' B into it."""
    col = 0
    for x, block in tiles:
        out[..., col:col + x.shape[-1]] = x
        if b_out is not None:
            b_out[:, col:col + x.shape[-1]] = block[-1]
        col += x.shape[-1]


def _row_groups(count: int) -> list:
    """Slices of at most ``_TILE_ROWS`` rows that cover ``range(count)``."""
    return [slice(lo, lo + _TILE_ROWS) for lo in range(0, count, _TILE_ROWS)]


def _simulate_rows(model: ProcessModel, n: int, seed: int, indices, tile: Optional[int] = None) -> np.ndarray:
    """Stationary-regime paths for the given replica indices, on the
    replica streams ``(seed, i)``: the joined tiles of :func:`_path_tiles`,
    burn-in dropped. Rows are independent of how they are batched and tiled."""
    indices = np.asarray(indices)
    out = np.empty((len(indices), n))
    for rows in _row_groups(len(indices)):
        _join(_path_tiles(model, n + model.burn_in, seed, indices[rows], skip=model.burn_in, tile=tile), out[rows])
    return out


def sample_path(model: ProcessModel, n: int, seed: int, index: int = 0) -> Path:
    """One stationary-regime path of length ``n``.

    ``index``, in [0, 2^32), selects the replica substream; the default
    matches replica 0 of any batched run with the same seed.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    # one row runs as one tile of its whole length: 1024-step tiles would pay
    # a draw call, a kernel call and a copy per tile on a single row
    values = _simulate_rows(model, n, seed, np.array([index]), tile=n + model.burn_in)[0]
    return Path(values=values, model=model, seed=seed)


def sample_noise(spec: NoiseSpec, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` iid noise variables, deterministically from ``seed``:
    replica 0 of an iid path of that length with the same seed, the path
    engine's one tile of it."""
    if count < 1:
        raise ConfigurationError("count must be >= 1")
    ((x, _),) = _path_tiles(iid_model(spec), count, seed, np.array([0]), tile=count)
    return x[0]


def _coupled_rows(model: ProcessModel, n: int, seed: int, indices: np.ndarray):
    """Coupled pairs sharing innovations on the observation window but with
    independent stationary initial states. Returns (x, x_star, x0, x0_star).

    Replica ``idx`` reads the streams ``(seed, idx, 0)`` for the shared
    window and ``(seed, idx, 1)``, ``(seed, idx, 2)`` for the two burn-ins
    (a later draw call under its derived seed, :class:`_TileDraws`), each of
    ``model.burn_in`` steps, of which only the final states are kept; each
    group of rows draws its shared window once and runs it from both
    starts."""
    burn, indices = model.burn_in, np.asarray(indices)
    x, starts = np.empty((2, len(indices), n)), np.zeros((2, len(indices)))
    for rows in _row_groups(len(indices)):
        for k in (0, 1) if burn else ():
            for last, _ in _path_tiles(model, burn, seed, indices[rows], k + 1):
                pass
            starts[k, rows] = last[:, -1]
        _join(_path_tiles(model, n, seed, indices[rows], 0, start=starts[:, rows]), x[:, rows])
    return x[0], x[1], starts[0], starts[1]


def sample_coupled_paths(model: ProcessModel, n: int, seed: int, index: int = 0) -> tuple[Path, Path]:
    """A path and a coupled copy: identical innovations for t >= 1, the copy
    initialised from an independent stationary start.

    Both paths carry their pre-observation state in ``.initial``.
    """
    if model.kind == "iid":
        raise UnsupportedError("coupling an iid model is trivial and not supported")
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    x, xs, x0, x0s = _coupled_rows(model, n, seed, np.array([index]))
    return (
        Path(values=x[0], model=model, seed=seed, initial=float(x0[0])),
        Path(values=xs[0], model=model, seed=seed, initial=float(x0s[0])),
    )


# ---------------------------------------------------------------------------
# scale constants and means


def tail_constant(model: ProcessModel) -> tuple[float, float]:
    """(c, stderr) with ``P(|X| > x) ~ c x^-alpha`` for the stationary X.

    iid: the noise tail constant; AR(1): that over ``1 - |phi|^alpha`` (the
    geometric moving-average representation); both exact, stderr 0. SRE:
    Goldie's implicit renewal formula (Goldie 1991, Ann. Appl. Probab. 1:126)

        c = E[|AX + B|^alpha - |AX|^alpha] / (alpha E[|A|^alpha log|A|]).

    The numerator is a mean over 64 chains on a fixed internal stream, each
    run through the model's burn-in (derived from E log|A| unless set) and
    then 2000 kept steps with ``A_t X_{t-1} = X_t - B_t``, its stderr by batch
    means over the chains.
    The denominator is ``SRELaw.abs_a_log_moment`` where closed-form, else a
    mean over ``_KESTEN_DRAWS`` draws with its stderr. A numerator or
    denominator <= 0 (e.g. B = 0, or a constant |A| < 1) means the law has no
    Kesten tail and raises ModelError.
    """
    if model.kind == "iid":
        return model.noise.tail_constant(), 0.0
    if model.kind == "ar1":
        return model.noise.tail_constant() / (1.0 - abs(model.phi) ** model.alpha), 0.0
    law, alpha, burn = model.sre_law, model.alpha, model.burn_in
    slope, slope_se = law.abs_a_log_moment(alpha), 0.0
    if slope is None:
        abs_a = np.abs(law.sample_ab(substream(_KESTEN_SEED, 2), _KESTEN_DRAWS)[0])
        terms = abs_a**alpha * np.log(np.where(abs_a > 0, abs_a, 1.0))  # 0 where A = 0
        slope, slope_se = float(terms.mean()), float(terms.std(ddof=1) / math.sqrt(terms.size))
    # the burn-in streams through tiles; only the kept steps and their B are held
    x, b = np.empty((_GOLDIE_CHAINS, _GOLDIE_KEEP)), np.empty((_GOLDIE_CHAINS, _GOLDIE_KEEP))
    _join(_path_tiles(model, burn + _GOLDIE_KEEP, _GOLDIE_SEED, np.arange(_GOLDIE_CHAINS), skip=burn), x, b)
    per_chain = (np.abs(x) ** alpha - np.abs(x - b) ** alpha).mean(axis=1)
    num, num_se = float(per_chain.mean()), float(per_chain.std(ddof=1) / math.sqrt(_GOLDIE_CHAINS))
    if slope <= 0 or num <= 0:
        raise ModelError(f"no Kesten tail: E|A|^alpha log|A| = {slope:.6g} and "
                         f"E[|AX+B|^alpha - |AX|^alpha] = {num:.6g} must both be positive")
    c = num / (alpha * slope)
    return c, c * math.hypot(num_se / num, slope_se / slope)


def normalizing_an(model: ProcessModel, n: int) -> float:
    """Scale constant ``a_n = (c n)^(1/alpha)``, so that ``n P(|X| > a_n) -> 1``,
    with c from :func:`tail_constant` for every model kind."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    return float((n * tail_constant(model)[0]) ** (1.0 / model.alpha))


def stationary_mean(model: ProcessModel, mc_draws: int = 10**6, seed: int = 0) -> float:
    """Analytic stationary mean, for centering when alpha > 1."""
    if model.alpha <= 1.0:
        raise UnsupportedError("stationary mean requires alpha > 1 (no centering below)")
    if model.kind == "iid":
        return model.noise.mean()
    if model.kind == "ar1":
        return model.noise.mean() / (1.0 - model.phi)
    law = model.sre_law
    ma, mb = law.mean_a(), law.mean_b()
    if ma is None or mb is None:
        rng = substream(seed, 3)
        a, b = law.sample_ab(rng, mc_draws)
        ma = float(a.mean()) if ma is None else ma
        mb = float(b.mean()) if mb is None else mb
    if abs(ma) >= 1.0:
        raise ModelError("E[A] must have modulus < 1 for a finite stationary mean")
    return mb / (1.0 - ma)


# ---------------------------------------------------------------------------
# configuration and export


# the keys each kind reads; a dict with any other key is rejected
_MODEL_KEYS = {"iid": ("kind", "noise", "burn_in"), "ar1": ("kind", "noise", "phi", "burn_in"),
               "sre": ("kind", "sre_law", "burn_in", "kesten_check")}
_NOISE_KEYS = ("kind", "alpha", "q_plus", "q_minus")
_SRE_LAW_KEYS = {"lognormal": ("kind", "alpha", "sigma", "neg_prob", "b_mean", "b_sd"),
                 "constant": ("kind", "alpha", "a_const", "b_mean", "b_sd")}


def check_keys(d: dict, allowed, what: str, required=()) -> None:
    """Reject a config dict holding a key that ``allowed`` does not name, or
    lacking a key that ``required`` names."""
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigurationError(f"{what}: unknown keys {unknown}; it reads {sorted(allowed)}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigurationError(f"{what}: missing keys {missing}")


def model_to_dict(model: ProcessModel) -> dict:
    """The model as a config dict with its burn-in resolved: what
    ``config_hash`` covers."""
    d: dict = {"kind": model.kind, "burn_in": model.burn_in}
    if model.noise is not None:
        d["noise"] = {k: getattr(model.noise, k) for k in _NOISE_KEYS}
    if model.phi is not None:
        d["phi"] = model.phi
    if model.sre_law is not None:
        law = model.sre_law
        if law.kind == "custom":
            raise ConfigurationError("custom SRE samplers cannot be serialised")
        d["sre_law"] = {k: getattr(law, k) for k in _SRE_LAW_KEYS[law.kind]}
        d["kesten_check"] = model.kesten_check
    return d


def model_from_dict(d: dict) -> ProcessModel:
    kind = d.get("kind")
    # an unknown kind is reported by the model itself
    check_keys(d, _MODEL_KEYS.get(kind, d), f"{kind} model")
    noise = law = None
    if "noise" in d:
        nd = d["noise"]
        check_keys(nd, _NOISE_KEYS, "noise", required=("kind", "alpha"))
        noise = NoiseSpec(nd["kind"], float(nd["alpha"]),
                          (float(nd.get("q_plus", 0.5)), float(nd.get("q_minus", 0.5))))
    if "sre_law" in d:
        ld = d["sre_law"]
        check_keys(ld, _SRE_LAW_KEYS.get(ld.get("kind", "lognormal"), ld), "sre_law")
        # every field but the kind is a number; a field left out takes its SRELaw default
        law = SRELaw(**{k: v if k == "kind" else float(v) for k, v in ld.items()})
    return ProcessModel(
        kind=kind,
        noise=noise,
        phi=float(d["phi"]) if "phi" in d else None,
        sre_law=law,
        burn_in=None if d.get("burn_in") is None else int(d["burn_in"]),
        kesten_check=bool(d.get("kesten_check", True)),
    )


@contextmanager
def text_target(target):
    """``target`` itself if it has a ``write`` method, else the file at that
    path, opened for writing text: what every CSV and JSON writer accepts."""
    if hasattr(target, "write"):
        yield target
    else:
        with open(target, "w") as fh:
            yield fh


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return ("%d" if isinstance(v, (int, np.integer, np.bool_)) else "%.17g") % v


def write_csv(target, header, rows) -> None:
    """Write ``rows`` under the column names ``header`` to a path or stream:
    an int or bool as ``%d``, a float as ``%.17g`` (exact round trip), None as
    an empty cell and a string as it is. Every CSV artifact goes through it."""
    with text_target(target) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_csv_cell, row)) + "\n")

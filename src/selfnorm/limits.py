"""Joint limit laws of sums, maxima and l^p moduli, and their transforms.

Two complementary routes to the same limits are provided and tested against
each other:

* a series sampler (valid for tail index alpha < 1): Poisson arrival times
  ``Gamma_i`` and iid cluster copies ``Q_i`` combine into the limit triple
  ``eta = sup_i Gamma_i^(-1/alpha) max_j |Q_ij|``,
  ``xi = sum_i Gamma_i^(-1/alpha) sum_j Q_ij`` and
  ``zeta_p^p = sum_i Gamma_i^(-p/alpha) sum_j |Q_ij|^p``;
* transform evaluation: the alpha-stable characteristic function, the hybrid
  sum/max characteristic function, the Laplace transform of ``zeta_p^p`` and
  the joint characteristic-function/Laplace transform, all as cluster
  expectations of power-law integrals.

Every ``int ... d(-y^-alpha)`` integral is handled per cluster atom. Undamped
oscillatory tails (no Laplace factor) reduce exactly to the generalised
exponential integral, so no quadrature of a non-decaying oscillation is ever
attempted; damped integrals go through adaptive Gauss-Kronrod quadrature in
the substituted variable ``s = y^-alpha`` after splitting off the closed-form
pieces, with the integrand expanded in series near the cancellation-prone
origin.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
import mpmath
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn, gammainc

from .clusters import (
    ClusterAtoms, ClusterModel, _weighted_estimate, cluster_atoms, cluster_law, cluster_moment, tilted_atoms,
)
from .errors import ConfigurationError, DegeneratePathError, NumericalError, UnsupportedError
from .processes import write_csv
from .rng import substream

QUAD_TOL = 1e-8
DEFAULT_CLUSTER_MC = 10_000
DEFAULT_N_TERMS = 10_000


@dataclass(frozen=True)
class TransformValue:
    """A transform evaluation with the cluster-MC standard error (0 when the
    cluster expectations are exact)."""

    value: complex
    stderr: float = 0.0
    method: str = "closed_form"

    def __complex__(self) -> complex:
        return complex(self.value)

    @property
    def real(self) -> float:
        return self.value.real


def _validate_alpha_transform(alpha: float) -> None:
    if not (0.0 < alpha < 2.0) or alpha == 1.0:
        raise ConfigurationError("transforms require alpha in (0,1) or (1,2)")


def stable_scale_const(alpha: float) -> float:
    """Gamma(2 - alpha) cos(alpha pi / 2) / (1 - alpha); positive on both
    sides of alpha = 1."""
    return gamma_fn(2.0 - alpha) * math.cos(math.pi * alpha / 2.0) / (1.0 - alpha)


# ---------------------------------------------------------------------------
# scalar building blocks


def _cexpm1(z: complex) -> complex:
    """exp(z) - 1 with a series near 0 to avoid cancellation."""
    if abs(z) < 1e-4:
        return z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    return cmath.exp(z) - 1.0


def _stable_atom(b: float, alpha: float) -> complex:
    """int_0^inf (e^{iby} - 1 - iby 1_{(1,2)}(alpha)) d(-y^-alpha) in closed
    form: the log characteristic function of an alpha-stable point mass."""
    if b == 0.0:
        return 0.0j
    c = stable_scale_const(alpha)
    return -c * abs(b) ** alpha * (1.0 - 1j * math.copysign(1.0, b) * math.tan(math.pi * alpha / 2.0))


@lru_cache(maxsize=1 << 18)
def _expint_cached(alpha: float, w: float) -> complex:
    # E_{alpha+1}(-i w); w real, any sign
    return complex(mpmath.expint(alpha + 1.0, -1j * w))


def _tail_exp_integral(alpha: float, b: float, z: float) -> complex:
    """int_z^inf e^{iby} d(-y^-alpha) for z > 0, exactly, via the generalised
    exponential integral."""
    if not math.isfinite(z):
        return 0.0j
    if b == 0.0:
        return z ** (-alpha) + 0.0j
    return alpha * z ** (-alpha) * _expint_cached(alpha, b * z)


def _quad_complex(f, lo, hi, tol: float) -> complex:
    err_tot = math.inf
    val = 0.0j
    for limit in (600, 4000):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            val, err = quad(f, lo, hi, epsabs=tol, epsrel=0.0, limit=limit, complex_func=True)
        err_tot = abs(err.real) + abs(err.imag) if isinstance(err, complex) else abs(err)
        if err_tot <= max(100.0 * tol, 1e-6):
            return val
    raise NumericalError(
        f"quadrature did not converge: estimated error {err_tot:.2e} on [{lo}, {hi}]"
    )


def _atom_log_damped(alpha: float, p: float, b: float, c: float, x_m: float, tol: float) -> complex:
    """Per-atom value of
    ``int_0^inf [e^{iby - c y^p} 1(y <= x_m) - 1 - iby 1_{(1,2)}] d(-y^-alpha)``
    for c > 0, via adaptive quadrature in s = y^-alpha.
    """
    heavy = alpha > 1.0
    inv_a = 1.0 / alpha
    p_a = p / alpha

    def y_of(s: float) -> float:
        return s ** (-inv_a)

    if math.isinf(x_m):
        if not heavy:
            def f(s):
                damp = c * s ** (-p_a)
                if damp > 700.0:
                    return -1.0 + 0.0j
                return _cexpm1(1j * b * y_of(s) - damp)
            return _quad_complex(f, 0.0, np.inf, tol)
        # alpha in (1,2): subtract a damped compensator so the integrand stays
        # bounded at the origin, and add its closed-form power-law integral back
        p3 = 1j * b * (alpha / p) * gamma_fn((1.0 - alpha) / p) * c ** ((alpha - 1.0) / p)

        def f(s):
            damp = c * s ** (-p_a)
            if damp > 700.0:
                return -1.0 + 0.0j
            y = y_of(s)
            return _cexpm1(1j * b * y - damp) - 1j * b * y * math.exp(-damp)
        return _quad_complex(f, 0.0, np.inf, tol) + p3

    lo = x_m ** (-alpha)
    comp = -lo
    if heavy:
        comp = comp - 1j * b * alpha / (alpha - 1.0) * x_m ** (1.0 - alpha)

        def f(s):
            y = y_of(s)
            damp = c * y**p
            val = -1.0 + 0.0j if damp > 700.0 else _cexpm1(1j * b * y - damp)
            return val - 1j * b * y
    else:
        def f(s):
            y = y_of(s)
            damp = c * y**p
            if damp > 700.0:
                return -1.0 + 0.0j
            return _cexpm1(1j * b * y - damp)
    return _quad_complex(f, lo, np.inf, tol) + comp


def _atom_log_hybrid(alpha: float, b: float, x_m: float) -> complex:
    """lam = 0 case: stable atom minus the exact oscillatory tail above x_m."""
    val = _stable_atom(b, alpha)
    if math.isfinite(x_m):
        val = val - _tail_exp_integral(alpha, b, x_m)
    return val


def _weighted_log(atoms: ClusterAtoms, per_atom: np.ndarray) -> tuple[complex, float]:
    est = _weighted_estimate(atoms, 1.0, per_atom)
    return complex(est.value), est.stderr


# ---------------------------------------------------------------------------
# transforms


def stable_cf(
    u: float,
    cluster: ClusterModel,
    alpha: Optional[float] = None,
    n_mc: int = DEFAULT_CLUSTER_MC,
    seed: int = 0,
    atoms: Optional[ClusterAtoms] = None,
) -> TransformValue:
    """Characteristic function of the alpha-stable sum limit.

    ``exp(-c_alpha sigma^alpha(u) (1 - i beta(u) tan(alpha pi/2)))`` with
    ``sigma^alpha(u) = E|u sum Q_t|^alpha`` and the skewness ``beta(u)`` the
    normalised difference of the positive and negative alpha-moments of
    ``u sum Q_t``. Cluster expectations are exact for the analytic kinds and
    Monte-Carlo (with reported standard error) otherwise.
    """
    alpha = cluster.alpha if alpha is None else float(alpha)
    _check_cluster_alpha(cluster, alpha)
    _validate_alpha_transform(alpha)
    if atoms is None:
        atoms = cluster_atoms(cluster, n_mc=n_mc, seed=seed)
    b = u * atoms.sum_q
    tan = math.tan(math.pi * alpha / 2.0)
    per_atom = -stable_scale_const(alpha) * np.abs(b) ** alpha * (1.0 - 1j * tan * np.sign(b))
    log_val, se_log = _weighted_log(atoms, per_atom)
    val = cmath.exp(log_val)
    if atoms.exact or u == 0:
        return TransformValue(val, 0.0, "closed_form")
    return TransformValue(val, abs(val) * se_log, "monte_carlo")


def hybrid_cf(
    u: float,
    x: float,
    cluster: ClusterModel,
    alpha: Optional[float] = None,
    n_mc: int = DEFAULT_CLUSTER_MC,
    seed: int = 0,
    atoms: Optional[ClusterAtoms] = None,
) -> TransformValue:
    """Joint transform ``E[e^{iu xi} 1(eta <= x)]`` of the sum and max limits.

    Evaluated as ``phi(u) exp(-E[int_{x/max|Q|}^inf e^{iyu sum Q} d(-y^-a)])``
    with the oscillatory tail computed exactly per atom; at ``u = 0`` this
    reduces to the Frechet law ``exp(-theta x^-alpha)``.
    """
    alpha = cluster.alpha if alpha is None else float(alpha)
    _check_cluster_alpha(cluster, alpha)
    _validate_alpha_transform(alpha)
    if x <= 0:
        raise ConfigurationError("x must be positive")
    if atoms is None:
        atoms = cluster_atoms(cluster, n_mc=n_mc, seed=seed)
    per_atom = np.array(
        [_atom_log_hybrid(alpha, u * s, x / m) for s, m in zip(atoms.sum_q, atoms.max_abs)],
        dtype=complex,
    )
    log_val, se_log = _weighted_log(atoms, per_atom)
    val = cmath.exp(log_val)
    method = "expint_exact" if atoms.exact else "expint_monte_carlo"
    return TransformValue(val, abs(val) * se_log, method)


def laplace_zeta(
    lam: float,
    cluster: ClusterModel,
    alpha: Optional[float] = None,
    p: float = 2.0,
    reps: int = DEFAULT_CLUSTER_MC,
    seed: int = 0,
) -> TransformValue:
    """Laplace transform ``E[e^{-lam zeta_p^p}]`` of the modulus limit:
    ``exp(-Gamma(1 - alpha/p) E[||Q||_p^alpha] lam^(alpha/p))``.

    The cluster-moment factor at most 1 quantifies extremal clustering: the
    dependent value is always >= the iid value at every lam.
    """
    alpha = cluster.alpha if alpha is None else float(alpha)
    _check_cluster_alpha(cluster, alpha)
    if p <= alpha:
        raise ConfigurationError("the modulus order must satisfy p > alpha")
    if lam < 0:
        raise ConfigurationError("lam must be >= 0")
    moment = cluster_moment(cluster, p, reps=reps, seed=seed)
    g = gamma_fn(1.0 - alpha / p)
    val = math.exp(-g * moment.value * lam ** (alpha / p))
    se = val * g * lam ** (alpha / p) * moment.stderr
    return TransformValue(complex(val), se, moment.method)


def joint_cf_laplace(
    u: float,
    x: float,
    lam: float,
    cluster: ClusterModel,
    alpha: Optional[float] = None,
    p: float = 2.0,
    quad_tol: float = QUAD_TOL,
    n_mc: int = DEFAULT_CLUSTER_MC,
    seed: int = 0,
    atoms: Optional[ClusterAtoms] = None,
) -> TransformValue:
    """Joint transform ``E[e^{iu xi} 1(eta <= x) e^{-lam zeta_p^p}]``.

    Reduces to :func:`hybrid_cf` at ``lam = 0`` and to :func:`laplace_zeta` at
    ``(u, x) = (0, inf)``. For ``alpha > 1`` the linear compensator is included
    in the integrand.
    """
    alpha = cluster.alpha if alpha is None else float(alpha)
    _check_cluster_alpha(cluster, alpha)
    _validate_alpha_transform(alpha)
    if p <= alpha:
        raise ConfigurationError("the modulus order must satisfy p > alpha")
    if x <= 0:
        raise ConfigurationError("x must be positive (use math.inf to drop the max)")
    if lam < 0:
        raise ConfigurationError("lam must be >= 0")
    if atoms is None:
        atoms = cluster_atoms(cluster, p=p, n_mc=n_mc, seed=seed)
    if lam == 0.0:
        return hybrid_cf(u, x, cluster, alpha, atoms=atoms)
    per_atom = np.array(
        [
            _atom_log_damped(alpha, p, u * s, lam * w, x / m, quad_tol)
            for s, w, m in zip(atoms.sum_q, atoms.norm_p_p, atoms.max_abs)
        ],
        dtype=complex,
    )
    log_val, se_log = _weighted_log(atoms, per_atom)
    val = cmath.exp(log_val)
    method = "quadrature" if atoms.exact else "quadrature_monte_carlo"
    return TransformValue(val, abs(val) * se_log, method)


def ratio_modulus_laplace(
    lam: float,
    cluster: ClusterModel,
    alpha: Optional[float] = None,
    p: float = 2.0,
    n_mc: int = DEFAULT_CLUSTER_MC,
    seed: int = 0,
    atoms: Optional[ClusterAtoms] = None,
) -> TransformValue:
    """Laplace transform of ``(zeta_p / eta)^p``, the p-th power of the
    modulus/max ratio limit.

    A ratio of tilted-cluster expectations: ``E[e^{-lam sum |Qtilde|^p}]``
    over ``int_0^inf E[1 - e^{-y^p lam sum |Qtilde|^p} 1(y <= 1)] d(-y^-a)``.
    With ``c = lam sum |Qtilde|^p`` and ``a = alpha / p < 1``, each atom's
    denominator ``1 + int_1^inf (1 - e^{-c s^(-1/a)}) ds`` is, integrating by
    parts, ``e^{-c} + c^a gamma(1 - a, c)`` with the lower incomplete gamma
    function: no quadrature.
    """
    alpha = cluster.alpha if alpha is None else float(alpha)
    _check_cluster_alpha(cluster, alpha)
    if p <= alpha:
        raise ConfigurationError("the modulus order must satisfy p > alpha")
    if lam < 0:
        raise ConfigurationError("lam must be >= 0")
    if atoms is None:
        atoms = tilted_atoms(cluster, p=p, n_mc=n_mc, seed=seed)
    c, a = lam * atoms.norm_p_p, alpha / p
    num_terms = np.exp(-c)
    # exactly 1 where c = 0
    den_terms = num_terms + c**a * gammainc(1.0 - a, c) * gamma_fn(1.0 - a)
    # the ratio of the two means is the den_terms-weighted mean of num/den
    est = _weighted_estimate(atoms, den_terms, num_terms / den_terms)
    return TransformValue(complex(est.value), est.stderr, "gammainc_exact" if atoms.exact else "gammainc_monte_carlo")


def ratio_cf(
    u: float,
    cluster: ClusterModel,
    alpha: Optional[float] = None,
    n_mc: int = DEFAULT_CLUSTER_MC,
    seed: int = 0,
    atoms: Optional[ClusterAtoms] = None,
) -> TransformValue:
    """Characteristic function of the sum/max ratio limit xi/eta.

    A ratio of tilted-cluster expectations: the numerator is
    ``E[e^{iu sum Qtilde}]``; the denominator integrates
    ``1 + iyu sum Qtilde 1_{(1,2)} - e^{iyu sum Qtilde} 1(y <= 1)`` against the
    power-law measure, which reduces per atom to the stable atom plus an exact
    exponential-integral tail.
    """
    alpha = cluster.alpha if alpha is None else float(alpha)
    _check_cluster_alpha(cluster, alpha)
    _validate_alpha_transform(alpha)
    if atoms is None:
        atoms = tilted_atoms(cluster, n_mc=n_mc, seed=seed)
    s = atoms.sum_q
    if float(np.abs(np.sum(atoms.weights * s))) < 1e-12 and float(np.sum(atoms.weights * s**2)) < 1e-12:
        raise DegeneratePathError(
            "sum of the tilted cluster vanishes a.s.; the sum limit is degenerate "
            "and the ratio law is trivial"
        )
    num_terms = np.exp(1j * u * s)
    den_terms = np.array(
        [-_stable_atom(u * si, alpha) + _tail_exp_integral(alpha, u * si, 1.0) for si in s],
        dtype=complex,
    )
    # the ratio of the two means is the den_terms-weighted mean of num/den;
    # Re(den_terms) >= 1 on every atom
    est = _weighted_estimate(atoms, den_terms, num_terms / den_terms)
    return TransformValue(complex(est.value), est.stderr, "expint_exact" if atoms.exact else "expint_monte_carlo")


def _check_cluster_alpha(cluster: ClusterModel, alpha: float) -> None:
    if abs(cluster.alpha - alpha) > 1e-12:
        raise ConfigurationError(
            f"alpha {alpha} disagrees with the cluster model's {cluster.alpha}"
        )


# ---------------------------------------------------------------------------
# series sampler


@dataclass(frozen=True)
class LimitSample:
    """One joint draw of the (sum, max, modulus) limit triple."""

    xi: float
    eta: float
    zeta_p: float
    alpha: float
    p: float
    truncation_bound: float


def _lepage_validate(cluster: ClusterModel, alpha: float, p: float, n_terms: int) -> None:
    _check_cluster_alpha(cluster, alpha)
    if alpha >= 1.0:
        raise UnsupportedError("the series sampler requires alpha < 1 (absolute convergence)")
    if alpha <= 0.0:
        raise ConfigurationError("alpha must be positive")
    if p <= alpha:
        raise ConfigurationError("the modulus order must satisfy p > alpha")
    if n_terms < 10:
        raise ConfigurationError("n_terms must be >= 10")
    if alpha > 0.9:
        warnings.warn(
            "alpha close to 1: the series tail decays slowly, consider more terms",
            RuntimeWarning,
        )


def sample_limit_lepage_batch(
    cluster: ClusterModel,
    alpha: float,
    p: float,
    reps: int,
    n_terms: int = DEFAULT_N_TERMS,
    seed: int = 0,
    first_index: int = 0,
) -> dict:
    """Vectorised series draws; returns arrays xi, eta, zeta_p and
    truncation_bound, one entry per replica (replica i uses substream(seed, i),
    starting at ``first_index``)."""
    _lepage_validate(cluster, alpha, p, n_terms)
    law = cluster_law(cluster, (p,))
    out = {k: np.empty(reps) for k in ("xi", "eta", "zeta_p", "truncation_bound")}
    for off, i in enumerate(range(first_index, first_index + reps)):
        rng = substream(seed, i)
        gam = np.cumsum(rng.standard_exponential(n_terms))
        k = law.draw(n_terms, rng)
        w = gam ** (-1.0 / alpha)
        out["eta"][off] = np.max(w * law.max_abs[k])
        out["xi"][off] = np.sum(w * law.sum_q[k])
        out["zeta_p"][off] = np.sum(gam ** (-p / alpha) * law.norm_p_p[k]) ** (1.0 / p)
        mean_l1 = float(law.sum_abs[k].mean())
        out["truncation_bound"][off] = mean_l1 * gam[-1] ** (-1.0 / alpha) * n_terms / (1.0 / alpha - 1.0)
    return out


def sample_limit_lepage(
    cluster: ClusterModel,
    alpha: float,
    p: float,
    n_terms: int = DEFAULT_N_TERMS,
    seed: int = 0,
) -> LimitSample:
    """One joint draw of (xi, eta, zeta_p) from the cluster series
    representation (alpha < 1), with the recorded bound on the discarded
    series tail."""
    d = sample_limit_lepage_batch(cluster, alpha, p, reps=1, n_terms=n_terms, seed=seed)
    return LimitSample(
        xi=float(d["xi"][0]),
        eta=float(d["eta"][0]),
        zeta_p=float(d["zeta_p"][0]),
        alpha=alpha,
        p=p,
        truncation_bound=float(d["truncation_bound"][0]),
    )


# ---------------------------------------------------------------------------
# empirical transforms on sample sets


@dataclass
class TransformGrid:
    """Aligned evaluation points (u, x, lam) with values and standard errors.

    Unused coordinates are NaN. One row per point; serialises to CSV columns
    (u, x, lambda, re, im, stderr, method).
    """

    u: np.ndarray
    x: np.ndarray
    lam: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    method: str

    @classmethod
    def from_points(cls, u=None, x=None, lam=None, method: str = "") -> "TransformGrid":
        cols = [np.atleast_1d(np.asarray(c, dtype=float)) for c in (u, x, lam) if c is not None]
        if not cols:
            raise ConfigurationError("at least one coordinate array is required")
        n = max(len(c) for c in cols)

        def expand(c):
            if c is None:
                return np.full(n, np.nan)
            arr = np.atleast_1d(np.asarray(c, dtype=float))
            if len(arr) == 1:
                return np.full(n, arr[0])
            if len(arr) != n:
                raise ConfigurationError("coordinate arrays must have matching lengths")
            return arr

        return cls(
            u=expand(u), x=expand(x), lam=expand(lam),
            values=np.full(n, np.nan, dtype=complex), stderr=np.full(n, np.nan),
            method=method,
        )

    def __len__(self) -> int:
        return len(self.values)

    def to_csv(self, target) -> None:
        write_csv(target, ["u", "x", "lambda", "re", "im", "stderr", "method"], (
            (_none_if_nan(self.u[i]), _none_if_nan(self.x[i]), _none_if_nan(self.lam[i]),
             self.values[i].real, self.values[i].imag, self.stderr[i], self.method)
            for i in range(len(self))))

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "points": [
                {
                    "u": _none_if_nan(self.u[i]),
                    "x": _none_if_nan(self.x[i]),
                    "lambda": _none_if_nan(self.lam[i]),
                    "re": self.values[i].real,
                    "im": self.values[i].imag,
                    "stderr": float(self.stderr[i]),
                }
                for i in range(len(self))
            ],
        }


def _none_if_nan(v: float):
    return None if math.isnan(v) else float(v)


def empirical_transform(samples, kind: str, grid: TransformGrid) -> TransformGrid:
    """Plain Monte-Carlo transform estimates on a sample set.

    ``cf``: mean of ``exp(i u s)``; ``laplace``: mean of ``exp(-lam s)``;
    ``hybrid``: mean of ``exp(i u s) 1(m <= x)`` over (s, m) pairs. Per-point
    standard errors accompany every value.
    """
    arr = np.asarray(samples, dtype=float)
    if kind == "hybrid":
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ConfigurationError("hybrid transforms need (sum, max) sample pairs")
        s, m = arr[:, 0], arr[:, 1]
    else:
        if arr.ndim != 1:
            raise ConfigurationError("cf/laplace transforms take a 1-d sample array")
        s, m = arr, None
    n = len(s)
    if n < 100:
        raise ConfigurationError("need at least 100 samples")
    out = TransformGrid.from_points(u=grid.u, x=grid.x, lam=grid.lam, method=f"empirical_{kind}")
    for i in range(len(out)):
        if kind == "cf":
            terms = np.exp(1j * out.u[i] * s)
        elif kind == "laplace":
            terms = np.exp(-out.lam[i] * s) + 0j
        elif kind == "hybrid":
            terms = np.exp(1j * out.u[i] * s) * (m <= out.x[i])
        else:
            raise ConfigurationError(f"unknown transform kind {kind!r}")
        out.values[i] = terms.mean()
        out.stderr[i] = math.sqrt(
            (np.var(terms.real, ddof=1) + np.var(terms.imag, ddof=1)) / n
        )
    return out


def evaluate_transform_grid(
    kind: str,
    grid: TransformGrid,
    cluster: ClusterModel,
    alpha: Optional[float] = None,
    p: float = 2.0,
    quad_tol: float = QUAD_TOL,
    n_mc: int = DEFAULT_CLUSTER_MC,
    seed: int = 0,
) -> TransformGrid:
    """Evaluate one of the limit transforms on every row of a grid."""
    alpha = cluster.alpha if alpha is None else float(alpha)
    out = TransformGrid.from_points(u=grid.u, x=grid.x, lam=grid.lam, method=kind)
    if kind == "ratio_cf":
        atoms = tilted_atoms(cluster, p=p, n_mc=n_mc, seed=seed)
    else:
        atoms = cluster_atoms(cluster, p=p, n_mc=n_mc, seed=seed)
    for i in range(len(out)):
        u = 0.0 if math.isnan(out.u[i]) else out.u[i]
        x = math.inf if math.isnan(out.x[i]) else out.x[i]
        lam = 0.0 if math.isnan(out.lam[i]) else out.lam[i]
        if kind == "stable_cf":
            tv = stable_cf(u, cluster, alpha, atoms=atoms)
        elif kind == "hybrid_cf":
            tv = hybrid_cf(u, x, cluster, alpha, atoms=atoms)
        elif kind == "laplace_zeta":
            tv = laplace_zeta(lam, cluster, alpha, p, reps=n_mc, seed=seed)
        elif kind == "joint_cf_laplace":
            tv = joint_cf_laplace(u, x, lam, cluster, alpha, p, quad_tol=quad_tol, atoms=atoms)
        elif kind == "ratio_cf":
            tv = ratio_cf(u, cluster, alpha, atoms=atoms)
        else:
            raise ConfigurationError(f"unknown transform kind {kind!r}")
        out.values[i] = complex(tv.value)
        out.stderr[i] = tv.stderr
        out.method = tv.method
    return out

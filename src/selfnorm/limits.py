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

Every ``int ... d(-y^-alpha)`` integral is a per-atom value, computed on the
whole atom array at once. Undamped oscillatory tails (no Laplace factor)
reduce exactly to the generalised exponential integral ``E_{alpha+1}(-iw)``,
summed as a power series for ``|w| <= 3`` and as a continued fraction beyond,
so no quadrature of a non-decaying oscillation is ever attempted. Damped
integrals are cut where the damping falls below ``e^-40``, the power-law tail
beyond the cut is added in closed form, and the rest is one tanh-sinh rule
whose step halves, on the nested nodes, until the change falls within the
tolerance. An atom the rule cannot settle falls back to adaptive Gauss-Kronrod
quadrature, one atom at a time; the fallbacks and the quadrature warnings are
counted in the returned :class:`TransformValue`.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .clusters import (
    ClusterAtoms, ClusterModel, _weighted_estimate, cluster_atoms, cluster_law, cluster_moment, tilted_atoms,
)
from .errors import ConfigurationError, DegeneratePathError, NumericalError, UnsupportedError
from .processes import _validate_alpha, gamma_fn, gammainc, gammaln, write_csv
from .rng import substreams
from .stats import _integer

QUAD_TOL = 1e-8
DEFAULT_N_TERMS = 10_000
# values per block of the series sampler's arithmetic (256 KB per array), so
# that a sample run in the driver adds little to its peak memory
_SERIES_BLOCK = 2**15


@dataclass(frozen=True)
class TransformValue:
    """A transform evaluation with the standard error of its cluster
    expectations (0 when they are exact, else the batch-means stderr over the
    library chains), the number of atoms whose damped integral fell back to
    adaptive quadrature, and the warnings that quadrature raised, each
    fallback accepted above its tolerance counted as one more. Every field but
    ``method`` is shaped like the points: a scalar for scalar points."""

    value: complex
    stderr: float = 0.0
    method: str = "closed_form"
    fallbacks: int = 0
    quad_warnings: int = 0


def stable_scale_const(alpha: float) -> float:
    """Gamma(2 - alpha) cos(alpha pi / 2) / (1 - alpha); positive on both
    sides of alpha = 1."""
    return gamma_fn(2.0 - alpha) * math.cos(math.pi * alpha / 2.0) / (1.0 - alpha)


# ---------------------------------------------------------------------------
# per-atom building blocks, on whole atom arrays

# Beyond the cut c y^p = _DAMP_CUT the damped part of an integrand is below
# e^-40 of the power-law mass there.
_DAMP_CUT = 40.0
# tanh-sinh rule: the coarsest step in t, the number of step halvings (the
# finest step is 1/128), the first level whose change from the one before may
# settle an atom, the right end of the t range (1 - v < 3e-23 there), and the
# atoms per block, which bounds the atoms x nodes temporaries to a few MB
_TS_STEP = 0.5
_TS_LEVELS = 6
_TS_MIN_LEVEL = 2
_TS_RIGHT = 3.5
_TS_BLOCK = 1024
# point x atom values per chunk of a transform's points, whatever their
# number: 128 KB per complex temporary, which stay in cache (chunks of 2**16
# ran a 2,000-point grid on 1,968 atoms a third slower, 20 MB higher)
_CHUNK_VALUES = 2**13
# E_{alpha+1}(-iw) is a power series for |w| <= _SERIES_RADIUS, where the
# terms fall to 3^34/34! ~ 6e-23, and a continued fraction beyond, where it
# needs at most 78 terms (91 at |w| = 2)
_SERIES_RADIUS = 3.0
_SERIES_TERMS = 34
_FRACTION_MAX_TERMS = 10_000


def _stable_atom(b, alpha: float):
    """int_0^inf (e^{iby} - 1 - iby 1_{(1,2)}(alpha)) d(-y^-alpha) in closed
    form: the log characteristic function of an alpha-stable point mass."""
    tan = math.tan(math.pi * alpha / 2.0)
    return -stable_scale_const(alpha) * np.abs(b) ** alpha * (1.0 - 1j * tan * np.sign(b))


def _expint_series(alpha: float, w: np.ndarray) -> np.ndarray:
    """E_{alpha+1}(-iw) for small |w| from the power series (DLMF 8.19.8)
    ``E_{a+1}(z) = z^a Gamma(-a) - sum_k (-z)^k / (k! (k - a))``. The k = 1
    term joins the first one, whose pole at alpha = 1 it cancels:
    ``z^a Gamma(-a) - z/(a-1) = z/(a-1) expm1((a-1) log z + log Gamma(2-a) - log a)``."""
    eps = alpha - 1.0
    iw = 1j * w
    with np.errstate(divide="ignore", invalid="ignore"):
        log_z = np.log(np.abs(w)) - 0.5j * math.pi * np.sign(w)
        first = -iw / eps * np.expm1(eps * log_z + gammaln(1.0 - eps) - math.log(alpha))
    first[w == 0.0] = 0.0
    term, total = iw, np.full(w.shape, -1.0 / alpha, dtype=complex)
    for k in range(2, _SERIES_TERMS + 1):
        term = term * iw / k
        total += term / (k - alpha)
    return first - total


def _expint_fraction(alpha: float, w: np.ndarray) -> np.ndarray:
    """E_{alpha+1}(-iw) for larger |w| from the continued fraction
    ``e^-z / (z + n - 1 n / (z + n + 2 - 2 (n + 1) / (z + n + 4 - ...)))``,
    n = alpha + 1, by the modified Lentz method (Numerical Recipes 6.3).
    Entries leave the iteration as they converge."""
    out = np.empty(w.shape, dtype=complex)
    pos = np.arange(w.size)
    b = alpha + 1.0 - 1j * w
    c = np.full(w.shape, 1e300 + 0j)
    d = 1.0 / b
    h = d.copy()
    i = 0
    while pos.size:
        i += 1
        if i > _FRACTION_MAX_TERMS:
            raise NumericalError(f"E_(alpha+1) continued fraction did not converge for {pos.size} arguments")
        a = -i * (alpha + i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        done = np.abs(delta - 1.0) <= 1e-16
        if done.any():
            out[pos[done]] = h[done]
            keep = ~done
            pos, b, c, d, h = pos[keep], b[keep], c[keep], d[keep], h[keep]
    return out * np.exp(1j * w)


def _expint(alpha: float, w) -> np.ndarray:
    """E_{alpha+1}(-iw) for real w, any shape."""
    w = np.asarray(w, dtype=float)
    out = np.empty(w.shape, dtype=complex)
    near = np.abs(w) <= _SERIES_RADIUS
    out[near] = _expint_series(alpha, w[near])
    out[~near] = _expint_fraction(alpha, w[~near])
    return out


def _tail_exp_integral(alpha: float, b, z):
    """int_z^inf e^{iby} d(-y^-alpha) = alpha z^-alpha E_{alpha+1}(-ibz) for
    z > 0, exactly; 0 at z = inf."""
    b, z = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(z, dtype=float))
    e = _expint(alpha, b * np.where(np.isfinite(z), z, 0.0))
    return np.where(np.isfinite(z), alpha * z ** (-alpha) * e, 0.0)[()]


def _sin_minus_identity_series(t: np.ndarray) -> np.ndarray:
    """sin(t) - t for |t| < 1, from its Taylor series (to t^19)."""
    t2 = t * t
    acc = 1.0 - t2 / 342.0
    for d in (272.0, 210.0, 156.0, 110.0, 72.0, 42.0, 20.0):
        acc = 1.0 - t2 / d * acc
    return -t * t2 / 6.0 * acc


def _damped_nodes(alpha: float, p: float):
    """The nested tanh-sinh levels on (0, 1) for the weight v^(-alpha-1):
    per level the new nodes v, v^p and their weights, and the smallest node.

    v = 1 / (1 + exp(-pi sinh t)) on the grid t = j h; level 0 has every j,
    each later level only the odd j of the halved step. The left end sits
    where the neglected mass, of order v^(p - alpha) and v^(2 - alpha), is
    about e^-46, but never where v^-alpha would overflow."""
    order = min(p - alpha, 2.0 - alpha)
    log_v_min = max(-46.0 / order, -400.0 / max(alpha, 1.0))
    left = _TS_STEP * math.ceil(math.asinh(-log_v_min / math.pi) / _TS_STEP)
    levels = []
    for k in range(_TS_LEVELS + 1):
        h = _TS_STEP / 2**k
        j = np.arange(-round(left / h), round(_TS_RIGHT / h) + 1)
        t = (j if k == 0 else j[j % 2 != 0]) * h
        s = math.pi * np.sinh(t)
        v = 1.0 / (1.0 + np.exp(-s))
        # dv/dt = pi cosh(t) v (1 - v), times v^(-alpha-1)
        weight = h * math.pi * np.cosh(t) / (1.0 + np.exp(s)) * v**-alpha
        levels.append((v, v**p, weight))
    return levels, 1.0 / (1.0 + math.exp(math.pi * math.sinh(left)))


def _damped_rule(beta: np.ndarray, damp: np.ndarray, levels, tol_scaled: np.ndarray):
    """J = int_0^1 (e^{i beta v - damp v^p} - 1 - i beta v) v^(-alpha-1) dv
    on the levels of :func:`_damped_nodes`, for a block of atoms, refining
    each atom until its change between levels is within ``tol_scaled``;
    returns J and the last change."""
    J = np.zeros(beta.shape, dtype=complex)
    change = np.full(beta.shape, np.inf)
    active = np.arange(beta.size)
    for k, (v, vp, weight) in enumerate(levels):
        bv, dvp = beta[active, None] * v, damp[active, None] * vp
        e = np.expm1(-dvp)
        half, sin = np.sin(0.5 * bv), np.sin(bv)
        # e^{-a} cos t - 1 and e^{-a} sin t - t, without cancellation near 0
        re = e - 2.0 * half * half * (1.0 + e)
        im = sin - bv
        near = np.abs(bv) < 1.0
        im[near] = _sin_minus_identity_series(bv[near])
        im += e * sin
        s = re @ weight + 1j * (im @ weight)
        if k == 0:
            J[active] = s
            continue
        refined = 0.5 * J[active] + s
        change[active] = np.abs(refined - J[active])
        J[active] = refined
        if k >= _TS_MIN_LEVEL:
            active = active[~(change[active] <= tol_scaled[active])]
            if not active.size:
                break
    return J, change


def _damped_log(alpha: float, p: float, b, c, x_m, tol: float):
    """Per-atom values of
    ``int_0^inf [e^{iby - c y^p} 1(y <= x_m) - 1 - iby 1_{(1,2)}] d(-y^-alpha)``
    for c > 0, shaped like the broadcast arguments, with per atom whether it
    was sent to quadrature and the warnings that raised.

    Cut at Y = min(x_m, (_DAMP_CUT / c)^(1/p)). With y = Y v the head is
    ``alpha Y^-alpha J(bY, cY^p)`` (see :func:`_damped_rule`) and the tail past
    Y, less the compensator added back over [0, Y] when alpha < 1, is
    ``-Y^-alpha - i b alpha Y^(1-alpha) / (alpha - 1)`` for either range of
    alpha. An atom whose estimated error (the last change plus the mass below
    the smallest node) exceeds ``tol``, or whose value is not finite, goes to
    :func:`_atom_log_damped`.
    """
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (b, c, x_m)))
    b, c, x_m = (a.ravel() for a in args)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y_cut = np.minimum(x_m, (_DAMP_CUT / c) ** (1.0 / p))
        beta, damp, scale = b * y_cut, c * y_cut**p, alpha * y_cut ** (-alpha)
        levels, v_min = _damped_nodes(alpha, p)
        cut_off = scale * (damp * v_min ** (p - alpha) / (p - alpha)
                           + beta * beta / 2.0 * v_min ** (2.0 - alpha) / (2.0 - alpha))
        room = tol - cut_off
    values = np.full(b.shape, np.nan, dtype=complex)
    todo = np.flatnonzero(np.isfinite(beta) & np.isfinite(damp) & np.isfinite(scale) & (room > 0))
    settled = np.zeros(b.shape, dtype=bool)
    for lo in range(0, todo.size, _TS_BLOCK):
        idx = todo[lo:lo + _TS_BLOCK]
        J, change = _damped_rule(beta[idx], damp[idx], levels, room[idx] / scale[idx])
        values[idx] = scale[idx] * J - scale[idx] / alpha * (1.0 + 1j * alpha * beta[idx] / (alpha - 1.0))
        settled[idx] = change * scale[idx] <= room[idx]
    fallback = ~(settled & np.isfinite(values))
    warned = np.zeros(b.shape, dtype=int)
    for i in np.flatnonzero(fallback):
        seen: list = []
        values[i] = _atom_log_damped(alpha, p, float(b[i]), float(c[i]), float(x_m[i]), tol, seen)
        warned[i] = len(seen)
    return tuple(a.reshape(args[0].shape) for a in (values, fallback, warned))


def _quad_complex(f, lo, hi, tol: float, warned: list) -> complex:
    """Adaptive quadrature of a complex integrand. Its error estimate is the
    larger of the real and imaginary parts' estimates, since quad holds each
    part to ``epsabs`` separately. An estimate above ``tol`` is retried at a
    larger subinterval limit only when a part used every subinterval; a part
    stopped by roundoff returns the same estimate at any limit. ``warned``
    gets every warning raised and every message quad returns, and one entry
    per result accepted above tol."""
    from scipy.integrate import quad  # a rare fallback: kept out of the package import

    for limit in (600, 4000):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            val, err, parts = quad(f, lo, hi, epsabs=tol, epsrel=0.0, limit=limit, complex_func=True,
                                   full_output=1)
        warned.extend(seen)
        # each part is (infodict,) when it converged, else (infodict, message)
        warned.extend(part[1] for part in parts.values() if len(part) > 1)
        err_tot = max(abs(err.real), abs(err.imag))
        if err_tot <= tol:
            return val
        if all(part[0]["last"] < limit for part in parts.values()):
            break
    if err_tot <= max(100.0 * tol, 1e-6):
        warned.append(f"accepted at estimated error {err_tot:.2e} above tol {tol:.2e}")
        return val
    raise NumericalError(
        f"quadrature did not converge: estimated error {err_tot:.2e} on [{lo}, {hi}]"
    )


def _atom_log_damped(alpha: float, p: float, b: float, c: float, x_m: float, tol: float,
                     warned: Optional[list] = None) -> complex:
    """One atom's value of
    ``int_0^inf [e^{iby - c y^p} 1(y <= x_m) - 1 - iby 1_{(1,2)}] d(-y^-alpha)``
    for c > 0, via adaptive quadrature in s = y^-alpha: the fallback of
    :func:`_damped_log`.
    """
    warned = [] if warned is None else warned
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
                return np.expm1(1j * b * y_of(s) - damp)
            return _quad_complex(f, 0.0, np.inf, tol, warned)
        # alpha in (1,2): subtract a damped compensator so the integrand stays
        # bounded at the origin, and add its closed-form power-law integral back
        p3 = 1j * b * (alpha / p) * gamma_fn((1.0 - alpha) / p) * c ** ((alpha - 1.0) / p)

        def f(s):
            damp = c * s ** (-p_a)
            if damp > 700.0:
                return -1.0 + 0.0j
            y = y_of(s)
            return np.expm1(1j * b * y - damp) - 1j * b * y * math.exp(-damp)
        return _quad_complex(f, 0.0, np.inf, tol, warned) + p3

    lo = x_m ** (-alpha)
    comp = -lo
    if heavy:
        comp = comp - 1j * b * alpha / (alpha - 1.0) * x_m ** (1.0 - alpha)

        def f(s):
            y = y_of(s)
            damp = c * y**p
            val = -1.0 + 0.0j if damp > 700.0 else np.expm1(1j * b * y - damp)
            return val - 1j * b * y
    else:
        def f(s):
            y = y_of(s)
            damp = c * y**p
            if damp > 700.0:
                return -1.0 + 0.0j
            return np.expm1(1j * b * y - damp)
    return _quad_complex(f, lo, np.inf, tol, warned) + comp


def _transform_value(shape, method: str, value, stderr, fallbacks, quad_warnings) -> TransformValue:
    """The fields in the points' shape: Python scalars for scalar points."""
    fields = [np.reshape(a, shape) for a in (value, stderr, fallbacks, quad_warnings)]
    value, stderr, fallbacks, quad_warnings = (a.item() for a in fields) if not shape else fields
    return TransformValue(value, stderr, method, fallbacks, quad_warnings)


def _per_point(atoms: ClusterAtoms, kernel, coords, method: str, log: bool = False) -> TransformValue:
    """The estimate ``sum w g v / sum w g`` of :func:`_weighted_estimate` at
    every point of the broadcast ``coords``, g and v from ``kernel``.

    ``kernel`` takes a chunk of points, one (points, 1) array per coordinate,
    and returns g and v per point and atom, and for a damped integral each
    atom's quadrature fallbacks and warnings. A chunk holds at most about
    ``_CHUNK_VALUES`` point x atom values. With ``log`` the estimate is a log
    transform: the value is its exponential, the stderr scaled by it.
    """
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    coords = [np.broadcast_to(np.asarray(c, dtype=float), shape).ravel() for c in coords]
    size = math.prod(shape)
    value, stderr, counts = np.empty(size, dtype=complex), np.empty(size), np.zeros((2, size), dtype=int)
    step = max(1, _CHUNK_VALUES // len(atoms.weights))
    for lo in range(0, size, step):
        weight, per_atom, *atom_counts = kernel(*(c[lo:lo + step, None] for c in coords))
        weight = np.broadcast_to(weight, per_atom.shape)
        for j in range(len(per_atom)):
            est = _weighted_estimate(atoms, weight[j], per_atom[j])
            val = cmath.exp(est.value) if log else est.value
            value[lo + j], stderr[lo + j] = val, abs(val) * est.stderr if log else est.stderr
        for k, n in enumerate(atom_counts):
            counts[k, lo:lo + step] = n.sum(axis=1)
    return _transform_value(shape, method, value, stderr, *counts)


# ---------------------------------------------------------------------------
# transforms: each takes scalars or broadcastable arrays of points and
# evaluates every point in one call


def stable_cf(u, cluster: ClusterModel, *, atoms: Optional[ClusterAtoms] = None) -> TransformValue:
    """Characteristic function of the alpha-stable sum limit.

    ``exp(-c_alpha sigma^alpha(u) (1 - i beta(u) tan(alpha pi/2)))`` with
    ``sigma^alpha(u) = E|u sum Q_t|^alpha`` and the skewness ``beta(u)`` the
    normalised difference of the positive and negative alpha-moments of
    ``u sum Q_t``. Cluster expectations are exact for the analytic kinds and
    sums over the library anchors (with reported standard error) otherwise.
    """
    alpha = _validate_alpha(cluster.alpha)
    if atoms is None:
        atoms = cluster_atoms(cluster)
    method = "closed_form" if atoms.exact or not np.any(u) else "monte_carlo"
    return _per_point(atoms, lambda u: (1.0, _stable_atom(u * atoms.sum_q, alpha)), (u,), method, log=True)


def hybrid_cf(u, x, cluster: ClusterModel, *, atoms: Optional[ClusterAtoms] = None) -> TransformValue:
    """Joint transform ``E[e^{iu xi} 1(eta <= x)]`` of the sum and max limits:
    :func:`joint_cf_laplace` at ``lam = 0``.

    Evaluated as ``phi(u) exp(-E[int_{x/max|Q|}^inf e^{iyu sum Q} d(-y^-a)])``
    with the oscillatory tail computed exactly per atom; at ``u = 0`` this
    reduces to the Frechet law ``exp(-theta x^-alpha)``.
    """
    return joint_cf_laplace(u, x, 0.0, cluster, atoms=cluster_atoms(cluster) if atoms is None else atoms)


def laplace_zeta(lam, cluster: ClusterModel, *, p: float = 2.0, reps=None, seed=None) -> TransformValue:
    """Laplace transform ``E[e^{-lam zeta_p^p}]`` of the modulus limit:
    ``exp(-Gamma(1 - alpha/p) E[||Q||_p^alpha] lam^(alpha/p))``.

    The cluster-moment factor at most 1 quantifies extremal clustering: the
    dependent value is always >= the iid value at every lam. One cluster
    moment serves every lam. ``reps`` and ``seed`` are accepted for existing
    callers; no cluster kind reads them.
    """
    alpha = cluster.alpha
    if p <= alpha:
        raise ConfigurationError("the modulus order must satisfy p > alpha")
    if np.less(lam, 0).any():
        raise ConfigurationError("lam must be >= 0")
    moment = cluster_moment(cluster, p)
    g = gamma_fn(1.0 - alpha / p)
    # libm's exp and pow per point, as a scalar call takes them
    scale = [v ** (alpha / p) for v in np.ravel(lam).astype(float).tolist()]
    val = [math.exp(-g * moment.value * s) for s in scale]
    se = [v * g * s * moment.stderr for v, s in zip(val, scale)]
    return _transform_value(np.shape(lam), moment.method, np.array(val, dtype=complex), se,
                            *np.zeros((2, len(val)), dtype=int))


def joint_cf_laplace(
    u,
    x,
    lam,
    cluster: ClusterModel,
    *,
    p: float = 2.0,
    quad_tol: float = QUAD_TOL,
    atoms: Optional[ClusterAtoms] = None,
) -> TransformValue:
    """Joint transform ``E[e^{iu xi} 1(eta <= x) e^{-lam zeta_p^p}]``.

    At ``lam = 0`` it is :func:`hybrid_cf`, an exact exponential-integral tail
    per atom; it reduces to :func:`laplace_zeta` at ``(u, x) = (0, inf)``. For
    ``alpha > 1`` the linear compensator is included in the integrand. The
    method is the hybrid one only when every point has ``lam = 0``.
    """
    alpha = _validate_alpha(cluster.alpha)
    if p <= alpha:
        raise ConfigurationError("the modulus order must satisfy p > alpha")
    if np.less_equal(x, 0).any():
        raise ConfigurationError("x must be positive (use math.inf to drop the max)")
    if np.less(lam, 0).any():
        raise ConfigurationError("lam must be >= 0")
    if atoms is None:
        atoms = cluster_atoms(cluster, p=p)

    def kernel(u, x, lam):
        b = u * atoms.sum_q
        with np.errstate(divide="ignore"):
            x_m = x / atoms.max_abs
        per_atom, counts = np.empty(b.shape, dtype=complex), np.zeros((2, *b.shape), dtype=int)
        d = lam[:, 0] > 0
        per_atom[~d] = _stable_atom(b[~d], alpha) - _tail_exp_integral(alpha, b[~d], x_m[~d])
        if d.any():
            per_atom[d], counts[0, d], counts[1, d] = _damped_log(
                alpha, p, b[d], lam[d] * atoms.norm_p_p, x_m[d], quad_tol)
        return 1.0, per_atom, *counts

    methods = ("expint_exact", "expint_monte_carlo") if not np.any(lam) else ("quadrature", "quadrature_monte_carlo")
    return _per_point(atoms, kernel, (u, x, lam), methods[not atoms.exact], log=True)


def ratio_modulus_laplace(lam, cluster: ClusterModel, *, p: float = 2.0,
                          atoms: Optional[ClusterAtoms] = None) -> TransformValue:
    """Laplace transform of ``(zeta_p / eta)^p``, the p-th power of the
    modulus/max ratio limit.

    A ratio of tilted-cluster expectations: ``E[e^{-lam sum |Qtilde|^p}]``
    over ``int_0^inf E[1 - e^{-y^p lam sum |Qtilde|^p} 1(y <= 1)] d(-y^-a)``.
    With ``c = lam sum |Qtilde|^p`` and ``a = alpha / p < 1``, each atom's
    denominator ``1 + int_1^inf (1 - e^{-c s^(-1/a)}) ds`` is, integrating by
    parts, ``e^{-c} + c^a gamma(1 - a, c)`` with the lower incomplete gamma
    function: no quadrature.
    """
    alpha = cluster.alpha
    if p <= alpha:
        raise ConfigurationError("the modulus order must satisfy p > alpha")
    if np.less(lam, 0).any():
        raise ConfigurationError("lam must be >= 0")
    if atoms is None:
        atoms = tilted_atoms(cluster, p=p)
    a = alpha / p

    def kernel(lam):
        c = lam * atoms.norm_p_p
        num_terms = np.exp(-c)
        # exactly 1 where c = 0
        den_terms = num_terms + c**a * gammainc(1.0 - a, c) * gamma_fn(1.0 - a)
        # the ratio of the two means is the den_terms-weighted mean of num/den
        return den_terms, num_terms / den_terms

    return _per_point(atoms, kernel, (lam,), "gammainc_exact" if atoms.exact else "gammainc_monte_carlo")


def ratio_cf(u, cluster: ClusterModel, *, atoms: Optional[ClusterAtoms] = None) -> TransformValue:
    """Characteristic function of the sum/max ratio limit xi/eta.

    A ratio of tilted-cluster expectations: the numerator is
    ``E[e^{iu sum Qtilde}]``; the denominator integrates
    ``1 + iyu sum Qtilde 1_{(1,2)} - e^{iyu sum Qtilde} 1(y <= 1)`` against the
    power-law measure, which reduces per atom to the stable atom plus an exact
    exponential-integral tail.
    """
    alpha = _validate_alpha(cluster.alpha)
    if atoms is None:
        atoms = tilted_atoms(cluster)
    s = atoms.sum_q
    if float(np.abs(np.sum(atoms.weights * s))) < 1e-12 and float(np.sum(atoms.weights * s**2)) < 1e-12:
        raise DegeneratePathError(
            "sum of the tilted cluster vanishes a.s.; the sum limit is degenerate "
            "and the ratio law is trivial"
        )

    def kernel(u):
        num_terms = np.exp(1j * u * s)
        den_terms = _tail_exp_integral(alpha, u * s, 1.0) - _stable_atom(u * s, alpha)
        # the ratio of the two means is the den_terms-weighted mean of num/den;
        # Re(den_terms) >= 1 on every atom
        return den_terms, num_terms / den_terms

    return _per_point(atoms, kernel, (u,), "expint_exact" if atoms.exact else "expint_monte_carlo")


# ---------------------------------------------------------------------------
# series sampler


def _lepage_validate(cluster: ClusterModel, alpha: float, p: float, reps: int, n_terms: int) -> None:
    for name, value in (("reps", reps), ("n_terms", n_terms)):
        if not _integer(value):
            raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if reps < 1:
        raise ConfigurationError(f"reps must be >= 1, got reps={reps}")
    if abs(cluster.alpha - alpha) > 1e-12:
        raise ConfigurationError(f"alpha {alpha} disagrees with the cluster model's {cluster.alpha}")
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


_LEPAGE_KEYS = ("xi", "eta", "zeta_p", "truncation_bound")


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
    starting at ``first_index``).

    Each replica draws its n_terms exponentials and then the uniforms of
    its atoms from its own stream, and pays only for those draws: a re-key,
    one ``standard_exponential`` and one ``random``. The rest runs on blocks
    of about ``_SERIES_BLOCK`` values (2**15, a few replicas of a long
    series), which give the same values as any other block size, since
    every reduction runs along one replica's row; :meth:`ClusterAtoms.index`
    maps a whole block's uniforms to atoms at once, as ``law.draw`` maps one
    replica's. The final root and the truncation bound are ``math.pow``, the
    libm ``pow`` of a float64 scalar ``**``, over the block's values: numpy's
    array ``pow`` need not match it to the last bit. When one atom holds all
    the weight (one-signed geometric clusters) the atom draws are skipped:
    they come last in the stream and would all return that atom."""
    _lepage_validate(cluster, alpha, p, reps, n_terms)
    return _lepage_series(cluster, p, reps, n_terms, seed, first_index, _LEPAGE_KEYS)


def _lepage_series(cluster: ClusterModel, p: float, reps: int, n_terms: int, seed: int, first_index: int,
                   keys) -> dict:
    """:func:`sample_limit_lepage_batch`'s arrays named in ``keys``, unchecked,
    at the cluster's alpha; each is computed only when asked for, and is the
    same either way."""
    alpha = cluster.alpha
    law = cluster_law(cluster, (p,))
    out = {k: np.empty(reps) for k in keys}
    rows = max(1, min(reps, _SERIES_BLOCK // n_terms))
    expo = np.empty((rows, n_terms))
    sole = law.sole_atom
    uniforms = np.empty((rows, n_terms if sole is None else 0))
    if sole is not None:
        # every row is the same constant row: its mean is taken once
        sole_l1 = float(np.full((1, n_terms), law.sum_abs[sole]).mean(axis=1)[0])
    streams = substreams(seed, range(first_index, first_index + reps))
    for lo in range(0, reps, rows):
        m = min(rows, reps - lo)
        for j in range(m):
            rng = next(streams)
            expo[j] = rng.standard_exponential(n_terms)
            if sole is None:
                uniforms[j] = rng.random(n_terms)
        gam = np.cumsum(expo[:m], axis=1)
        # a scalar sole atom: each product is the one a gathered row gives
        k = law.index(uniforms[:m]) if sole is None else sole
        if "eta" in out or "xi" in out:
            w = gam ** (-1.0 / alpha)
            if "eta" in out:
                out["eta"][lo:lo + m] = np.max(w * law.max_abs[k], axis=1)
            if "xi" in out:
                out["xi"][lo:lo + m] = np.sum(w * law.sum_q[k], axis=1)
        if "zeta_p" in out:
            norm_p_p = np.sum(gam ** (-p / alpha) * law.norm_p_p[k], axis=1)
            out["zeta_p"][lo:lo + m] = [math.pow(v, 1.0 / p) for v in norm_p_p.tolist()]
        if "truncation_bound" in out:
            mean_l1 = law.sum_abs[k].mean(axis=1).tolist() if sole is None else [sole_l1] * m
            out["truncation_bound"][lo:lo + m] = [
                l1 * math.pow(g, -1.0 / alpha) * n_terms / (1.0 / alpha - 1.0)
                for l1, g in zip(mean_l1, gam[:, -1].tolist())
            ]
    return out


# ---------------------------------------------------------------------------
# transform grids


@dataclass
class TransformGrid:
    """Aligned evaluation points (u, x, lam) with values and standard errors,
    and per point the quadrature fallbacks and warnings of its evaluation.

    Unused coordinates are NaN. One row per point; serialises to CSV columns
    (u, x, lambda, re, im, stderr, method).
    """

    u: np.ndarray
    x: np.ndarray
    lam: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    method: str
    fallbacks: np.ndarray
    quad_warnings: np.ndarray

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
            method=method, fallbacks=np.zeros(n, dtype=int), quad_warnings=np.zeros(n, dtype=int),
        )

    def __len__(self) -> int:
        return len(self.values)

    def to_csv(self, target) -> None:
        write_csv(target, ["u", "x", "lambda", "re", "im", "stderr", "method"], (
            (_none_if_nan(self.u[i]), _none_if_nan(self.x[i]), _none_if_nan(self.lam[i]),
             self.values[i].real, self.values[i].imag, self.stderr[i], self.method)
            for i in range(len(self))))


def _none_if_nan(v: float):
    return None if math.isnan(v) else float(v)


def evaluate_transform_grid(
    kind: str,
    grid: TransformGrid,
    cluster: ClusterModel,
    *,
    p: float = 2.0,
    quad_tol: float = QUAD_TOL,
) -> TransformGrid:
    """Evaluate one of the limit transforms on every point of a grid, in one
    call; a NaN coordinate is unused (u = 0, x = inf, lam = 0)."""
    u, x, lam = (np.where(np.isnan(c), unused, c) for c, unused in ((grid.u, 0.0), (grid.x, math.inf), (grid.lam, 0.0)))
    calls = {
        "stable_cf": lambda: stable_cf(u, cluster, atoms=cluster_atoms(cluster, p=p)),
        "hybrid_cf": lambda: hybrid_cf(u, x, cluster, atoms=cluster_atoms(cluster, p=p)),
        "laplace_zeta": lambda: laplace_zeta(lam, cluster, p=p),
        "joint_cf_laplace": lambda: joint_cf_laplace(u, x, lam, cluster, p=p, quad_tol=quad_tol),
        "ratio_cf": lambda: ratio_cf(u, cluster, atoms=tilted_atoms(cluster, p=p)),
    }
    if kind not in calls:
        raise ConfigurationError(f"unknown transform kind {kind!r}")
    tv = calls[kind]()
    return TransformGrid(grid.u, grid.x, grid.lam, tv.value, tv.stderr, tv.method, tv.fallbacks, tv.quad_warnings)

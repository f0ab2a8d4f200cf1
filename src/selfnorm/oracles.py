"""Closed-form limit moments used as acceptance oracles for the Monte-Carlo
pipeline.

Each oracle evaluates a gamma-factor times a cluster expectation, one weighted
mean over the atoms of the cluster law (``clusters.cluster_atoms``). For the
analytic cluster kinds the law is two exact atoms and the expectation is exact;
for empirical kinds it is the exact sum over every anchor of the block library,
and the reported standard error is by batch means over the library's chains,
so it is the noise of the library itself. Gamma functions come from scipy (Lanczos-grade,
relative error far below Monte-Carlo noise).

Oracles with a gamma factor of the form Gamma((1 - alpha)/p) are fully
supported for alpha < 1; for alpha in (1, 2) they are evaluated on the same
formula but flagged experimental, pending Monte-Carlo confirmation of the
analytic continuation used there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clusters import ClusterAtoms, ClusterModel, Estimate, _weighted_estimate, cluster_atoms, cluster_law
from .errors import ConfigurationError, DegeneratePathError, NumericalError, UnsupportedError
from .processes import gamma_fn


def _require_positive_cluster(atoms: ClusterAtoms) -> None:
    live = atoms.weights > 0
    if not np.allclose(atoms.sum_q[live], atoms.sum_abs[live]):
        raise ConfigurationError("this oracle needs a positive cluster; negative cluster values found")


def expected_ratio_max(cluster: ClusterModel, *, n_mc=None, seed=None) -> Estimate:
    """Mean of the sum/max ratio limit: ``E[sum Qtilde] / (1 - alpha)``, the
    ``max|Q|^alpha``-weighted mean of ``sum Q / max|Q|`` (``q+ - q-`` for the
    iid kind, ``(q+ - q-) / (1 - phi)`` for the AR(1) kind). For alpha > 1 the
    formula applies to the mean-centered model. ``n_mc`` and ``seed`` are
    accepted for existing callers; no cluster kind reads them.
    """
    a = cluster.alpha
    if a == 1.0:
        raise UnsupportedError("alpha = 1 is outside the supported domain")
    atoms = cluster_atoms(cluster, max(a, 1.0) + 1.0)
    tilted_sum = atoms.sum_q / atoms.max_abs
    if np.all(np.abs(tilted_sum) < 1e-12):
        raise DegeneratePathError("tilted-cluster sum vanishes a.s.; ratio limit degenerate")
    mean_sum = _weighted_estimate(atoms, atoms.max_abs**a, tilted_sum)
    return Estimate(mean_sum.value / (1.0 - a), mean_sum.stderr / abs(1.0 - a), mean_sum.reps, mean_sum.method)


def expected_ratio_student(cluster: ClusterModel, *, p: float = 2.0) -> Estimate:
    """Mean of the studentized-sum limit xi / zeta_p:

    ``Gamma((1-a)/p) / (Gamma(1/p) Gamma(1-a/p))`` times the
    ``||Q||_p^alpha``-weighted mean of ``sum Q / ||Q||_p``.
    """
    a = cluster.alpha
    if a == 1.0 or a >= 2.0 or a <= 0.0:
        raise UnsupportedError("requires alpha in (0,1) or (1,2)")
    if p <= a:
        raise ConfigurationError("requires p > alpha")
    arg = (1.0 - a) / p
    if arg <= 0.0 and float(arg).is_integer():
        raise UnsupportedError("Gamma((1-alpha)/p) hits a pole; combination rejected")
    gfac = gamma_fn(arg) / (gamma_fn(1.0 / p) * gamma_fn(1.0 - a / p))
    atoms = cluster_atoms(cluster, p)
    norm_p = atoms.norm_p_p ** (1.0 / p)
    cluster_factor = _weighted_estimate(atoms, norm_p**a, atoms.sum_q / norm_p)
    method = cluster_factor.method
    if a > 1.0:
        warnings.warn(
            "studentized-moment oracle for alpha in (1,2) is experimental",
            RuntimeWarning,
        )
        method = method + "_experimental"
    return Estimate(gfac * cluster_factor.value, abs(gfac) * cluster_factor.stderr, cluster_factor.reps, method)


def expected_greenwood(cluster: ClusterModel, *, p: float = 2.0, n_mc=None, seed=None) -> Estimate:
    """Limit mean of the ratio statistic ``sum X^p / (sum X)^p``:

    ``Gamma(p - a) / (Gamma(p) Gamma(1 - a))`` times the
    ``||Q||_1^alpha``-weighted mean of ``||Q||_p^p / ||Q||_1^p``; the gamma
    ratio alone in the iid case (value ``1 - alpha`` at p = 2). ``n_mc`` and
    ``seed`` are accepted for existing callers; no cluster kind reads them.
    """
    a = cluster.alpha
    if a >= 1.0 or a >= p:
        raise UnsupportedError("requires alpha < min(p, 1)")
    gfac = gamma_fn(p - a) / (gamma_fn(p) * gamma_fn(1.0 - a))
    atoms = cluster_atoms(cluster, p)
    _require_positive_cluster(atoms)
    factor = _weighted_estimate(atoms, atoms.sum_abs**a, atoms.norm_p_p / atoms.sum_abs**p)
    return Estimate(gfac * factor.value, gfac * factor.stderr, factor.reps, factor.method)


def expected_kurtosis_limit(cluster: ClusterModel) -> Estimate:
    """Limit mean of the scaled sample kurtosis ``||X||_4^4 / ||X||_2^4``:

    ``(1 - alpha/2)`` times the ``||Q||_2^alpha``-weighted mean of
    ``||Q||_4^4 / ||Q||_2^4`` (the squared series is regularly varying with
    index alpha/2, so this is the p = 2 ratio-statistic oracle applied to it).
    """
    a = cluster.alpha
    if not (0.0 < a < 2.0):
        raise UnsupportedError("requires alpha in (0, 2)")
    atoms = cluster_law(cluster, (2.0, 4.0))
    n2 = atoms.norm_p_p
    factor = _weighted_estimate(atoms, n2 ** (a / 2.0), atoms.norms[4.0] / n2**2)
    return Estimate((1.0 - a / 2.0) * factor.value, (1.0 - a / 2.0) * factor.stderr, factor.reps, factor.method)


@dataclass(frozen=True)
class GammaIdentityRow:
    x: float
    lhs: float
    rhs: float
    rel_err: float
    passed: bool
    quad_warnings: int  # warnings quad raised on this row's integral


def gamma_identity_check(p: float, xs: Sequence[float], rel_tol: float = 1e-8) -> list[GammaIdentityRow]:
    """Quadrature check of ``x^(-1/p) = (p / Gamma(1/p)) int_0^inf
    e^(-lam^p x) d lam`` on a grid of x; the warnings quad raises are counted
    per row, not shown."""
    from scipy.integrate import quad  # kept out of the package import

    if p <= 0:
        raise ConfigurationError("p must be positive")
    rows = []
    for x in xs:
        if x <= 0:
            raise ConfigurationError("x must be positive")
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            integral, err = quad(lambda lam: math.exp(-(lam**p) * x), 0.0, np.inf, epsabs=1e-12, limit=400)
        if err > 1e-6 * max(1.0, abs(integral)):
            raise NumericalError(f"gamma-identity quadrature failed at x={x}")
        rhs = p / gamma_fn(1.0 / p) * integral
        lhs = x ** (-1.0 / p)
        rel = abs(rhs - lhs) / abs(lhs)
        rows.append(GammaIdentityRow(x, lhs, rhs, rel, rel <= rel_tol, len(seen)))
    return rows

"""The vectorised transform engine against its references.

``tests/data/transform_reference.json`` holds, as float hex, the values and
standard errors of ``stable_cf``, ``hybrid_cf``, ``joint_cf_laplace`` (x finite
and x = inf) and ``ratio_cf`` on every anchor of an empirical AR(1) cluster,
computed by the per-atom reference engine below (mpmath ``expint`` and
adaptive ``quad`` for every atom), which shares no per-atom code with the
array engine. The array engine must stay within 1e-10 relative of them.

Regenerate the record (only for a deliberate change of value, which
CHANGES.md must then explain; it takes a few seconds) with::

    PYTHONPATH=src python tests/test_transform_engine.py --record
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import mpmath
import numpy as np
import pytest

from selfnorm import NumericalError, clusters, iid_cluster, limits
from selfnorm.clusters import ClusterAtoms
from selfnorm.experiments import cluster_from_dict

RECORD = Path(__file__).parent / "data" / "transform_reference.json"

# the empirical AR(1) cluster of test_bit_identity (185 anchors)
AR1_CLUSTER = {"kind": "empirical",
               "source": {"kind": "ar1", "phi": 0.5,
                          "noise": {"kind": "pareto", "alpha": 0.5, "q_plus": 1.0, "q_minus": 0.0}},
               "sample_length": 200_000, "library_seed": 3}
# (u, x, lam)
POINTS = [(0.5, 1.0, 0.5), (1.0, 2.0, 1.0), (-0.8, 0.7, 0.3), (2.5, 3.0, 2.0)]


def record_atoms() -> tuple[ClusterAtoms, ClusterAtoms]:
    """The recorded cluster's atoms and tilted atoms."""
    c = cluster_from_dict(AR1_CLUSTER)
    return clusters.cluster_atoms(c, p=2.0), clusters.tilted_atoms(c, p=2.0)


def transform_values(engine=None, atoms=None, tilted=None) -> dict:
    """Every transform at every grid point, as (value, stderr) pairs, from the
    array engine or, given ``engine``, from a per-atom engine of that shape
    (:data:`REFERENCE`)."""
    c = cluster_from_dict(AR1_CLUSTER)
    if atoms is None:
        atoms, tilted = record_atoms()
    stable, hybrid, joint, ratio = engine or (
        lambda u, a: limits.stable_cf(u, c, atoms=a),
        lambda u, x, a: limits.hybrid_cf(u, x, c, atoms=a),
        lambda u, x, lam, a: limits.joint_cf_laplace(u, x, lam, c, p=2.0, atoms=a),
        lambda u, a: limits.ratio_cf(u, c, atoms=a))
    out = {}
    for i, (u, x, lam) in enumerate(POINTS):
        out[f"stable_cf[{i}]"] = stable(u, atoms)
        out[f"hybrid_cf[{i}]"] = hybrid(u, x, atoms)
        out[f"joint_cf_laplace[{i}]"] = joint(u, x, lam, atoms)
        out[f"joint_cf_laplace_inf[{i}]"] = joint(u, math.inf, lam, atoms)
        out[f"ratio_cf[{i}]"] = ratio(u, tilted)
    return out


# ---------------------------------------------------------------------------
# the per-atom reference engine, for alpha in (0, 1) and the record's p = 2:
# closed-form stable atoms, mpmath E_{alpha+1}(-iw) for the oscillatory tails
# and one adaptive quad per damped atom, combined by the package's weighted
# estimate (the batch-means stderr over the library chains)

REF_QUAD_TOL = 1e-8  # the array engine's default tolerance, at which the record was made


def _ref_stable(alpha: float, b: float) -> complex:
    """int_0^inf (e^{iby} - 1) d(-y^-alpha) = -Gamma(1 - alpha) |b|^alpha e^{-i sign(b) pi alpha / 2}."""
    scale = math.gamma(2.0 - alpha) * math.cos(math.pi * alpha / 2.0) / (1.0 - alpha)
    return -scale * abs(b) ** alpha * complex(1.0, -math.copysign(1.0, b) * math.tan(math.pi * alpha / 2.0))


def _ref_tail(alpha: float, b: float, z: float) -> complex:
    """int_z^inf e^{iby} d(-y^-alpha) = alpha z^-alpha E_{alpha+1}(-ibz)."""
    if math.isinf(z):
        return 0j
    return alpha * z ** (-alpha) * complex(mpmath.expint(alpha + 1.0, -1j * b * z))


def _ref_damped(alpha: float, p: float, b: float, c: float, x_m: float) -> complex:
    """int_0^inf [e^{iby - c y^p} 1(y <= x_m) - 1] d(-y^-alpha), by quad in s = y^-alpha."""
    from scipy.integrate import quad

    def f(s):
        y = s ** (-1.0 / alpha)
        damp = c * y**p
        return -1.0 + 0j if damp > 700.0 else np.expm1(1j * b * y - damp)

    lo = 0.0 if math.isinf(x_m) else x_m ** (-alpha)
    val, _ = quad(f, lo, math.inf, epsabs=REF_QUAD_TOL, epsrel=0.0, limit=4000, complex_func=True)
    return val - lo


def _ref_cf(atoms: ClusterAtoms, per_atom) -> limits.TransformValue:
    est = clusters._weighted_estimate(atoms, 1.0, np.array(list(per_atom), dtype=complex))
    val = complex(np.exp(est.value))
    return limits.TransformValue(val, abs(val) * est.stderr)


def _ref_ratio(u: float, atoms: ClusterAtoms) -> limits.TransformValue:
    alpha = atoms.alpha
    den = np.array([_ref_tail(alpha, u * s, 1.0) - _ref_stable(alpha, u * s) for s in atoms.sum_q])
    est = clusters._weighted_estimate(atoms, den, np.exp(1j * u * atoms.sum_q) / den)
    return limits.TransformValue(complex(est.value), est.stderr)


REFERENCE = (
    lambda u, a: _ref_cf(a, (_ref_stable(a.alpha, u * s) for s in a.sum_q)),
    lambda u, x, a: _ref_cf(a, (_ref_stable(a.alpha, u * s) - _ref_tail(a.alpha, u * s, x / m)
                                for s, m in zip(a.sum_q, a.max_abs))),
    lambda u, x, lam, a: _ref_cf(a, (_ref_damped(a.alpha, 2.0, u * s, lam * w, x / m)
                                     for s, w, m in zip(a.sum_q, a.norm_p_p, a.max_abs))),
    _ref_ratio,
)


def _hex(tv) -> dict:
    v = complex(tv.value)
    return {"re": v.real.hex(), "im": v.imag.hex(), "stderr": float(tv.stderr).hex()}


@pytest.fixture(scope="module")
def values():
    return transform_values()


def test_transforms_match_recorded_values(values):
    # A stderr is a sum of squared per-atom residuals, so it feels per-atom
    # errors that the mean averages out: the recorded joint_cf_laplace_inf[2]
    # stderr is off by 1.7e-9 relative, because adaptive quad at the default
    # tolerance is; at quad_tol 1e-12 the per-atom engine gives the new stderr
    # to the last bit.
    recorded = json.loads(RECORD.read_text())
    assert values.keys() == recorded.keys()
    for name, rec in recorded.items():
        want = complex(float.fromhex(rec["re"]), float.fromhex(rec["im"]))
        got = complex(values[name].value)
        assert abs(got - want) <= 1e-10 * abs(want), (name, got, want)
        se = float.fromhex(rec["stderr"])
        assert abs(values[name].stderr - se) <= 1e-8 * se, (name, values[name].stderr, se)
        assert values[name].fallbacks == 0 and values[name].quad_warnings == 0, name


def _first_atoms(atoms: ClusterAtoms, k: int) -> ClusterAtoms:
    keep = slice(0, k)
    return dataclasses.replace(
        atoms, weights=atoms.weights[keep] / atoms.weights[keep].sum(), sum_q=atoms.sum_q[keep],
        max_abs=atoms.max_abs[keep], norm_p_p=atoms.norm_p_p[keep], sum_abs=atoms.sum_abs[keep],
        reps=k, group=atoms.group[keep], norms={q: v[keep] for q, v in atoms.norms.items()})


def test_reference_engine_on_a_few_atoms():
    # the reference engine behind the record against the array engine, on the
    # record's first atoms (taken from several chains, so stderrs are defined)
    atoms, tilted = (_first_atoms(a, 12) for a in record_atoms())
    assert len(set(atoms.group)) > 1 and len(set(tilted.group)) > 1
    want = transform_values(REFERENCE, atoms, tilted)
    got = transform_values(atoms=atoms, tilted=tilted)
    for name in want:
        w, g = complex(want[name].value), complex(got[name].value)
        assert abs(g - w) <= 1e-10 * abs(w), (name, g, w)
        assert abs(got[name].stderr - want[name].stderr) <= 1e-8 * want[name].stderr, name


def test_reference_engine_reproduces_recorded_stable_cf():
    # the one family cheap enough to recompute on every atom here; the full
    # reference is what the record holds
    atoms, _ = record_atoms()
    recorded = json.loads(RECORD.read_text())
    for i, (u, _, _) in enumerate(POINTS):
        assert _hex(REFERENCE[0](u, atoms)) == recorded[f"stable_cf[{i}]"], i


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.8, 0.99, 1.01, 1.2, 1.5, 1.9])
def test_expint_vs_mpmath(alpha):
    # both sides of the |w| = 3 switch from power series to continued fraction
    mags = np.concatenate([np.logspace(-6, 4, 61), [1.9999999, 2.0, 2.0000001, 2.9999999, 3.0, 3.0000001]])
    w = np.concatenate([mags, -mags])
    got = limits._expint(alpha, w)
    want = np.array([complex(mpmath.expint(alpha + 1.0, -1j * float(wi))) for wi in w])
    rel = np.abs(got - want) / np.abs(want)
    assert rel.max() <= 1e-12, (w[rel.argmax()], rel.max())
    assert limits._expint(alpha, 0.0) == pytest.approx(1.0 / alpha, rel=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.5])
@pytest.mark.parametrize("p", [2.0, 4.0])
@pytest.mark.parametrize("x_m", [1.0, math.inf])
def test_damped_rule_vs_quadrature(alpha, p, x_m):
    b, c = (a.ravel() for a in np.meshgrid([-2.3, -0.4, 0.0, 0.9, 3.1], [0.05, 0.7, 4.0]))
    got, fallbacks, warned = limits._damped_log(alpha, p, b, c, x_m, 1e-12)
    # per-atom counts, shaped like the atoms
    assert fallbacks.shape == warned.shape == b.shape
    assert not fallbacks.any() and not warned.any()
    for i in range(b.size):
        want = limits._atom_log_damped(alpha, p, b[i], c[i], x_m, 1e-12)
        assert abs(got[i] - want) <= 1e-9, (b[i], c[i], got[i], want)


def _atoms(alpha: float, p: float, sum_q) -> ClusterAtoms:
    ones = np.ones(len(sum_q))
    return ClusterAtoms(alpha=alpha, p=p, weights=ones / len(sum_q), sum_q=np.asarray(sum_q, dtype=float),
                        max_abs=ones, norm_p_p=ones, sum_abs=ones, exact=True)


def test_hopeless_atom_among_benign_ones_raises():
    # the atom of test_hopeless_oscillation_raises_with_diagnostics (u = 5,
    # lam = 1e-10, p = 0.7), with benign atoms settled by the rule beside it
    atoms = _atoms(0.5, 0.7, [1.0, 1e-3, -2e-3])
    atoms.norm_p_p[1:] = 1e10
    with pytest.raises(NumericalError, match="estimated error"):
        limits.joint_cf_laplace(5.0, math.inf, 1e-10, iid_cluster(0.5), p=0.7, atoms=atoms)


def test_fallbacks_and_quad_warnings_are_counted():
    # 200 and 1000 radians of oscillation per unit of y are beyond the finest
    # tanh-sinh step, so both fall back to quad. The first converges at 600
    # subintervals (real and imaginary estimates 7.7e-9 and 9.3e-9, each within
    # the 1e-8 tolerance). The second's real estimate, 5.4e-7, is not: quad
    # stops on roundoff (one count) and the result is accepted above tolerance
    # (one more) without a retry
    atoms = _atoms(0.5, 2.0, [200.0, 0.5, 1000.0, -0.7])
    tv = limits.joint_cf_laplace(1.0, math.inf, 1.0, iid_cluster(0.5), p=2.0, atoms=atoms)
    assert (tv.fallbacks, tv.quad_warnings) == (2, 2)
    per_atom = [limits._atom_log_damped(0.5, 2.0, b, 1.0, math.inf, limits.QUAD_TOL) for b in atoms.sum_q]
    assert tv.value == pytest.approx(np.exp(np.mean(per_atom)), abs=1e-12)
    settled = limits.joint_cf_laplace(1.0, math.inf, 1.0, iid_cluster(0.5), p=2.0,
                                      atoms=_atoms(0.5, 2.0, [0.5, -0.7]))
    assert (settled.fallbacks, settled.quad_warnings) == (0, 0)


@pytest.fixture
def quad_limits(monkeypatch) -> list:
    """The subinterval limit of every ``scipy.integrate.quad`` call."""
    import scipy.integrate

    quad, seen = scipy.integrate.quad, []

    def counted(*args, **kwargs):
        seen.append(kwargs["limit"])
        return quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    return seen


def test_converged_fallback_takes_one_quad_call(quad_limits):
    # quad holds the real and imaginary parts to epsabs separately, so an atom
    # whose two estimates are each within tol is not retried
    warned = []
    limits._atom_log_damped(0.5, 2.0, 200.0, 1.0, math.inf, limits.QUAD_TOL, warned)
    assert (quad_limits, warned) == ([600], [])


def test_roundoff_fallback_takes_one_quad_call(quad_limits):
    # the b = 1000 atom stops on roundoff well inside 600 subintervals; at
    # 4,000 it returned the same value and estimate, so it is not retried
    warned = []
    limits._atom_log_damped(0.5, 2.0, 1000.0, 1.0, math.inf, limits.QUAD_TOL, warned)
    assert quad_limits == [600]
    assert len(warned) == 2 and "roundoff" in warned[0] and "accepted" in warned[1]


# laplace_zeta at lam = 0.5, 1, 2 as (re, im, stderr) float hex, equal to one
# laplace_zeta call per row (which recomputes the cluster moment each time);
# ar1_empirical sums over every anchor of a library built with the burn-in
# derived from the contraction rate
LAPLACE_GRID = {
    "iid": [("0x1.6d69445df52cfp-2", "0x0.0p+0", "0x0.0p+0"),
            ("0x1.2caebc8141d8cp-2", "0x0.0p+0", "0x0.0p+0"),
            ("0x1.dceb06efa0b3bp-3", "0x0.0p+0", "0x0.0p+0")],
    "ar1_empirical": [("0x1.6d53afffb48e0p-1", "0x0.0p+0", "0x1.db7371e762d8dp-12"),
                      ("0x1.56b9aa3a492bbp-1", "0x0.0p+0", "0x1.0936fa0e3be3fp-11"),
                      ("0x1.3da9024b5c2dap-1", "0x0.0p+0", "0x1.245437b8d2087p-11")],
}


@pytest.mark.parametrize("name", sorted(LAPLACE_GRID))
def test_laplace_zeta_grid_reads_one_cluster_moment(monkeypatch, name):
    c = iid_cluster(0.5) if name == "iid" else cluster_from_dict(AR1_CLUSTER)
    calls = []
    atoms = clusters.cluster_atoms

    def counted(*args, **kwargs):
        calls.append(args)
        return atoms(*args, **kwargs)

    monkeypatch.setattr(clusters, "cluster_atoms", counted)
    monkeypatch.setattr(limits, "cluster_atoms", counted)
    grid = limits.TransformGrid.from_points(lam=[0.5, 1.0, 2.0])
    out = limits.evaluate_transform_grid("laplace_zeta", grid, c)
    assert len(calls) == 1
    got = [(complex(v).real.hex(), complex(v).imag.hex(), float(se).hex()) for v, se in zip(out.values, out.stderr)]
    assert got == LAPLACE_GRID[name]


# ---------------------------------------------------------------------------
# grids: every transform evaluates an array of points in one call

GRID_CLUSTERS = {
    "ar1_analytic": lambda: clusters.ar1_cluster(-0.6, 0.7, (0.3, 0.7)),
    "iid": lambda: iid_cluster(1.5),
    "library": lambda: cluster_from_dict(AR1_CLUSTER),
}
# each transform at points (u, x, lam), scalars or arrays
GRID_CALLS = {
    "stable_cf": lambda c, u, x, lam: limits.stable_cf(u, c),
    "hybrid_cf": lambda c, u, x, lam: limits.hybrid_cf(u, x, c),
    "laplace_zeta": lambda c, u, x, lam: limits.laplace_zeta(lam, c, p=2.0),
    "joint_cf_laplace": lambda c, u, x, lam: limits.joint_cf_laplace(u, x, lam, c, p=2.0),
    "ratio_cf": lambda c, u, x, lam: limits.ratio_cf(u, c),
    "ratio_modulus_laplace": lambda c, u, x, lam: limits.ratio_modulus_laplace(lam, c, p=2.0),
}
GRID_KINDS = ("stable_cf", "hybrid_cf", "laplace_zeta", "joint_cf_laplace", "ratio_cf")


def grid_points() -> tuple:
    """45 points (u, x, lam), u = 0, x = inf and lam = 0 among them."""
    rng = np.random.default_rng(5)
    u = np.concatenate([[0.0, 0.0, 1.2], rng.uniform(-3.0, 3.0, 42)])
    x = np.concatenate([[math.inf, 0.8, math.inf], np.exp(rng.normal(0.0, 1.0, 42))])
    lam = np.concatenate([[0.0, 0.7, 0.0], rng.exponential(1.0, 42)])
    return u, x, lam


def _assert_same_points(got, want) -> None:
    """Per point: value and stderr within 1e-13 relative, equal counts."""
    for i, one in enumerate(want):
        assert abs(got.value[i] - one.value) <= 1e-13 * abs(one.value), (i, got.value[i], one.value)
        assert abs(got.stderr[i] - one.stderr) <= 1e-13 * one.stderr, (i, got.stderr[i], one.stderr)
        assert (got.fallbacks[i], got.quad_warnings[i]) == (one.fallbacks, one.quad_warnings), i


@pytest.mark.parametrize("cluster", sorted(GRID_CLUSTERS))
@pytest.mark.parametrize("kind", sorted(GRID_CALLS))
def test_grid_call_equals_scalar_calls(kind, cluster):
    c, call, (u, x, lam) = GRID_CLUSTERS[cluster](), GRID_CALLS[kind], grid_points()
    got = call(c, u, x, lam)
    assert got.value.shape == got.stderr.shape == got.fallbacks.shape == got.quad_warnings.shape == u.shape
    want = [call(c, float(u[i]), float(x[i]), float(lam[i])) for i in range(len(u))]
    # a scalar call returns scalars
    assert all(isinstance(one.value, complex) and isinstance(one.stderr, float) for one in want)
    _assert_same_points(got, want)


def test_points_broadcast():
    # a column of (u, x) against a row of lam: fields shaped like the points
    c, (u, x, lam) = GRID_CLUSTERS["library"](), grid_points()
    got = limits.joint_cf_laplace(u[:3, None], x[:3, None], lam[None, :4], c, p=2.0)
    assert got.value.shape == got.stderr.shape == got.fallbacks.shape == (3, 4)
    flat = limits.TransformValue(got.value.ravel(), got.stderr.ravel(), got.method, got.fallbacks.ravel(),
                                 got.quad_warnings.ravel())
    _assert_same_points(flat, [limits.joint_cf_laplace(float(a), float(b), float(v), c, p=2.0)
                               for a, b in zip(u[:3], x[:3]) for v in lam[:4]])


@pytest.mark.parametrize("cluster", sorted(GRID_CLUSTERS))
@pytest.mark.parametrize("kind", GRID_KINDS)
def test_nan_coordinates_are_unused(kind, cluster):
    # NaN reads as u = 0, x = inf, lam = 0
    c, (u, x, lam) = GRID_CLUSTERS[cluster](), grid_points()
    nan = np.arange(len(u)) % 3 == 1
    got = limits.evaluate_transform_grid(kind, limits.TransformGrid.from_points(
        u=np.where(nan, np.nan, u), x=np.where(nan, np.nan, x), lam=np.where(nan, np.nan, lam)), c)
    want = limits.evaluate_transform_grid(kind, limits.TransformGrid.from_points(
        u=np.where(nan, 0.0, u), x=np.where(nan, math.inf, x), lam=np.where(nan, 0.0, lam)), c)
    assert np.isnan(got.u[nan]).all() and np.isnan(got.lam[nan]).all()
    assert got.method == want.method
    for field in ("values", "stderr", "fallbacks", "quad_warnings"):
        np.testing.assert_allclose(getattr(got, field), getattr(want, field), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("cluster", sorted(GRID_CLUSTERS))
@pytest.mark.parametrize("kind", sorted(GRID_CALLS))
def test_one_point_chunks_give_the_same_values(monkeypatch, kind, cluster):
    c, call, (u, x, lam) = GRID_CLUSTERS[cluster](), GRID_CALLS[kind], grid_points()
    whole = call(c, u, x, lam)
    shapes = []
    stable_atom = limits._stable_atom

    def recorded(b, alpha):
        shapes.append(np.shape(b))
        return stable_atom(b, alpha)

    monkeypatch.setattr(limits, "_stable_atom", recorded)
    monkeypatch.setattr(limits, "_CHUNK_VALUES", 1)
    one = call(c, u, x, lam)
    # every per-atom array holds at most one point
    assert all(len(shape) == 2 and shape[0] <= 1 for shape in shapes), shapes
    _assert_same_points(one, [limits.TransformValue(*f) for f in zip(
        whole.value, whole.stderr, [whole.method] * len(u), whole.fallbacks, whole.quad_warnings)])
    assert one.method == whole.method


def test_grid_method_follows_kind_and_atoms():
    # not the last point's: point 0 of the first grid is a library estimate
    lib, exact = cluster_from_dict(AR1_CLUSTER), clusters.ar1_cluster(-0.6, 0.7, (0.3, 0.7))
    grid = limits.TransformGrid.from_points

    def method(kind, c, **points):
        return limits.evaluate_transform_grid(kind, grid(**points), c)

    out = method("stable_cf", lib, u=[1.0, 0.0])
    assert out.method == "monte_carlo" and out.stderr[0] > 0.0 and out.stderr[1] == 0.0
    assert method("stable_cf", lib, u=[0.0, 0.0]).method == "closed_form"
    assert method("stable_cf", exact, u=[1.0, 0.0]).method == "closed_form"
    # the expint method only when every point has lam = 0
    for c, damped, undamped in ((lib, "quadrature_monte_carlo", "expint_monte_carlo"),
                                (exact, "quadrature", "expint_exact")):
        assert method("joint_cf_laplace", c, u=[1.0, 1.0], x=[2.0], lam=[0.5, 0.0]).method == damped
        assert method("joint_cf_laplace", c, u=[1.0, 1.0], x=[2.0], lam=[0.0, math.nan]).method == undamped


def _fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, check=True, timeout=300)


def test_import_leaves_mpmath_out():
    # nor scipy.signal (the AR(1) filter's package), scipy.integrate (the quad
    # fallbacks), or what scipy.signal would pull in; nor the scipy.special
    # package (the gamma ufuncs come from its extension) with the numpy.testing
    # and numpy.f2py its array-API layer imports, PyYAML (read by load_config)
    # or the process pool (opened by a run's first pooled submit)
    _fresh("""
        import sys, selfnorm
        loaded = {'mpmath', 'scipy.signal', 'scipy.integrate', 'scipy.stats', 'scipy.interpolate',
                  'scipy.optimize', 'scipy.special', 'numpy.testing', 'numpy.f2py', 'yaml',
                  'concurrent.futures.process'} & set(sys.modules)
        assert not loaded, sorted(loaded)
    """)


# an import of scipy.signal raises, here and in every worker forked from here
_BLOCK_SIGNAL = """
    import sys
    class Block:
        def find_spec(self, name, path=None, target=None):
            if name == 'scipy.signal':
                raise ImportError('scipy.signal imported')
    sys.meta_path.insert(0, Block())
"""


def test_sre_runs_leave_scipy_signal_out(tmp_path):
    _fresh(_BLOCK_SIGNAL + f"""
    from selfnorm import ExperimentConfig, _pool, run_experiment
    _pool._POOL_VALUES = 0  # every submit at two workers goes to the pool
    sre = {{"kind": "sre", "burn_in": 200,
            "sre_law": {{"kind": "lognormal", "alpha": 0.8, "sigma": 1.0, "b_mean": 1.0, "b_sd": 0.0}}}}
    cluster = {{"kind": "empirical", "source": sre, "sample_length": 20_000, "library_seed": 4}}
    for cfg in (dict(kind="verify", name="v", model=sre, cluster=cluster, n=2000, reps=40, p=2.0,
                     checks=["greenwood", "ratio_max"], cluster_mc=500, seed=1),
                dict(kind="diagnose", name="d", model=sre, n=2000, reps=20, seed=2)):
        run_experiment(ExperimentConfig.from_dict(cfg), out_dir={str(tmp_path)!r}, workers=2)
    assert 'scipy.signal' not in sys.modules
    """)


def test_ar1_runs_leave_scipy_signal_out(tmp_path):
    # the AR(1) model holds lfilter's kernel, loaded without scipy.signal; the
    # forked workers inherit it, and results stay the same for any worker count
    _fresh(_BLOCK_SIGNAL + f"""
    import numpy as np
    from selfnorm import ExperimentConfig, NoiseSpec, _pool, ar1_model, processes, run_experiment
    from selfnorm.experiments import simulate_statistics
    _pool._POOL_VALUES = 0  # every submit at two workers goes to the pool
    model = ar1_model(0.5, NoiseSpec(kind="pareto", alpha=0.5, tail_balance=(1.0, 0.0)), burn_in=50)
    assert processes._LINEAR_FILTER is not None and 'scipy.signal' not in sys.modules
    ar1 = {{"kind": "ar1", "phi": 0.5, "noise": {{"kind": "pareto", "alpha": 0.5, "q_plus": 1.0, "q_minus": 0.0}}}}
    cluster = {{"kind": "empirical", "source": ar1, "sample_length": 20_000, "library_seed": 4}}
    for cfg in (dict(kind="verify", name="v", model=ar1, cluster=cluster, n=2000, reps=40, p=2.0,
                     checks=["greenwood", "lepage_laplace"], seed=1),
                dict(kind="diagnose", name="d", model=ar1, n=2000, reps=20, seed=2)):
        run_experiment(ExperimentConfig.from_dict(cfg), out_dir={str(tmp_path)!r}, workers=2)
    specs = [{{"name": "ratio_max"}}, {{"name": "greenwood", "p": 2.0}}]
    one = simulate_statistics(model, 300, 40, specs, seed=5, workers=1)
    two = simulate_statistics(model, 300, 40, specs, seed=5, workers=2)
    assert one.keys() == two.keys() and all(np.array_equal(one[k], two[k]) for k in one)
    assert 'scipy.signal' not in sys.modules
    """)


def test_ar1_recursion_without_a_model():
    _fresh("""
    import numpy as np
    from selfnorm.processes import ar1_recursion
    assert ar1_recursion(0.5, np.ones(3)).tolist() == [1.0, 1.5, 1.75]
    """)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_transform_engine.py --record")
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps({k: _hex(v) for k, v in transform_values(REFERENCE).items()}, indent=1) + "\n")
    print(f"wrote {RECORD}")

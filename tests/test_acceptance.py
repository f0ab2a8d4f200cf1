"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS/FAIL line. Budgets are desk scale (the full module runs in a
few minutes on one core; fixtures fan replicas out over a few workers)."""

import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from selfnorm import (
    NoiseSpec,
    ar1_cluster,
    ar1_model,
    empirical_cluster,
    expected_ratio_max,
    hybrid_cf,
    iid_cluster,
    iid_model,
    joint_cf_laplace,
    ks_distance,
    laplace_zeta,
    normalizing_an,
    sample_cluster,
    sample_tilted_cluster,
    simulate_statistics,
    stable_cf,
    standard_functionals,
    tilted_acceptance,
    verify_time_change,
)
from selfnorm.clusters import extremal_index
from selfnorm.diagnostics import coupling_decay
from selfnorm.experiments import sample_limit_batch_parallel
from selfnorm.rng import substream
from selfnorm.stats import batch_stats

WORKERS = 4
N = 10**5
ALPHA = 0.5

IID_POS = iid_model(NoiseSpec("pareto", ALPHA, (1.0, 0.0)))
AR1_POS = ar1_model(0.5, NoiseSpec("pareto", ALPHA, (1.0, 0.0)))
IID_CLUSTER = iid_cluster(ALPHA, (1.0, 0.0))
AR1_CLUSTER = ar1_cluster(0.5, ALPHA, (1.0, 0.0))


def report(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:>2}: {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def iid_stats_2k():
    return simulate_statistics(
        IID_POS, N, 2000, [{"name": "greenwood", "p": 2.0}, {"name": "ratio_max"}],
        seed=101, workers=WORKERS,
    )


@pytest.fixture(scope="module")
def iid_sums_10k():
    return simulate_statistics(
        IID_POS, N, 10_000, [{"name": "sum"}, {"name": "max_abs"}],
        seed=102, workers=WORKERS,
    )


@pytest.fixture(scope="module")
def iid_ratio_5k():
    return simulate_statistics(IID_POS, N, 5000, [{"name": "ratio_max"}], seed=103, workers=WORKERS)


@pytest.fixture(scope="module")
def ar1_ratio_5k():
    return simulate_statistics(AR1_POS, N, 5000, [{"name": "ratio_max"}], seed=104, workers=WORKERS)


def test_criterion_01_greenwood_iid(iid_stats_2k):
    # Gamma(2 - a) / (Gamma(2) Gamma(1 - a)) = 1 - a = 0.5
    vals = iid_stats_2k["greenwood_p2"]
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    z = (vals.mean() - 0.5) / se
    report(1, abs(z) <= 3.0, f"iid Greenwood mean {vals.mean():.5f} vs 0.5 (z = {z:+.2f})")


def test_criterion_02_ratio_mean_iid(iid_stats_2k):
    vals = iid_stats_2k["ratio_max"]
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    z = (vals.mean() - 2.0) / se
    report(2, abs(z) <= 3.0, f"iid sum/max mean {vals.mean():.4f} vs 2 (z = {z:+.2f})")


def test_criterion_03_ar1_extremal_index():
    model = ar1_model(0.5, NoiseSpec("pareto", 0.8))
    emp = empirical_cluster(model)
    theta = 1.0 - 0.5**0.8
    acc = tilted_acceptance(emp, reps=100_000, seed=105)
    mx = extremal_index(emp, reps=100_000, seed=106, method="cluster_max")
    ok = abs(acc.value - theta) <= 0.03 and abs(mx.value - theta) <= 0.03
    report(3, ok, f"AR(1) extremal index: acceptance {acc.value:.4f}, "
                  f"max-moment {mx.value:.4f}, target {theta:.4f} +- 0.03")


def test_criterion_04_lepage_laplace_oracle():
    draws = sample_limit_batch_parallel(IID_CLUSTER, 2.0, reps=100_000,
                                        n_terms=2000, seed=107, workers=WORKERS)
    zp = draws["zeta_p"] ** 2
    ok = True
    details = []
    for lam in (0.5, 1.0, 2.0):
        target = math.exp(-gamma_fn(0.75) * lam**0.25)
        terms = np.exp(-lam * zp)
        z = (terms.mean() - target) / (terms.std(ddof=1) / math.sqrt(len(terms)))
        details.append(f"lam={lam:g}: z={z:+.2f}")
        ok = ok and abs(z) <= 3.0
    report(4, ok, "series Laplace vs exp(-Gamma(3/4) lam^(1/4)): " + ", ".join(details))


def test_criterion_05_stable_cf(iid_sums_10k):
    a_n = normalizing_an(IID_POS, N)
    s = iid_sums_10k["sum"] / a_n
    ok = True
    details = []
    for u in (0.5, 1.0, 2.0):
        emp = np.exp(1j * u * s).mean()
        diff = abs(emp - stable_cf(u, IID_CLUSTER).value)
        details.append(f"u={u:g}: {diff:.4f}")
        ok = ok and diff <= 0.02
    report(5, ok, "stable CF modulus differences (tol 0.02): " + ", ".join(details))


def test_criterion_06_hybrid_cf(iid_sums_10k):
    a_n = normalizing_an(IID_POS, N)
    s = iid_sums_10k["sum"] / a_n
    m = iid_sums_10k["max_abs"] / a_n
    ok = True
    worst = 0.0
    for u in (0.5, 1.0):
        for x in (0.5, 1.0, 2.0):
            emp = (np.exp(1j * u * s) * (m <= x)).mean()
            diff = abs(emp - hybrid_cf(u, x, IID_CLUSTER).value)
            worst = max(worst, diff)
            ok = ok and diff <= 0.05
    report(6, ok, f"hybrid CF on (u,x) grid: worst difference {worst:.4f} (tol 0.05)")


def test_criterion_07_self_decomposition():
    u = lam = 1.0
    c, p = 0.5, 2.0
    full = joint_cf_laplace(u, math.inf, lam, IID_CLUSTER, p=p).value
    part = joint_cf_laplace(c * u, math.inf, c**p * lam, IID_CLUSTER, p=p).value
    resid = abs(full - part * full ** (1.0 - c**ALPHA))
    report(7, resid <= 1e-6, f"self-decomposition residual {resid:.2e} (tol 1e-6)")


def test_criterion_08_time_change():
    model = ar1_cluster(0.5, 1.0)
    rep = verify_time_change(model, t=1, test_functionals=standard_functionals(1),
                             reps=100_000, seed=108)
    zmax = rep.max_abs_z()
    report(8, zmax <= 3.0 and not any(r.vacuous for r in rep.rows),
           f"time-change formula, 3 functionals, max |z| = {zmax:.2f}")


def test_criterion_09_dependent_ratio(ar1_ratio_5k):
    # oracle E[sum Qtilde]/(1-a) = 4, first confirmed through single tilted-cluster paths
    oracle = expected_ratio_max(AR1_CLUSTER).value
    tilted_draws = np.array([sample_tilted_cluster(AR1_CLUSTER, seed=s).sum() for s in range(200)])
    oracle_mc = tilted_draws.mean() / (1.0 - ALPHA)
    assert abs(oracle_mc - oracle) < 1e-6  # deterministic geometric cluster sum
    vals = ar1_ratio_5k["ratio_max"]
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    z = (vals.mean() - oracle) / se
    report(9, abs(z) <= 3.0,
           f"AR(1) sum/max mean {vals.mean():.4f} vs oracle {oracle:.1f} (z = {z:+.2f})")


def test_criterion_10_coupling_decay():
    q = 0.4
    series = coupling_decay(AR1_POS, q=q, t_max=25, reps=6000, seed=109)
    target = q * math.log(0.5)
    ok = abs(series.fitted_log_slope - target) <= 0.1 * abs(target)
    report(10, ok, f"coupling decay slope {series.fitted_log_slope:.4f} "
                   f"vs {target:.4f} (tol 10%)")


def test_criterion_11_distributional_convergence(iid_ratio_5k):
    draws = sample_limit_batch_parallel(IID_CLUSTER, 2.0, reps=5000,
                                        n_terms=4000, seed=110, workers=WORKERS)
    limit_ratio = draws["xi"] / draws["eta"]
    d = ks_distance(iid_ratio_5k["ratio_max"], limit_ratio)
    report(11, d <= 0.03, f"KS(sum/max, series ratio) = {d:.4f} (tol 0.03)")


def test_criterion_12_property_suites(forced_pool):
    cases = 1000
    rng = substream(111)
    lines = []

    # cluster normalization: sum |Q|^alpha = 1 within truncation error
    ok_norm = True
    for k in range(cases):
        phi = float(rng.uniform(-0.9, 0.9))
        if abs(phi) < 1e-3:
            phi = 0.5
        alpha = float(rng.uniform(0.2, 1.8))
        d = sample_cluster(ar1_cluster(phi, alpha), seed=k)
        mass = float(np.sum(np.abs(d.values) ** alpha))
        ok_norm &= (1.0 - d.truncation_error - 1e-12) <= mass <= 1.0 + 1e-12
    lines.append(("cluster normalization", ok_norm))

    # l^p monotonicity of the moduli on heavy-tailed data
    x = rng.pareto(0.7, size=(cases, 100)) + 1e-9
    bs = batch_stats(x * np.where(rng.random((cases, 100)) < 0.5, 1.0, -1.0), ps=(0.5, 1.0, 2.0, 4.0))
    ok_mono = bool(
        np.all(bs["gamma_0.5"] >= bs["gamma_1"] * (1 - 1e-12))
        and np.all(bs["gamma_1"] >= bs["gamma_2"] * (1 - 1e-12))
        and np.all(bs["gamma_2"] >= bs["gamma_4"] * (1 - 1e-12))
    )
    lines.append(("lp monotonicity", ok_mono))

    # exact scale invariance of every ratio statistic
    c = rng.uniform(0.1, 10.0, size=(cases, 1))
    b1 = batch_stats(x, ps=(1.0, 2.0))
    b2 = batch_stats(c * x, ps=(1.0, 2.0))
    gw1 = np.sum((x / x.max(axis=1, keepdims=True)) ** 2, axis=1) / np.sum(x / x.max(axis=1, keepdims=True), axis=1) ** 2
    xc = c * x
    gw2 = np.sum((xc / xc.max(axis=1, keepdims=True)) ** 2, axis=1) / np.sum(xc / xc.max(axis=1, keepdims=True), axis=1) ** 2
    ok_scale = bool(
        np.allclose(b1["sum"] / b1["max_abs"], b2["sum"] / b2["max_abs"], rtol=1e-10)
        and np.allclose(b1["sum"] / b1["gamma_2"], b2["sum"] / b2["gamma_2"], rtol=1e-10)
        and np.allclose(b1["gamma_2"] / b1["gamma_1"], b2["gamma_2"] / b2["gamma_1"], rtol=1e-10)
        and np.allclose(gw1, gw2, rtol=1e-10)
    )
    lines.append(("scale invariance", ok_scale))

    # CF conjugate symmetry and modulus bound
    ok_cf = True
    for _ in range(cases):
        u = float(rng.uniform(0.05, 4.0))
        alpha = float(rng.uniform(0.2, 1.8))
        if abs(alpha - 1.0) < 1e-2:
            alpha = 0.5
        qp = float(rng.uniform(0.0, 1.0))
        cl = iid_cluster(alpha, (qp, 1.0 - qp))
        a = stable_cf(u, cl).value
        b = stable_cf(-u, cl).value
        ok_cf &= abs(b - a.conjugate()) <= 1e-12 and abs(a) <= 1.0 + 1e-12
    lines.append(("CF conjugate symmetry", ok_cf))

    # complete monotonicity of the zeta Laplace transform
    lams = np.linspace(0.05, 6.0, 50)
    ok_cm = True
    for _ in range(20):
        phi = float(rng.uniform(0.05, 0.9))
        alpha = float(rng.uniform(0.2, 1.5))
        vals = np.array([laplace_zeta(l, ar1_cluster(phi, alpha), p=alpha + 1.0).value.real for l in lams])
        ok_cm &= bool(np.all(np.diff(vals) <= 1e-15) and np.all(np.diff(np.diff(vals)) >= -1e-15))
    lines.append(("complete monotonicity", ok_cm))

    # parallel/serial bit equality
    specs = [{"name": "ratio_max"}, {"name": "studentized", "p": 2.0}]
    a = simulate_statistics(AR1_POS, 2000, 48, specs, seed=112, workers=1)
    b = simulate_statistics(AR1_POS, 2000, 48, specs, seed=112, workers=3)
    ok_par = all(np.array_equal(a[k], b[k]) for k in a)
    lines.append(("parallel/serial bit equality", ok_par))

    ok = all(flag for _, flag in lines)
    detail = ", ".join(f"{name}: {'ok' if flag else 'FAIL'}" for name, flag in lines)
    report(12, ok, f"property suites ({cases} cases each): {detail}")

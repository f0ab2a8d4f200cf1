import warnings

import pytest
import scipy.integrate

from selfnorm import NoiseSpec, SRELaw, ar1_model, iid_model, sre_model


@pytest.fixture(scope="session")
def pareto_pos_half():
    """iid positive Pareto, alpha = 0.5."""
    return iid_model(NoiseSpec("pareto", 0.5, (1.0, 0.0)))


@pytest.fixture(scope="session")
def pareto_sym_half():
    return iid_model(NoiseSpec("pareto", 0.5, (0.5, 0.5)))


@pytest.fixture(scope="session")
def ar1_pos_half():
    """AR(1), phi = 0.5, positive Pareto(0.5) noise."""
    return ar1_model(0.5, NoiseSpec("pareto", 0.5, (1.0, 0.0)))


@pytest.fixture(scope="session")
def sre_lognormal():
    return sre_model(SRELaw(alpha=1.2, sigma=1.0))


def assert_within_se(value, target, se, k=3.0, floor=1e-12):
    assert abs(value - target) <= k * max(se, floor), (
        f"value {value} vs target {target}: off by {abs(value - target):.4g} > {k} * se ({se:.4g})"
    )


@pytest.fixture(scope="session")
def within_se():
    return assert_within_se


@pytest.fixture
def forced_pool(monkeypatch):
    """Every submit at more than one worker goes to the pool, however little
    work it holds, so a worker-count test compares driver and workers."""
    from selfnorm import _pool

    monkeypatch.setattr(_pool, "_POOL_VALUES", 0)


@pytest.fixture
def warning_quad(monkeypatch):
    """``scipy.integrate.quad`` that raises one IntegrationWarning per call."""
    quad = scipy.integrate.quad

    def warn_then_quad(*args, **kwargs):
        warnings.warn("roundoff", scipy.integrate.IntegrationWarning)
        return quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", warn_then_quad)

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from ambicap import ParametricFamily, StateSpace
from ambicap.stock import (
    dual_self_model,
    model_5051,
    model_reflection,
    triangle_model,
)

settings.register_profile(
    "default",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def states4() -> StateSpace:
    return StateSpace(("red", "blue", "green", "purple"))


@pytest.fixture(scope="session")
def states3() -> StateSpace:
    return StateSpace(("s1", "s2", "s3"))


@pytest.fixture(scope="session")
def urn_model():
    return model_5051()


@pytest.fixture(scope="session")
def reflection_model():
    return model_reflection()


@pytest.fixture(scope="session")
def slices_model():
    return dual_self_model()


@pytest.fixture(scope="session")
def triangle():
    return triangle_model()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _random_parametric_family(states, rng, grid_resolution=5):
    """Affine family whose vertices at theta are convex combinations of
    random priors, so every member is valid; the cost is grounded."""
    n, k = len(states), int(rng.integers(1, 4))
    base = rng.dirichlet(np.ones(n), size=int(rng.integers(1, 5)))
    coefs = np.stack(
        [(rng.dirichlet(np.ones(n), size=len(base)) - base) / k for _ in range(k)]
    )
    cost_coefs = rng.uniform(-5.0, 5.0, k)
    cost_base = -np.minimum(cost_coefs, 0.0).sum()
    return ParametricFamily(states, base, coefs, cost_base, cost_coefs, grid_resolution)


@pytest.fixture
def random_parametric_family():
    return _random_parametric_family

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import ambicap.model as model_module
from ambicap import EvaluationResult, FiniteFamily, ParametricFamily, StateSpace
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


@pytest.fixture(scope="session")
def random_parametric_family():
    return _random_parametric_family


def _always_lp_evaluate(model, P, grid=None):
    """``evaluate`` without the grid certificate, as an oracle: on a
    parametric family the max variants solve the epigraph LP on every
    lottery, and its theta* joins the perceptions when it is off the grid
    and within eps_opt of the value.  The candidates are scored by
    ``grid``, a model on the same variant whose candidates are the grid
    points in order (the model itself by default)."""
    scores = model_module._scores(grid or model, P.probs[None], P.payoff_matrix[None])[:, 0]
    sign = 1.0 if model_module._IS_MAX[model.variant] else -1.0
    value = float(sign * np.max(sign * scores))
    lp = None
    if sign > 0.0 and model.is_parametric:
        lp = model_module._parametric_lp_max(model, P.probs, P.payoff_matrix)
        value = model_module._with_lp(value, lp)
    eps = 1e-9 * max(1.0, abs(value))
    keep = np.flatnonzero(sign * scores >= sign * value - eps)
    if isinstance(model.family, FiniteFamily):
        return EvaluationResult(value, value, tuple(int(i) for i in keep))
    perceptions = [tuple(float(x) for x in model.family.thetas[i]) for i in keep]
    if lp is not None and lp[1] >= value - eps:
        t_star = tuple(float(x) for x in lp[0])
        if all(max(abs(a - b) for a, b in zip(t_star, p)) > 1e-12 for p in perceptions):
            perceptions.append(t_star)
    return EvaluationResult(value, value, tuple(sorted(perceptions)))


@pytest.fixture
def always_lp_evaluate():
    return _always_lp_evaluate

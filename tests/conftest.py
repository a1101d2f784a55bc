import numpy as np
import pytest

from constructal import AssemblyConfig, ProjectedGradient, TransportCosts, optimum_state, state_box


CANONICAL_K = (1.0, 0.5, 0.25, 0.125)


@pytest.fixture(scope="session")
def costs():
    return TransportCosts(K=CANONICAL_K)


@pytest.fixture(scope="session")
def cfg(costs):
    return AssemblyConfig.bejan(costs)


@pytest.fixture(scope="session")
def box(costs, cfg):
    return state_box(costs, cfg)


@pytest.fixture(scope="session")
def x_star(costs, cfg):
    return optimum_state(costs, cfg)


@pytest.fixture(scope="session")
def pg_mode():
    return ProjectedGradient(mobility=1.0)


@pytest.fixture
def third_projection_fails(monkeypatch):
    """_Field.project raising SingularSlidingError, with no time, on its
    third call with algebraic rows: on configs/equivalent_control.cfg that
    is a trial state's projection inside the step from t = 0.3."""
    from constructal import dynamics
    from constructal.errors import SingularSlidingError

    project, calls = dynamics._Field.project, []

    def failing(self, Y, algebraic, tol):
        if algebraic.any():
            calls.append(tol)
            if len(calls) == 3:
                raise SingularSlidingError("sliding block on coordinates [2] is singular")
        return project(self, Y, algebraic, tol)

    monkeypatch.setattr(dynamics._Field, "project", failing)


def random_ladder(rng, p=3):
    """Strictly decreasing ladder whose optimum sits inside the default box."""
    ratios = rng.uniform(0.3, 0.9, p)
    K = [1.0]
    for rho in ratios:
        K.append(K[-1] * rho)
    return TransportCosts(K=tuple(K))


def interior_states(rng, count, lo_r=0.2, hi_r=2.0, lo_n=2.0, hi_n=30.0, p=3):
    r = rng.uniform(lo_r, hi_r, (count, p))
    n = rng.uniform(lo_n, hi_n, (count, p - 1))
    return np.hstack([r, n])

import numpy as np
import pytest

import projcalc as pc

P_GRID = [1.5, 2.0, 3.0, 4.0]


def random_primal(space, rng, scale=1.0):
    return space.primal(scale * rng.standard_normal(space.n))


def random_dual(space, rng, scale=1.0):
    return space.dual(scale * rng.standard_normal(space.n))


def unit_primal(space, rng):
    x = random_primal(space, rng)
    while pc.norm_primal(x) <= space.theta_tol:
        x = random_primal(space, rng)
    return (1.0 / pc.norm_primal(x)) * x


def theta_verdict(fiber):
    """The theta*-verdict of a ball or cylinder boundary fiber: a
    ThetaMembership's own; the empty fiber of the query J(xbar) holds nothing."""
    if isinstance(fiber, pc.EmptyFiber):
        return pc.Verdict.NOT_MEMBER
    assert isinstance(fiber, pc.ThetaMembership)
    return fiber.verdict


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)

"""Deterministic instance generation."""

import numpy as np
import pytest

import projcalc as pc
from projcalc.instances import gen_instance, make_weights, sample_in_set


def test_boundary_ball_is_exact():
    sp, set_, x = gen_instance("ball", "boundary", 7)
    assert abs(pc.norm_primal(x) - set_.r) <= 1e-14 * set_.r


def test_exterior_cylinder_has_margin():
    sp, set_, x = gen_instance("cylinder", "exterior", 7)
    assert pc.norm_primal(pc.mask_restrict(x, set_.mask)) > set_.r + 0.1


def test_cone_boundary_has_zero_and_positive_coordinates():
    sp, set_, f = gen_instance("cone", "boundary", 7)
    assert np.any(f.coords == 0.0)
    assert np.any(f.coords > 0.0)


def test_cone_regimes():
    _, _, interior = gen_instance("cone", "interior", 3)
    assert np.all(interior.coords > 0.0)
    _, _, exterior = gen_instance("cone", "exterior", 3)
    assert np.any(exterior.coords < 0.0)


def test_reproducible_across_calls():
    a = gen_instance("cylinder", "boundary", 41, n=12, p=3.0, weights_mode="random")
    b = gen_instance("cylinder", "boundary", 41, n=12, p=3.0, weights_mode="random")
    assert np.array_equal(a[2].coords, b[2].coords)
    assert a[1].mask == b[1].mask
    assert np.array_equal(a[0].weights, b[0].weights)
    c = gen_instance("cylinder", "boundary", 42, n=12, p=3.0, weights_mode="random")
    assert not np.array_equal(a[2].coords, c[2].coords)


def test_subspace_regimes():
    _, sub, inside = gen_instance("subspace", "interior", 5)
    assert pc.set_contains(sub, inside)
    _, sub, outside = gen_instance("subspace", "exterior", 5)
    assert not pc.set_contains(sub, outside)


@pytest.mark.parametrize("kind, regime", [("ball", "bogus"), ("bogus", "interior")])
def test_unknown_kind_or_regime_is_a_precondition_error(kind, regime):
    with pytest.raises(pc.PreconditionError, match="unknown instance kind"):
        gen_instance(kind, regime, 0)


def test_unknown_weights_mode_is_a_precondition_error():
    with pytest.raises(pc.PreconditionError, match="unknown weights mode"):
        make_weights(4, "bogus", np.random.default_rng(0))


SAMPLED_SETS = [
    pc.Ball(1.0),
    pc.Cylinder(1.0, frozenset({0})),
    pc.PositiveCone(),
    pc.CoordSubspace(frozenset({1})),
]


@pytest.mark.parametrize("set_", SAMPLED_SETS, ids=lambda s: type(s).__name__)
def test_negative_sample_count_is_a_precondition_error(set_):
    rng = np.random.default_rng(3)
    with pytest.raises(pc.PreconditionError, match="nonnegative"):
        sample_in_set(set_, pc.SpaceConfig(n=3, p=2.0), rng, -1)
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


def test_unknown_set_is_an_unsupported_set_error():
    rng = np.random.default_rng(3)
    with pytest.raises(pc.UnsupportedSetError, match="unknown set variant"):
        sample_in_set(object(), pc.SpaceConfig(n=3, p=2.0), rng, 2)
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state

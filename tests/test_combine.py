"""Every public function that combines points rejects a point of the wrong
kind or from another space with ``DimensionMismatchError``.

Each call site is crossed with four mismatches: another dimension n, another
exponent p, other weights, and the other kind (primal for dual or dual for
primal). The ball and cylinder fibers are tried at interior, exterior and
boundary base points, since each region takes its own branch, and at the
boundary also with the query -J(xbar), whose fiber holds theta*. A function
given a single point rejects a point of the wrong kind the same way.
"""

import numpy as np
import pytest

import projcalc as pc

SP = pc.SpaceConfig(n=2, p=3.0)
BALL = pc.Ball(1.0)
MASK = frozenset({0})
CFG = pc.OracleConfig(directions_per_radius=8)

OTHER_SPACES = {
    "n": pc.SpaceConfig(n=3, p=3.0),
    "p": pc.SpaceConfig(n=2, p=2.0),
    "weights": pc.SpaceConfig(n=2, p=3.0, weights=[1.0, 2.0]),
}


def _mismatched(point, mismatch):
    """The same coordinates as another kind, or as the same kind in another
    space (padded with zeros when that space is larger)."""
    if mismatch == "kind":
        other = pc.DualPoint if isinstance(point, pc.PrimalPoint) else pc.PrimalPoint
        return other(point.coords, point.space)
    sp = OTHER_SPACES[mismatch]
    coords = np.zeros(sp.n)
    coords[: point.space.n] = point.coords
    return type(point)(coords, sp)


x_in, x_out, x_bd = SP.primal([0.5, 0.3]), SP.primal([2.0, 0.3]), SP.primal([1.0, 0.0])
v, ys = SP.primal([0.2, -0.7]), SP.dual([-1.0, 0.4])
u = pc.project(BALL, x_out)
f, phi = SP.primal([0.0, 1.0]), SP.dual([0.5, 0.0])
anchor = pc.Anchor.at(x_out)

# name -> call of one mismatched point b(.) among otherwise valid arguments.
CALLS = {
    "add": lambda b: x_in + b(v),
    "sub": lambda b: x_in - b(v),
    "pair-primal": lambda b: pc.pair(ys, b(v)),
    "pair-dual": lambda b: pc.pair(b(ys), v),
    "smoothness": lambda b: pc.smoothness(x_out, b(v)),
    "variational_residual-u": lambda b: pc.variational_residual(BALL, x_out, b(u), [x_in]),
    "variational_residual-competitor": lambda b: pc.variational_residual(
        BALL, x_out, u, [x_in, b(x_in)]
    ),
    "classify_direction": lambda b: pc.classify_direction(BALL, x_bd, b(v)),
    "frechet_apply-interior": lambda b: pc.frechet_apply(BALL, x_in, b(v)),
    "frechet_apply-exterior": lambda b: pc.frechet_apply(BALL, x_out, b(v)),
    "gateaux_fd": lambda b: pc.gateaux_fd(BALL, x_in, b(v)),
    "coderiv_ball-interior": lambda b: pc.coderiv_ball(1.0, x_in, b(ys)),
    "coderiv_ball-exterior": lambda b: pc.coderiv_ball(1.0, x_out, b(ys)),
    "coderiv_ball-boundary": lambda b: pc.coderiv_ball(1.0, x_bd, b(ys)),
    "coderiv_cylinder-interior": lambda b: pc.coderiv_cylinder(1.0, MASK, x_in, b(ys)),
    "coderiv_cylinder-exterior": lambda b: pc.coderiv_cylinder(1.0, MASK, x_out, b(ys)),
    "coderiv_cylinder-boundary": lambda b: pc.coderiv_cylinder(1.0, MASK, x_bd, b(ys)),
    "coderiv_ball-boundary-theta": lambda b: pc.coderiv_ball(
        1.0, x_bd, b(SP.dual([-1.0, 0.0]))
    ),
    "coderiv_cylinder-boundary-theta": lambda b: pc.coderiv_cylinder(
        1.0, MASK, x_bd, b(SP.dual([-1.0, 0.0]))
    ),
    "cone_theta_member": lambda b: pc.cone_theta_member(f, b(phi)),
    "cone_fiber-f": lambda b: pc.cone_fiber(b(f), phi),
    "cone_fiber-psi": lambda b: pc.cone_fiber(f, b(phi)),
    "contains": lambda b: pc.contains(pc.cone_fiber(SP.zero_primal(), phi), b(phi)),
    "quotient-u": lambda b: pc.quotient_denominator_pair(BALL, x_out, ys, ys, b(x_in)),
    "quotient-xstar": lambda b: pc.quotient_denominator_pair(BALL, x_out, b(ys), ys, x_in),
    "quotient-ystar": lambda b: pc.quotient_denominator_pair(BALL, x_out, ys, b(ys), x_in),
    "structured_probes-xstar": lambda b: pc.oracle.structured_probes(BALL, x_out, b(ys), ys),
    "structured_probes-ystar": lambda b: pc.oracle.structured_probes(BALL, x_out, ys, b(ys)),
    "test_membership-xstar": lambda b: pc.test_membership(BALL, x_out, b(ys), ys, CFG),
    "test_membership-ystar": lambda b: pc.test_membership(BALL, x_out, ys, b(ys), CFG),
    "a_coef": lambda b: pc.a_coef(anchor, b(v)),
    "o_part": lambda b: pc.o_part(anchor, b(v)),
    "a_star": lambda b: pc.a_star(anchor, b(ys)),
    "o_star": lambda b: pc.o_star(anchor, b(ys)),
    "in_O": lambda b: pc.in_O(anchor, b(v)),
}


@pytest.mark.parametrize("mismatch", ["n", "p", "weights", "kind"])
@pytest.mark.parametrize("call", CALLS)
def test_mismatched_point_raises(call, mismatch):
    with pytest.raises(pc.DimensionMismatchError) as exc:
        CALLS[call](lambda pt: _mismatched(pt, mismatch))
    assert isinstance(exc.value, pc.ProjcalcError) and isinstance(exc.value, TypeError)


@pytest.mark.parametrize("call", CALLS)
def test_matching_points_pass(call):
    CALLS[call](lambda pt: pt)


# name -> call of a single point b(.) that must be of the other kind.
SINGLE = {
    "norm_primal": lambda b: pc.norm_primal(b(v)),
    "norm_dual": lambda b: pc.norm_dual(b(ys)),
    "duality_map": lambda b: pc.duality_map(b(v)),
    "duality_map_inv": lambda b: pc.duality_map_inv(b(ys)),
    "project": lambda b: pc.project(BALL, b(x_out)),
    "set_contains": lambda b: pc.set_contains(BALL, b(x_in)),
    "classify_region": lambda b: pc.classify_region(BALL, b(x_out)),
    "nonsmoothness_witness": lambda b: pc.nonsmoothness_witness(BALL, b(x_bd)),
    "Anchor.at": lambda b: pc.Anchor.at(b(x_out)),
}


@pytest.mark.parametrize("call", SINGLE)
def test_single_point_of_the_wrong_kind_raises(call):
    with pytest.raises(pc.DimensionMismatchError):
        SINGLE[call](lambda pt: _mismatched(pt, "kind"))
    SINGLE[call](lambda pt: pt)

"""The ball as the full-mask cylinder, the shared oracle quotient, and
typed errors for non-finite input."""

import numpy as np
import pytest

import projcalc as pc

from conftest import P_GRID, boundary_point, random_dual, random_primal


def _bits(certs):
    return [(c.holds, c.slack) for c in certs]


def _spaces(rng):
    for p in P_GRID:
        yield pc.SpaceConfig(n=5, p=p, weights=rng.uniform(0.5, 2.0, 5))


class TestBallIsFullMaskCylinder:
    def test_projection_and_derivative_agree_bit_for_bit(self, rng):
        for sp in _spaces(rng):
            ball, full = pc.Ball(1.3), pc.Cylinder(1.3, frozenset(range(sp.n)))
            for scale in (0.5, 3.0):
                x = random_primal(sp, rng, scale)
                v = random_primal(sp, rng)
                assert np.array_equal(pc.project(ball, x).coords, pc.project(full, x).coords)
                if pc.classify_region(ball, x).kind is not pc.RegionKind.BOUNDARY:
                    a = pc.frechet_apply(ball, x, v)
                    b = pc.frechet_apply(full, x, v)
                    assert np.array_equal(a.coords, b.coords)

    def test_fibers_agree_bit_for_bit(self, rng):
        for sp in _spaces(rng):
            mask = frozenset(range(sp.n))
            outside = 3.0 * boundary_point(sp, pc.Ball(1.0), rng)
            ys = random_dual(sp, rng)
            a = pc.coderiv_ball(1.0, outside, ys)
            b = pc.coderiv_cylinder(1.0, mask, outside, ys)
            assert np.array_equal(a.value.coords, b.value.coords)

            xb = boundary_point(sp, pc.Ball(1.0), rng)
            jx = pc.duality_map(xb)
            for query in (-0.7 * jx, ys, pc.o_star(pc.Anchor.at(xb), ys)):
                ball = pc.sphere_theta_member(1.0, xb, query)
                cyl = pc.cylinder_theta_member(1.0, mask, xb, query)
                assert ball.verdict is cyl.verdict
                # The cylinder lists its unmasked-tail test first; the ball
                # lists its uniformly-convex evidence after the direction test.
                assert _bits(ball.certificates[:2]) == _bits(cyl.certificates[1:3])
                if len(cyl.certificates) == 4:
                    assert _bits(ball.certificates[-1:]) == _bits(cyl.certificates[-1:])

    def test_zero_direction_is_degenerate_for_every_radial_set(self):
        sp = pc.SpaceConfig(n=3, p=3.0)
        xb = sp.primal([1.0, 0.0, 5.0])
        for set_ in (pc.Cylinder(1.0, frozenset({0, 1})), pc.Cylinder(1.0, frozenset({0}))):
            with pytest.raises(pc.DegenerateInputError):
                pc.classify_direction(set_, xb, sp.zero_primal())


@pytest.mark.parametrize(
    "set_",
    [
        pc.Ball(1.0),
        pc.Cylinder(1.0, frozenset({0, 2, 3})),
        pc.CoordSubspace(frozenset({1, 4})),
        pc.PositiveCone(),
    ],
    ids=["ball", "cylinder", "subspace", "cone"],
)
def test_witness_quotient_reproduces_bit_for_bit(rng, set_):
    # The oracle's block pass and coderiv_quotient's one-row pass share one
    # kernel, so the recorded witness quotient comes back exactly.
    sp = pc.SpaceConfig(n=6, p=3.0, weights=rng.uniform(0.5, 2.0, 6))
    if isinstance(set_, (pc.Ball, pc.Cylinder)):
        xb = boundary_point(sp, set_, rng)
    else:
        xb = random_primal(sp, rng)
    xs = random_dual(sp, rng)
    ys = pc.duality_map(xb)
    cfg = pc.OracleConfig(directions_per_radius=16, seed=3)
    verdict = pc.test_membership(set_, xb, xs, ys, cfg)
    assert isinstance(verdict, pc.RejectedWithWitness)
    assert pc.coderiv_quotient(set_, xb, xs, ys, verdict.u) == verdict.quotient


class TestNonFinite:
    def test_non_finite_coordinates_raise_a_typed_value_error(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        for bad in ([1.0, np.inf], [np.nan, 0.0]):
            with pytest.raises(pc.NonFiniteError) as exc:
                sp.primal(bad)
            assert isinstance(exc.value, pc.ProjcalcError)
            assert isinstance(exc.value, ValueError)
            with pytest.raises(pc.NonFiniteError):
                sp.dual(bad)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_norm_raises_instead_of_projecting_to_the_origin(self):
        sp = pc.SpaceConfig(n=4, p=10.0)
        x = sp.primal(np.array([1.0, -2.0, 0.5, 0.0]) * 1e40)
        with pytest.raises(pc.NonFiniteError):
            pc.norm_primal(x)
        with pytest.raises(pc.NonFiniteError):
            pc.project(pc.Ball(1.0), x)
        with pytest.raises(pc.NonFiniteError):
            pc.set_contains(pc.Ball(1.0), x)
        with pytest.raises(pc.NonFiniteError):
            pc.norm_dual(sp.dual([1e300, -1e300, 0.0, 0.0]))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_pairing_raises(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        with pytest.raises(pc.NonFiniteError):
            pc.pair(sp.dual([1e200, 0.0]), sp.primal([1e200, 0.0]))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_quotient_numerator_raises_instead_of_witnessing(self):
        # No norm of x* is taken without structured probes, so only the
        # numerator's pairing sees the overflow; it used to give quotient inf.
        sp = pc.SpaceConfig(n=2, p=2.0)
        ball, xb, xs = pc.Ball(1.0), sp.zero_primal(), sp.dual([1e305, 0.0])
        with pytest.raises(pc.NonFiniteError):
            pc.coderiv_quotient(ball, xb, xs, sp.zero_dual(), sp.primal([1e5, 0.0]))
        cfg = pc.OracleConfig(radii=(1e5, 1e4), directions_per_radius=8, structured_probes=False)
        with pytest.raises(pc.NonFiniteError):
            pc.test_membership(ball, xb, xs, sp.zero_dual(), cfg)

"""Closed-form derivatives vs. finite differences; boundary nonsmoothness."""

import numpy as np
import pytest

import projcalc as pc
from conftest import P_GRID, random_primal
from projcalc.derivatives import DEFAULT_SCHEDULE
from projcalc.instances import point_at_norm


def exterior_point(sp, set_, rng):
    x = random_primal(sp, rng)
    if isinstance(set_, pc.Ball):
        return (set_.r * rng.uniform(1.2, 2.5) / pc.norm_primal(x)) * x
    xm = pc.mask_restrict(x, set_.mask)
    while pc.norm_primal(xm) <= sp.theta_tol:
        x = random_primal(sp, rng)
        xm = pc.mask_restrict(x, set_.mask)
    return (set_.r * rng.uniform(1.2, 2.5) / pc.norm_primal(xm)) * xm + (x - xm)


def interior_point(sp, set_, rng):
    x = random_primal(sp, rng)
    if isinstance(set_, pc.Ball):
        return (set_.r * rng.uniform(0.1, 0.8) / pc.norm_primal(x)) * x
    xm = pc.mask_restrict(x, set_.mask)
    while pc.norm_primal(xm) <= sp.theta_tol:
        x = random_primal(sp, rng)
        xm = pc.mask_restrict(x, set_.mask)
    return (set_.r * rng.uniform(0.1, 0.8) / pc.norm_primal(xm)) * xm + (x - xm)


class TestClassifyDirection:
    def test_euclidean_examples(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        ball = pc.Ball(1.0)
        xb = sp.primal([1.0, 0.0])
        up = pc.classify_direction(ball, xb, sp.primal([1.0, 0.0]))
        assert up.kind is pc.DirectionKind.UP and up.slope == pytest.approx(1.0)
        down = pc.classify_direction(ball, xb, sp.primal([-1.0, 0.0]))
        assert down.kind is pc.DirectionKind.DOWN and down.slope == pytest.approx(-1.0)
        tangent = pc.classify_direction(ball, xb, sp.primal([0.0, 1.0]))
        assert tangent.kind is pc.DirectionKind.UP
        assert tangent.slope == pytest.approx(0.0, abs=1e-14)

    def test_cylinder_unmasked_direction_is_down(self):
        sp = pc.SpaceConfig(n=3, p=2.0)
        cyl = pc.Cylinder(1.0, frozenset({0, 1}))
        xb = sp.primal([1.0, 0.0, 5.0])
        cls = pc.classify_direction(cyl, xb, sp.primal([0.0, 0.0, 1.0]))
        assert cls.kind is pc.DirectionKind.DOWN

    def test_preconditions(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        ball = pc.Ball(1.0)
        with pytest.raises(pc.NotOnBoundaryError):
            pc.classify_direction(ball, sp.primal([0.5, 0.0]), sp.primal([1.0, 0.0]))
        with pytest.raises(pc.DegenerateInputError):
            pc.classify_direction(ball, sp.primal([1.0, 0.0]), sp.zero_primal())

    @pytest.mark.parametrize("p", P_GRID)
    def test_matches_direct_norm_evaluation(self, p, rng):
        # 125 seeded boundary pairs per exponent. An "up" call with positive
        # slope must exceed the radius at every step (convexity of the norm
        # along the ray); a "down" call only promises a small-t window, so it
        # is checked at the tail of the schedule. Directions are redrawn when
        # the slope is tiny and neither behaviour is resolvable.
        sp = pc.SpaceConfig(n=6, p=p)
        for kind in ["ball", "cylinder"]:
            set_ = pc.Ball(1.0) if kind == "ball" else pc.Cylinder(1.0, frozenset({0, 1, 2}))
            for _ in range(125):
                xb = point_at_norm(sp, set_, rng, set_.r)
                v = random_primal(sp, rng)
                cls = pc.classify_direction(set_, xb, v)
                while abs(cls.slope) < 0.05:
                    v = random_primal(sp, rng)
                    cls = pc.classify_direction(set_, xb, v)
                up = cls.kind is pc.DirectionKind.UP
                for t in DEFAULT_SCHEDULE.steps:
                    if not up and t > 1e-4:
                        continue
                    moved = xb + t * v
                    if isinstance(set_, pc.Cylinder):
                        moved = pc.mask_restrict(moved, set_.mask)
                    exceeds = pc.norm_primal(moved) > set_.r
                    assert exceeds == up


class TestFrechetApply:
    def test_identity_inside(self, rng):
        sp = pc.SpaceConfig(n=4, p=3.0)
        ball = pc.Ball(1.0)
        x = interior_point(sp, ball, rng)
        v = random_primal(sp, rng)
        out = pc.frechet_apply(ball, x, v)
        assert np.array_equal(out.coords, v.coords)

    def test_exterior_euclidean_frozen_value(self):
        # central difference of the radial projection at (2,0) along (0,1)
        # gives (0, 1/2)
        sp = pc.SpaceConfig(n=2, p=2.0)
        out = pc.frechet_apply(pc.Ball(1.0), sp.primal([2.0, 0.0]), sp.primal([0.0, 1.0]))
        assert np.allclose(out.coords, [0.0, 0.5], atol=1e-14)

    def test_boundary_raises(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        with pytest.raises(pc.NoDerivativeError):
            pc.frechet_apply(pc.Ball(1.0), sp.primal([1.0, 0.0]), sp.primal([0.0, 1.0]))
        with pytest.raises(pc.UnsupportedSetError):
            pc.frechet_apply(pc.PositiveCone(), sp.primal([1.0, 1.0]), sp.primal([0.0, 1.0]))

    def test_annihilates_the_base_point_outside(self, rng):
        for p in P_GRID:
            sp = pc.SpaceConfig(n=5, p=p)
            ball = pc.Ball(1.0)
            xb = exterior_point(sp, ball, rng)
            assert pc.norm_primal(pc.frechet_apply(ball, xb, xb)) <= 1e-10
            cyl = pc.Cylinder(1.0, frozenset({0, 1}))
            xb = exterior_point(sp, cyl, rng)
            out = pc.frechet_apply(cyl, xb, xb)
            tail = xb - pc.mask_restrict(xb, cyl.mask)
            assert pc.norm_primal(out - tail) <= 1e-10 * max(1.0, pc.norm_primal(tail))

    def test_range_is_tangent_at_the_base_point(self, rng):
        for p in P_GRID:
            sp = pc.SpaceConfig(n=5, p=p)
            ball = pc.Ball(1.0)
            xb = exterior_point(sp, ball, rng)
            jx = pc.duality_map(xb)
            for _ in range(10):
                v = random_primal(sp, rng)
                out = pc.frechet_apply(ball, xb, v)
                assert abs(pc.pair(jx, out)) <= 1e-9 * max(1.0, pc.norm_primal(v))

    def test_linearity(self, rng):
        sp = pc.SpaceConfig(n=5, p=1.5)
        cyl = pc.Cylinder(1.0, frozenset({0, 2}))
        xb = exterior_point(sp, cyl, rng)
        for _ in range(20):
            v, w = random_primal(sp, rng), random_primal(sp, rng)
            al, be = rng.uniform(-2, 2), rng.uniform(-2, 2)
            lhs = pc.frechet_apply(cyl, xb, al * v + be * w)
            rhs = al * pc.frechet_apply(cyl, xb, v) + be * pc.frechet_apply(cyl, xb, w)
            assert pc.norm_primal(lhs - rhs) <= 1e-10 * max(1.0, pc.norm_primal(rhs))

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("kind", ["ball", "cylinder"])
    def test_agrees_with_forward_differences(self, p, kind, rng):
        sp = pc.SpaceConfig(n=5, p=p)
        set_ = pc.Ball(1.0) if kind == "ball" else pc.Cylinder(1.0, frozenset({0, 1, 4}))
        for maker in (interior_point, exterior_point):
            for _ in range(15):
                x = maker(sp, set_, rng)
                for _ in range(3):
                    v = random_primal(sp, rng)
                    closed = pc.frechet_apply(set_, x, v)
                    fd = pc.gateaux_fd(set_, x, v)
                    assert fd.converged
                    gap = pc.norm_primal(closed - fd.value)
                    assert gap <= 1e-4 * max(1.0, pc.norm_primal(v))


class TestGateauxFD:
    def test_interior_returns_the_direction(self, rng):
        sp = pc.SpaceConfig(n=3, p=3.0)
        ball = pc.Ball(1.0)
        x = interior_point(sp, ball, rng)
        v = random_primal(sp, rng)
        fd = pc.gateaux_fd(ball, x, v)
        assert pc.norm_primal(fd.value - v) <= 1e-6 * max(1.0, pc.norm_primal(v))

    def test_cone_kink_quotient(self):
        # P((1+t, -1+t)) = (1+t, 0) for small t, so the quotient is (1, 0)
        sp = pc.SpaceConfig(n=2, p=2.0)
        fd = pc.gateaux_fd(pc.PositiveCone(), sp.primal([1.0, -1.0]), sp.primal([1.0, 1.0]))
        assert np.allclose(fd.value.coords, [1.0, 0.0], atol=1e-12)
        assert fd.converged

    def test_boundary_tangent_quotient(self):
        # ((1,t)/sqrt(1+t^2) - (1,0))/t -> (0,1)
        sp = pc.SpaceConfig(n=2, p=2.0)
        fd = pc.gateaux_fd(pc.Ball(1.0), sp.primal([1.0, 0.0]), sp.primal([0.0, 1.0]))
        assert pc.norm_primal(fd.value - sp.primal([0.0, 1.0])) <= 1e-4

    def test_zero_direction_rejected(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        with pytest.raises(pc.DegenerateInputError):
            pc.gateaux_fd(pc.Ball(1.0), sp.primal([0.5, 0.0]), sp.zero_primal())


class TestNonsmoothnessWitness:
    def test_ball_boundary_frozen_example(self):
        # one-sided quotients along +x and -x: zero and -x, defect 1
        sp = pc.SpaceConfig(n=2, p=2.0)
        w = pc.nonsmoothness_witness(pc.Ball(1.0), sp.primal([1.0, 0.0]))
        assert w is not None
        assert w.defect == pytest.approx(1.0, rel=1e-6)

    def test_cone_zero_coordinate_example(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        w = pc.nonsmoothness_witness(pc.PositiveCone(), sp.primal([0.0, 1.0]))
        assert w is not None
        assert w.defect >= 0.1 * pc.norm_primal(w.direction)

    def test_cylinder_boundary_example(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        w = pc.nonsmoothness_witness(pc.Cylinder(1.0, frozenset({0})), sp.primal([1.0, 5.0]))
        assert w is not None
        assert w.defect == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("kind", ["ball", "cylinder", "cone"])
    def test_every_constructed_boundary_point_is_witnessed(self, p, kind, rng):
        sp = pc.SpaceConfig(n=6, p=p)
        for _ in range(20):
            if kind == "cone":
                set_ = pc.PositiveCone()
                coords = np.abs(rng.standard_normal(6)) + 0.1
                zero_at = rng.integers(0, 6)
                coords[zero_at] = 0.0
                xb = sp.primal(coords)
            else:
                set_ = pc.Ball(1.0) if kind == "ball" else pc.Cylinder(1.0, frozenset({0, 1, 3}))
                xb = point_at_norm(sp, set_, rng, set_.r)
            w = pc.nonsmoothness_witness(set_, xb)
            assert w is not None
            assert w.defect >= 0.1 * pc.norm_primal(w.direction)

    def test_preconditions(self, rng):
        sp = pc.SpaceConfig(n=2, p=2.0)
        with pytest.raises(pc.NotOnBoundaryError):
            pc.nonsmoothness_witness(pc.Ball(1.0), sp.primal([0.2, 0.0]))
        with pytest.raises(pc.NotOnBoundaryError):
            pc.nonsmoothness_witness(pc.PositiveCone(), sp.primal([1.0, 2.0]))
        with pytest.raises(pc.UnsupportedSetError):
            pc.nonsmoothness_witness(pc.CoordSubspace(frozenset({0})), sp.primal([1.0, 0.0]))

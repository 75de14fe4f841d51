"""Coderivative fibers: singletons, boundary membership verdicts, cone
conditions, and order intervals."""

import numpy as np
import pytest

import projcalc as pc
from conftest import P_GRID, random_dual, random_primal
from projcalc.instances import point_at_norm

MEMBER = pc.Verdict.MEMBER
NOT_MEMBER = pc.Verdict.NOT_MEMBER


def fd_jacobian(set_, x, h=1e-6):
    """Central-difference Jacobian of the projection, column by column."""
    n = x.space.n
    eye = np.eye(n)
    cols = []
    for j in range(n):
        e = x.space.primal(eye[j])
        plus = pc.project(set_, x + h * e).coords
        minus = pc.project(set_, x - h * e).coords
        cols.append((plus - minus) / (2.0 * h))
    return np.stack(cols, axis=1)


def adjoint_action(jac, space, ystar):
    """The dual vector x* with <x*, v> = <y*, jac v> under the weighted pairing."""
    w = space.weights
    return space.dual((jac.T @ (w * ystar.coords)) / w)


def exterior_ball_point(sp, r, rng):
    x = random_primal(sp, rng)
    return (r * rng.uniform(1.2, 2.5) / pc.norm_primal(x)) * x


class TestBallSingletons:
    def test_interior_fiber_is_the_query(self, rng):
        sp = pc.SpaceConfig(n=2, p=2.0)
        res = pc.coderiv_ball(1.0, sp.primal([0.3, 0.1]), sp.dual([7.0, -3.0]))
        assert isinstance(res, pc.Singleton)
        assert np.array_equal(res.value.coords, [7.0, -3.0])

    def test_exterior_frozen_value(self):
        # adjoint of the finite-difference Jacobian at (2,0) applied to (0,1)
        sp = pc.SpaceConfig(n=2, p=2.0)
        res = pc.coderiv_ball(1.0, sp.primal([2.0, 0.0]), sp.dual([0.0, 1.0]))
        assert isinstance(res, pc.Singleton)
        assert np.allclose(res.value.coords, [0.0, 0.5], atol=1e-14)

    def test_exterior_kills_the_duality_image(self, rng):
        for p in P_GRID:
            sp = pc.SpaceConfig(n=4, p=p)
            xb = exterior_ball_point(sp, 1.0, rng)
            res = pc.coderiv_ball(1.0, xb, pc.duality_map(xb))
            assert isinstance(res, pc.Singleton)
            assert pc.norm_dual(res.value) <= 1e-10

    def test_exterior_orthogonal_query_is_rescaled(self, rng):
        for p in P_GRID:
            sp = pc.SpaceConfig(n=4, p=p)
            xb = exterior_ball_point(sp, 1.0, rng)
            anchor = pc.Anchor.at(xb)
            ys = pc.o_star(anchor, random_dual(sp, rng))
            assert abs(pc.pair(ys, xb)) <= 1e-9 * max(1.0, pc.norm_dual(ys))
            res = pc.coderiv_ball(1.0, xb, ys)
            want = (1.0 / pc.norm_primal(xb)) * ys
            assert pc.norm_dual(res.value - want) <= 1e-10 * max(1.0, pc.norm_dual(want))

    @pytest.mark.parametrize("p", P_GRID)
    def test_matches_fd_jacobian_transpose(self, p, rng):
        sp = pc.SpaceConfig(n=4, p=p, weights=np.linspace(0.6, 1.5, 4))
        ball = pc.Ball(1.0)
        for maker_scale in [0.5, 1.7]:
            x = random_primal(sp, rng)
            x = (maker_scale / pc.norm_primal(x)) * x
            jac = fd_jacobian(ball, x)
            for _ in range(5):
                ys = random_dual(sp, rng)
                res = pc.coderiv_ball(1.0, x, ys)
                want = adjoint_action(jac, sp, ys)
                gap = pc.norm_dual(res.value - want)
                assert gap <= 1e-4 * max(1.0, pc.norm_dual(ys))

    @pytest.mark.parametrize("p", P_GRID)
    def test_adjoint_identity_against_closed_form_derivative(self, p, rng):
        sp = pc.SpaceConfig(n=5, p=p)
        ball = pc.Ball(1.0)
        for scale in [0.4, 1.9]:
            x = random_primal(sp, rng)
            x = (scale / pc.norm_primal(x)) * x
            for _ in range(10):
                ys = random_dual(sp, rng)
                v = random_primal(sp, rng)
                res = pc.coderiv_ball(1.0, x, ys)
                lhs = pc.pair(res.value, v)
                rhs = pc.pair(ys, pc.frechet_apply(ball, x, v))
                scale_ref = max(1.0, pc.norm_dual(ys) * pc.norm_primal(v))
                assert abs(lhs - rhs) <= 1e-8 * scale_ref


class TestSphereMembership:
    def test_negative_duality_multiple_is_member(self):
        for p in [1.5, 2.0, 3.0]:
            sp = pc.SpaceConfig(n=2, p=p)
            xb = sp.primal([1.0, 0.0])
            m = pc.sphere_theta_member(1.0, xb, -1.0 * pc.duality_map(xb))
            assert m.verdict is MEMBER

    def test_p3_half_multiple_member(self):
        # y* = -0.5 J(x): lambda = 0.5 and theta* is the upper end of the segment
        sp = pc.SpaceConfig(n=2, p=3.0)
        m = pc.sphere_theta_member(1.0, sp.primal([1.0, 0.0]), sp.dual([-0.5, 0.0]))
        assert m.verdict is MEMBER

    def test_orthogonal_query_is_not_member(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        m = pc.sphere_theta_member(1.0, sp.primal([1.0, 0.0]), sp.dual([0.0, 1.0]))
        assert m.verdict is NOT_MEMBER

    def test_positive_alignment_is_not_member(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        xb = sp.primal([1.0, 0.0])
        m = pc.sphere_theta_member(1.0, xb, pc.duality_map(xb))
        assert m.verdict is NOT_MEMBER

    def test_member_certificate_has_negative_multiple_alignment(self, rng):
        for p in P_GRID:
            sp = pc.SpaceConfig(n=5, p=p)
            xb = point_at_norm(sp, pc.Ball(1.0), rng, 1.0)
            ys = -rng.uniform(0.3, 2.0) * pc.duality_map(xb)
            m = pc.sphere_theta_member(1.0, xb, ys)
            assert m.verdict is MEMBER
            names = {c.name: c for c in m.certificates}
            cert = names["y* is a negative multiple of J(xbar)"]
            assert cert.holds and cert.slack <= 1e-8 * pc.norm_dual(ys)

    def test_hilbert_iff_grid(self, rng):
        # twenty cases: the verdict must equal (tangential part vanishes and
        # the pairing is negative)
        sp = pc.SpaceConfig(n=4, p=2.0)
        xb = point_at_norm(sp, pc.Ball(1.0), rng, 1.0)
        anchor = pc.Anchor.at(xb)
        cases = []
        for c in [0.5, 1.0, 2.0]:
            cases.append(-c * pc.duality_map(xb))
            cases.append(c * pc.duality_map(xb))
        for _ in range(7):
            cases.append(pc.o_star(anchor, random_dual(sp, rng)))
            cases.append(random_dual(sp, rng))
        assert len(cases) == 20
        for ys in cases:
            if pc.norm_dual(ys) <= sp.theta_tol:
                continue
            m = pc.sphere_theta_member(1.0, xb, ys)
            o_zero = pc.norm_dual(pc.o_star(anchor, ys)) <= 1e-8 * pc.norm_dual(ys)
            expected = MEMBER if (o_zero and pc.pair(ys, xb) < 0.0) else NOT_MEMBER
            assert m.verdict is expected

    def test_preconditions(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        with pytest.raises(pc.NotOnBoundaryError):
            pc.sphere_theta_member(1.0, sp.primal([2.0, 0.0]), sp.dual([1.0, 0.0]))
        with pytest.raises(pc.PreconditionError):
            pc.sphere_theta_member(1.0, sp.primal([1.0, 0.0]), sp.zero_dual())


class TestBallBoundaryDispatch:
    def test_zero_query_gives_zero_singleton(self, rng):
        sp = pc.SpaceConfig(n=3, p=3.0)
        xb = point_at_norm(sp, pc.Ball(1.0), rng, 1.0)
        res = pc.coderiv_ball(1.0, xb, sp.zero_dual())
        assert isinstance(res, pc.Singleton) and pc.is_theta(res.value)

    def test_duality_image_query_gives_empty_fiber(self, rng):
        for p in P_GRID:
            sp = pc.SpaceConfig(n=3, p=p)
            xb = point_at_norm(sp, pc.Ball(1.0), rng, 1.0)
            assert isinstance(pc.coderiv_ball(1.0, xb, pc.duality_map(xb)), pc.EmptyFiber)

    def test_other_queries_give_membership_reports(self, rng):
        sp = pc.SpaceConfig(n=3, p=2.0)
        xb = point_at_norm(sp, pc.Ball(1.0), rng, 1.0)
        res = pc.coderiv_ball(1.0, xb, -2.0 * pc.duality_map(xb))
        assert isinstance(res, pc.ThetaMembership)
        assert res.verdict is MEMBER

    def test_fiber_map_is_not_linear(self, rng):
        # two membership verdicts plus an empty fiber at the negated query:
        # no linear map could produce this fiber pattern
        for p in [1.5, 2.0, 3.0]:
            sp = pc.SpaceConfig(n=3, p=p)
            xb = point_at_norm(sp, pc.Ball(1.0), rng, 1.0)
            y1 = -1.0 * pc.duality_map(xb)
            y2 = -2.0 * pc.duality_map(xb)
            assert pc.sphere_theta_member(1.0, xb, y1).verdict is MEMBER
            assert pc.sphere_theta_member(1.0, xb, y2).verdict is MEMBER
            assert isinstance(pc.coderiv_ball(1.0, xb, -1.0 * y1), pc.EmptyFiber)


class TestCylinder:
    def test_interior_and_exterior_singletons(self, rng):
        sp = pc.SpaceConfig(n=3, p=2.0)
        mask = frozenset({0, 1})
        res = pc.coderiv_cylinder(1.0, mask, sp.primal([0.1, 0.2, 9.0]), sp.dual([1.0, 2.0, 3.0]))
        assert isinstance(res, pc.Singleton)
        assert np.array_equal(res.value.coords, [1.0, 2.0, 3.0])

        # unmasked-only query passes through the exterior formula untouched
        res = pc.coderiv_cylinder(1.0, mask, sp.primal([3.0, 4.0, 7.0]), sp.dual([0.0, 0.0, 5.0]))
        assert isinstance(res, pc.Singleton)
        assert np.allclose(res.value.coords, [0.0, 0.0, 5.0], atol=1e-12)

    def test_exterior_duality_image_keeps_only_the_tail(self, rng):
        for p in P_GRID:
            sp = pc.SpaceConfig(n=5, p=p)
            mask = frozenset({0, 1, 2})
            x = random_primal(sp, rng)
            xm = pc.mask_restrict(x, mask)
            xb = (1.8 / pc.norm_primal(xm)) * xm + (x - xm)
            jx = pc.duality_map(xb)
            res = pc.coderiv_cylinder(1.0, mask, xb, jx)
            want = jx - pc.mask_restrict(jx, mask)
            assert pc.norm_dual(res.value - want) <= 1e-9 * max(1.0, pc.norm_dual(want))

    @pytest.mark.parametrize("p", P_GRID)
    def test_matches_fd_jacobian_transpose(self, p, rng):
        sp = pc.SpaceConfig(n=4, p=p)
        mask = frozenset({0, 2})
        cyl = pc.Cylinder(1.0, mask)
        x = random_primal(sp, rng)
        xm = pc.mask_restrict(x, mask)
        x = (1.6 / pc.norm_primal(xm)) * xm + (x - xm)
        jac = fd_jacobian(cyl, x)
        for _ in range(5):
            ys = random_dual(sp, rng)
            res = pc.coderiv_cylinder(1.0, mask, x, ys)
            want = adjoint_action(jac, sp, ys)
            assert pc.norm_dual(res.value - want) <= 1e-4 * max(1.0, pc.norm_dual(ys))

    def test_boundary_masked_negative_duality_is_member(self, rng):
        for p in [1.5, 2.0, 3.0]:
            sp = pc.SpaceConfig(n=4, p=p)
            mask = frozenset({0, 1})
            cyl = pc.Cylinder(1.0, mask)
            xb = point_at_norm(sp, cyl, rng, cyl.r)
            ys = -1.0 * pc.mask_restrict(pc.duality_map(xb), mask)
            m = pc.cylinder_theta_member(1.0, mask, xb, ys)
            assert m.verdict is MEMBER
            names = {c.name: c for c in m.certificates}
            align = names["y*_M is a negative multiple of J(xbar_M)"]
            assert align.holds

    def test_boundary_unmasked_tail_blocks_membership(self, rng):
        sp = pc.SpaceConfig(n=4, p=2.0)
        mask = frozenset({0, 1})
        cyl = pc.Cylinder(1.0, mask)
        xb = point_at_norm(sp, cyl, rng, cyl.r)
        ys = -1.0 * pc.mask_restrict(pc.duality_map(xb), mask) + sp.dual([0, 0, 0, 1.0])
        m = pc.cylinder_theta_member(1.0, mask, xb, ys)
        assert m.verdict is NOT_MEMBER
        names = {c.name: c for c in m.certificates}
        assert not names["unmasked part of y* vanishes"].holds

    def test_boundary_duality_image_query_empty(self, rng):
        sp = pc.SpaceConfig(n=4, p=3.0)
        mask = frozenset({0, 1, 2})
        cyl = pc.Cylinder(1.0, mask)
        xb = point_at_norm(sp, cyl, rng, cyl.r)
        assert isinstance(pc.coderiv_cylinder(1.0, mask, xb, pc.duality_map(xb)), pc.EmptyFiber)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_full_mask_agrees_with_the_ball(self, p, rng):
        sp = pc.SpaceConfig(n=4, p=p)
        full = frozenset(range(4))
        for scale, regime in [(0.5, "int"), (1.0, "bdy"), (1.9, "ext")]:
            x = random_primal(sp, rng)
            x = (scale / pc.norm_primal(x)) * x
            queries = [random_dual(sp, rng) for _ in range(12)]
            queries += [sp.zero_dual(), pc.duality_map(x), -1.0 * pc.duality_map(x)]
            for ys in queries:
                a = pc.coderiv_ball(1.0, x, ys)
                b = pc.coderiv_cylinder(1.0, full, x, ys)
                assert type(a) is type(b)
                if isinstance(a, pc.Singleton):
                    gap = pc.norm_dual(a.value - b.value)
                    assert gap <= 1e-10 * max(1.0, pc.norm_dual(a.value))
                elif isinstance(a, pc.ThetaMembership):
                    assert a.verdict is b.verdict


def _boundary_and_unit_g(sp, set_, rng):
    """A boundary point of ``set_`` and J(xbar_M)/||xbar_M||, taken at unit
    scale so that no cutoff of a tiny radius touches it."""
    xb = point_at_norm(sp, set_, rng, set_.r)
    mask = set_.mask if isinstance(set_, pc.Cylinder) else frozenset(range(sp.n))
    return xb, pc.duality_map(pc.mask_restrict((1.0 / set_.r) * xb, mask))


def _theta_member(set_, xb, ys):
    if isinstance(set_, pc.Ball):
        return pc.sphere_theta_member(set_.r, xb, ys)
    return pc.cylinder_theta_member(set_.r, set_.mask, xb, ys)


def _radial_set(kind, r):
    return pc.Ball(r) if kind == "ball" else pc.Cylinder(r, frozenset({0, 2, 3}))


class TestSegmentVerdict:
    """theta* is the upper end of the boundary fiber segment
    {y* + t J(xbar_M) : 0 <= t <= lambda}."""

    @pytest.mark.parametrize("r", [1e-20, 1e-5, 1.0, 1e20])
    @pytest.mark.parametrize("kind", ["ball", "cylinder"])
    def test_verdicts_are_scale_free(self, kind, r, rng):
        set_ = _radial_set(kind, r)
        for p in P_GRID:
            sp = pc.SpaceConfig(n=5, p=p)
            xb, g = _boundary_and_unit_g(sp, set_, rng)
            for c in (0.5, 1.0, 2.0):
                assert _theta_member(set_, xb, -c * g).verdict is MEMBER
                assert _theta_member(set_, xb, c * g).verdict is NOT_MEMBER
            for _ in range(5):
                ys = random_dual(sp, rng)
                ys = (1.0 / pc.norm_dual(ys)) * ys
                assert _theta_member(set_, xb, ys).verdict is NOT_MEMBER

    @pytest.mark.parametrize("kind", ["ball", "cylinder"])
    def test_verdict_is_the_conjunction_of_its_certificates(self, kind, rng):
        set_ = _radial_set(kind, 1.0)
        for p in P_GRID:
            sp = pc.SpaceConfig(n=5, p=p, weights=rng.uniform(0.5, 2.0, 5))
            xb, g = _boundary_and_unit_g(sp, set_, rng)
            for k in range(-12, -1):
                for _ in range(3):
                    m = _theta_member(set_, xb, -1.0 * g + 10.0**k * random_dual(sp, rng))
                    assert (m.verdict is MEMBER) == all(c.holds for c in m.certificates)

    @pytest.mark.parametrize("r", [1e-5, 1.0])
    def test_duality_image_match_is_relative(self, r, rng):
        # J(xbar) + 1e-8 ||J(xbar)|| v is no longer J(xbar) at any radius.
        for p in P_GRID:
            sp = pc.SpaceConfig(n=4, p=p)
            xb = point_at_norm(sp, pc.Ball(r), rng, r)
            jx = pc.duality_map(xb)
            assert isinstance(pc.coderiv_ball(r, xb, jx), pc.EmptyFiber)
            v = random_dual(sp, rng)
            near = jx + (1e-8 * pc.norm_dual(jx) / pc.norm_dual(v)) * v
            assert isinstance(pc.coderiv_ball(r, xb, near), pc.ThetaMembership)


class TestCone:
    def test_membership_examples(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        assert (
            pc.cone_theta_member(sp.primal([-1.0, -2.0]), sp.dual([1.0, 0.0])).verdict is MEMBER
        )
        f = sp.primal([1.0, 0.0])
        assert pc.cone_theta_member(f, pc.duality_map(f)).verdict is NOT_MEMBER
        m = pc.cone_theta_member(sp.primal([-1.0, 2.0]), sp.dual([0.0, 1.0]))
        assert m.verdict is NOT_MEMBER
        assert any("coordinate 1" in c.name for c in m.certificates)

    def test_negative_dual_at_zero_coordinate_blocks(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        m = pc.cone_theta_member(sp.primal([0.0, -1.0]), sp.dual([-1.0, 0.0]))
        assert m.verdict is NOT_MEMBER

    def test_negative_dual_at_a_negative_coordinate_is_a_member(self):
        # The projection is locally 0 in a strictly negative coordinate, so
        # the box there is {0} whatever the query; the oracle agrees.
        sp = pc.SpaceConfig(n=2, p=2.0)
        f, phi = sp.primal([-1.0, 1.0]), sp.dual([-1.0, 0.0])
        m = pc.cone_theta_member(f, phi)
        assert m.verdict is MEMBER
        assert [c.name for c in m.certificates] == ["no sign conflicts on any coordinate"]
        sampled = pc.test_membership(pc.PositiveCone(), f, sp.zero_dual(), phi)
        assert isinstance(sampled, pc.NotRejected)

    def test_one_certificate_per_conflict_in_ascending_order(self):
        sp = pc.SpaceConfig(n=5, p=3.0)
        m = pc.cone_theta_member(sp.primal([0.0, 2.0, -1.0, 0.0, 0.5]),
                                 sp.dual([-0.3, 0.0, -1.0, 0.4, -0.7]))
        assert m.verdict is NOT_MEMBER
        assert [(c.name, c.holds, c.slack) for c in m.certificates] == [
            ("coordinate 0: dual is negative where the point is zero", False, 0.3),
            ("coordinate 4: dual is nonzero where the point is positive", False, 0.5),
        ]

    def test_member_iff_every_coordinate_interval_holds_zero(self, rng):
        # Reference: the box written out one coordinate interval at a time;
        # [0, phi_i] with phi_i < 0 is empty and holds nothing.
        sp = pc.SpaceConfig(n=6, p=3.0)
        for _ in range(200):
            f = rng.choice([-1.0, 0.0, 1.0], 6) * rng.uniform(0.1, 3.0, 6)
            phi = rng.choice([-1.0, 0.0, 1.0], 6) * rng.uniform(0.1, 3.0, 6)
            member = True
            for fi, yi in zip(f, phi):
                lo, hi = (yi, yi) if fi > 0 else (0.0, 0.0) if fi < 0 else (0.0, yi)
                member &= lo <= 0.0 <= hi
            verdict = pc.cone_theta_member(sp.primal(f), sp.dual(phi)).verdict
            assert (verdict is MEMBER) == member

    def test_duality_image_membership_for_nonnegative_points(self, rng):
        sp = pc.SpaceConfig(n=4, p=3.0)
        f = sp.primal(np.abs(rng.standard_normal(4)))
        assert pc.cone_jf_member(f).verdict is MEMBER
        assert pc.cone_jf_member(sp.zero_primal()).verdict is MEMBER
        with pytest.raises(pc.PreconditionError):
            pc.cone_jf_member(sp.primal([1.0, -1.0, 0.0, 0.0]))

    def test_interval_at_the_origin(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        res = pc.cone_interval_at_origin(sp.dual([1.0, 2.0]))
        assert isinstance(res, pc.OrderInterval)
        assert np.array_equal(res.hi.coords, [1.0, 2.0])
        assert pc.is_theta(res.lo)
        degenerate = pc.cone_interval_at_origin(sp.zero_dual())
        assert pc.interval_contains(degenerate, sp.zero_dual())
        assert not pc.interval_contains(degenerate, sp.dual([0.1, 0.0]))
        with pytest.raises(pc.PreconditionError):
            pc.cone_interval_at_origin(sp.dual([1.0, -1.0]))

    def test_interval_membership(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        box = pc.cone_interval_at_origin(sp.dual([1.0, 2.0]))
        assert pc.interval_contains(box, sp.dual([0.5, 2.0]))
        assert not pc.interval_contains(box, sp.dual([-0.1, 1.0]))
        assert not pc.interval_contains(box, sp.dual([1.5, 1.0]))

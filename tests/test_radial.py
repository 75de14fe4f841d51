"""The ball as the full-mask cylinder, the shared oracle quotient, and
typed errors for non-finite input."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import projcalc as pc

from conftest import P_GRID, random_dual, random_primal
from projcalc.instances import point_at_norm


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
            outside = 3.0 * point_at_norm(sp, pc.Ball(1.0), rng, 1.0)
            ys = random_dual(sp, rng)
            a = pc.coderiv_ball(1.0, outside, ys)
            b = pc.coderiv_cylinder(1.0, mask, outside, ys)
            assert np.array_equal(a.value.coords, b.value.coords)

            xb = point_at_norm(sp, pc.Ball(1.0), rng, 1.0)
            jx = pc.duality_map(xb)
            for query in (-0.7 * jx, ys, pc.o_star(pc.Anchor.at(xb), ys)):
                ball = pc.sphere_theta_member(1.0, xb, query)
                cyl = pc.cylinder_theta_member(1.0, mask, xb, query)
                assert ball.verdict is cyl.verdict
                # The cylinder lists its unmasked-tail test first; the ball
                # lists no tail test.
                assert _bits(ball.certificates[:2]) == _bits(cyl.certificates[1:3])
                if len(cyl.certificates) == 4:
                    assert _bits(ball.certificates[-1:]) == _bits(cyl.certificates[-1:])

    @pytest.mark.parametrize("weights", ["ones", "random"])
    def test_ball_certificates_are_the_full_cylinder_ones_without_the_tail(self, rng, weights):
        for p in P_GRID:
            w = np.ones(5) if weights == "ones" else rng.uniform(0.5, 2.0, 5)
            sp = pc.SpaceConfig(n=5, p=p, weights=w)
            mask = frozenset(range(sp.n))
            xb = point_at_norm(sp, pc.Ball(1.0), rng, 1.0)
            ys = random_dual(sp, rng)
            for query in (-0.7 * pc.duality_map(xb), ys, pc.o_star(pc.Anchor.at(xb), ys)):
                ball = pc.sphere_theta_member(1.0, xb, query).certificates
                cyl = pc.cylinder_theta_member(1.0, mask, xb, query).certificates
                assert _bits(ball) == _bits(cyl[1:])

    def test_zero_direction_is_degenerate_for_every_radial_set(self):
        sp = pc.SpaceConfig(n=3, p=3.0)
        xb = sp.primal([1.0, 0.0, 5.0])
        for set_ in (pc.Cylinder(1.0, frozenset({0, 1})), pc.Cylinder(1.0, frozenset({0}))):
            with pytest.raises(pc.DegenerateInputError):
                pc.classify_direction(set_, xb, sp.zero_primal())


@pytest.mark.parametrize("p", [1.5, 3.0, 10.0])
@pytest.mark.parametrize(
    "set_", [pc.Ball(1.3), pc.Cylinder(1.3, frozenset({0, 2, 3}))], ids=["ball", "cylinder"]
)
def test_one_boundary_rule(set_, p):
    # Points just inside and just outside the band DEFAULT_BAND_SCALE * r:
    # every ball and cylinder function puts them on the same side.
    sp = pc.SpaceConfig(n=5, p=p, weights=np.linspace(0.5, 2.0, 5))
    rng = np.random.default_rng(17)
    v = random_primal(sp, rng)
    for rel, on_boundary in ((0.5e-9, True), (-0.5e-9, True), (2e-9, False), (-2e-9, False)):
        x = point_at_norm(sp, set_, rng, set_.r * (1.0 + rel))
        region = pc.classify_region(set_, x).kind
        assert (region is pc.RegionKind.BOUNDARY) == on_boundary
        if isinstance(set_, pc.Ball):
            theta = lambda: pc.sphere_theta_member(set_.r, x, -pc.duality_map(x))  # noqa: E731
        else:
            theta = lambda: pc.cylinder_theta_member(  # noqa: E731
                set_.r, set_.mask, x, -pc.duality_map(x)
            )
        boundary_only = (
            (lambda: pc.classify_direction(set_, x, v), "direction classification"),
            (lambda: pc.nonsmoothness_witness(set_, x), "witnesses"),
            (theta, "theta"),
        )
        for call, message in boundary_only:
            if on_boundary:
                call()
            else:
                with pytest.raises(pc.NotOnBoundaryError, match=message):
                    call()
        if on_boundary:
            with pytest.raises(pc.NoDerivativeError):
                pc.frechet_apply(set_, x, v)
        else:
            pc.frechet_apply(set_, x, v)


def _rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@given(k=st.integers(-20, 20), p=st.sampled_from(P_GRID))
@example(k=-20, p=3.0)
@settings(max_examples=60, deadline=None)
def test_radial_kernels_are_positively_homogeneous(k, p):
    # Scaling the radius and the point by lam = 10^k leaves the derivative,
    # the exterior fiber and the direction classification unchanged.
    lam = 10.0**k
    sp = pc.SpaceConfig(n=4, p=p, weights=[0.5, 1.0, 1.5, 2.0])
    base = np.array([1.5, -0.7, 0.3, 0.9])
    v, ys = sp.primal([0.2, 1.0, -0.4, 0.6]), sp.dual([-0.3, 0.8, 0.5, -1.1])
    for mask in (frozenset(range(4)), frozenset({0, 1, 3})):
        sel = np.isin(np.arange(4), sorted(mask))
        unit = base / pc.norm_primal(sp.primal(np.where(sel, base, 0.0)))
        outside, edge = np.where(sel, 2.0 * unit, base), np.where(sel, unit, base)
        results = []
        for scale in (1.0, lam):
            set_ = pc.Ball(scale) if len(mask) == 4 else pc.Cylinder(scale, mask)
            x_out = sp.primal(np.where(sel, scale * outside, outside))
            x_edge = sp.primal(np.where(sel, scale * edge, edge))
            if isinstance(set_, pc.Ball):
                fiber = pc.coderiv_ball(scale, x_out, ys)
            else:
                fiber = pc.coderiv_cylinder(scale, mask, x_out, ys)
            cls = pc.classify_direction(set_, x_edge, v)
            results.append((pc.frechet_apply(set_, x_out, v).coords, fiber.value.coords, cls))
        (d1, f1, c1), (d2, f2, c2) = results
        assert _rel_gap(d2, d1) <= 1e-12
        assert _rel_gap(f2, f1) <= 1e-12
        assert c2.kind is c1.kind
        assert abs(c2.slope - c1.slope) <= 1e-12 * abs(c1.slope)


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
        xb = point_at_norm(sp, set_, rng, set_.r)
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

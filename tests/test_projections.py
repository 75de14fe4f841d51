"""Projections onto the four sets, positive-part calculus, and the
variational residual."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projcalc as pc
from conftest import P_GRID, random_primal
from projcalc.instances import sample_in_set

ALL_KINDS = ["ball", "cylinder", "cone", "subspace"]


def make_set(kind, n):
    if kind == "ball":
        return pc.Ball(1.0)
    if kind == "cylinder":
        return pc.Cylinder(1.0, frozenset(range(n // 2 + 1)))
    if kind == "cone":
        return pc.PositiveCone()
    return pc.CoordSubspace(frozenset(range(n // 2)))


class TestSetValidation:
    def test_radii_must_be_positive(self):
        with pytest.raises(ValueError):
            pc.Ball(0.0)
        with pytest.raises(ValueError):
            pc.Cylinder(-1.0, frozenset({0}))

    @pytest.mark.parametrize("r", [np.inf, np.nan])
    def test_radii_must_be_finite(self, r):
        with pytest.raises(pc.InvalidSetError, match="finite"):
            pc.Ball(r)
        with pytest.raises(pc.InvalidSetError, match="finite"):
            pc.Cylinder(r, frozenset({0}))

    def test_cylinder_mask_must_be_nonempty(self):
        with pytest.raises(ValueError):
            pc.Cylinder(1.0, frozenset())

    @pytest.mark.parametrize("mask", [{0.5}, {1.0}, "01", 3], ids=["half", "float", "str", "int"])
    def test_mask_entries_must_be_integers(self, mask):
        with pytest.raises(pc.InvalidSetError, match="integer indices"):
            pc.Cylinder(1.0, mask)
        with pytest.raises(pc.InvalidSetError, match="integer indices"):
            pc.CoordSubspace(mask)

    def test_integer_like_mask_entries_become_ints(self):
        mask = pc.Cylinder(1.0, {np.int64(2), 0}).mask
        assert mask == {0, 2} and all(type(i) is int for i in mask)

    def test_mask_indices_checked_against_dimension(self):
        sp = pc.SpaceConfig(n=3, p=2.0)
        with pytest.raises(pc.DimensionMismatchError):
            pc.mask_restrict(sp.primal([1.0, 2.0, 3.0]), frozenset({5}))


class TestMasks:
    def test_restriction_examples(self):
        sp = pc.SpaceConfig(n=3, p=2.0)
        x = sp.primal([3.0, 4.0, 7.0])
        assert np.array_equal(pc.mask_restrict(x, frozenset({0, 1})).coords, [3.0, 4.0, 0.0])
        assert np.array_equal(pc.mask_restrict(x, frozenset(range(3))).coords, x.coords)
        assert pc.is_theta(pc.mask_restrict(x, frozenset()))

    def test_split_reconstructs_exactly(self, rng):
        sp = pc.SpaceConfig(n=6, p=3.0)
        mask = frozenset({0, 2, 5})
        comp = pc.mask_complement(mask, 6)
        x = random_primal(sp, rng)
        back = pc.mask_restrict(x, mask) + pc.mask_restrict(x, comp)
        assert np.array_equal(back.coords, x.coords)


class TestPosNegParts:
    def test_split_example(self):
        sp = pc.SpaceConfig(n=3, p=2.0)
        f = sp.primal([1.0, -2.0, 0.0])
        assert np.array_equal(pc.pos_part(f).coords, [1.0, 0.0, 0.0])
        assert np.array_equal(pc.neg_part(f).coords, [0.0, -2.0, 0.0])

    @given(
        coords=st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=4, max_size=4
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_and_disjoint_supports(self, coords):
        sp = pc.SpaceConfig(n=4, p=2.0)
        f = sp.primal(coords)
        plus, minus = pc.pos_part(f), pc.neg_part(f)
        assert np.array_equal((plus + minus).coords, f.coords)
        assert np.all(plus.coords >= 0.0)
        assert np.all(minus.coords <= 0.0)
        assert not np.any((plus.coords != 0.0) & (minus.coords != 0.0))


class TestRegionClassification:
    def test_ball_examples(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        ball = pc.Ball(1.0)
        assert pc.classify_region(ball, sp.primal([0.5, 0.0])) is pc.RegionKind.INTERIOR
        assert pc.classify_region(ball, sp.primal([1.0, 0.0])) is pc.RegionKind.BOUNDARY
        assert pc.classify_region(ball, sp.primal([1.5, 0.0])) is pc.RegionKind.EXTERIOR

    def test_cylinder_ignores_unmasked_coordinates(self):
        sp = pc.SpaceConfig(n=3, p=2.0)
        cyl = pc.Cylinder(1.0, frozenset({0, 1}))
        assert pc.classify_region(cyl, sp.primal([3.0, 4.0, 7.0])) is pc.RegionKind.EXTERIOR
        assert pc.classify_region(cyl, sp.primal([0.1, 0.1, 99.0])) is pc.RegionKind.INTERIOR

    def test_unsupported_variants_raise(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        with pytest.raises(pc.UnsupportedSetError):
            pc.classify_region(pc.PositiveCone(), sp.primal([1.0, 1.0]))
        with pytest.raises(pc.UnsupportedSetError):
            pc.classify_region(pc.CoordSubspace(frozenset({0})), sp.primal([1.0, 1.0]))


class TestProjectExamples:
    def test_ball_radial(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        u = pc.project(pc.Ball(1.0), sp.primal([3.0, 4.0]))
        assert np.allclose(u.coords, [0.6, 0.8])

    def test_cylinder_scales_only_the_masked_part(self):
        sp = pc.SpaceConfig(n=3, p=2.0)
        u = pc.project(pc.Cylinder(1.0, frozenset({0, 1})), sp.primal([3.0, 4.0, 7.0]))
        assert np.allclose(u.coords, [0.6, 0.8, 7.0])

    def test_cone_clips_negatives(self):
        sp = pc.SpaceConfig(n=3, p=3.0)
        u = pc.project(pc.PositiveCone(), sp.primal([1.0, -2.0, 3.0]))
        assert np.array_equal(u.coords, [1.0, 0.0, 3.0])

    def test_subspace_truncates(self):
        sp = pc.SpaceConfig(n=2, p=3.0)
        u = pc.project(pc.CoordSubspace(frozenset({1})), sp.primal([5.0, 9.0]))
        assert np.array_equal(u.coords, [0.0, 9.0])


class TestProjectionLaws:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("p", P_GRID)
    def test_fixed_on_the_set_and_idempotent(self, kind, p, rng):
        sp = pc.SpaceConfig(n=6, p=p)
        set_ = make_set(kind, 6)
        for z in sample_in_set(set_, sp, rng, 25):
            assert pc.norm_primal(pc.project(set_, z) - z) <= 1e-12 * max(1.0, pc.norm_primal(z))
        for _ in range(25):
            x = random_primal(sp, rng, scale=2.0)
            u = pc.project(set_, x)
            assert pc.set_contains(set_, u, tol=1e-12)
            uu = pc.project(set_, u)
            assert pc.norm_primal(uu - u) <= 1e-12 * max(1.0, pc.norm_primal(u))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("p", P_GRID)
    def test_distance_minimality(self, kind, p, rng):
        sp = pc.SpaceConfig(n=6, p=p, weights=np.linspace(0.5, 2.0, 6))
        set_ = make_set(kind, 6)
        for _ in range(50):
            x = random_primal(sp, rng, scale=2.0)
            u = pc.project(set_, x)
            du = pc.norm_primal(x - u)
            for z in sample_in_set(set_, sp, rng, 50):
                assert du <= pc.norm_primal(x - z) + 1e-9

    def test_nonexpansive_in_the_euclidean_case(self, rng):
        sp = pc.SpaceConfig(n=5, p=2.0)
        for kind in ALL_KINDS:
            set_ = make_set(kind, 5)
            for _ in range(20):
                x, y = random_primal(sp, rng, 2.0), random_primal(sp, rng, 2.0)
                lhs = pc.norm_primal(pc.project(set_, x) - pc.project(set_, y))
                assert lhs <= pc.norm_primal(x - y) + 1e-12


class TestSubspaceIdentities:
    def test_affine_identity(self, rng):
        # P(a x + b y) = a P(x) + b y whenever y lies in the subspace
        sp = pc.SpaceConfig(n=6, p=3.0)
        sub = pc.CoordSubspace(frozenset({0, 3, 4}))
        for _ in range(30):
            x = random_primal(sp, rng)
            y = pc.mask_restrict(random_primal(sp, rng), sub.mask)
            al, be = rng.uniform(-3, 3), rng.uniform(-3, 3)
            lhs = pc.project(sub, al * x + be * y)
            rhs = al * pc.project(sub, x) + be * y
            assert pc.norm_primal(lhs - rhs) <= 1e-12 * max(1.0, pc.norm_primal(rhs))
            scaled = pc.project(sub, al * x)
            assert pc.norm_primal(scaled - al * pc.project(sub, x)) <= 1e-12 * max(
                1.0, pc.norm_primal(scaled)
            )

    def test_residual_dual_vanishes_on_the_subspace(self, rng):
        # J(x - P(x)) annihilates every basis vector of the subspace
        for p in P_GRID:
            sp = pc.SpaceConfig(n=6, p=p)
            sub = pc.CoordSubspace(frozenset({1, 2, 5}))
            eye = np.eye(6)
            for _ in range(10):
                x = random_primal(sp, rng)
                g = pc.duality_map(x - pc.project(sub, x))
                for i in sorted(sub.mask):
                    assert abs(pc.pair(g, sp.primal(eye[i]))) <= 1e-9


class TestConeCalculus:
    def test_projection_is_positive_part(self, rng):
        sp = pc.SpaceConfig(n=6, p=1.5)
        cone = pc.PositiveCone()
        for _ in range(20):
            f = random_primal(sp, rng)
            u = pc.project(cone, f)
            assert np.array_equal(u.coords, pc.pos_part(f).coords)
            back = u + pc.neg_part(f)
            assert np.array_equal(back.coords, f.coords)

    def test_nonpositive_points_project_to_origin(self, rng):
        sp = pc.SpaceConfig(n=4, p=3.0)
        f = sp.primal(-np.abs(rng.standard_normal(4)))
        assert pc.is_theta(pc.project(pc.PositiveCone(), f))

    def test_positive_homogeneity_and_additivity(self, rng):
        sp = pc.SpaceConfig(n=5, p=2.0)
        cone = pc.PositiveCone()
        for _ in range(20):
            f = random_primal(sp, rng)
            lam = rng.uniform(0.0, 4.0)
            lhs = pc.project(cone, lam * f)
            rhs = lam * pc.project(cone, f)
            assert pc.norm_primal(lhs - rhs) <= 1e-12 * max(1.0, pc.norm_primal(rhs))
        f = sp.primal(np.abs(rng.standard_normal(5)))
        g = sp.primal(np.abs(rng.standard_normal(5)))
        assert np.array_equal(pc.project(cone, f + g).coords, (f + g).coords)

    @pytest.mark.parametrize("p", P_GRID)
    def test_sign_split_of_the_duality_image(self, p, rng):
        # (J f)^+ = (|f^+|^(p-2)/|f|^(p-2)) J(f^+), its negative twin, and
        # the two pairing identities <J f, f^+> = |f^+|^p / |f|^(p-2),
        # <J f, f^-> = |f^-|^p / |f|^(p-2).
        sp = pc.SpaceConfig(n=6, p=p, weights=np.linspace(0.8, 1.6, 6))
        for _ in range(20):
            f = random_primal(sp, rng)
            if pc.is_theta(pc.pos_part(f)) or pc.is_theta(pc.neg_part(f)):
                continue
            jf = pc.duality_map(f)
            nf, npos, nneg = (
                pc.norm_primal(f),
                pc.norm_primal(pc.pos_part(f)),
                pc.norm_primal(pc.neg_part(f)),
            )
            lhs = pc.pos_part(jf)
            rhs = (npos ** (p - 2.0) / nf ** (p - 2.0)) * pc.duality_map(pc.pos_part(f))
            assert pc.norm_dual(lhs - rhs) <= 1e-9 * max(1.0, pc.norm_dual(rhs))
            lhs = pc.neg_part(jf)
            rhs = (nneg ** (p - 2.0) / nf ** (p - 2.0)) * pc.duality_map(pc.neg_part(f))
            assert pc.norm_dual(lhs - rhs) <= 1e-9 * max(1.0, pc.norm_dual(rhs))
            want = npos**p / nf ** (p - 2.0)
            assert abs(pc.pair(jf, pc.pos_part(f)) - want) <= 1e-9 * max(1.0, want)
            want = nneg**p / nf ** (p - 2.0)
            assert abs(pc.pair(jf, pc.neg_part(f)) - want) <= 1e-9 * max(1.0, want)


class TestVariationalResidual:
    def test_nonnegative_at_the_projection(self, rng):
        for kind in ALL_KINDS:
            sp = pc.SpaceConfig(n=5, p=3.0)
            set_ = make_set(kind, 5)
            for _ in range(10):
                x = random_primal(sp, rng, scale=2.0)
                u = pc.project(set_, x)
                zs = sample_in_set(set_, sp, rng, 40)
                assert pc.variational_residual(set_, x, u, zs) >= -1e-8

    def test_negative_at_a_wrong_projection(self):
        # hand value: <J((2,-1)), (0,1) - (1,0)> = (2)(-1) + (-1)(1) = -3
        sp = pc.SpaceConfig(n=2, p=2.0)
        ball = pc.Ball(1.0)
        x, u = sp.primal([2.0, 0.0]), sp.primal([0.0, 1.0])
        z = sp.primal([1.0, 0.0])
        res = pc.variational_residual(ball, x, u, [z])
        assert res == pytest.approx(-3.0)
        assert res < 0.0

    def test_zero_when_point_is_feasible(self, rng):
        sp = pc.SpaceConfig(n=3, p=2.0)
        ball = pc.Ball(1.0)
        x = sp.primal([0.3, 0.2, 0.1])
        assert pc.variational_residual(ball, x, x, [x]) == 0.0

    def test_rejects_infeasible_competitors(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        ball = pc.Ball(1.0)
        with pytest.raises(pc.PreconditionError):
            pc.variational_residual(ball, sp.primal([2.0, 0.0]), sp.primal([1.0, 0.0]), [sp.primal([3.0, 0.0])])

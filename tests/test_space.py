"""Norms, pairing, duality mappings, and the smoothness functional."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projcalc as pc
from conftest import P_GRID, random_primal, unit_primal


def coords_strategy(n, lo=-10.0, hi=10.0):
    return st.lists(
        st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False),
        min_size=n,
        max_size=n,
    )


class TestValidation:
    def test_rejects_p_out_of_range(self):
        with pytest.raises(ValueError):
            pc.SpaceConfig(n=2, p=1.0)
        with pytest.raises(ValueError):
            pc.SpaceConfig(n=2, p=11.0)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            pc.SpaceConfig(n=2, p=2.0, weights=[1.0, 0.0])
        with pytest.raises(ValueError):
            pc.SpaceConfig(n=2, p=2.0, weights=[1.0, -1.0])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 2, "p": 11.0},
            {"n": 2, "p": 1.0},
            {"n": 2, "p": math.nan},
            {"n": 0, "p": 2.0},
            {"n": 2.5, "p": 2.0},
            {"n": 2.0, "p": 2.0},
            {"n": 2, "p": 2.0, "weights": [1.0, 0.0]},
            {"n": 2, "p": 2.0, "weights": [1.0, -1.0]},
            {"n": 2, "p": 2.0, "weights": [1.0, math.inf]},
            {"n": 2, "p": 2.0, "weights": [1.0, math.nan]},
        ],
        ids=["p-high", "p-low", "p-nan", "n-zero", "n-fraction", "n-float", "w-zero",
             "w-negative", "w-inf", "w-nan"],
    )
    def test_invalid_parameters_raise_a_typed_error(self, kwargs):
        with pytest.raises(pc.InvalidSpaceError):
            pc.SpaceConfig(**kwargs)

    def test_wrong_weight_shape_is_a_dimension_mismatch(self):
        with pytest.raises(pc.DimensionMismatchError):
            pc.SpaceConfig(n=2, p=2.0, weights=[1.0, 1.0, 1.0])

    def test_rejects_inconsistent_conjugate(self):
        # q is derived from p and cannot be passed, so no pair can disagree.
        with pytest.raises(TypeError):
            pc.SpaceConfig(n=2, p=3.0, q=2.0)
        sp = pc.SpaceConfig(n=2, p=3.0)
        assert abs(1.0 / sp.p + 1.0 / sp.q - 1.0) <= 1e-12

    def test_rejects_wrong_length_or_nonfinite_coords(self):
        sp = pc.SpaceConfig(n=3, p=2.0)
        with pytest.raises(pc.DimensionMismatchError):
            sp.primal([1.0, 2.0])
        with pytest.raises(ValueError):
            sp.primal([1.0, float("nan"), 0.0])

    def test_pairing_requires_common_space(self):
        a = pc.SpaceConfig(n=2, p=2.0)
        b = pc.SpaceConfig(n=3, p=2.0)
        with pytest.raises(pc.DimensionMismatchError):
            pc.pair(b.zero_dual(), a.zero_primal())


class TestNorms:
    def test_euclidean_three_four_five(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        assert pc.norm_primal(sp.primal([3.0, 4.0])) == pytest.approx(5.0)
        assert pc.norm_dual(sp.dual([3.0, 4.0])) == pytest.approx(5.0)

    def test_origin_has_zero_norm(self):
        for p in P_GRID:
            sp = pc.SpaceConfig(n=4, p=p)
            assert pc.norm_primal(sp.zero_primal()) == 0.0
            assert pc.norm_dual(sp.zero_dual()) == 0.0

    def test_cube_root_of_two(self):
        # direct p-sum: 1 + 1 = 2, then the 1/3 power
        sp = pc.SpaceConfig(n=3, p=3.0)
        x = sp.primal([1.0, 1.0, 0.0])
        assert pc.norm_primal(x) == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)
        # cross-check through the duality identity <J(x), x> = |x|^2
        assert pc.pair(pc.duality_map(x), x) == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)

    def test_weighted_pairing_by_hand(self):
        sp = pc.SpaceConfig(n=2, p=2.0, weights=[2.0, 1.0])
        assert pc.pair(sp.dual([1.0, 1.0]), sp.primal([1.0, 3.0])) == pytest.approx(5.0)

    def test_pairing_trivia(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        assert pc.pair(sp.dual([1.0, 0.0]), sp.primal([0.0, 1.0])) == 0.0
        assert pc.pair(sp.zero_dual(), sp.primal([4.0, -7.0])) == 0.0


class TestDualityMap:
    def test_identity_when_p_is_two(self):
        sp = pc.SpaceConfig(n=2, p=2.0, weights=[0.7, 1.3])
        x = sp.primal([3.0, 4.0])
        assert np.allclose(pc.duality_map(x).coords, x.coords)

    def test_origin_maps_to_origin(self):
        sp = pc.SpaceConfig(n=3, p=3.0)
        assert pc.is_theta(pc.duality_map(sp.zero_primal()))
        assert pc.is_theta(pc.duality_map_inv(sp.zero_dual()))

    def test_frozen_value_p_three(self):
        sp = pc.SpaceConfig(n=3, p=3.0)
        x = sp.primal([1.0, 1.0, 0.0])
        j = pc.duality_map(x)
        expected = 2.0 ** (-1.0 / 3.0)
        assert np.allclose(j.coords, [expected, expected, 0.0], rtol=1e-14)
        assert pc.norm_dual(j) == pytest.approx(pc.norm_primal(x), rel=1e-12)

    def test_dual_norm_matches_primal_norm_of_preimage(self):
        sp = pc.SpaceConfig(n=3, p=3.0)
        x = sp.primal([1.0, 1.0, 0.0])
        assert pc.norm_dual(pc.duality_map(x)) == pytest.approx(
            2.0 ** (1.0 / 3.0), rel=1e-12
        )

    def test_inverse_composition_on_seeded_points(self, rng):
        for p in P_GRID:
            sp = pc.SpaceConfig(n=6, p=p)
            for _ in range(100):
                x = random_primal(sp, rng)
                back = pc.duality_map_inv(pc.duality_map(x))
                nrm = pc.norm_primal(x)
                assert pc.norm_primal(back - x) <= 1e-10 * max(1.0, nrm)

    @given(
        coords=coords_strategy(4),
        p=st.sampled_from(P_GRID),
        lam=st.floats(min_value=0.01, max_value=50.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_homogeneity_and_oddness(self, coords, p, lam):
        sp = pc.SpaceConfig(n=4, p=p)
        x = sp.primal(coords)
        jx = pc.duality_map(x)
        scaled = pc.duality_map(lam * x)
        assert pc.norm_dual(scaled - lam * jx) <= 1e-9 * max(1.0, lam * pc.norm_dual(jx))
        flipped = pc.duality_map(-x)
        assert pc.norm_dual(flipped + jx) <= 1e-12 * max(1.0, pc.norm_dual(jx))

    @given(coords=coords_strategy(5), p=st.sampled_from(P_GRID))
    @settings(max_examples=100, deadline=None)
    def test_duality_identities(self, coords, p):
        sp = pc.SpaceConfig(n=5, p=p)
        x = sp.primal(coords)
        jx = pc.duality_map(x)
        nrm = pc.norm_primal(x)
        assert abs(pc.pair(jx, x) - nrm**2) <= 1e-9 * max(1.0, nrm**2)
        assert abs(pc.norm_dual(jx) - nrm) <= 1e-9 * max(1.0, nrm)

    @given(
        xc=coords_strategy(4),
        yc=coords_strategy(4),
        p=st.sampled_from(P_GRID),
    )
    @settings(max_examples=100, deadline=None)
    def test_two_sided_norm_inequality(self, xc, yc, p):
        # 2<J(y), x - y> <= |x|^2 - |y|^2 <= 2<J(x), x - y>
        sp = pc.SpaceConfig(n=4, p=p)
        x, y = sp.primal(xc), sp.primal(yc)
        gap = pc.norm_primal(x) ** 2 - pc.norm_primal(y) ** 2
        assert 2.0 * pc.pair(pc.duality_map(y), x - y) <= gap + 1e-9
        assert gap <= 2.0 * pc.pair(pc.duality_map(x), x - y) + 1e-9


class TestSmoothness:
    def test_orthogonal_direction_euclidean(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        assert pc.smoothness(sp.primal([1.0, 0.0]), sp.primal([0.0, 1.0])) == 0.0

    def test_along_itself_gives_the_norm(self, rng):
        for p in P_GRID:
            sp = pc.SpaceConfig(n=4, p=p)
            x = random_primal(sp, rng)
            assert pc.smoothness(x, x) == pytest.approx(pc.norm_primal(x), rel=1e-10)

    def test_degenerate_input_raises(self):
        sp = pc.SpaceConfig(n=2, p=3.0)
        with pytest.raises(pc.DegenerateInputError):
            pc.smoothness(sp.zero_primal(), sp.primal([1.0, 0.0]))

    def test_zero_slope_direction_p_three(self):
        sp = pc.SpaceConfig(n=3, p=3.0)
        x = sp.primal([1.0, 1.0, 0.0])
        y = sp.primal([1.0, -1.0, 0.0])
        assert pc.smoothness(x, y) == pytest.approx(0.0, abs=1e-14)
        # forward differences of the norm converge to the same value
        for t in [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]:
            fd = (pc.norm_primal(x + t * y) - pc.norm_primal(x)) / t
            assert abs(fd) <= 2.0 * t ** (0.5)

    def test_forward_difference_first_order_convergence(self, rng):
        # unit points with coordinates bounded away from zero, where the norm
        # is twice differentiable and the difference quotient has error O(t)
        steps = [1e-2, 1e-3, 1e-4, 1e-5]
        for p in P_GRID:
            sp = pc.SpaceConfig(n=5, p=p)
            for _ in range(10):
                raw = rng.standard_normal(5)
                raw = np.sign(raw) * (np.abs(raw) + 0.05)
                x = sp.primal(raw)
                x = (1.0 / pc.norm_primal(x)) * x
                y = unit_primal(sp, rng)
                psi = pc.smoothness(x, y)
                errs = [
                    abs((pc.norm_primal(x + t * y) - pc.norm_primal(x)) / t - psi)
                    for t in steps
                ]
                assert errs[-1] <= 1e-4
                if errs[1] > 1e-12:
                    order = math.log(errs[0] / errs[1]) / math.log(10.0)
                    assert order >= 0.9


class TestFiniteness:
    """Every coordinate is tested on its own: a point is finite exactly when
    each coordinate is, however large their sum would be."""

    N = 4
    EXTREMES = [1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -0.0]

    @pytest.mark.parametrize("make", ["primal", "dual"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("i", range(N))
    def test_a_nonfinite_coordinate_raises(self, make, bad, i):
        sp = pc.SpaceConfig(n=self.N, p=3.0)
        c = np.ones(self.N)
        c[i] = bad
        with pytest.raises(pc.NonFiniteError):
            getattr(sp, make)(c)

    @pytest.mark.parametrize("make", ["primal", "dual"])
    @pytest.mark.parametrize("i", range(N))
    def test_an_overflowing_sum_raises(self, make, i):
        sp = pc.SpaceConfig(n=self.N, p=3.0)
        c = np.ones(self.N)
        c[i] = 1e308
        x = getattr(sp, make)(c)
        with np.errstate(over="ignore"), pytest.raises(pc.NonFiniteError):
            x + x

    @pytest.mark.parametrize("make", ["primal", "dual"])
    @pytest.mark.parametrize("coords", [EXTREMES, EXTREMES[:1] * N], ids=["mixed", "all-max"])
    def test_extreme_finite_coordinates_are_kept_unchanged(self, make, coords):
        # The largest double, the smallest subnormal and -0.0 are finite; a
        # test that summed the coordinates would overflow on the largest.
        sp = pc.SpaceConfig(n=self.N, p=3.0)
        x = getattr(sp, make)(coords)
        assert x.coords.tobytes() == np.array(coords, dtype=np.float64).tobytes()
        assert not x.coords.flags.writeable


class TestThetaThreshold:
    def test_threshold_scales_with_dimension(self):
        sp = pc.SpaceConfig(n=8, p=2.0)
        assert sp.theta_tol == pytest.approx(8e-12)
        tiny = sp.primal(np.full(8, 1e-13))
        assert pc.is_theta(tiny)
        assert not pc.is_theta(sp.primal(np.full(8, 1e-6)))


class TestImmutability:
    def test_coordinates_and_attributes_are_frozen(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        x = sp.primal([1.0, 2.0])
        with pytest.raises(ValueError):
            x.coords[0] = 5.0
        with pytest.raises(AttributeError):
            x.coords = np.zeros(2)
        with pytest.raises(ValueError):
            sp.weights[0] = 3.0

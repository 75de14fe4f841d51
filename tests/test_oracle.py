"""The sampled quotient oracle: exact quotient values, denominator
equivalence, determinism, and agreement with the closed forms."""

import math

import numpy as np
import pytest

import projcalc as pc
from conftest import random_dual, random_primal
from projcalc.instances import point_at_norm
from projcalc.oracle import _random_direction

FAST = pc.OracleConfig(seed=11, directions_per_radius=64)


class TestConfigValidation:
    def test_rejects_bad_radii_and_thresholds(self):
        with pytest.raises(ValueError):
            pc.OracleConfig(radii=(1e-1,))
        with pytest.raises(ValueError):
            pc.OracleConfig(radii=(1e-2, 1e-1))
        with pytest.raises(ValueError):
            pc.OracleConfig(reject_threshold=1e-4, accept_threshold=1e-3)

    @pytest.mark.parametrize(
        "kwargs",
        [{"radii": (1e-1, math.nan)}, {"radii": (math.inf, 1e-1)},
         {"reject_threshold": math.nan}, {"reject_threshold": math.inf},
         {"accept_threshold": math.nan}],
        ids=["radius-nan", "radius-inf", "reject-nan", "reject-inf", "accept-nan"],
    )
    def test_rejects_non_finite_radii_and_thresholds(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            pc.OracleConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"radii": (1e-1,)}, {"radii": (1e-1, math.nan)}, {"radii": (1e-2, 1e-1)},
         {"reject_threshold": math.inf}, {"reject_threshold": 1e-4, "accept_threshold": 1e-3},
         {"accept_threshold": -1e-3}, {"directions_per_radius": -1},
         {"directions_per_radius": 2.5}, {"seed": 1.5}, {"seed": -1}, {"seed": 2**64}],
        ids=["one-radius", "radius-nan", "increasing-radii", "reject-inf", "reject-below-accept",
             "accept-negative", "directions", "directions-float", "seed-float", "seed-negative",
             "seed-2-64"],
    )
    def test_invalid_field_raises_a_projcalc_error(self, kwargs):
        with pytest.raises(pc.ProjcalcError):
            pc.OracleConfig(**kwargs)


class TestQuotient:
    def test_zero_queries_give_zero(self, rng):
        sp = pc.SpaceConfig(n=2, p=2.0)
        ball = pc.Ball(1.0)
        xb = sp.primal([0.4, 0.1])
        u = sp.primal([0.5, 0.2])
        q = pc.coderiv_quotient(ball, xb, sp.zero_dual(), sp.zero_dual(), u)
        assert q == 0.0

    def test_interior_identity_query_cancels(self, rng):
        sp = pc.SpaceConfig(n=3, p=3.0)
        ball = pc.Ball(1.0)
        xb = sp.primal([0.2, 0.1, -0.1])
        ys = random_dual(sp, rng)
        for _ in range(10):
            u = xb + 1e-3 * random_primal(sp, rng)
            q = pc.coderiv_quotient(ball, xb, ys, ys, u)
            assert abs(q) <= 1e-12

    def test_frozen_tangential_value(self):
        # first-order expansion of the radial projection gives about -1/2
        sp = pc.SpaceConfig(n=2, p=2.0)
        ball = pc.Ball(1.0)
        t = 1e-3
        xb = sp.primal([1.0, 0.0])
        u = sp.primal([1.0, t])
        q = pc.coderiv_quotient(ball, xb, sp.zero_dual(), sp.dual([0.0, 1.0]), u)
        pu = np.array([1.0, t]) / math.sqrt(1.0 + t * t)
        dp = pu - np.array([1.0, 0.0])
        expected = -dp[1] / (t + math.hypot(*dp))
        assert q == pytest.approx(expected, rel=1e-12)
        assert q == pytest.approx(-0.5, abs=1e-3)

    def test_rejects_probe_at_base_point(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        xb = sp.primal([0.4, 0.1])
        with pytest.raises(pc.DegenerateInputError):
            pc.coderiv_quotient(pc.Ball(1.0), xb, sp.zero_dual(), sp.zero_dual(), xb)

    def test_denominator_equivalence(self, rng):
        sp = pc.SpaceConfig(n=4, p=3.0)
        ball = pc.Ball(1.0)
        xb = point_at_norm(sp, ball, rng, ball.r)
        for _ in range(50):
            xs, ys = random_dual(sp, rng), random_dual(sp, rng)
            u = xb + rng.uniform(1e-4, 1e-1) * random_primal(sp, rng)
            q_sum, q_a = pc.quotient_denominator_pair(ball, xb, xs, ys, u)
            assert q_sum * q_a >= 0.0
            if abs(q_sum) > 0.0:
                ratio = abs(q_a) / abs(q_sum)
                assert 1.0 - 1e-12 <= ratio <= math.sqrt(2.0) + 1e-12


class TestVerdicts:
    def test_member_not_rejected_with_vanishing_quotients(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        xb = sp.primal([1.0, 0.0])
        v = pc.test_membership(pc.Ball(1.0), xb, sp.zero_dual(), sp.dual([-1.0, 0.0]), FAST)
        assert isinstance(v, pc.NotRejected)
        assert v.max_quotient_per_radius[-1] <= FAST.accept_threshold

    def test_orthogonal_query_rejected_with_reproducible_witness(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        ball = pc.Ball(1.0)
        xb = sp.primal([1.0, 0.0])
        ys = sp.dual([0.0, 1.0])
        v = pc.test_membership(ball, xb, sp.zero_dual(), ys, FAST)
        assert isinstance(v, pc.RejectedWithWitness)
        assert v.quotient >= FAST.reject_threshold
        recomputed = pc.coderiv_quotient(ball, xb, sp.zero_dual(), ys, v.u)
        assert recomputed == v.quotient

    def test_interior_adjoint_is_member_and_perturbation_is_not(self, rng):
        sp = pc.SpaceConfig(n=3, p=3.0)
        ball = pc.Ball(1.0)
        xb = sp.primal([0.2, -0.3, 0.1])
        ys = random_dual(sp, rng)
        v = pc.test_membership(ball, xb, ys, ys, FAST)
        assert isinstance(v, pc.NotRejected)
        bumped = ys + sp.dual([0.1, 0.0, 0.0])
        v = pc.test_membership(ball, xb, bumped, ys, FAST)
        assert isinstance(v, pc.RejectedWithWitness)
        # the witness runs along the perturbed coordinate
        step = v.u - xb
        assert abs(step.coords[0]) > 10.0 * max(abs(step.coords[1]), abs(step.coords[2]))

    def test_empty_fiber_rejects_arbitrary_candidates(self, rng):
        sp = pc.SpaceConfig(n=3, p=1.5)
        ball = pc.Ball(1.0)
        xb = point_at_norm(sp, ball, rng, ball.r)
        jx = pc.duality_map(xb)
        for _ in range(5):
            xs = random_dual(sp, rng)
            v = pc.test_membership(ball, xb, xs, jx, FAST)
            assert isinstance(v, pc.RejectedWithWitness)

    def test_base_ray_probes_witness_the_empty_fiber(self, rng):
        # at least one of the two rays through the base point has an
        # order-one quotient for every candidate
        sp = pc.SpaceConfig(n=3, p=2.0)
        xb = point_at_norm(sp, pc.Ball(1.0), rng, 1.0)
        jx = pc.duality_map(xb)
        t = 1e-4
        for _ in range(10):
            xs = random_dual(sp, rng)
            qs = [
                pc.coderiv_quotient(pc.Ball(1.0), xb, xs, jx, (1.0 + s) * xb)
                for s in (-t, t)
            ]
            assert max(qs) >= 1.0 / 3.0 - 1e-6

    def test_monotone_evidence_for_members(self, rng):
        sp = pc.SpaceConfig(n=4, p=3.0)
        xb = point_at_norm(sp, pc.Ball(1.0), rng, 1.0)
        ys = -1.3 * pc.duality_map(xb)
        v = pc.test_membership(pc.Ball(1.0), xb, sp.zero_dual(), ys, FAST)
        assert isinstance(v, pc.NotRejected)
        maxima = v.max_quotient_per_radius
        inversions = sum(1 for a, b in zip(maxima, maxima[1:]) if b > a + 1e-12)
        assert inversions <= 1
        assert maxima[-1] <= FAST.accept_threshold

    def test_determinism(self, rng):
        sp = pc.SpaceConfig(n=3, p=3.0)
        ball = pc.Ball(1.0)
        xb = point_at_norm(sp, ball, rng, ball.r)
        ys = random_dual(sp, rng)
        a = pc.test_membership(ball, xb, sp.zero_dual(), ys, FAST)
        b = pc.test_membership(ball, xb, sp.zero_dual(), ys, FAST)
        assert type(a) is type(b)
        assert a.max_quotient_per_radius == b.max_quotient_per_radius
        if isinstance(a, pc.RejectedWithWitness):
            assert np.array_equal(a.u.coords, b.u.coords)
            assert a.quotient == b.quotient

    def test_radius_below_the_base_points_resolution_is_degenerate(self):
        # 1e20 + 0.1 == 1e20, so the probe along the base ray is the base point.
        sp = pc.SpaceConfig(n=2, p=2.0)
        xb = sp.primal([1e20, 0.0])
        with pytest.raises(pc.DegenerateInputError):
            pc.test_membership(pc.Ball(1.0), xb, sp.zero_dual(), sp.zero_dual(), FAST)

    def test_no_directions_configured(self):
        sp = pc.SpaceConfig(n=2, p=2.0)
        cfg = pc.OracleConfig(seed=1, directions_per_radius=0, structured_probes=False)
        with pytest.raises(ValueError):
            pc.test_membership(pc.Ball(1.0), sp.primal([0.5, 0.0]), sp.zero_dual(), sp.zero_dual(), cfg)


class TestConeVerdicts:
    def test_zero_fiber_singleton(self, rng):
        sp = pc.SpaceConfig(n=3, p=2.0)
        cone = pc.PositiveCone()
        f = random_primal(sp, rng)
        ok = pc.test_membership(cone, f, sp.zero_dual(), sp.zero_dual(), FAST)
        assert isinstance(ok, pc.NotRejected)
        bad = pc.test_membership(cone, f, random_dual(sp, rng), sp.zero_dual(), FAST)
        assert isinstance(bad, pc.RejectedWithWitness)

    def test_duality_image_membership(self, rng):
        sp = pc.SpaceConfig(n=3, p=3.0)
        cone = pc.PositiveCone()
        f = sp.primal(np.abs(rng.standard_normal(3)))
        jf = pc.duality_map(f)
        v = pc.test_membership(cone, f, jf, jf, FAST)
        assert isinstance(v, pc.NotRejected)
        assert v.max_quotient_per_radius[-1] <= 1e-12

    def test_interval_bounds_at_the_origin(self, rng):
        sp = pc.SpaceConfig(n=3, p=2.0)
        cone = pc.PositiveCone()
        theta = sp.zero_primal()
        psi = sp.dual([1.0, 0.5, 2.0])
        inside = sp.dual([0.5, 0.0, 2.0])
        v = pc.test_membership(cone, theta, inside, psi, FAST)
        assert isinstance(v, pc.NotRejected)
        below = sp.dual([-0.2, 0.3, 1.0])
        v = pc.test_membership(cone, theta, below, psi, FAST)
        assert isinstance(v, pc.RejectedWithWitness)
        above = sp.dual([1.4, 0.3, 1.0])
        v = pc.test_membership(cone, theta, above, psi, FAST)
        assert isinstance(v, pc.RejectedWithWitness)


class TestDrawContract:
    """One Philox block per (seed, radius index): draws form a prefix in the
    direction count and do not depend on the other radii."""

    def _query(self, rng):
        sp = pc.SpaceConfig(n=4, p=3.0, weights=rng.uniform(0.5, 2.0, 4))
        xb = point_at_norm(sp, pc.Ball(1.0), rng, 1.0)
        return pc.Ball(1.0), xb, random_dual(sp, rng), pc.duality_map(xb)

    def test_more_directions_extend_the_draws(self, rng):
        query = self._query(rng)
        few, many = (
            pc.test_membership(
                *query, pc.OracleConfig(seed=5, directions_per_radius=m, structured_probes=False)
            ).max_quotient_per_radius
            for m in (64, 128)
        )
        assert all(b >= a for a, b in zip(few, many))

    def test_one_verdict_constructs_one_philox(self, rng, monkeypatch):
        # Constructing a Philox reads OS entropy; each radius resets one.
        made = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            made.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        pc.test_membership(*self._query(rng))
        assert len(made) == 1

    @pytest.mark.parametrize("probes", [True, False])
    def test_one_verdict_calls_the_probes_once_and_draws_each_radius_in_order(
            self, rng, monkeypatch, probes):
        # perfbench's tracer counts both: oracle.draw and oracle.directions_per_op.
        calls = []
        oracle, probe, draw = pc.oracle, pc.oracle.structured_probes, _random_direction

        def probe_spy(*args):
            calls.append("probes")
            return probe(*args)

        def draw_spy(sp, seed, radius_idx, m, bg=None):
            calls.append(radius_idx)
            return draw(sp, seed, radius_idx, m, bg)

        monkeypatch.setattr(oracle, "structured_probes", probe_spy)
        monkeypatch.setattr(oracle, "_random_direction", draw_spy)
        cfg = pc.OracleConfig(directions_per_radius=8, structured_probes=probes)
        pc.test_membership(*self._query(rng), cfg)
        assert calls == ["probes"] * probes + list(range(len(cfg.radii)))

    def test_the_first_of_tied_maxima_is_the_witness(self, monkeypatch):
        # Inside the ball P(u) = u, so the quotient of the query (theta*, -e0)
        # is d_0 / 2 for a unit d: the mirror rows tie bit for bit at 0.3.
        sp = pc.SpaceConfig(n=4, p=2.0)
        rows = np.array([[0.0, 0.0, 1.0, 0.0], [0.6, 0.8, 0.0, 0.0], [0.6, -0.8, 0.0, 0.0]])
        monkeypatch.setattr(pc.oracle, "_random_direction", lambda sp, s, ri, m, bg=None: rows)
        xb = sp.primal([0.1, 0.0, 0.0, 0.0])
        cfg = pc.OracleConfig(directions_per_radius=3, structured_probes=False)
        v = pc.test_membership(pc.Ball(1.0), xb, sp.zero_dual(), sp.dual([-1.0, 0, 0, 0]), cfg)
        assert isinstance(v, pc.RejectedWithWitness)
        assert v.u.coords[1] > 0.0  # rows[1], not its mirror rows[2]

    @pytest.mark.parametrize("seed", [0, 5, 2**63, 2**64 - 1])
    def test_a_reset_philox_draws_what_a_new_one_does(self, seed):
        sp = pc.SpaceConfig(n=4, p=3.0)
        bg = np.random.Philox()
        # Radii out of order and one again, after draws that may leave words buffered.
        for ri in (3, 0, 4, 0):
            for m in (1, 7, 64):
                new = np.random.Philox(key=seed, counter=[0, 0, ri, 0])
                want = np.random.Generator(new).standard_normal((m, sp.n))
                assert _random_direction(sp, seed, ri, m, bg).tobytes() == want.tobytes()
                assert _random_direction(sp, seed, ri, m).tobytes() == want.tobytes()

    def test_dropping_the_last_radius_keeps_the_earlier_maxima(self, rng):
        query = self._query(rng)
        full = pc.OracleConfig(seed=5, directions_per_radius=64)
        short = pc.OracleConfig(seed=5, directions_per_radius=64, radii=full.radii[:-1])
        a = pc.test_membership(*query, full).max_quotient_per_radius
        b = pc.test_membership(*query, short).max_quotient_per_radius
        assert np.array_equal(np.array(a[:-1]), np.array(b))

"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. Tolerances are fixed here; nothing is deferred to later calibration.

Sampled-oracle comparisons use well-separated constructions (violations of
order one, base points with coordinates bounded away from zero) so that
each verdict is decidable at the configured radii.
"""

import numpy as np

import projcalc as pc
from conftest import P_GRID, random_dual, random_primal
from projcalc.instances import _rescale_masked, gen_instance, sample_in_set
from projcalc.projections import _radial
from projcalc.report import render_json
from projcalc.suites import SuiteSpec, run_suite

ORACLE = pc.OracleConfig(seed=2024, directions_per_radius=256)
ORACLE_BULK = pc.OracleConfig(seed=2024, directions_per_radius=128)


def _report(num, ok, detail=""):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _away_from_zero(rng, n, floor=0.15):
    v = rng.standard_normal(n)
    return np.sign(v) * (np.abs(v) + floor)


def _scaled(sp, set_, coords, target):
    return _rescale_masked(sp, _radial(set_, sp.n)[1], coords, target)


def test_criterion_01_duality_identities():
    worst = 0.0
    rng = np.random.default_rng(101)
    for p in P_GRID:
        for n in [2, 8, 32]:
            sp = pc.SpaceConfig(n=n, p=p)
            for _ in range(1000):
                x = random_primal(sp, rng)
                jx = pc.duality_map(x)
                nrm = pc.norm_primal(x)
                worst = max(worst, abs(pc.pair(jx, x) - nrm**2) / max(1.0, nrm**2) / 1e-9)
                worst = max(worst, abs(pc.norm_dual(jx) - nrm) / max(1.0, nrm) / 1e-9)
                back = pc.duality_map_inv(jx)
                worst = max(worst, pc.norm_primal(back - x) / max(1.0, nrm) / 1e-8)
            for _ in range(1000):
                x, y = random_primal(sp, rng), random_primal(sp, rng)
                gap = pc.norm_primal(x) ** 2 - pc.norm_primal(y) ** 2
                lo = 2.0 * pc.pair(pc.duality_map(y), x - y)
                hi = 2.0 * pc.pair(pc.duality_map(x), x - y)
                worst = max(worst, (lo - gap) / 1e-9, (gap - hi) / 1e-9)
    _report(1, worst <= 1.0, f"worst tolerance fraction {worst:.3g}")


def test_criterion_02_projection_optimality():
    rng = np.random.default_rng(202)
    worst_gap = -np.inf
    worst_resid = np.inf
    for p in [1.5, 2.0, 3.0]:
        sp = pc.SpaceConfig(n=8, p=p)
        sets = [
            pc.Ball(1.0),
            pc.Cylinder(1.0, frozenset({0, 1, 2, 3})),
            pc.PositiveCone(),
            pc.CoordSubspace(frozenset({0, 1, 4, 5})),
        ]
        for set_ in sets:
            for _ in range(200):
                if isinstance(set_, (pc.Ball, pc.Cylinder)):
                    x = _scaled(sp, set_, rng.standard_normal(8), rng.uniform(1.3, 2.5))
                elif isinstance(set_, pc.PositiveCone):
                    c = rng.standard_normal(8)
                    c[rng.integers(0, 8)] = -abs(c[0]) - 0.2
                    x = sp.primal(c)
                else:
                    x = random_primal(sp, rng)
                u = pc.project(set_, x)
                zs = sample_in_set(set_, sp, rng, 200)
                du = pc.norm_primal(x - u)
                worst_gap = max(worst_gap, max(du - pc.norm_primal(x - z) for z in zs))
                worst_resid = min(worst_resid, pc.variational_residual(set_, x, u, zs))
    ok = worst_gap <= 1e-9 and worst_resid >= -1e-8
    _report(2, ok, f"worst distance gap {worst_gap:.3g}, worst residual {worst_resid:.3g}")


def _derivative_points(sp, set_, regime, count, seed):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        coords = _away_from_zero(rng, sp.n)
        target = rng.uniform(1.2, 2.2) if regime == "exterior" else rng.uniform(0.15, 0.85)
        pts.append(_scaled(sp, set_, coords, target))
    return pts


def test_criterion_03_frechet_agreement():
    worst = 0.0
    for p in P_GRID:
        sp = pc.SpaceConfig(n=8, p=p)
        for set_ in (pc.Ball(1.0), pc.Cylinder(1.0, frozenset({0, 1, 2, 3}))):
            for regime in ("interior", "exterior"):
                rng = np.random.default_rng(303)
                for x in _derivative_points(sp, set_, regime, 100, seed=33):
                    for _ in range(10):
                        v = random_primal(sp, rng)
                        closed = pc.frechet_apply(set_, x, v)
                        fd = pc.gateaux_fd(set_, x, v)
                        gap = pc.norm_primal(closed - fd.value)
                        worst = max(worst, gap / max(1.0, pc.norm_primal(v)) / 1e-4)
    _report(3, worst <= 1.0, f"worst tolerance fraction {worst:.3g}")


def _fd_jacobian(set_, x, h=1e-6):
    n = x.space.n
    eye = np.eye(n)
    cols = []
    for j in range(n):
        e = x.space.primal(eye[j])
        cols.append(
            (pc.project(set_, x + h * e).coords - pc.project(set_, x - h * e).coords)
            / (2.0 * h)
        )
    return np.stack(cols, axis=1)


def test_criterion_04_adjoint_identity():
    worst_pairing = 0.0
    worst_fd = 0.0
    for p in P_GRID:
        sp = pc.SpaceConfig(n=8, p=p)
        for set_ in (pc.Ball(1.0), pc.Cylinder(1.0, frozenset({0, 1, 2, 3}))):
            for regime in ("interior", "exterior"):
                rng = np.random.default_rng(404)
                for x in _derivative_points(sp, set_, regime, 100, seed=33):
                    if isinstance(set_, pc.Ball):
                        fiber = lambda ys: pc.coderiv_ball(1.0, x, ys)
                    else:
                        fiber = lambda ys: pc.coderiv_cylinder(1.0, set_.mask, x, ys)
                    jac = _fd_jacobian(set_, x)
                    w = sp.weights
                    for _ in range(10):
                        ys, v = random_dual(sp, rng), random_primal(sp, rng)
                        value = fiber(ys).value
                        lhs = pc.pair(value, v)
                        rhs = pc.pair(ys, pc.frechet_apply(set_, x, v))
                        scale = max(1.0, pc.norm_dual(ys) * pc.norm_primal(v))
                        worst_pairing = max(worst_pairing, abs(lhs - rhs) / scale / 1e-8)
                        transp = sp.dual((jac.T @ (w * ys.coords)) / w)
                        gap = pc.norm_dual(value - transp)
                        worst_fd = max(worst_fd, gap / max(1.0, pc.norm_dual(ys)) / 1e-4)
    ok = worst_pairing <= 1.0 and worst_fd <= 1.0
    _report(4, ok, f"pairing fraction {worst_pairing:.3g}, fd fraction {worst_fd:.3g}")


def _sphere_cases(sp, xb, rng):
    """Twenty queries: members are negative multiples of J(xb); non-members
    are orthogonal, oblique, positively aligned, or generic."""
    jx = pc.duality_map(xb)
    anchor = pc.Anchor.at(xb)
    cases = []
    for c in (0.3, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0):
        cases.append((-c) * jx)
    for _ in range(4):
        o = pc.o_star(anchor, random_dual(sp, rng))
        cases.append((1.0 / pc.norm_dual(o)) * o)
    for mix in (0.7, 1.0, 1.4, 2.0):
        o = pc.o_star(anchor, random_dual(sp, rng))
        cases.append(-1.0 * jx + (mix / pc.norm_dual(o)) * o)
    for c in (0.5, 1.0, 2.0):
        cases.append(c * jx)
    for _ in range(2):
        ys = random_dual(sp, rng)
        cases.append((1.0 / pc.norm_dual(ys)) * ys)
    return cases


def test_criterion_05_sphere_membership_grid():
    rng = np.random.default_rng(505)
    mismatches = []
    for p in [1.5, 2.0, 3.0]:
        sp = pc.SpaceConfig(n=4, p=p)
        xb = _scaled(sp, pc.Ball(1.0), _away_from_zero(rng, 4), 1.0)
        anchor = pc.Anchor.at(xb)
        cases = _sphere_cases(sp, xb, rng)
        assert len(cases) == 20
        for i, ys in enumerate(cases):
            analytic = pc.sphere_theta_member(1.0, xb, ys)
            sampled = pc.test_membership(pc.Ball(1.0), xb, sp.zero_dual(), ys, ORACLE)
            if analytic.verdict is pc.Verdict.MEMBER:
                good = (
                    isinstance(sampled, pc.NotRejected)
                    and sampled.max_quotient_per_radius[-1] <= 1e-3
                )
            else:
                good = (
                    isinstance(sampled, pc.RejectedWithWitness)
                    and sampled.quotient >= 1e-2
                )
            if p == 2.0:
                o_zero = pc.norm_dual(pc.o_star(anchor, ys)) <= 1e-8 * pc.norm_dual(ys)
                hilbert = o_zero and pc.pair(ys, xb) < 0.0
                good = good and (hilbert == (analytic.verdict is pc.Verdict.MEMBER))
            if not good:
                mismatches.append((p, i, analytic.verdict))
    _report(5, not mismatches, f"mismatches {mismatches}")


def test_criterion_06_empty_fiber():
    rng = np.random.default_rng(606)
    bad = []
    for kind in ("ball", "cylinder"):
        sp = pc.SpaceConfig(n=6, p=2.5)
        if kind == "ball":
            set_ = pc.Ball(1.0)
            xb = _scaled(sp, set_, _away_from_zero(rng, 6), 1.0)
            ray = xb
        else:
            set_ = pc.Cylinder(1.0, frozenset({0, 1, 2}))
            coords = _away_from_zero(rng, 6)
            x = sp.primal(coords)
            xm = pc.mask_restrict(x, set_.mask)
            tail = x - xm
            # moderate tail keeps the base-ray quotients of order one
            xb = (1.0 / pc.norm_primal(xm)) * xm + (0.5 / pc.norm_primal(tail)) * tail
            ray = pc.mask_restrict(xb, set_.mask)
        jx = pc.duality_map(xb)
        for _ in range(10):
            xs = random_dual(sp, rng)
            verdict = pc.test_membership(set_, xb, xs, jx, ORACLE)
            if not isinstance(verdict, pc.RejectedWithWitness):
                bad.append((kind, "not rejected"))
                continue
            ray_quotients = [
                pc.coderiv_quotient(set_, xb, xs, jx, xb + s * ray)
                for s in (-1e-4, 1e-4, -1e-5, 1e-5)
            ]
            if max(ray_quotients) < 1e-2:
                bad.append((kind, "no base-ray witness"))
    _report(6, not bad, f"failures {bad}")


def test_criterion_07_cylinder_iff():
    rng = np.random.default_rng(707)
    sp = pc.SpaceConfig(n=8, p=2.5)
    bad = []
    for density in (0.25, 0.5, 1.0):
        k = max(1, int(round(density * 8)))
        mask = frozenset(range(k))
        set_ = pc.Cylinder(1.0, mask)
        coords = _away_from_zero(rng, 8)
        x = sp.primal(coords)
        xm = pc.mask_restrict(x, mask)
        tail = x - xm
        xb = (1.0 / pc.norm_primal(xm)) * xm
        if pc.norm_primal(tail) > sp.theta_tol:
            xb = xb + (0.5 / pc.norm_primal(tail)) * tail
        jm = pc.mask_restrict(pc.duality_map(xb), mask)
        jxm = pc.duality_map(pc.mask_restrict(xb, mask))
        cases = [
            (-0.6) * jm,
            (-1.0) * jm,
            (-2.0) * jxm,
            (-1.0) * jxm,
            (-0.5) * jxm,
            jm,
            0.8 * jxm,
        ]
        for _ in range(2):
            z = pc.mask_restrict(random_dual(sp, rng), mask)
            a = pc.pair(z, pc.mask_restrict(xb, mask))
            ortho = z - a * jxm  # masked, pairs to zero against xb_M
            cases.append((1.0 / pc.norm_dual(ortho)) * ortho)
        comp = pc.mask_complement(mask, 8)
        if comp:
            tail_dual = sp.dual(np.eye(8)[sorted(comp)[0]])
            cases.append((-1.0) * jxm + 0.7 * tail_dual)
        else:
            cases.append((-1.0) * jxm + 0.3 * pc.duality_map(xb))
        assert len(cases) == 10
        for i, ys in enumerate(cases):
            analytic = pc.cylinder_theta_member(1.0, mask, xb, ys)
            sampled = pc.test_membership(set_, xb, sp.zero_dual(), ys, ORACLE_BULK)
            member = analytic.verdict is pc.Verdict.MEMBER
            if member != isinstance(sampled, pc.NotRejected):
                bad.append((density, i, analytic.verdict))
            if density == 1.0:
                # full-mask dispatch must agree with the ball dispatch
                # case-for-case, including the empty-fiber routing
                ball_res = pc.coderiv_ball(1.0, xb, ys)
                cyl_res = pc.coderiv_cylinder(1.0, mask, xb, ys)
                if type(ball_res) is not type(cyl_res):
                    bad.append((density, i, "ball mismatch"))
                elif isinstance(ball_res, pc.ThetaMembership):
                    if ball_res.verdict is not cyl_res.verdict:
                        bad.append((density, i, "ball verdict mismatch"))
    _report(7, not bad, f"failures {bad}")


def test_criterion_08_cone_conditions():
    rng = np.random.default_rng(808)
    sp = pc.SpaceConfig(n=6, p=2.0)
    cone = pc.PositiveCone()
    bad = []

    # (a) the zero-query fiber is the zero singleton
    for i in range(20):
        f = random_primal(sp, rng)
        ok = isinstance(
            pc.test_membership(cone, f, sp.zero_dual(), sp.zero_dual(), ORACLE_BULK),
            pc.NotRejected,
        )
        xs = random_dual(sp, rng)
        xs = (1.0 / pc.norm_dual(xs)) * xs
        ok = ok and isinstance(
            pc.test_membership(cone, f, xs, sp.zero_dual(), ORACLE_BULK),
            pc.RejectedWithWitness,
        )
        if not ok:
            bad.append(("a", i))

    # (b) forty sign-condition cases; every violation is placed on a
    # coordinate the projection can feel (positive, or exactly zero)
    cases = []
    for _ in range(10):  # nonpositive point, nonnegative query: member
        f = sp.primal(-np.abs(rng.standard_normal(6)) - 0.1)
        phi = sp.dual(np.abs(rng.standard_normal(6)))
        cases.append((f, phi, True))
    for _ in range(10):  # nonnegative nonzero point, its duality image: not member
        f = sp.primal(np.abs(rng.standard_normal(6)) + 0.1)
        cases.append((f, pc.duality_map(f), False))
    for _ in range(10):  # query supported where the point is nonpositive: member
        coords = rng.standard_normal(6)
        coords[:2] = np.abs(coords[:2]) + 0.1
        coords[2:4] = 0.0
        coords[4:] = -np.abs(coords[4:]) - 0.1
        f = sp.primal(coords)
        phi = np.zeros(6)
        phi[2:] = np.abs(rng.standard_normal(4))
        cases.append((f, sp.dual(phi), True))
    for _ in range(5):  # nonzero query on a positive coordinate: not member
        coords = np.abs(rng.standard_normal(6)) + 0.1
        coords[3] = -1.0
        f = sp.primal(coords)
        phi = np.zeros(6)
        phi[0] = 0.8
        cases.append((f, sp.dual(phi), False))
    for _ in range(5):  # negative query on a zero coordinate: not member
        coords = -np.abs(rng.standard_normal(6)) - 0.1
        coords[1] = 0.0
        f = sp.primal(coords)
        phi = np.zeros(6)
        phi[1] = -0.9
        cases.append((f, sp.dual(phi), False))
    for i, (f, phi, expect_member) in enumerate(cases):
        analytic = pc.cone_theta_member(f, phi)
        if (analytic.verdict is pc.Verdict.MEMBER) != expect_member:
            bad.append(("b-analytic", i))
            continue
        sampled = pc.test_membership(cone, f, sp.zero_dual(), phi, ORACLE_BULK)
        if expect_member != isinstance(sampled, pc.NotRejected):
            bad.append(("b-oracle", i))

    # (c) the duality image of a nonnegative point joins its own fiber
    for i in range(20):
        f = sp.primal(np.abs(rng.standard_normal(6)))
        jf = pc.duality_map(f)
        assert pc.cone_jf_member(f).verdict is pc.Verdict.MEMBER
        v = pc.test_membership(cone, f, jf, jf, ORACLE_BULK)
        if not isinstance(v, pc.NotRejected):
            bad.append(("c", i))

    # (d) interval law at the origin
    theta = sp.zero_primal()
    for i in range(20):
        psi = sp.dual(np.abs(rng.standard_normal(6)) + 0.2)
        box = pc.cone_interval_at_origin(psi)
        inside = sp.dual(rng.uniform(0.0, 1.0, 6) * psi.coords)
        assert pc.interval_contains(box, inside)
        ok = isinstance(
            pc.test_membership(cone, theta, inside, psi, ORACLE_BULK), pc.NotRejected
        )
        below = inside.coords.copy()
        below[int(rng.integers(0, 6))] = -0.5
        ok = ok and isinstance(
            pc.test_membership(cone, theta, sp.dual(below), psi, ORACLE_BULK),
            pc.RejectedWithWitness,
        )
        above = inside.coords.copy()
        j = int(rng.integers(0, 6))
        above[j] = psi.coords[j] + 0.5
        ok = ok and isinstance(
            pc.test_membership(cone, theta, sp.dual(above), psi, ORACLE_BULK),
            pc.RejectedWithWitness,
        )
        if not ok:
            bad.append(("d", i))

    _report(8, not bad, f"failures {bad}")


def test_criterion_09_nonsmoothness_witnesses():
    failures = 0
    for kind in ("ball", "cylinder", "cone"):
        for k in range(50):
            _, set_, xb = gen_instance(kind, "boundary", 900 + k, n=8, p=2.5)
            w = pc.nonsmoothness_witness(set_, xb)
            if w is None or w.defect < 0.1 * pc.norm_primal(w.direction):
                failures += 1
    _report(9, failures == 0, f"{failures} boundary points without a witness")


def test_criterion_10_decomposition():
    rng = np.random.default_rng(1010)
    worst_recomp = 0.0
    worst_ratio = 0.0
    for p in P_GRID:
        sp = pc.SpaceConfig(n=8, p=p)
        for _ in range(5):
            a = random_primal(sp, rng)
            anchor = pc.Anchor.at((rng.uniform(1.0, 1.5) / pc.norm_primal(a)) * a)
            for _ in range(40):
                x = random_primal(sp, rng)
                back = pc.a_coef(anchor, x) * anchor.xbar + pc.o_part(anchor, x)
                worst_recomp = max(
                    worst_recomp,
                    pc.norm_primal(x - back) / max(1.0, pc.norm_primal(x)),
                )
                xs = random_dual(sp, rng)
                dback = pc.a_star(anchor, xs) * anchor.xbar_star + pc.o_star(anchor, xs)
                worst_recomp = max(
                    worst_recomp,
                    pc.norm_dual(xs - dback) / max(1.0, pc.norm_dual(xs)),
                )
            v = pc.o_part(anchor, random_primal(sp, rng))
            v = (1e-6 / pc.norm_primal(v)) * v
            ratio = (pc.norm_primal(anchor.xbar + v) - anchor.norm) / 1e-6
            worst_ratio = max(worst_ratio, ratio)
    ok = worst_recomp <= 1e-12 and worst_ratio <= 1e-3
    _report(10, ok, f"worst recomposition {worst_recomp:.3g}, worst ratio {worst_ratio:.3g}")


def test_criterion_11_report_determinism():
    spec = SuiteSpec(suite="all", n=6, p=3.0, seed=424242, samples=40)
    a = render_json(run_suite(spec))
    b = render_json(run_suite(spec))
    strip = lambda text: [ln for ln in text.splitlines() if '"timestamp"' not in ln]
    ok = strip(a) == strip(b)
    _report(11, ok, "reports identical modulo the timestamp")

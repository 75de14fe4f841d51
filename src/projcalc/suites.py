"""Named verification suites behind the command-line driver.

The suites are one table, ``SUITES``. Each suite names the tag of its seeded
generator, the public operations its cases exercise, its sample count and
its cases in run order. A case is a row: an id, the property it states, an
optional ``when`` predicate, and a check that takes the suite's environment
and returns ``(ok, metrics)`` or ``(ok, metrics, witness)``, the metrics
being the worst observed slack. The environment (``Env``) is built once per
suite: the space, the mask, the four sets, the sample count, the oracle
settings and the generator ``SeedSequence([seed, tag])``, from which the
suite's cases draw in turn.

``run_suite`` is one loop over the table. ``suite="all"`` runs every suite.
``case_filter`` filters results, not work: the named case's whole suite
runs and only that case is kept, so the case sees the draws of a full run
and every report's ``repro`` line reproduces its case. Operation coverage
is declared: the summary lists the union of the op lists of the suites that
ran (with ``case_filter``, only the named case's suite) and compares it with
the independent list ``ALL_OPS``, so only a full ``all`` run is complete.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from . import coderivative as cd
from . import decomposition as dec
from . import derivatives as dv
from . import oracle as oc
from . import projections as pj
from . import space as spc
from .errors import PreconditionError, ProjcalcError
from .instances import _sample_rows, gen_instance, make_weights, point_at_norm
from .report import CaseResult, Report, build_summary

ALL_OPS = {
    "norm_primal",
    "norm_dual",
    "pair",
    "duality_map",
    "duality_map_inv",
    "smoothness",
    "a_coef",
    "o_part",
    "a_star",
    "o_star",
    "in_O",
    "mask_restrict",
    "pos_part",
    "neg_part",
    "classify_region",
    "project",
    "variational_residual",
    "classify_direction",
    "frechet_apply",
    "gateaux_fd",
    "nonsmoothness_witness",
    "coderiv_ball",
    "coderiv_cylinder",
    "cone_theta_member",
    "cone_fiber",
    "contains",
    "coderiv_quotient",
    "quotient_denominator_pair",
    "test_membership",
    "run_suite",
    "gen_instance",
}


@dataclass
class SuiteSpec:
    suite: str
    n: int = 8
    p: float = 2.0
    r: float = 1.0
    mask_density: float = 0.5
    weights_mode: str = "ones"
    seed: int = 0
    samples: int = 100
    tol_scale: float = 1.0
    case_filter: str | None = None

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise PreconditionError(f"unknown suite {self.suite!r}; choose from {SUITE_NAMES}")
        if not (spc.P_MIN <= self.p <= spc.P_MAX):
            raise PreconditionError(f"p must lie in [{spc.P_MIN}, {spc.P_MAX}], got {self.p}")
        if not spc._is_int(self.n) or self.n < 2:
            raise PreconditionError(f"suites need an integer dimension n >= 2, got {self.n!r}")
        if not (0.0 < self.mask_density <= 1.0):
            raise PreconditionError("mask density must lie in (0, 1]")
        if not (0.0 < self.r < np.inf):
            raise PreconditionError(f"radius must be positive and finite, got {self.r}")
        if not spc._is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise PreconditionError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not spc._is_int(self.samples) or self.samples < 10:
            raise PreconditionError(f"sample count must be an integer >= 10, got {self.samples!r}")
        if not (0.0 < self.tol_scale < np.inf):
            raise PreconditionError(f"tolerance scale must be positive and finite, got {self.tol_scale}")
        if self.weights_mode not in ("ones", "random"):
            raise PreconditionError("weights mode must be 'ones' or 'random'")


@dataclass(frozen=True)
class Env:
    """What one suite's cases share; its generator advances from case to case."""

    spec: SuiteSpec
    sp: spc.SpaceConfig
    mask: frozenset[int]
    ball: pj.Ball
    cyl: pj.Cylinder
    cone: pj.PositiveCone
    sub: pj.CoordSubspace
    ns: int
    rng: np.random.Generator
    anchor: dec.Anchor | None
    cfg: oc.OracleConfig

    def tol(self, base: float) -> float:
        return base * self.spec.tol_scale


@dataclass(frozen=True)
class Case:
    id: str
    statement: str
    check: Callable[[Env], tuple]
    when: Callable[[Env], bool] | None = None


def _case(case_id: str, statement: str, when=None) -> Callable[[Callable], Case]:
    """Decorator: the check below becomes the row ``Case(case_id, statement, check, when)``."""
    return lambda check: Case(case_id, statement, check, when)


@dataclass(frozen=True)
class Suite:
    tag: int
    ops: tuple[str, ...]
    cases: tuple[Case, ...]
    samples: Callable[[int], int] = lambda s: s
    # The decomposition suite draws its anchor from the generator before its
    # first case; no other suite draws outside its cases.
    anchored: bool = False


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _env(spec: SuiteSpec, suite: Suite) -> Env:
    sp = spc.SpaceConfig(
        n=spec.n, p=spec.p, weights=make_weights(spec.n, spec.weights_mode, _rng(spec.seed, 0))
    )
    mask = frozenset(range(min(max(1, int(round(spec.mask_density * spec.n))), spec.n)))
    rng = _rng(spec.seed, suite.tag)
    anchor = dec.Anchor.at(point_at_norm(sp, pj.Ball(1.0), rng, 1.0)) if suite.anchored else None
    # The oracle cases draw clamp(samples, 32, 128) random directions per
    # radius, so --samples 10 and --samples 32 give the same oracle metrics.
    cfg = oc.OracleConfig(seed=spec.seed, directions_per_radius=min(128, max(32, spec.samples)))
    return Env(
        spec=spec, sp=sp, mask=mask, ball=pj.Ball(spec.r), cyl=pj.Cylinder(spec.r, mask),
        cone=pj.PositiveCone(), sub=pj.CoordSubspace(mask), ns=suite.samples(spec.samples),
        rng=rng, anchor=anchor, cfg=cfg,
    )


def _rand_primal(sp, rng, scale=1.0):
    return sp.primal(scale * rng.standard_normal(sp.n))


def _rand_dual(sp, rng, scale=1.0):
    return sp.dual(scale * rng.standard_normal(sp.n))


@_case("space/duality-identity", "<J(x), x> = |x|^2 and |J(x)|_q = |x|_p")
def _duality_identity(env: Env):
    sp, rng, ns = env.sp, env.rng, env.ns
    worst_pairing = worst_norm = 0.0
    for _ in range(ns):
        x = _rand_primal(sp, rng)
        jx = spc.duality_map(x)
        nrm = spc.norm_primal(x)
        worst_pairing = max(
            worst_pairing, abs(spc.pair(jx, x) - nrm**2) / max(1.0, nrm**2)
        )
        worst_norm = max(worst_norm, abs(spc.norm_dual(jx) - nrm) / max(1.0, nrm))
    ok = worst_pairing <= env.tol(1e-9) and worst_norm <= env.tol(1e-9)
    return ok, {"worst_pairing": worst_pairing, "worst_norm": worst_norm}


@_case("space/norm-inequality", "2<J(y), x-y> <= |x|^2 - |y|^2 <= 2<J(x), x-y>")
def _norm_inequality(env: Env):
    sp, rng, ns = env.sp, env.rng, env.ns
    worst = 0.0
    for _ in range(ns):
        x, y = _rand_primal(sp, rng), _rand_primal(sp, rng)
        gap = spc.norm_primal(x) ** 2 - spc.norm_primal(y) ** 2
        lo = 2.0 * spc.pair(spc.duality_map(y), x - y) - gap
        hi = gap - 2.0 * spc.pair(spc.duality_map(x), x - y)
        worst = max(worst, lo, hi)
    return worst <= env.tol(1e-9), {"worst_violation": worst}


@_case("space/inverse-composition", "J* o J = id and J o J* = id")
def _inverse_composition(env: Env):
    sp, rng, ns = env.sp, env.rng, env.ns
    worst = 0.0
    for _ in range(ns):
        x = _rand_primal(sp, rng)
        back = spc.duality_map_inv(spc.duality_map(x))
        worst = max(
            worst, spc.norm_primal(back - x) / max(1.0, spc.norm_primal(x))
        )
        xs = _rand_dual(sp, rng)
        fwd = spc.duality_map(spc.duality_map_inv(xs))
        worst = max(worst, spc.norm_dual(fwd - xs) / max(1.0, spc.norm_dual(xs)))
    return worst <= env.tol(1e-8), {"worst_residual": worst}


@_case("space/smoothness-forward-difference",
       "norm difference quotients converge to the smoothness value at first order")
def _smoothness_forward_difference(env: Env):
    sp, rng, ns = env.sp, env.rng, env.ns
    worst_last = 0.0
    worst_ratio = 1e6
    for _ in range(max(10, ns // 10)):
        raw = rng.standard_normal(sp.n)
        raw = np.sign(raw) * (np.abs(raw) + 0.05)
        x = sp.primal(raw)
        x = (1.0 / spc.norm_primal(x)) * x
        y = point_at_norm(sp, pj.Ball(1.0), rng, 1.0)
        psi = spc.smoothness(x, y)
        errs = [
            abs((spc.norm_primal(x + t * y) - spc.norm_primal(x)) / t - psi)
            for t in (1e-2, 1e-3, 1e-5)
        ]
        worst_last = max(worst_last, errs[-1])
        if errs[1] > 1e-12:
            worst_ratio = min(worst_ratio, errs[0] / errs[1])
    ok = worst_last <= env.tol(1e-4) and worst_ratio >= 7.9
    return ok, {"worst_error_at_1e-5": worst_last, "worst_decade_ratio": worst_ratio}


@_case("space/sign-parity", "J(-x) = -J(x) and J(c x) = c J(x) for c > 0")
def _sign_parity(env: Env):
    sp, rng, ns = env.sp, env.rng, env.ns
    worst = 0.0
    for _ in range(ns):
        x = _rand_primal(sp, rng)
        lam = float(rng.uniform(0.1, 5.0))
        jx = spc.duality_map(x)
        worst = max(worst, spc.norm_dual(spc.duality_map(-x) + jx))
        gap = spc.norm_dual(spc.duality_map(lam * x) - lam * jx)
        worst = max(worst, gap / max(1.0, lam * spc.norm_dual(jx)))
    return worst <= env.tol(1e-9), {"worst_residual": worst}


@_case("decomposition/recomposition", "x = a(x) xbar + o(x) and x* = a*(x*) J(xbar) + o*(x*)")
def _recomposition(env: Env):
    sp, rng, ns, anchor = env.sp, env.rng, env.ns, env.anchor
    worst_p = worst_d = 0.0
    for _ in range(ns):
        x = _rand_primal(sp, rng)
        back = dec.a_coef(anchor, x) * anchor.xbar + dec.o_part(anchor, x)
        worst_p = max(worst_p, spc.norm_primal(x - back) / max(1.0, spc.norm_primal(x)))
        xs = _rand_dual(sp, rng)
        dback = dec.a_star(anchor, xs) * anchor.xbar_star + dec.o_star(anchor, xs)
        worst_d = max(worst_d, spc.norm_dual(xs - dback) / max(1.0, spc.norm_dual(xs)))
    ok = worst_p <= env.tol(1e-12) and worst_d <= env.tol(1e-12)
    return ok, {"worst_primal": worst_p, "worst_dual": worst_d}


@_case("decomposition/orthogonality",
       "residuals are annihilated by J(xbar) and lie in the tangent hyperplane")
def _orthogonality(env: Env):
    sp, rng, ns, anchor = env.sp, env.rng, env.ns, env.anchor
    worst = 0.0
    for _ in range(ns):
        x = _rand_primal(sp, rng)
        o = dec.o_part(anchor, x)
        worst = max(worst, abs(spc.pair(anchor.xbar_star, o)) / max(1.0, spc.norm_primal(x)))
        if not dec.in_O(anchor, o):
            worst = max(worst, 1.0)
    return worst <= env.tol(1e-9), {"worst_pairing": worst}


@_case("decomposition/convergence", "a(u) -> 1 and o(u) -> 0 along norm-convergent sequences")
def _convergence(env: Env):
    sp, rng, anchor = env.sp, env.rng, env.anchor
    w = _rand_primal(sp, rng)
    gaps = []
    for k in range(1, 7):
        u = anchor.xbar + (10.0**-k) * w
        gaps.append(
            max(abs(dec.a_coef(anchor, u) - 1.0), spc.norm_primal(dec.o_part(anchor, u)))
        )
    monotone = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    # The gap is t max(|a(w)|, |o(w)|) <= 2t|w| at the last step t = 1e-6.
    return monotone and gaps[-1] <= 1e-5 * max(1.0, spc.norm_primal(w)), {"final_gap": gaps[-1]}


@_case("decomposition/tangential-ratio",
       "(|xbar + v| - |xbar|)/|v| decreases to 0 along tangent directions")
def _tangential_ratio(env: Env):
    sp, rng, anchor = env.sp, env.rng, env.anchor
    v = dec.o_part(anchor, _rand_primal(sp, rng))
    v = (1.0 / spc.norm_primal(v)) * v
    ratios = []
    for k in range(1, 7):
        s = 10.0**-k
        ratios.append((spc.norm_primal(anchor.xbar + s * v) - anchor.norm) / s)
    monotone = all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
    return monotone and ratios[-1] <= env.tol(1e-3), {"final_ratio": ratios[-1]}


@_case("decomposition/linearity", "both splits are additive and homogeneous")
def _linearity(env: Env):
    sp, rng, ns, anchor = env.sp, env.rng, env.ns, env.anchor
    worst = 0.0
    for _ in range(ns // 2):
        x, y = _rand_primal(sp, rng), _rand_primal(sp, rng)
        al, be = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        lhs = dec.a_coef(anchor, al * x + be * y)
        rhs = al * dec.a_coef(anchor, x) + be * dec.a_coef(anchor, y)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        lo = dec.o_part(anchor, al * x + be * y)
        ro = al * dec.o_part(anchor, x) + be * dec.o_part(anchor, y)
        worst = max(worst, spc.norm_primal(lo - ro) / max(1.0, spc.norm_primal(ro)))
    return worst <= env.tol(1e-10), {"worst_residual": worst}


def _optimality(env: Env, set_):
    sp, rng, ns = env.sp, env.rng, env.ns
    worst_dist = -np.inf
    worst_resid = np.inf
    fixed_ok = True
    for i in range(ns):
        x = _rand_primal(sp, rng, scale=2.0)
        u = pj.project(set_, x)
        uu = pj.project(set_, u)
        if spc.norm_primal(uu - u) > 1e-12 * max(1.0, spc.norm_primal(u)):
            fixed_ok = False
        zs = _sample_rows(set_, sp, rng, 40)
        du = spc.norm_primal(x - u)
        dz = spc._norm(x.coords - zs, sp.weights, sp.p)
        worst_dist = max(worst_dist, float(np.max(du - dz)))
        # The first sample calls the public op on typed points: the same bits.
        resid = (pj.variational_residual(set_, x, u, [sp.primal(z) for z in zs]) if i == 0
                 else pj._residual_rows(set_, sp, x.coords, u.coords, zs))
        worst_resid = min(worst_resid, resid)
    ok = fixed_ok and worst_dist <= env.tol(1e-9) and worst_resid >= -env.tol(1e-8)
    return ok, {"worst_distance_gap": worst_dist, "worst_residual": worst_resid}


@_case("projections/region-classification", "constructed boundary points classify as boundary")
def _region_classification(env: Env):
    sp, rng, spec = env.sp, env.rng, env.spec
    _, ball_set, xb = gen_instance("ball", "boundary", spec.seed, n=spec.n, p=spec.p, r=spec.r)
    on_edge = pj.classify_region(ball_set, xb) is pj.RegionKind.BOUNDARY
    inside = pj.classify_region(env.ball, pj.project(env.ball, _rand_primal(sp, rng, 0.1)))
    ok = on_edge and inside in (pj.RegionKind.INTERIOR, pj.RegionKind.BOUNDARY)
    return ok, {"boundary_ok": float(on_edge)}


@_case("projections/subspace-affine",
       "P(a x + b y) = a P(x) + b y on the subspace; residual dual vanishes there")
def _subspace_affine(env: Env):
    sp, rng, ns, mask, sub = env.sp, env.rng, env.ns, env.mask, env.sub
    worst = 0.0
    for _ in range(ns):
        x = _rand_primal(sp, rng)
        y = pj.mask_restrict(_rand_primal(sp, rng), mask)
        al, be = float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))
        lhs = pj.project(sub, al * x + be * y)
        rhs = al * pj.project(sub, x) + be * y
        worst = max(worst, spc.norm_primal(lhs - rhs) / max(1.0, spc.norm_primal(rhs)))
        g = spc.duality_map(x - pj.project(sub, x))
        for i in sorted(mask):
            e = sp.primal(np.eye(sp.n)[i])
            worst = max(worst, abs(spc.pair(g, e)))
    return worst <= env.tol(1e-9), {"worst_residual": worst}


@_case("projections/cone-calculus",
       "cone projection equals the positive part, is positively homogeneous, kills -K")
def _cone_calculus(env: Env):
    sp, rng, ns, cone = env.sp, env.rng, env.ns, env.cone
    worst = 0.0
    for _ in range(ns):
        f = _rand_primal(sp, rng)
        u = pj.project(cone, f)
        worst = max(worst, spc.norm_primal(u - pj.pos_part(f)))
        worst = max(worst, spc.norm_primal(f - (u + pj.neg_part(f))))
        lam = float(rng.uniform(0.0, 3.0))
        worst = max(
            worst,
            spc.norm_primal(pj.project(cone, lam * f) - lam * u)
            / max(1.0, lam * spc.norm_primal(u)),
        )
        neg = sp.primal(-np.abs(rng.standard_normal(sp.n)))
        worst = max(worst, spc.norm_primal(pj.project(cone, neg)))
    return worst <= env.tol(1e-12), {"worst_residual": worst}


@_case("projections/cone-duality-split",
       "sign parts of J(f) are rescaled duality images of the sign parts of f")
def _cone_duality_split(env: Env):
    sp, rng, ns = env.sp, env.rng, env.ns
    p = sp.p
    worst = 0.0
    for _ in range(ns):
        f = _rand_primal(sp, rng)
        fplus, fminus = pj.pos_part(f), pj.neg_part(f)
        if spc.is_theta(fplus) or spc.is_theta(fminus):
            continue
        jf = spc.duality_map(f)
        nf = spc.norm_primal(f)
        for part, npart in ((fplus, spc.norm_primal(fplus)), (fminus, spc.norm_primal(fminus))):
            pred = (npart ** (p - 2.0) / nf ** (p - 2.0)) * spc.duality_map(part)
            got = pj.pos_part(jf) if part is fplus else pj.neg_part(jf)
            worst = max(worst, spc.norm_dual(got - pred) / max(1.0, spc.norm_dual(pred)))
            want = npart**p / nf ** (p - 2.0)
            worst = max(worst, abs(spc.pair(jf, part) - want) / max(1.0, want))
    return worst <= env.tol(1e-9), {"worst_residual": worst}


def _fd_agreement(env: Env, set_):
    sp, rng, ns = env.sp, env.rng, env.ns
    worst = 0.0
    for target in (0.5 * env.spec.r, 1.7 * env.spec.r):
        for _ in range(ns):
            x = point_at_norm(sp, set_, rng, target)
            for _ in range(3):
                v = _rand_primal(sp, rng)
                closed = dv.frechet_apply(set_, x, v)
                fd = dv.gateaux_fd(set_, x, v)
                worst = max(
                    worst,
                    spc.norm_primal(closed - fd.value) / max(1.0, spc.norm_primal(v)),
                )
    return worst <= env.tol(1e-4), {"worst_gap": worst}


@_case("derivatives/direction-classification",
       "analytic up/down decision matches direct norm evaluation along the schedule")
def _direction_classification(env: Env):
    # "Up" with positive slope exceeds the radius at every step, by
    # convexity of t -> |xb + t v|. "Down" only promises a small-t
    # window, so it is checked at the tail of the schedule, below the
    # scale where curvature can pull the norm back above the radius.
    sp, rng, ns = env.sp, env.rng, env.ns
    agreements = 0
    trials = 0
    for set_ in (env.ball, env.cyl):
        sel = pj._radial(set_, sp.n)[1]
        for _ in range(ns * 2):
            xb = point_at_norm(sp, set_, rng, set_.r)
            v = _rand_primal(sp, rng)
            cls = dv.classify_direction(set_, xb, v)
            while abs(cls.slope) < 0.05:
                v = _rand_primal(sp, rng)
                cls = dv.classify_direction(set_, xb, v)
            up = cls.kind is dv.DirectionKind.UP
            ok = True
            for t in dv.DEFAULT_SCHEDULE.steps:
                if not up and t > 1e-4:
                    continue
                exceeds = pj._masked_norm(sp, sel, (xb + t * v).coords) > set_.r
                ok = ok and (exceeds == up)
            trials += 1
            agreements += int(ok)
    return agreements == trials, {"agreements": agreements, "trials": trials}


@_case("derivatives/annihilation",
       "the exterior derivative maps x to its unmasked part and into the tangent plane of x_M")
def _annihilation(env: Env):
    sp, rng = env.sp, env.rng
    worst = 0.0
    for set_ in (env.ball, env.cyl):
        x = point_at_norm(sp, set_, rng, 1.6 * env.spec.r)
        xm = sp.primal(np.where(pj._radial(set_, sp.n)[1], x.coords, 0.0))
        worst = max(worst, spc.norm_primal(dv.frechet_apply(set_, x, x) - (x - xm)))
        jm = spc.duality_map(xm)
        for _ in range(10):
            v = _rand_primal(sp, rng)
            worst = max(worst, abs(spc.pair(jm, dv.frechet_apply(set_, x, v))))
    return worst <= env.tol(1e-9), {"worst_residual": worst}


@_case("derivatives/nonsmoothness-witnesses",
       "every boundary point yields a direction with asymmetric one-sided derivatives")
def _nonsmoothness_witnesses(env: Env):
    spec, ns = env.spec, env.ns
    found = 0
    trials = 0
    worst_defect = np.inf
    for kind in ("ball", "cylinder", "cone"):
        for k in range(ns):
            _, set_, xb = gen_instance(
                kind, "boundary", spec.seed + k, n=spec.n, p=spec.p,
                r=spec.r, mask_density=spec.mask_density,
                weights_mode=spec.weights_mode,
            )
            w = dv.nonsmoothness_witness(set_, xb)
            trials += 1
            if w is not None:
                found += 1
                worst_defect = min(
                    worst_defect, w.defect / spc.norm_primal(w.direction)
                )
    ok = found == trials and worst_defect >= 0.1
    return ok, {"found": found, "trials": trials, "worst_relative_defect": worst_defect}


def _fd_jacobian(set_, x, h=1e-6):
    """Central differences of the projection, one column per axis."""
    sp, step = x.space, np.eye(x.space.n) * h
    fwd, bwd = (pj._project_coords(set_, sp, x.coords + s) for s in (step, -step))
    # C order, as a stack of columns has: ``jac.T @ v`` then sums in the same order.
    return np.ascontiguousarray(((fwd - bwd) / (2 * h)).T)


def _adjoint_gap(set_, x, fiber, ys, v):
    """Relative defect of <fiber value, v> = <y*, dP(x) v>."""
    lhs = spc.pair(fiber.value, v)
    rhs = spc.pair(ys, dv.frechet_apply(set_, x, v))
    return abs(lhs - rhs) / max(1.0, spc.norm_dual(ys) * spc.norm_primal(v))


def _transpose_gap(jac, fiber, ys):
    """Relative distance from the fiber value to the adjoint action of the
    difference Jacobian."""
    w = ys.space.weights
    want = ys.space.dual((jac.T @ (w * ys.coords)) / w)
    return spc.norm_dual(fiber.value - want) / max(1.0, spc.norm_dual(ys))


def _member(fiber, xs) -> bool:
    """Whether x* lies in a closed-form fiber: ``Singleton(v)`` holds it iff
    x* equals v, a ``Box`` or an ``EmptyFiber`` answers by ``contains``, and a
    ``ThetaMembership`` answers only for x* = theta*, by its verdict."""
    if isinstance(fiber, cd.Singleton):
        return bool(np.array_equal(fiber.value.coords, xs.coords))
    if isinstance(fiber, cd.ThetaMembership):
        if xs.coords.any():
            raise PreconditionError("a ThetaMembership answers only for theta*")
        return fiber.verdict is cd.Verdict.MEMBER
    return cd.contains(fiber, xs).holds


def _closed_form(set_, xb, ys):
    """The closed-form fiber of y* at xbar for any of the three sets."""
    if isinstance(set_, pj.PositiveCone):
        return cd.cone_fiber(xb, ys)
    if isinstance(set_, pj.Cylinder):
        return cd.coderiv_cylinder(set_.r, set_.mask, xb, ys)
    return cd.coderiv_ball(set_.r, xb, ys)


def _adjoint_identity(env: Env, set_):
    sp, rng, r = env.sp, env.rng, env.spec.r
    worst = 0.0
    for target in (0.5 * r, 1.8 * r):
        for _ in range(env.ns):
            x = point_at_norm(sp, set_, rng, target)
            for _ in range(2):
                ys, v = _rand_dual(sp, rng), _rand_primal(sp, rng)
                worst = max(worst, _adjoint_gap(set_, x, _closed_form(set_, x, ys), ys, v))
    return worst <= env.tol(1e-8), {"worst_gap": worst}


def _fd_transpose(env: Env, set_):
    sp, rng, r = env.sp, env.rng, env.spec.r
    worst = 0.0
    for target in (0.4 * r, 1.9 * r):
        x = point_at_norm(sp, set_, rng, target)
        jac = _fd_jacobian(set_, x)
        for _ in range(5):
            ys = _rand_dual(sp, rng)
            worst = max(worst, _transpose_gap(jac, _closed_form(set_, x, ys), ys))
    return worst <= env.tol(1e-4), {"worst_gap": worst}


def _boundary_dispatch(env: Env, set_):
    """At a boundary point xbar, with J_M = J(xbar_M): theta* is in the fiber
    of -J_M and -2 J_M, and not in that of J_M (lambda < 0), of a query d
    tangential to xbar_M (lambda = 0), of -J_M misaligned by 1e-3 along d,
    nor, if the mask leaves a coordinate out, of -J_M plus a tail there."""
    sp, rng, zero = env.sp, env.rng, env.sp.zero_dual()
    xb = point_at_norm(sp, set_, rng, set_.r)
    sel = pj._radial(set_, sp.n)[1]
    xm = sp.primal(np.where(sel, xb.coords, 0.0))
    at_zero = _closed_form(set_, xb, zero)
    zero_ok = isinstance(at_zero, cd.Singleton) and _member(at_zero, zero)
    empty_ok = isinstance(_closed_form(set_, xb, spc.duality_map(xb)), cd.EmptyFiber)
    jm = spc.duality_map(xm)
    d = dec.o_star(dec.Anchor.at(xm), _rand_dual(sp, rng))
    njm = spc.norm_dual(jm)
    bad = [jm, d, -1.0 * jm + (1e-3 * njm / spc.norm_dual(d)) * d]
    if not sel.all():
        # Relative to |J_M|, not to r: xbar's unmasked part is drawn at unit scale.
        bad.append(-1.0 * jm + 0.5 * njm * sp.dual(np.eye(sp.n)[np.flatnonzero(~sel)[0]]))
    member = all(_member(_closed_form(set_, xb, c * jm), zero) for c in (-1.0, -2.0))
    not_member = not any(_member(_closed_form(set_, xb, ys), zero) for ys in bad)
    return zero_ok and empty_ok and member and not_member, {
        "zero_ok": float(zero_ok),
        "empty_ok": float(empty_ok),
        "member_ok": float(member),
        "not_member_ok": float(not_member),
    }


@_case("coderiv-ball/hilbert-grid",
       "p = 2 verdicts coincide with the parallel-and-negative characterization",
       when=lambda env: env.sp.p == 2.0)
def _hilbert_grid(env: Env):
    sp, rng, ball, r = env.sp, env.rng, env.ball, env.spec.r
    xb = point_at_norm(sp, ball, rng, ball.r)
    anchor = dec.Anchor.at(xb)
    agreements = 0
    for i in range(20):
        if i < 6:
            c = (0.5, 1.0, 2.0)[i % 3]
            ys = (-c if i < 3 else c) * spc.duality_map(xb)
        elif i < 13:
            ys = dec.o_star(anchor, _rand_dual(sp, rng))
        else:
            ys = _rand_dual(sp, rng)
        if spc.norm_dual(ys) == 0.0:
            agreements += 1
            continue
        member = _member(cd.coderiv_ball(r, xb, ys), sp.zero_dual())
        o_zero = spc.norm_dual(dec.o_star(anchor, ys)) <= 1e-8 * spc.norm_dual(ys)
        agreements += int(member == (o_zero and spc.pair(ys, xb) < 0.0))
    return agreements == 20, {"agreements": agreements}


@_case("coderiv-cylinder/full-mask-reduces-to-ball",
       "with every coordinate masked the cylinder fibers equal the ball fibers")
def _full_mask_reduces_to_ball(env: Env):
    sp, rng, r = env.sp, env.rng, env.spec.r
    full = frozenset(range(sp.n))
    agreements = 0
    trials = 0
    for target in (0.5 * r, r, 1.9 * r):
        x = point_at_norm(sp, pj.Ball(r), rng, target)
        queries = [_rand_dual(sp, rng) for _ in range(15)]
        queries += [sp.zero_dual(), spc.duality_map(x), -1.0 * spc.duality_map(x)]
        for ys in queries:
            a = cd.coderiv_ball(r, x, ys)
            b = cd.coderiv_cylinder(r, full, x, ys)
            trials += 1
            if type(a) is not type(b):
                continue
            if isinstance(a, cd.Singleton):
                gap = spc.norm_dual(a.value - b.value)
                agreements += int(gap <= 1e-10 * max(1.0, spc.norm_dual(a.value)))
            elif isinstance(a, cd.ThetaMembership):
                agreements += int(a.verdict is b.verdict)
            else:
                agreements += 1
    return agreements == trials, {"agreements": agreements, "trials": trials}


@_case("coderiv-cone/sign-conditions",
       "nonpositive points accept nonnegative duals; positive points reject their image")
def _sign_conditions(env: Env):
    sp, rng, ns = env.sp, env.rng, env.ns
    ok = True
    for _ in range(ns):
        neg = sp.primal(-np.abs(rng.standard_normal(sp.n)))
        phi = sp.dual(np.abs(rng.standard_normal(sp.n)))
        ok &= cd.cone_theta_member(neg, phi).verdict is cd.Verdict.MEMBER
        fpos = sp.primal(np.abs(rng.standard_normal(sp.n)) + 0.1)
        ok &= (
            cd.cone_theta_member(fpos, spc.duality_map(fpos)).verdict
            is cd.Verdict.NOT_MEMBER
        )
    return bool(ok), {"ok": float(ok)}


@_case("coderiv-cone/duality-image-membership", "J(f) belongs to its own fiber on the cone")
def _duality_image_membership(env: Env):
    sp, rng, ns = env.sp, env.rng, env.ns
    ok = True
    for _ in range(ns):
        f = sp.primal(np.abs(rng.standard_normal(sp.n)))
        jf = spc.duality_map(f)
        ok &= cd.contains(cd.cone_fiber(f, jf), jf).holds
    return bool(ok), {"ok": float(ok)}


@_case("coderiv-cone/origin-interval",
       "the origin fiber of a nonnegative query is the componentwise interval")
def _origin_interval(env: Env):
    sp, rng, ns = env.sp, env.rng, env.ns
    ok = True
    for _ in range(ns):
        psi = sp.dual(np.abs(rng.standard_normal(sp.n)))
        box = cd.cone_fiber(sp.zero_primal(), psi)
        inside = sp.dual(rng.uniform(0.0, 1.0, sp.n) * psi.coords)
        ok &= cd.contains(box, inside).holds
        j = int(rng.integers(0, sp.n))
        above = psi.coords.copy()
        above[j] += 0.3
        ok &= not cd.contains(box, sp.dual(above)).holds
        below = inside.coords.copy()
        below[j] = -0.2
        ok &= not cd.contains(box, sp.dual(below)).holds
    return bool(ok), {"ok": float(ok)}


@_case("oracle/denominator-equivalence",
       "sum and root-of-squares denominators give same-sign quotients within sqrt(2)")
def _denominator_equivalence(env: Env):
    sp, rng, ball = env.sp, env.rng, env.ball
    worst_hi = 0.0
    worst_lo = np.inf
    xb = point_at_norm(sp, ball, rng, ball.r)
    for _ in range(50):
        xs, ys = _rand_dual(sp, rng), _rand_dual(sp, rng)
        u = xb + float(rng.uniform(1e-4, 1e-1)) * point_at_norm(sp, pj.Ball(1.0), rng, 1.0)
        q_sum, q_a = oc.quotient_denominator_pair(ball, xb, xs, ys, u)
        if q_sum * q_a < 0.0:
            worst_hi = np.inf
        if abs(q_sum) > 0.0:
            ratio = abs(q_a) / abs(q_sum)
            worst_hi = max(worst_hi, ratio)
            worst_lo = min(worst_lo, ratio)
    ok = worst_hi <= np.sqrt(2.0) + 1e-12 and worst_lo >= 1.0 - 1e-12
    return ok, {"max_ratio": worst_hi, "min_ratio": worst_lo}


def _offset(sp, coords):
    """The dual point along coords at dual norm 0.5, 50 times the oracle's
    reject threshold: an absolute offset, since the oracle radii are absolute."""
    d = sp.dual(coords)
    return (0.5 / spc.norm_dual(d)) * d


def _regime_rows(env: Env) -> list[tuple]:
    """The regime table: rows (set, xbar, x*, y*, member) asking whether x*
    lies in the fiber of y* at xbar; the closed form and the oracle must both
    answer ``member``."""
    sp, rng, ball, cyl, cone, r = env.sp, env.rng, env.ball, env.cyl, env.cone, env.spec.r
    zero = sp.zero_dual()
    rows = []
    # A singleton holds its value, and nothing next to it.
    for set_, target in ((ball, 0.5 * r), (ball, 1.8 * r), (cyl, 0.5 * r), (cyl, 1.8 * r)):
        x, ys = point_at_norm(sp, set_, rng, target), _rand_dual(sp, rng)
        value = _closed_form(set_, x, ys).value
        rows.append((set_, x, value, ys, True))
        rows.append((set_, x, value + _offset(sp, np.eye(sp.n)[rng.integers(sp.n)]), ys, False))
    # The J(xbar) query at a boundary point has an empty fiber.
    for set_ in (ball, cyl):
        xb = point_at_norm(sp, set_, rng, set_.r)
        rows.append((set_, xb, _rand_dual(sp, rng), spc.duality_map(xb), False))
    # theta* at a boundary point: the aligned query holds it, J(xbar) and a
    # tangential query do not, nor does the cylinder query with an unmasked tail.
    xb = point_at_norm(sp, ball, rng, ball.r)
    jx = spc.duality_map(xb)
    rows.append((ball, xb, zero, -float(rng.uniform(0.5, 1.5)) * jx, True))
    rows.append((ball, xb, zero, jx, False))
    ortho = dec.o_star(dec.Anchor.at(xb), _rand_dual(sp, rng))
    rows.append((ball, xb, zero, _offset(sp, ortho.coords), False))
    xc = point_at_norm(sp, cyl, rng, cyl.r)
    jm = pj.mask_restrict(spc.duality_map(xc), env.mask)
    rows.append((cyl, xc, zero, -1.0 * jm, True))
    comp = pj.mask_complement(env.mask, sp.n)
    if comp:
        rows.append((cyl, xc, zero, _offset(sp, np.eye(sp.n)[min(comp)]) - jm, False))
    # The cone box at a positive point, a negative point and the origin.
    f = sp.primal(np.abs(rng.standard_normal(sp.n)) + 0.1)
    jf = spc.duality_map(f)
    rows.append((cone, f, jf, jf, True))
    rows.append((cone, f, zero, jf, False))
    neg = sp.primal(-np.abs(rng.standard_normal(sp.n)) - 0.1)
    phi = sp.dual(np.abs(rng.standard_normal(sp.n)))
    rows.append((cone, neg, zero, phi, True))
    rows.append((cone, neg, zero, -1.0 * phi, True))
    psi = sp.dual(np.abs(rng.standard_normal(sp.n)) + 0.2)
    inside = rng.uniform(0.0, 1.0, sp.n) * psi.coords
    below, above = inside.copy(), psi.coords.copy()
    below[0], above[-1] = -0.4, above[-1] + 0.5
    for xs, member in ((inside, True), (below, False), (above, False)):
        rows.append((cone, sp.zero_primal(), sp.dual(xs), psi, member))
    # A mixed-sign point, coordinate i positive, zero or negative by i mod 3:
    # theta* is a member, and not once phi != 0 at a positive coordinate or
    # phi < 0 at a zero one.
    sign = np.array([1.0, 0.0, -1.0])[np.arange(sp.n) % 3]
    g = sp.primal(sign * (np.abs(rng.standard_normal(sp.n)) + 0.1))
    z = rng.standard_normal(sp.n)
    m = np.where(sign > 0.0, 0.0, np.where(sign < 0.0, z, np.abs(z)))
    e0, e1 = np.eye(sp.n)[:2]
    rows.append((cone, g, zero, sp.dual(m), True))
    rows.append((cone, g, zero, sp.dual(m) + _offset(sp, e0), False))
    rows.append((cone, g, zero, sp.dual(np.where(e1 > 0.0, 0.0, m)) - _offset(sp, e1), False))
    return rows


def _base_ray_ratio(set_, xb, xs, ys) -> float:
    """The larger quotient at xbar -/+ 1e-4 xbar_M over its floor c/3: with
    y* = J(xbar) it is exactly max(a, (c - a)/2), a = <x*, xbar_M>/|xbar_M|
    and c = <y*, xbar_M>/|xbar_M|, and c falls like |xbar|^(2-p)."""
    sp = xb.space
    ray = sp.primal(np.where(pj._radial(set_, sp.n)[1], xb.coords, 0.0))
    best = max(oc.coderiv_quotient(set_, xb, xs, ys, xb + s * ray) for s in (-1e-4, 1e-4))
    return best / (spc.pair(ys, ray) / spc.norm_primal(ray) / 3.0)


@_case("oracle/regime-table",
       "closed-form fiber membership and the sampled verdict agree on every regime")
def _regime_table(env: Env):
    rows = _regime_rows(env)
    closed_bad = oracle_bad = 0
    finals = {True: [-np.inf], False: [np.inf]}  # last-radius maxima of members, non-members
    worst_ray = np.inf
    for set_, xb, xs, ys, member in rows:
        fiber = _closed_form(set_, xb, ys)
        verdict = oc.test_membership(set_, xb, xs, ys, env.cfg)
        closed_bad += _member(fiber, xs) != member
        oracle_bad += isinstance(verdict, oc.NotRejected) != member
        finals[member].append(verdict.max_quotient_per_radius[-1])
        if isinstance(fiber, cd.EmptyFiber) and not isinstance(set_, pj.PositiveCone):
            worst_ray = min(worst_ray, _base_ray_ratio(set_, xb, xs, ys))
    worst_member = max(finals[True])
    # The ratio is >= 1 in exact arithmetic; the margin covers rounding.
    ok = (closed_bad == oracle_bad == 0 and worst_member <= env.cfg.accept_threshold
          and worst_ray >= 1.0 - 1e-6)
    return ok, {"rows": len(rows), "closed_form_mismatches": closed_bad,
                "oracle_mismatches": oracle_bad, "worst_member_quotient": worst_member,
                "least_non_member_quotient": min(finals[False]), "worst_base_ray_ratio": worst_ray}


# -- the table -----------------------------------------------------------------

_OPTIMALITY = "projection is idempotent, distance-minimal, and satisfies the variational test"
_FD_AGREEMENT = "closed-form derivative agrees with one-sided finite differences"
_ADJOINT = "<fiber value, v> = <y*, dP v> at differentiable points"
_FD_TRANSPOSE = "fiber values match the transpose action of the difference Jacobian"
_BOUNDARY_DISPATCH = ("zero query -> zero singleton, J(xbar) query -> empty, theta* only for"
                      " negative multiples of J(xbar_M)")

SUITES = {
    "space-identities": Suite(
        tag=1,
        ops=("norm_primal", "norm_dual", "pair", "duality_map", "duality_map_inv", "smoothness"),
        cases=(_duality_identity, _norm_inequality, _inverse_composition,
               _smoothness_forward_difference, _sign_parity),
    ),
    "decomposition": Suite(
        tag=2,
        ops=("a_coef", "o_part", "a_star", "o_star", "in_O"),
        anchored=True,
        cases=(_recomposition, _orthogonality, _convergence, _tangential_ratio, _linearity),
    ),
    "projections": Suite(
        tag=3,
        ops=("mask_restrict", "pos_part", "neg_part", "classify_region", "project",
             "variational_residual", "gen_instance"),
        samples=lambda s: max(20, s // 2),
        cases=(
            Case("projections/ball-optimality", _OPTIMALITY,
                 lambda env: _optimality(env, env.ball)),
            Case("projections/cylinder-optimality", _OPTIMALITY,
                 lambda env: _optimality(env, env.cyl)),
            Case("projections/cone-optimality", _OPTIMALITY,
                 lambda env: _optimality(env, env.cone)),
            Case("projections/subspace-optimality", _OPTIMALITY,
                 lambda env: _optimality(env, env.sub)),
            _region_classification,
            _subspace_affine,
            _cone_calculus,
            _cone_duality_split,
        ),
    ),
    "derivatives": Suite(
        tag=4,
        ops=("classify_direction", "frechet_apply", "gateaux_fd", "nonsmoothness_witness",
             "gen_instance"),
        samples=lambda s: max(10, s // 5),
        cases=(
            Case("derivatives/ball-fd-agreement", _FD_AGREEMENT,
                 lambda env: _fd_agreement(env, env.ball)),
            Case("derivatives/cylinder-fd-agreement", _FD_AGREEMENT,
                 lambda env: _fd_agreement(env, env.cyl)),
            _direction_classification,
            _annihilation,
            _nonsmoothness_witnesses,
        ),
    ),
    "coderiv-ball": Suite(
        tag=5,
        ops=("coderiv_ball", "frechet_apply"),
        samples=lambda s: max(10, s // 5),
        cases=(
            Case("coderiv-ball/adjoint-identity", _ADJOINT,
                 lambda env: _adjoint_identity(env, env.ball)),
            Case("coderiv-ball/fd-transpose", _FD_TRANSPOSE,
                 lambda env: _fd_transpose(env, env.ball)),
            Case("coderiv-ball/boundary-dispatch", _BOUNDARY_DISPATCH,
                 lambda env: _boundary_dispatch(env, env.ball)),
            _hilbert_grid,
        ),
    ),
    "coderiv-cylinder": Suite(
        tag=6,
        ops=("coderiv_cylinder", "frechet_apply"),
        samples=lambda s: max(10, s // 5),
        cases=(
            Case("coderiv-cylinder/adjoint-identity", _ADJOINT,
                 lambda env: _adjoint_identity(env, env.cyl)),
            Case("coderiv-cylinder/fd-transpose", _FD_TRANSPOSE,
                 lambda env: _fd_transpose(env, env.cyl)),
            Case("coderiv-cylinder/boundary-dispatch", _BOUNDARY_DISPATCH,
                 lambda env: _boundary_dispatch(env, env.cyl)),
            _full_mask_reduces_to_ball,
        ),
    ),
    "coderiv-cone": Suite(
        tag=7,
        ops=("cone_theta_member", "cone_fiber", "contains"),
        samples=lambda s: max(10, s // 5),
        cases=(_sign_conditions, _duality_image_membership, _origin_interval),
    ),
    "oracle-crosscheck": Suite(
        tag=8,
        ops=("coderiv_quotient", "quotient_denominator_pair", "test_membership", "coderiv_ball",
             "coderiv_cylinder", "cone_fiber", "contains"),
        cases=(_denominator_equivalence, _regime_table),
    ),
}

SUITE_NAMES = [*SUITES, "all"]


def _result(spec: SuiteSpec, case: Case, ok, metrics, witness=None, error=None) -> CaseResult:
    repro = (
        f"projcalc run --suite {spec.suite} --n {spec.n} --p {spec.p} --r {spec.r}"
        f" --mask-density {spec.mask_density} --weights {spec.weights_mode}"
        f" --seed {spec.seed} --samples {spec.samples} --tol-scale {spec.tol_scale}"
        f" --case {case.id}"
    )
    return CaseResult(
        case_id=case.id,
        property=case.statement,
        status="pass" if ok else "fail",
        metrics={k: float(v) for k, v in metrics.items()},
        witness=None if witness is None else [float(w) for w in witness],
        repro=repro,
        error=error,
    )


def run_suite(spec: SuiteSpec) -> Report:
    """Execute the named suite and assemble a machine-readable report."""
    names = list(SUITES) if spec.suite == "all" else [spec.suite]
    ops = {"run_suite"}
    cases = []
    for name in names:
        suite = SUITES[name]
        if spec.case_filter not in (None, *(case.id for case in suite.cases)):
            continue
        ops.update(suite.ops)
        env = _env(spec, suite)
        for case in suite.cases:
            if case.when is None or case.when(env):
                try:
                    outcome = case.check(env)
                except ProjcalcError as exc:
                    # A raising case fails on its own; the run goes on.
                    outcome = (False, {}, None, f"{type(exc).__name__}: {exc}")
                result = _result(spec, case, *outcome)
                if spec.case_filter in (None, case.id):
                    cases.append(result)
    summary = build_summary(cases, ops, ALL_OPS)
    return Report(
        suite=spec.suite,
        timestamp=datetime.now(timezone.utc).isoformat(),
        config=asdict(spec),
        cases=cases,
        summary=summary,
    )

"""The benchmark's three workloads.

Each workload is a closed loop with one client in one process, at n = 8.
Its inputs come only from the benchmark seed, through the public
constructors (``SpaceConfig``, ``.primal``/``.dual``, the set classes). A
workload provides:

* ``setup(seed, tmpdir)``: build the inputs and the expected outputs;
* ``op(state, i)``: the timed unit of work, returning its outputs;
* ``check(state, i, out)``: the correctness gate, run outside the timed region;
* ``final_checks(state)``: gate steps that need a whole run, as
  (attempted, failed);
* ``warm(state)``: the warm-up, part of the set-up time;
* ``trace_ops``: the op indices of one pass of the traced run. A traced pass
  is the same ops every time, so its call counts repeat exactly.

The work being timed is pinned here, not taken from library defaults, so a
change to a default cannot shrink it unseen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import projcalc as pc
from projcalc import cli
from projcalc.decomposition import ANCHOR_PAIRING_TOL
from projcalc.projections import SET_MEMBERSHIP_TOL

N = 8
R = 1.0
P_CYCLE = (1.5, 2.0, 3.0, 7.0)

# The oracle's work per verdict: 5 radii x (256 random + structured probes).
ORACLE_RADII = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
ORACLE_DIRECTIONS = 256
ORACLE_REJECT = 1e-2
ORACLE_ACCEPT = 1e-3

# Tolerance of the suites' derivatives/*-fd-agreement cases.
FD_AGREEMENT_TOL = 1e-4


# -- input construction --------------------------------------------------------


def _wnorm(coords, weights, p) -> float:
    return float(np.sum(weights * np.abs(coords) ** p) ** (1.0 / p))


def _space(rng, p: float) -> pc.SpaceConfig:
    weights = rng.uniform(0.5, 2.0, N) if rng.random() < 0.5 else np.ones(N)
    return pc.SpaceConfig(n=N, p=p, weights=weights)


def _mask(rng) -> frozenset[int]:
    return frozenset(rng.choice(N, size=N // 2, replace=False).tolist())


def _point(sp, rng, sel, target: float) -> pc.PrimalPoint:
    """A primal point whose norm over the selected coordinates is ``target``."""
    c = rng.standard_normal(N)
    c[sel] *= target / _wnorm(c[sel], sp.weights[sel], sp.p)
    return sp.primal(c)


def _unit_dual(sp, rng, scale: float) -> pc.DualPoint:
    c = rng.standard_normal(N)
    return sp.dual(scale * c / _wnorm(c, sp.weights, sp.q))


# -- oracle-stream ---------------------------------------------------------------

# Ball and cylinder queries. A member query passes the fiber value as x*; a
# non-member query shifts it by an order-one dual vector.
_BC_KINDS = (
    "interior-member",
    "interior-nonmember",
    "exterior-member",
    "exterior-nonmember",
    "boundary-empty",
    "boundary-theta-member",
    "boundary-theta-nonmember",
)
# Cone queries test theta* against the componentwise sign condition. A
# violation sits where the point is positive or zero; one at a strictly
# negative coordinate is invisible to vanishing perturbations, so no query
# puts one there.
_CONE_KINDS = ("member", "nonmember-positive", "nonmember-zero")


@dataclass
class Query:
    set_: object
    xbar: pc.PrimalPoint
    xstar: pc.DualPoint
    ystar: pc.DualPoint
    cfg: pc.OracleConfig
    expect_member: bool


def _analytic_member(fiber, xstar) -> bool | None:
    """Whether x* lies in the closed-form fiber; None if undecided."""
    if isinstance(fiber, pc.Singleton):
        gap = pc.norm_dual(xstar - fiber.value)
        return gap <= 1e-9 * max(1.0, pc.norm_dual(fiber.value))
    if isinstance(fiber, pc.EmptyFiber):
        return False
    if isinstance(fiber, pc.ThetaMembership):
        if fiber.verdict is pc.Verdict.UNDETERMINED:
            return None
        return fiber.verdict is pc.Verdict.MEMBER
    raise TypeError(f"unexpected fiber {fiber!r}")


def _ball_cylinder_query(rng, sp, set_name, kind):
    if set_name == "ball":
        set_ = pc.Ball(R)
        sel = np.ones(N, dtype=bool)

        def fiber_of(x, ys):
            return pc.coderiv_ball(R, x, ys)

    else:
        mask = _mask(rng)
        set_ = pc.Cylinder(R, mask)
        sel = np.zeros(N, dtype=bool)
        sel[sorted(mask)] = True

        def fiber_of(x, ys):
            return pc.coderiv_cylinder(R, mask, x, ys)

    if kind.startswith(("interior", "exterior")):
        lo, hi = (0.2, 0.8) if kind.startswith("interior") else (1.2, 2.0)
        x = _point(sp, rng, sel, R * rng.uniform(lo, hi))
        ys = sp.dual(rng.standard_normal(N))
        xs = fiber_of(x, ys).value
        if kind.endswith("nonmember"):
            xs = xs + _unit_dual(sp, rng, 0.5)
    else:
        x = _point(sp, rng, sel, R)
        jx = pc.duality_map(x)
        jm = jx if set_name == "ball" else pc.mask_restrict(jx, set_.mask)
        xs = sp.zero_dual()
        if kind == "boundary-empty":
            ys = jx
            xs = sp.dual(rng.standard_normal(N))
        elif kind == "boundary-theta-member":
            ys = -rng.uniform(0.5, 1.5) * jm
        elif set_name == "ball":
            ys = pc.o_star(pc.Anchor.at(x), sp.dual(rng.standard_normal(N)))
        else:
            # A nonzero unmasked part breaks the cylinder's first condition.
            tail = np.zeros(N)
            tail[rng.choice(np.flatnonzero(~sel))] = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0)
            ys = -rng.uniform(0.5, 1.5) * jm + sp.dual(tail)
    return set_, x, xs, ys, fiber_of(x, ys)


def _cone_query(rng, sp, kind):
    idx = rng.permutation(N)
    pos, zero, neg = idx[:3], idx[3:5], idx[5:]
    f = np.abs(rng.standard_normal(N)) + 0.1
    f[zero] = 0.0
    f[neg] *= -1.0
    phi = np.zeros(N)
    phi[zero] = rng.uniform(0.2, 1.0, zero.size)
    phi[neg] = rng.uniform(0.2, 1.0, neg.size)
    if kind == "nonmember-positive":
        phi[pos[0]] = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0)
    elif kind == "nonmember-zero":
        phi[zero[0]] = -rng.uniform(0.3, 1.0)
    x, ys = sp.primal(f), sp.dual(phi)
    return pc.PositiveCone(), x, sp.zero_dual(), ys, pc.cone_theta_member(x, ys)


# The pool cycles set, then query kind, then p, so that every run's ops have
# the same mix and the seed moves only the numbers. Query kinds differ in
# probe count, hence in cost; a seeded mix of kinds made the median latency
# jump between runs.
SLOTS = len(_BC_KINDS)
ORACLE_POOL = 3 * SLOTS * len(P_CYCLE)


def _oracle_setup(seed, tmpdir):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    queries = []
    i = 0
    while len(queries) < ORACLE_POOL:
        set_name = ("ball", "cylinder", "cone")[i % 3]
        slot = (i // 3) % SLOTS
        p = P_CYCLE[i // (3 * SLOTS)]
        sp = _space(rng, p)
        if set_name == "cone":
            set_, x, xs, ys, fiber = _cone_query(rng, sp, _CONE_KINDS[slot % len(_CONE_KINDS)])
        else:
            set_, x, xs, ys, fiber = _ball_cylinder_query(rng, sp, set_name, _BC_KINDS[slot])
        member = _analytic_member(fiber, xs)
        if member is None:
            continue
        cfg = pc.OracleConfig(
            radii=ORACLE_RADII,
            directions_per_radius=ORACLE_DIRECTIONS,
            seed=int(rng.integers(2**31)),
            reject_threshold=ORACLE_REJECT,
            accept_threshold=ORACLE_ACCEPT,
            structured_probes=True,
        )
        queries.append(Query(set_, x, xs, ys, cfg, member))
        i += 1
    return queries


def _oracle_op(queries, i):
    q = queries[i % len(queries)]
    return pc.test_membership(q.set_, q.xbar, q.xstar, q.ystar, q.cfg)


def _oracle_check(queries, i, verdict) -> bool:
    return isinstance(verdict, pc.NotRejected) == queries[i % len(queries)].expect_member


def _oracle_warm(queries):
    for i in range(3):
        _oracle_op(queries, i)


def _oracle_describe(queries) -> dict:
    per_op = [
        len(q.cfg.radii)
        * (q.cfg.directions_per_radius + len(pc.oracle.structured_probes(q.set_, q.xbar, q.xstar, q.ystar)))
        for q in queries
    ]
    return {
        "oracle_config": f"radii={ORACLE_RADII} directions={ORACLE_DIRECTIONS} probes=on"
        f" reject={ORACLE_REJECT} accept={ORACLE_ACCEPT}",
        "queries": len(queries),
        "members": sum(q.expect_member for q in queries),
        "oracle.directions_per_op": sum(per_op) / len(per_op),
    }


# -- verify-suite ------------------------------------------------------------------

SUITE_SPECS = tuple((p, w) for p in (3.0, 1.5, 7.0) for w in ("ones", "random"))
# The CLI default of 100 samples costs about 2.8 s per op, so a 30-second run
# held 10 ops and its percentiles spread by up to 23 % between runs. Below
# about 50 samples the cost stops falling (the oracle suite draws at least 32
# directions); 32 keeps the most work at that floor, about 1.3 s per op.
SUITE_SAMPLES = 32


@dataclass
class SuiteState:
    seeds: tuple[int, ...]
    tmpdir: str
    first_report: str | None = None


def _suite_argv(state, i, suite="all"):
    p, weights = SUITE_SPECS[i % len(SUITE_SPECS)]
    return [
        "run", "--suite", suite, "--n", str(N), "--p", repr(p), "--r", repr(R),
        "--mask-density", "0.5", "--weights", weights,
        "--seed", str(state.seeds[i % len(state.seeds)]),
        "--samples", str(SUITE_SAMPLES), "--tol-scale", "1.0",
        "--out", os.path.join(state.tmpdir, f"report-{i % len(SUITE_SPECS)}.json"),
    ]


def _suite_setup(seed, tmpdir):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    seeds = tuple(int(s) for s in rng.integers(0, 2**31, len(SUITE_SPECS)))
    return SuiteState(seeds=seeds, tmpdir=tmpdir)


def _run_cli(argv):
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


def _suite_op(state, i):
    return _run_cli(_suite_argv(state, i))


def _suite_report(state, i) -> str:
    with open(_suite_argv(state, i)[-1]) as fh:
        return fh.read()


def _without_timestamp(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith('  "timestamp":'))


def _suite_check(state, i, rc) -> bool:
    if rc != 0:
        return False
    text = _suite_report(state, i)
    if i == 0 and state.first_report is None:
        state.first_report = text
    return json.loads(text)["summary"]["failed"] == 0


def _suite_final(state) -> tuple[int, int]:
    """Rerun op 0's spec: its report must be byte-identical but for the timestamp."""
    same = (
        _suite_op(state, 0) == 0
        and state.first_report is not None
        and _without_timestamp(_suite_report(state, 0)) == _without_timestamp(state.first_report)
    )
    return 1, int(not same)


def _suite_warm(state):
    _run_cli(_suite_argv(state, 0, suite="space-identities"))


def _suite_describe(state) -> dict:
    return {"suite_args": " ".join(_suite_argv(state, 0)[:-2]) + " --out <tmp>"}


# -- pointwise-kernels ---------------------------------------------------------------


@dataclass
class Pointwise:
    mask: frozenset[int]
    ball: pc.Ball
    cyl: pc.Cylinder
    sets: tuple
    x_in: pc.PrimalPoint
    x_out: pc.PrimalPoint
    xb: pc.PrimalPoint
    xc_in: pc.PrimalPoint
    xc_out: pc.PrimalPoint
    xc_b: pc.PrimalPoint
    v: pc.PrimalPoint
    ys: pc.DualPoint
    f: pc.PrimalPoint
    phi: pc.DualPoint


def _pointwise_setup(seed, tmpdir):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    sp = pc.SpaceConfig(n=N, p=3.0, weights=rng.uniform(0.5, 2.0, N))
    mask = _mask(rng)
    sel = np.zeros(N, dtype=bool)
    sel[sorted(mask)] = True
    full = np.ones(N, dtype=bool)
    ball, cyl = pc.Ball(R), pc.Cylinder(R, mask)
    f = np.abs(rng.standard_normal(N)) + 0.1
    f[:2] = 0.0
    f[2:4] *= -1.0
    return Pointwise(
        mask=mask,
        ball=ball,
        cyl=cyl,
        sets=(ball, cyl, pc.CoordSubspace(mask), pc.PositiveCone()),
        x_in=_point(sp, rng, full, 0.5 * R),
        x_out=_point(sp, rng, full, 1.6 * R),
        xb=_point(sp, rng, full, R),
        xc_in=_point(sp, rng, sel, 0.5 * R),
        xc_out=_point(sp, rng, sel, 1.6 * R),
        xc_b=_point(sp, rng, sel, R),
        v=sp.primal(rng.standard_normal(N)),
        ys=sp.dual(rng.standard_normal(N)),
        f=sp.primal(f),
        phi=sp.dual(rng.standard_normal(N)),
    )


def _pointwise_op(s, i):
    x = s.x_out
    projections = tuple(pc.project(set_, x) for set_ in s.sets)
    nrm = pc.norm_primal(x)
    jx = pc.duality_map(x)
    jinv = pc.duality_map_inv(jx)
    slope = pc.smoothness(x, s.v)
    anchor = pc.Anchor.at(s.xb)
    parts = (pc.o_part(anchor, s.v), pc.o_star(anchor, s.ys))
    region = pc.classify_region(s.ball, x)
    d_in = pc.frechet_apply(s.ball, s.x_in, s.v)
    d_out = pc.frechet_apply(s.cyl, s.xc_out, s.v)
    direction = pc.classify_direction(s.ball, s.xb, s.v)
    fibers = tuple(pc.coderiv_ball(R, y, s.ys) for y in (s.x_in, s.x_out, s.xb)) + tuple(
        pc.coderiv_cylinder(R, s.mask, y, s.ys) for y in (s.xc_in, s.xc_out, s.xc_b)
    )
    cone = pc.cone_theta_member(s.f, s.phi)
    fd = pc.gateaux_fd(s.cyl, s.xc_out, s.v)
    witness = pc.nonsmoothness_witness(s.ball, s.xb)
    return projections, nrm, jx, d_in, d_out, fd, witness, (jinv, slope, parts, region, direction, fibers, cone)


def _pointwise_warm(s):
    for i in range(50):
        _pointwise_op(s, i)


def _pointwise_check(s, i, out) -> bool:
    projections, nrm, jx, d_in, d_out, fd, witness, _ = out
    ok = witness is not None
    for set_, u in zip(s.sets, projections):
        again = pc.project(set_, u)
        ok &= pc.set_contains(set_, u)
        ok &= pc.norm_primal(again - u) <= SET_MEMBERSHIP_TOL * max(1.0, pc.norm_primal(u))
    nsq = nrm * nrm
    ok &= abs(pc.pair(jx, s.x_out) - nsq) <= ANCHOR_PAIRING_TOL * max(1.0, nsq)
    scale = max(1.0, pc.norm_primal(s.v))
    fd_in = pc.gateaux_fd(s.ball, s.x_in, s.v).value
    ok &= pc.norm_primal(d_in - fd_in) <= FD_AGREEMENT_TOL * scale
    ok &= pc.norm_primal(d_out - fd.value) <= FD_AGREEMENT_TOL * scale
    return bool(ok)


@dataclass(frozen=True)
class Workload:
    setup: object
    op: object
    check: object
    warm: object
    trace_ops: tuple[int, ...]
    final_checks: object = None
    describe: object = None


WORKLOADS = {
    # The oracle does almost all the work: one sampled verdict per op over a
    # fixed mix of ball, cylinder and cone queries with seeded numbers and
    # known analytic verdicts. The suites and instances layers do none of it.
    "oracle-stream": Workload(
        setup=_oracle_setup,
        op=_oracle_op,
        check=_oracle_check,
        warm=_oracle_warm,
        trace_ops=tuple(range(3 * SLOTS)),
        describe=_oracle_describe,
    ),
    # The pipeline users run, `projcalc run --suite all`, through every layer.
    "verify-suite": Workload(
        setup=_suite_setup,
        op=_suite_op,
        check=_suite_check,
        warm=_suite_warm,
        trace_ops=(0,),
        final_checks=_suite_final,
        describe=_suite_describe,
    ),
    # Batch-of-one library calls on typed points; no oracle, no suites. A
    # kernel rewrite that taxes single calls shows here. Every op makes the
    # same calls on the same inputs, so per-op work is uniform.
    "pointwise-kernels": Workload(
        setup=_pointwise_setup,
        op=_pointwise_op,
        check=_pointwise_check,
        warm=_pointwise_warm,
        trace_ops=tuple(range(200)),
    ),
}

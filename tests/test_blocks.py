"""The verifier's block passes against the per-point loops they replaced.

Competitor sampling, the variational residual, finite differences, the
nonsmoothness witness, the oracle's structured probes and its quotient over
every radius each run one array pass over a block of rows. The reference
functions below are the earlier per-point (or per-radius) loops, kept
verbatim; the sampler's reference draws the same blocks and rescales one
typed point at a time. Every block result must equal them bit for bit, and
the sampler must leave the generator in the same state. A block norm's root
must equal the scalar root of each row, also under AVX2-level dispatch.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import projcalc as pc
from projcalc import derivatives
from projcalc.decomposition import Anchor, o_star
from projcalc.derivatives import DEFAULT_SCHEDULE, _difference_quotients
from projcalc.errors import DegenerateInputError, PreconditionError, UnsupportedSetError
from projcalc.instances import _rescale_masked, _sample_rows, point_at_norm, sample_in_set
from projcalc.oracle import (
    NotRejected,
    OracleConfig,
    RejectedWithWitness,
    _quotient_rows,
    _random_direction,
    structured_probes,
)
from projcalc.projections import (
    _mask_array,
    _masked_norm,
    _project_coords,
    _radial,
    _residual_rows,
)
from projcalc.space import _norm

P_GRID = [1.1, 1.5, 2.0, 3.0, 7.0, 10.0]
N = 6
SET_KINDS = ["ball", "cylinder", "full-cylinder", "cone", "subspace"]


# -- references: the per-point loops -----------------------------------------


def _ref_sample_in_set(set_, space, rng, count):
    block = rng.standard_normal((count, space.n))
    if isinstance(set_, pc.PositiveCone):
        return [space.primal(np.abs(v)) for v in block]
    if isinstance(set_, pc.CoordSubspace):
        return [pc.mask_restrict(space.primal(v), set_.mask) for v in block]
    r, sel = _radial(set_, space.n)
    out = []
    for v, u in zip(block, rng.uniform(0.0, 1.0, count)):
        if _masked_norm(space, sel, v) <= space.theta_tol:
            out.append(space.primal(np.where(sel, 0.0, v)))
        else:
            out.append(_rescale_masked(space, sel, v, r * u))
    return out


def _ref_set_contains(set_, x, tol=1e-9):
    if isinstance(set_, (pc.Ball, pc.Cylinder)):
        r, sel = _radial(set_, x.space.n)
        return _masked_norm(x.space, sel, x.coords) <= r * (1.0 + tol)
    if isinstance(set_, pc.CoordSubspace):
        comp = pc.mask_complement(set_.mask, x.space.n)
        return pc.norm_primal(pc.mask_restrict(x, comp)) <= tol * max(1.0, pc.norm_primal(x))
    return bool(np.all(x.coords >= -tol * max(1.0, pc.norm_primal(x))))


def _ref_variational_residual(set_, x, u, z_samples):
    for z in z_samples:
        assert _ref_set_contains(set_, z)
    g = pc.duality_map(x - u)
    if pc.is_theta(g):
        return 0.0
    return min(pc.pair(g, u - z) for z in z_samples)


def _ref_gateaux_fd(set_, x, v):
    px = pc.project(set_, x)
    estimates = []
    for t in DEFAULT_SCHEDULE.steps:
        estimates.append((1.0 / t) * (pc.project(set_, x + t * v) - px))
    gaps = tuple(pc.norm_primal(b - a) for a, b in zip(estimates, estimates[1:]))
    converged = gaps[-1] <= 10.0 * DEFAULT_SCHEDULE.tol
    return estimates[-1], gaps, converged


def _ref_witness(set_, xbar):
    sp = xbar.space
    probes = []
    if not pc.is_theta(xbar):
        probes += [xbar, -xbar]
    if isinstance(set_, pc.Cylinder):
        xm = pc.mask_restrict(xbar, set_.mask)
        if not pc.is_theta(xm):
            probes += [xm, -xm]
    eye = np.eye(sp.n)
    for i in range(sp.n):
        e = sp.primal(eye[i])
        probes += [e, -e]
    if isinstance(set_, pc.Cylinder):
        for i in sorted(set_.mask):
            e = sp.primal(eye[i])
            probes += [e, -e]
    for v in probes:
        fwd = _ref_gateaux_fd(set_, xbar, v)[0]
        bwd = _ref_gateaux_fd(set_, xbar, -v)[0]
        defect = pc.norm_primal(fwd + bwd)
        if defect >= 0.1 * pc.norm_primal(v):
            return v, defect
    return None


def _ref_structured_probes(set_, xbar, xstar, ystar):
    sp = xbar.space
    raw = []

    def both(v):
        raw.append(v)
        raw.append(-v)

    both(xbar)
    jy = pc.duality_map_inv(ystar)
    jx = pc.duality_map_inv(xstar)
    both(jy)
    both(jx)
    if not pc.is_theta(xbar):
        both(pc.duality_map_inv(o_star(Anchor.at(xbar), ystar)))
    if isinstance(set_, pc.Cylinder):
        comp = pc.mask_complement(set_.mask, sp.n)
        for v in (xbar, jy, jx):
            both(pc.mask_restrict(v, set_.mask))
            both(pc.mask_restrict(v, comp))
    if isinstance(set_, pc.PositiveCone):
        for v in (jy, jx):
            both(pc.pos_part(v))
            both(pc.neg_part(v))
        pos_mask = frozenset(np.flatnonzero(xbar.coords > 0.0).tolist())
        if pos_mask:
            both(pc.mask_restrict(jy, pos_mask))
            both(pc.mask_restrict(jx, pos_mask))
        over_mask = frozenset(np.flatnonzero(xstar.coords - ystar.coords > 0.0).tolist())
        if over_mask:
            both(pc.mask_restrict(jx, over_mask))
    eye = np.eye(sp.n)
    for i in range(sp.n):
        both(sp.primal(eye[i]))
    probes = []
    for v in raw:
        nrm = pc.norm_primal(v)
        if nrm > sp.theta_tol:
            probes.append((1.0 / nrm) * v)
    return probes



def _ref_test_membership(set_, xbar, xstar, ystar, cfg=OracleConfig()):
    sp = xbar.space
    fixed = (structured_probes(set_, xbar, xstar, ystar) if cfg.structured_probes
             else np.empty((0, sp.n)))
    if not len(fixed) and cfg.directions_per_radius == 0:
        raise PreconditionError("no probe directions: enable structured probes or random draws")
    px = _project_coords(set_, sp, xbar.coords)
    maxima: list[float] = []
    for ri, rho in enumerate(cfg.radii):
        raw = _random_direction(sp, cfg.seed, ri, cfg.directions_per_radius)
        nrm = _norm(raw, sp.weights, sp.p)
        keep = nrm > sp.theta_tol
        directions = np.vstack([fixed, raw[keep] * (1.0 / nrm[keep])[:, np.newaxis]])
        u = xbar.coords + rho * directions
        num, ndu, ndp = _quotient_rows(set_, xbar, px, xstar, ystar, u)
        if not ndu.all():
            raise DegenerateInputError(
                f"radius {rho:g} is below the resolution of the base point's coordinates"
            )
        q = num / (ndu + ndp)
        # The first maximum, as a scan keeping only strictly larger values.
        best = int(np.argmax(q))
        maxima.append(float(q[best]))
    rejected = (
        maxima[-1] >= cfg.reject_threshold
        and maxima[-2] >= cfg.reject_threshold
        and maxima[-1] >= 0.5 * maxima[-2]
    )
    if rejected:
        return RejectedWithWitness(
            u=pc.PrimalPoint(u[best], sp),
            quotient=maxima[-1],
            max_quotient_per_radius=tuple(maxima),
        )
    return NotRejected(max_quotient_per_radius=tuple(maxima))

# -- the grid ---------------------------------------------------------------------


def _bits(a):
    """The raw bytes of a float array: -0.0 and 0.0 differ."""
    return np.asarray(a, dtype=np.float64).tobytes()


def _make_set(kind):
    return {
        "ball": pc.Ball(1.3),
        "cylinder": pc.Cylinder(1.3, frozenset({0, 2, 3})),
        "full-cylinder": pc.Cylinder(1.3, frozenset(range(N))),
        "cone": pc.PositiveCone(),
        "subspace": pc.CoordSubspace(frozenset({1, 4})),
    }[kind]


def _space(p, weights, seed):
    w = None if weights == "ones" else np.random.default_rng(seed).uniform(0.5, 2.0, N)
    return pc.SpaceConfig(n=N, p=p, weights=w)


GRID = [
    pytest.param(p, w, kind, id=f"p{p}-{w}-{kind}")
    for p in P_GRID
    for w in ("ones", "random")
    for kind in SET_KINDS
]


def _case(p, weights, kind):
    seed = int(p * 10) + 100 * SET_KINDS.index(kind) + (7 if weights == "random" else 0)
    return _space(p, weights, seed), _make_set(kind), np.random.default_rng(seed)


@pytest.mark.parametrize("p,weights,kind", GRID)
def test_sample_in_set_rows_and_draw_order(p, weights, kind):
    sp, set_, _ = _case(p, weights, kind)
    got_rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    for count in (1, 7, 40):
        got = sample_in_set(set_, sp, got_rng, count)
        ref = _ref_sample_in_set(set_, sp, ref_rng, count)
        assert [_bits(z.coords) for z in got] == [_bits(z.coords) for z in ref]
        assert all(type(z) is pc.PrimalPoint and z.space is sp for z in got)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state
    assert got_rng.standard_normal() == ref_rng.standard_normal()


@pytest.mark.parametrize("p,weights,kind", GRID)
def test_sample_in_set_is_its_row_form_as_points(p, weights, kind):
    sp, set_, _ = _case(p, weights, kind)
    got_rng, row_rng = np.random.default_rng(13), np.random.default_rng(13)
    for count in (0, 1, 7, 40):
        got = sample_in_set(set_, sp, got_rng, count)
        rows = _sample_rows(set_, sp, row_rng, count)
        assert rows.shape == (count, sp.n)
        assert [_bits(z.coords) for z in got] == [_bits(row) for row in rows]
    assert got_rng.bit_generator.state == row_rng.bit_generator.state


@pytest.mark.parametrize("p,weights,kind", GRID)
def test_variational_residual_is_its_row_kernel(p, weights, kind):
    sp, set_, rng = _case(p, weights, kind)
    for _ in range(6):
        x = sp.primal(2.0 * rng.standard_normal(sp.n))
        zs = sample_in_set(set_, sp, rng, 25)
        block = np.array([z.coords for z in zs])
        for u in (pc.project(set_, x), zs[0], x):
            got = pc.variational_residual(set_, x, u, zs)
            assert _bits(got) == _bits(_residual_rows(set_, sp, x.coords, u.coords, block))


@pytest.mark.parametrize("p,weights,kind", GRID)
def test_cached_masks_are_read_only(p, weights, kind):
    sp, set_, _ = _case(p, weights, kind)
    if kind in ("cone", "subspace"):
        sel = _mask_array(frozenset({1, 4}), sp.n)
    else:
        sel = _radial(set_, sp.n)[1]
    assert sel is _mask_array(frozenset(np.flatnonzero(sel).tolist()), sp.n)
    assert not sel.flags.writeable
    with pytest.raises(ValueError):
        sel[0] = not sel[0]


def test_a_mask_out_of_range_raises_on_every_call():
    sp = pc.SpaceConfig(n=N, p=3.0)
    x = sp.primal(np.arange(1.0, N + 1.0))
    bad = frozenset({0, N})
    for _ in range(3):
        with pytest.raises(pc.DimensionMismatchError):
            _mask_array(bad, N)
        with pytest.raises(pc.DimensionMismatchError):
            pc.project(pc.Cylinder(1.3, bad), x)
        with pytest.raises(pc.DimensionMismatchError):
            pc.project(pc.CoordSubspace(bad), x)


@pytest.mark.parametrize("p,weights,kind", GRID)
def test_set_contains_matches_the_point_check(p, weights, kind):
    sp, set_, rng = _case(p, weights, kind)
    for scale in (0.3, 1.0, 1.3, 3.0):
        for _ in range(10):
            x = sp.primal(scale * rng.standard_normal(sp.n))
            for y in (x, pc.project(set_, x)):
                assert pc.set_contains(set_, y) is _ref_set_contains(set_, y)


@pytest.mark.parametrize("p,weights,kind", GRID)
def test_variational_residual(p, weights, kind):
    sp, set_, rng = _case(p, weights, kind)
    for _ in range(6):
        x = sp.primal(2.0 * rng.standard_normal(sp.n))
        zs = sample_in_set(set_, sp, rng, 25)
        # The projection, a feasible non-projection, and x itself when feasible.
        for u in (pc.project(set_, x), zs[0], pc.project(set_, pc.project(set_, x))):
            got = pc.variational_residual(set_, x, u, zs)
            assert _bits(got) == _bits(_ref_variational_residual(set_, x, u, zs))
            assert type(got) is float


@pytest.mark.parametrize("p,weights,kind", GRID)
def test_gateaux_fd(p, weights, kind):
    sp, set_, rng = _case(p, weights, kind)
    points = [sp.primal(s * rng.standard_normal(sp.n)) for s in (0.3, 3.0)]
    if kind not in ("cone", "subspace"):
        points.append(point_at_norm(sp, set_, rng, set_.r))
    for x in points:
        v = sp.primal(rng.standard_normal(sp.n))
        got = pc.gateaux_fd(set_, x, v)
        value, gaps, converged = _ref_gateaux_fd(set_, x, v)
        assert _bits(got.value.coords) == _bits(value.coords)
        assert _bits(got.gaps) == _bits(gaps) and len(got.gaps) == len(gaps)
        assert all(type(g) is float for g in got.gaps)
        assert got.converged == converged


def _witness_points(sp, set_, kind, rng):
    if kind == "subspace":
        return []
    if kind != "cone":
        return [point_at_norm(sp, set_, rng, set_.r) for _ in range(3)]
    pts = []
    for zero in (0, 3, N - 1):
        c = np.abs(rng.standard_normal(sp.n)) + 0.1
        c[zero] = 0.0
        pts.append(sp.primal(c))
        c = c.copy()
        c[(zero + 1) % N] *= -1.0
        pts.append(sp.primal(c))
    return pts


@pytest.mark.parametrize("p,weights,kind", GRID)
def test_nonsmoothness_witness(p, weights, kind):
    sp, set_, rng = _case(p, weights, kind)
    for xb in _witness_points(sp, set_, kind, rng):
        got = pc.nonsmoothness_witness(set_, xb)
        ref = _ref_witness(set_, xb)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert _bits(got.direction.coords) == _bits(ref[0].coords)
            assert _bits(got.defect) == _bits(ref[1])


@pytest.mark.parametrize("p,weights,kind", GRID)
def test_difference_quotients_at_the_last_step_alone(p, weights, kind):
    # The witness reads the last step only; alone it must give what the
    # full schedule gives there, bit for bit.
    sp, set_, rng = _case(p, weights, kind)
    steps = np.array(DEFAULT_SCHEDULE.steps)[:, np.newaxis]
    assert not derivatives._STEPS.flags.writeable
    assert _bits(derivatives._STEPS) == _bits(steps)
    points = [sp.primal(s * rng.standard_normal(sp.n)) for s in (0.3, 3.0)]
    for x in points + _witness_points(sp, set_, kind, rng):
        v = rng.standard_normal((2, 3, sp.n))
        full = _difference_quotients(set_, x, v, steps)
        last = _difference_quotients(set_, x, v, steps[-1:])
        assert full.shape == (2, 3, len(steps), sp.n) and last.shape == (2, 3, 1, sp.n)
        assert _bits(last[:, :, 0]) == _bits(full[:, :, -1])


@pytest.mark.parametrize("p,weights,kind", GRID)
def test_witness_differences_each_ray_once_per_sign_at_the_last_step(p, weights, kind,
                                                                      monkeypatch):
    sp, set_, rng = _case(p, weights, kind)
    calls = []

    def spy(set_, x, v, *steps):
        calls.append((v.shape, steps))
        return _difference_quotients(set_, x, v, *steps)

    monkeypatch.setattr(derivatives, "_difference_quotients", spy)
    if kind == "subspace":
        with pytest.raises(UnsupportedSetError):
            pc.nonsmoothness_witness(set_, sp.primal(rng.standard_normal(sp.n)))
        assert not calls
    for xb in _witness_points(sp, set_, kind, rng):
        calls.clear()
        pc.nonsmoothness_witness(set_, xb)
        # The point and its masked part on a ball or cylinder, the axes on
        # the cone.
        rays = N if kind == "cone" else 2
        [(shape, steps)] = calls
        assert shape == (2, rays, N)
        assert len(steps) == 1 and _bits(steps[0]) == _bits([[DEFAULT_SCHEDULE.steps[-1]]])
        assert steps[0].shape == (1, 1)


def test_witness_returns_the_first_qualifying_probe_in_list_order():
    # xbar and -xbar are smooth directions on the cone; the first hit is the
    # axis probe at the first zero coordinate, after earlier axis probes.
    sp = pc.SpaceConfig(n=N, p=3.0)
    for coords in ([1.0, 2.0, -0.5, 0.0, 3.0, 0.0], [2.0, 0.5, 1.0, 1.5, 3.0, 0.0]):
        xb = sp.primal(coords)
        got = pc.nonsmoothness_witness(pc.PositiveCone(), xb)
        ref = _ref_witness(pc.PositiveCone(), xb)
        first_zero = coords.index(0.0)
        assert np.array_equal(ref[0].coords, np.eye(N)[first_zero])
        assert _bits(got.direction.coords) == _bits(ref[0].coords)
        assert got.defect == ref[1]


@pytest.mark.parametrize("p,weights,kind", GRID)
def test_structured_probes(p, weights, kind):
    sp, set_, rng = _case(p, weights, kind)
    bases = [sp.primal(rng.standard_normal(sp.n)), sp.zero_primal()]
    if kind == "cone":
        bases.append(sp.primal(np.where(rng.standard_normal(sp.n) > 0, 1.0, 0.0)))
    for xbar in bases:
        xstar = sp.dual(rng.standard_normal(sp.n))
        for ystar in (sp.dual(rng.standard_normal(sp.n)), sp.zero_dual()):
            got = structured_probes(set_, xbar, xstar, ystar)
            ref = _ref_structured_probes(set_, xbar, xstar, ystar)
            assert got.shape == (len(ref), sp.n)
            assert [_bits(row) for row in got] == [_bits(d.coords) for d in ref]



def _oracle_queries(sp, set_, kind, rng):
    """(xbar, x*, y*) triples: x* = y* and x* = theta* at a random point, and
    at an interior and a boundary point (ball, cylinder) or a point with
    zeros (cone)."""
    bases = [sp.primal(rng.standard_normal(sp.n))]
    if kind in ("ball", "cylinder", "full-cylinder"):
        bases += [point_at_norm(sp, set_, rng, t * set_.r) for t in (0.5, 1.0)]
    elif kind == "cone":
        bases.append(sp.primal(np.where(rng.standard_normal(sp.n) > 0, 1.0, 0.0)))
    out = []
    for xbar in bases:
        ystar = sp.dual(rng.standard_normal(sp.n))
        out += [(xbar, ystar, ystar), (xbar, sp.zero_dual(), ystar)]
    return out


def _verdict_bits(v):
    out = (type(v), _bits(v.max_quotient_per_radius))
    if isinstance(v, RejectedWithWitness):
        out += (_bits(v.quotient), _bits(v.u.coords))
    return out


@pytest.mark.parametrize("probes", [True, False], ids=["probes", "no-probes"])
@pytest.mark.parametrize("p,weights,kind", GRID)
def test_membership_over_all_radii_equals_the_per_radius_loop(p, weights, kind, probes):
    sp, set_, rng = _case(p, weights, kind)
    cfg = OracleConfig(directions_per_radius=48, seed=int(p * 10), structured_probes=probes)
    kinds = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xbar, xstar, ystar in _oracle_queries(sp, set_, kind, rng):
            got = pc.test_membership(set_, xbar, xstar, ystar, cfg)
            ref = _ref_test_membership(set_, xbar, xstar, ystar, cfg)
            assert _verdict_bits(got) == _verdict_bits(ref)
            kinds.add(type(got))
    if kind == "ball":
        # The interior query x* = y* is not rejected and x* = theta* is.
        assert kinds == {NotRejected, RejectedWithWitness}


def test_degenerate_radius_is_the_first_with_a_zero_row():
    # Next to coordinates of 1e13 (spacing 2^-9) every unit row moves u at
    # radii 0.1 and 0.01, but at 0.001 rows with no entry near 1 round back
    # to xbar: the error names 0.001, and nothing is divided before it.
    sp = pc.SpaceConfig(n=N, p=3.0)
    xbar = sp.primal(1e13 * np.array([1.0, -2.0, 1.5, 1.0, -1.0, 3.0]))
    xstar, ystar = sp.zero_dual(), sp.dual(np.ones(N))
    for set_ in (pc.Ball(1.3), pc.PositiveCone()):
        messages = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (pc.test_membership, _ref_test_membership):
                with pytest.raises(DegenerateInputError) as exc:
                    fn(set_, xbar, xstar, ystar)
                messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith("radius 0.001 is below the resolution")


def _null_rows_draw(null):
    """A ``_random_direction`` whose rows ``null[ri]`` of radius ri are exact zeros."""
    draw = _random_direction

    def stub(sp, seed, radius_idx, m, bg=None):
        rows = draw(sp, seed, radius_idx, m, bg)
        rows[null.get(radius_idx, [])] = 0.0
        return rows

    return stub


@pytest.mark.parametrize("probes", [True, False], ids=["probes", "no-probes"])
@pytest.mark.parametrize("kind", SET_KINDS)
def test_null_random_rows_are_masked_as_the_loop_drops_them(kind, probes, monkeypatch):
    # Rows at the front, middle and end of radius 1 and of the witness's radius.
    stub = _null_rows_draw({1: [0, 7, 47], 4: [3, 4, 20, 47]})
    monkeypatch.setattr(pc.oracle, "_random_direction", stub)
    monkeypatch.setitem(globals(), "_random_direction", stub)
    sp, set_, rng = _case(3.0, "random", kind)
    cfg = OracleConfig(directions_per_radius=48, seed=7, structured_probes=probes)
    kinds = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xbar, xstar, ystar in _oracle_queries(sp, set_, kind, rng):
            got = pc.test_membership(set_, xbar, xstar, ystar, cfg)
            assert _verdict_bits(got) == _verdict_bits(
                _ref_test_membership(set_, xbar, xstar, ystar, cfg))
            kinds.add(type(got))
    if kind == "ball":
        assert kinds == {NotRejected, RejectedWithWitness}


def test_a_radius_with_every_random_row_null(monkeypatch):
    sp, set_, rng = _case(3.0, "ones", "ball")
    stub = _null_rows_draw({4: slice(None)})
    monkeypatch.setattr(pc.oracle, "_random_direction", stub)
    monkeypatch.setitem(globals(), "_random_direction", stub)
    xbar, xstar, ystar = _oracle_queries(sp, set_, "ball", rng)[-1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # The probes alone still give the radius its directions.
        cfg = OracleConfig(directions_per_radius=16)
        assert _verdict_bits(pc.test_membership(set_, xbar, xstar, ystar, cfg)) == _verdict_bits(
            _ref_test_membership(set_, xbar, xstar, ystar, cfg))
        with pytest.raises(DegenerateInputError, match="radius 1e-05 has no direction"):
            pc.test_membership(set_, xbar, xstar, ystar, OracleConfig(
                directions_per_radius=16, structured_probes=False))


SCALE_EXPONENTS = (-300, -150, -20, 0, 20, 150, 300)


def _block_root_mismatches():
    """Rows whose block norm differs from ``float(s) ** (1/p)`` of the row's
    own sum s, over P_GRID, random weights and row sums of order 10^k for
    every k in SCALE_EXPONENTS, in (k, n) and (a, b, n) blocks."""
    rng = np.random.default_rng(19)
    bad = total = 0
    for p in P_GRID:
        w = rng.uniform(0.5, 2.0, N)
        for k in SCALE_EXPONENTS:
            # |c|^p sums to about 10^k: the root sees the whole float range.
            for shape in ((1000, N), (4, 50, N)):
                block = 10.0 ** (k / p) * rng.standard_normal(shape)
                got = _norm(block, w, p).ravel()
                rows = block.reshape(-1, N)
                ref = [float(np.add.reduce(w * np.abs(c) ** p)) ** (1.0 / p) for c in rows]
                assert all(_norm(c, w, p) == r for c, r in zip(rows, ref))
                bad += int(np.count_nonzero(got != np.array(ref)))
                total += len(ref)
    return bad, total


def test_block_norm_root_is_the_scalar_pow():
    bad, total = _block_root_mismatches()
    assert total == len(P_GRID) * len(SCALE_EXPONENTS) * 1200
    assert bad == 0


def test_block_norm_root_is_the_scalar_pow_under_avx2_dispatch():
    # numpy's SIMD dispatch for array powers differs between AVX512 and AVX2
    # hosts; the block root must not depend on it.
    import projcalc

    env = dict(os.environ)
    env["NPY_DISABLE_CPU_FEATURES"] = "X86_V4 AVX512_ICL AVX512_SPR"
    paths = [str(Path(projcalc.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [*paths, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import test_blocks; print(*test_blocks._block_root_mismatches())"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", str(len(P_GRID) * len(SCALE_EXPONENTS) * 1200)]

# -- edge cases and error paths ------------------------------------------------------


@pytest.mark.parametrize("kind", SET_KINDS)
def test_sample_in_set_of_zero_competitors_is_empty(kind):
    sp, rng = _space(2.0, "ones", 0), np.random.default_rng(3)
    assert sample_in_set(_make_set(kind), sp, rng, 0) == []
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


class _ZeroMaskedRow:
    """A generator whose normal block has a zero masked part in row 1."""

    def __init__(self, seed, sel):
        self._rng = np.random.default_rng(seed)
        self._sel = sel

    def standard_normal(self, size):
        block = self._rng.standard_normal(size)
        block[1] = np.where(self._sel, 0.0, block[1])
        return block

    def uniform(self, lo, hi, size):
        return self._rng.uniform(lo, hi, size)


@pytest.mark.parametrize("kind", ["ball", "cylinder"])
def test_sample_row_with_zero_masked_part_keeps_only_its_unmasked_part(kind):
    sp, set_ = _space(3.0, "random", 5), _make_set(kind)
    sel = _radial(set_, sp.n)[1]
    got_rng, ref_rng = _ZeroMaskedRow(9, sel), _ZeroMaskedRow(9, sel)
    got = sample_in_set(set_, sp, got_rng, 5)
    ref = _ref_sample_in_set(set_, sp, ref_rng, 5)
    assert [_bits(z.coords) for z in got] == [_bits(z.coords) for z in ref]
    assert not np.any(got[1].coords[sel])
    assert got_rng._rng.random() == ref_rng._rng.random()


class TestErrorPaths:
    sp = pc.SpaceConfig(n=3, p=3.0)
    ball = pc.Ball(1.0)

    def _xu(self):
        x = self.sp.primal([2.0, 0.5, -1.0])
        return x, pc.project(self.ball, x)

    def test_competitor_in_another_space(self):
        x, u = self._xu()
        other = pc.SpaceConfig(n=4, p=3.0).primal([0.1, 0.0, 0.0, 0.0])
        with pytest.raises(pc.DimensionMismatchError):
            pc.variational_residual(self.ball, x, u, [self.sp.primal([0.1, 0, 0]), other])

    def test_competitor_outside_the_set(self):
        x, u = self._xu()
        with pytest.raises(pc.PreconditionError):
            pc.variational_residual(self.ball, x, u, [self.sp.primal([2.0, 0.0, 0.0])])

    def test_no_competitors(self):
        x, u = self._xu()
        with pytest.raises(pc.PreconditionError):
            pc.variational_residual(self.ball, x, u, [])

    def test_dual_competitor(self):
        x, u = self._xu()
        with pytest.raises(TypeError):
            pc.variational_residual(self.ball, x, u, [self.sp.dual([0.1, 0.0, 0.0])])

    def test_overflowing_competitor(self):
        cone = pc.PositiveCone()
        x = self.sp.primal([-1.0, 0.0, 0.0])
        u = pc.project(cone, x)
        with np.errstate(over="ignore"), pytest.raises(pc.NonFiniteError):
            pc.variational_residual(cone, x, u, [self.sp.primal([1.5e308, 0.0, 0.0])])

    def test_zero_direction(self):
        with pytest.raises(pc.DegenerateInputError):
            pc.gateaux_fd(self.ball, self.sp.primal([0.5, 0, 0]), self.sp.zero_primal())

    def test_dual_direction(self):
        with pytest.raises(TypeError):
            pc.gateaux_fd(self.ball, self.sp.primal([0.5, 0, 0]), self.sp.dual([1.0, 0, 0]))

    def test_direction_in_another_space(self):
        v = pc.SpaceConfig(n=3, p=2.0).primal([1.0, 0, 0])
        with pytest.raises(pc.DimensionMismatchError):
            pc.gateaux_fd(self.ball, self.sp.primal([0.5, 0, 0]), v)

    def test_overflowing_step(self):
        x, v = self.sp.primal([1.79e308, 0.0, 0.0]), self.sp.primal([1e308, 0.0, 0.0])
        with np.errstate(over="ignore"), pytest.raises(pc.NonFiniteError):
            pc.gateaux_fd(pc.PositiveCone(), x, v)

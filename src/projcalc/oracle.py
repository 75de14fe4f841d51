"""Sampled membership test for coderivative fibers.

A candidate x* belongs to the fiber of y* at xbar exactly when

    limsup_{u -> xbar}  ( <x*, u - xbar> - <y*, P(u) - P(xbar)> )
                        / ( ||u - xbar|| + ||P(u) - P(xbar)|| )   <= 0.

The oracle samples the quotient at u = xbar + rho * d over a shrinking
radius schedule, with d drawn from seeded random unit directions plus a
fixed list of structured probes: the rays along which the closed-form
rejection arguments achieve their contradictions (the base point itself,
the reflected candidates J*(y*) and J*(x*), the reflected tangential
component, masked and sign-split variants, and every coordinate axis).

Verdict semantics are one-sided: a rejection carries a reproducible witness
u with a quotient that stays above the threshold at the two smallest radii
(a genuine violation has an order-one limit; discretization noise decays
with the radius). "Not rejected" is evidence for membership, never proof.

Each radius has a block of unit directions: the structured probes, then
the random rows. The random rows come from one counter-based Philox block
per (seed, radius index), so the draws do not depend on evaluation order,
and the m rows drawn for m directions are the first m rows drawn for any
larger count. One (radii, probes + m, n) block holds every radius's probe
points: the random rows are unitized in one row-norm pass, a null row
(norm <= theta_tol) is zeroed and masked instead of dropped, the quotient
is one array pass, and each radius takes the first maximum of its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import Anchor
from .errors import DegenerateInputError, PreconditionError
from .projections import ConvexSet, Cylinder, PositiveCone, _mask_array, _project_coords
from .space import DualPoint, PrimalPoint, _duality, _expect, _finite, _is_int, _norm, _pair


@dataclass(frozen=True)
class OracleConfig:
    radii: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
    directions_per_radius: int = 256
    seed: int = 0
    reject_threshold: float = 1e-2
    accept_threshold: float = 1e-3
    structured_probes: bool = True

    def __post_init__(self):
        if len(self.radii) < 2:
            raise PreconditionError("need at least two radii for a trend verdict")
        if not all(0.0 < r < math.inf for r in self.radii):
            raise PreconditionError(f"radii must be positive and finite, got {self.radii}")
        if any(a <= b for a, b in zip(self.radii, self.radii[1:])):
            raise PreconditionError("radii must be strictly decreasing")
        if not (math.isfinite(self.reject_threshold) and math.isfinite(self.accept_threshold)):
            raise PreconditionError("thresholds must be finite")
        if self.reject_threshold <= self.accept_threshold:
            raise PreconditionError("reject threshold must exceed accept threshold")
        if self.accept_threshold <= 0.0:
            raise PreconditionError("thresholds must be positive")
        if not _is_int(self.directions_per_radius) or self.directions_per_radius < 0:
            raise PreconditionError(
                f"direction count must be a nonnegative integer, got {self.directions_per_radius!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise PreconditionError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")


@dataclass(frozen=True)
class RejectedWithWitness:
    u: PrimalPoint
    quotient: float
    max_quotient_per_radius: tuple[float, ...]


@dataclass(frozen=True)
class NotRejected:
    max_quotient_per_radius: tuple[float, ...]


OracleVerdict = RejectedWithWitness | NotRejected


def coderiv_quotient(
    set_: ConvexSet,
    xbar: PrimalPoint,
    xstar: DualPoint,
    ystar: DualPoint,
    u: PrimalPoint,
) -> float:
    """The defining quotient at a single probe point u != xbar."""
    q_sum, _ = quotient_denominator_pair(set_, xbar, xstar, ystar, u)
    return q_sum


def quotient_denominator_pair(
    set_: ConvexSet,
    xbar: PrimalPoint,
    xstar: DualPoint,
    ystar: DualPoint,
    u: PrimalPoint,
) -> tuple[float, float]:
    """The quotient under both equivalent product-space denominators.

    Returns (sum-denominator quotient, root-of-squares quotient); their
    magnitudes differ by a factor within [1, sqrt(2)], so the verdict sign
    never depends on the choice.
    """
    _expect(xbar.space, PrimalPoint, xbar, u)
    _expect(xbar.space, DualPoint, xstar, ystar)
    px = _project_coords(set_, xbar.space, xbar.coords)
    rows = _quotient_rows(set_, xbar, px, xstar, ystar, u.coords[np.newaxis])
    num, ndu, ndp = (float(v[0]) for v in rows)
    if ndu <= xbar.space.theta_tol:
        raise DegenerateInputError("the probe point must differ from the base point")
    return num / (ndu + ndp), num / math.hypot(ndu, ndp)


def _quotient_rows(
    set_: ConvexSet,
    xbar: PrimalPoint,
    px: np.ndarray,
    xstar: DualPoint,
    ystar: DualPoint,
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numerator and the two denominator norms of the quotient at every row
    of the (k, n) probe block u, given px = P(xbar). The oracle and the
    public quotient both call this, so a recorded witness quotient
    reproduces bit for bit."""
    sp = xbar.space
    du = u - xbar.coords
    dp = _project_coords(set_, sp, u) - px
    num = _pair(sp.weights, xstar.coords, du) - _pair(sp.weights, ystar.coords, dp)
    num = _finite(num, "quotient numerator")
    return num, _norm(du, sp.weights, sp.p), _norm(dp, sp.weights, sp.p)


def structured_probes(
    set_: ConvexSet,
    xbar: PrimalPoint,
    xstar: DualPoint,
    ystar: DualPoint,
) -> np.ndarray:
    """Deterministic unit probe directions for the set and the query, as (k, n) rows.

    The raw rays are built from the coordinate kernels, bit for bit as the
    typed J*(y*), J*(x*) and J*(o*(y*)) would give them, and unitized in one
    row-norm pass; rays of norm <= theta_tol are dropped. Each unit ray is
    followed by its negative (v0, -v0, v1, -v1, ...).
    """
    _expect(xbar.space, PrimalPoint, xbar)
    _expect(xbar.space, DualPoint, xstar, ystar)
    sp = xbar.space
    w, x = sp.weights, xbar.coords

    def jstar(c):
        return _duality(c, sp.q, _norm(c, w, sp.q))

    jy, jx = jstar(ystar.coords), jstar(xstar.coords)
    rays = [x, jy, jx]
    if _norm(x, w, sp.p) > sp.theta_tol:
        # o*(y*) = y* - (<y*, xbar> / ||xbar||^2) J(xbar), as decomposition.o_star.
        anchor = Anchor.at(xbar)
        a = _pair(w, ystar.coords, x) / anchor.norm_sq
        rays.append(jstar(ystar.coords - anchor.xbar_star.coords * a))

    if isinstance(set_, Cylinder):
        sel = _mask_array(set_.mask, sp.n)
        for v in (x, jy, jx):
            rays += [np.where(sel, v, 0.0), np.where(sel, 0.0, v)]

    if isinstance(set_, PositiveCone):
        for v in (jy, jx):
            rays += [np.where(v > 0.0, v, 0.0), np.where(v < 0.0, v, 0.0)]
        # Sign-restricted rays used by the componentwise rejection arguments:
        # where the point is positive, and where the candidate exceeds the query.
        pos = x > 0.0
        if pos.any():
            rays += [np.where(pos, jy, 0.0), np.where(pos, jx, 0.0)]
        over = xstar.coords - ystar.coords > 0.0
        if over.any():
            rays.append(np.where(over, jx, 0.0))

    # The rays above the coordinate axes.
    raw = np.eye(len(rays) + sp.n, sp.n, -len(rays))
    raw[:len(rays)] = rays
    nrm = _norm(raw, w, sp.p)
    keep = nrm > sp.theta_tol
    unit = raw[keep] * (1.0 / nrm[keep])[:, np.newaxis]
    # -v has the norm of v, so its unit row is the negated unit row of v.
    return np.concatenate([unit, -unit], axis=1).reshape(-1, sp.n)


def _random_direction(sp, seed: int, radius_idx: int, m: int, bg=None) -> np.ndarray:
    """The m raw standard normal rows of one radius, as an (m, n) array.

    One Philox block per (seed, radius index), so evaluation order cannot
    change the draws and they form a prefix in m. A Philox ``bg`` passed in
    is reset to that block, which skips the OS entropy read of a new one.
    ``test_membership`` unitizes the rows of every radius in one pass.
    """
    bg = np.random.Philox() if bg is None else bg
    bg.state = {"bit_generator": "Philox", "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                "has_uint32": 0, "uinteger": 0,
                "state": {"counter": (0, 0, radius_idx, 0), "key": (seed, 0)}}
    return np.random.Generator(bg).standard_normal((m, sp.n))


def test_membership(
    set_: ConvexSet,
    xbar: PrimalPoint,
    xstar: DualPoint,
    ystar: DualPoint,
    cfg: OracleConfig = OracleConfig(),
) -> OracleVerdict:
    """Sampled one-sided membership verdict for x* in the fiber of y* at xbar."""
    _expect(xbar.space, PrimalPoint, xbar)
    _expect(xbar.space, DualPoint, xstar, ystar)
    sp = xbar.space
    fixed = (structured_probes(set_, xbar, xstar, ystar) if cfg.structured_probes
             else np.empty((0, sp.n)))
    nf, m = len(fixed), cfg.directions_per_radius
    if not nf and m == 0:
        raise PreconditionError("no probe directions: enable structured probes or random draws")
    px = _project_coords(set_, sp, xbar.coords)
    bg = np.random.Philox(0)  # seeded to skip the OS entropy read; every draw resets it
    rand = np.empty((len(cfg.radii), m, sp.n))
    for ri in range(len(cfg.radii)):
        rand[ri] = _random_direction(sp, cfg.seed, ri, m, bg)
    nrm = _norm(rand, sp.weights, sp.p)
    live = np.ones((len(cfg.radii), nf + m), dtype=bool)
    live[:, nf:] = nrm > sp.theta_tol
    # A null row is scaled by 1 / inf = 0, so it probes xbar itself, and is masked.
    rand *= (1.0 / np.where(live[:, nf:], nrm, np.inf))[..., np.newaxis]
    # Row j of radius i: u[i, j] = xbar + rho_i * d_j, the probes first.
    radii = np.array(cfg.radii)[:, np.newaxis, np.newaxis]
    u = np.empty((len(cfg.radii), nf + m, sp.n))
    np.multiply(radii, fixed, out=u[:, :nf])
    np.multiply(radii, rand, out=u[:, nf:])
    u += xbar.coords
    rows = _quotient_rows(set_, xbar, px, xstar, ystar, u.reshape(-1, sp.n))
    num, ndu, ndp = (a.reshape(live.shape) for a in rows)
    stuck = (live & (ndu == 0.0)).any(axis=1)
    if stuck.any():
        raise DegenerateInputError(f"radius {cfg.radii[stuck.argmax()]:g} is below the "
                                   "resolution of the base point's coordinates")
    usable = live.any(axis=1)
    if not usable.all():
        raise DegenerateInputError(f"radius {cfg.radii[usable.argmin()]:g} has no direction "
                                   "of norm above theta_tol")
    q = np.divide(num, ndu + ndp, out=np.full(live.shape, -np.inf), where=live)
    # The first maximum of each radius, as a scan keeping only strictly larger values.
    best = q.argmax(axis=1)
    maxima = q[np.arange(len(best)), best].tolist()
    rejected = (
        maxima[-1] >= cfg.reject_threshold
        and maxima[-2] >= cfg.reject_threshold
        and maxima[-1] >= 0.5 * maxima[-2]
    )
    if rejected:
        return RejectedWithWitness(
            u=PrimalPoint(u[-1, best[-1]], sp),
            quotient=maxima[-1],
            max_quotient_per_radius=tuple(maxima),
        )
    return NotRejected(max_quotient_per_radius=tuple(maxima))

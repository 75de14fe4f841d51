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

Each (seed, radius index, direction index) triple gets its own random
substream, so results are independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import Anchor, o_star
from .errors import DegenerateInputError
from .projections import (
    ConvexSet,
    Cylinder,
    PositiveCone,
    mask_complement,
    mask_restrict,
    neg_part,
    pos_part,
    project,
)
from .space import (
    DualPoint,
    PrimalPoint,
    duality_map_inv,
    is_theta,
    norm_primal,
    pair,
)


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
            raise ValueError("need at least two radii for a trend verdict")
        if any(r <= 0.0 for r in self.radii):
            raise ValueError("radii must be positive")
        if any(a <= b for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly decreasing")
        if self.reject_threshold <= self.accept_threshold:
            raise ValueError("reject threshold must exceed accept threshold")
        if self.accept_threshold <= 0.0:
            raise ValueError("thresholds must be positive")
        if self.directions_per_radius < 0:
            raise ValueError("direction count must be nonnegative")


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
    num, ndu, ndp = _quotient_terms(set_, xbar, project(set_, xbar), xstar, ystar, u)
    if ndu <= xbar.space.theta_tol:
        raise DegenerateInputError("the probe point must differ from the base point")
    return num / (ndu + ndp), num / math.hypot(ndu, ndp)


def _quotient_terms(
    set_: ConvexSet,
    xbar: PrimalPoint,
    px: PrimalPoint,
    xstar: DualPoint,
    ystar: DualPoint,
    u: PrimalPoint,
) -> tuple[float, float, float]:
    """Numerator and the two denominator norms of the quotient at u, given
    px = P(xbar). The oracle and the public quotient both call this, so a
    recorded witness quotient reproduces bit for bit."""
    du = u - xbar
    dp = project(set_, u) - px
    return pair(xstar, du) - pair(ystar, dp), norm_primal(du), norm_primal(dp)


def _unitize(v: PrimalPoint) -> PrimalPoint | None:
    nrm = norm_primal(v)
    if nrm <= v.space.theta_tol:
        return None
    return (1.0 / nrm) * v


def structured_probes(
    set_: ConvexSet,
    xbar: PrimalPoint,
    xstar: DualPoint,
    ystar: DualPoint,
) -> list[PrimalPoint]:
    """Deterministic unit probe directions adapted to the set and the query."""
    sp = xbar.space
    raw: list[PrimalPoint] = []

    def both(v: PrimalPoint) -> None:
        raw.append(v)
        raw.append(-v)

    both(xbar)
    jy = duality_map_inv(ystar)
    jx = duality_map_inv(xstar)
    both(jy)
    both(jx)
    if not is_theta(xbar):
        anchor = Anchor.at(xbar)
        both(duality_map_inv(o_star(anchor, ystar)))

    if isinstance(set_, Cylinder):
        comp = mask_complement(set_.mask, sp.n)
        for v in (xbar, jy, jx):
            both(mask_restrict(v, set_.mask))
            both(mask_restrict(v, comp))

    if isinstance(set_, PositiveCone):
        for v in (jy, jx):
            both(pos_part(v))
            both(neg_part(v))
        # Sign-restricted rays used by the componentwise rejection arguments:
        # where the point is positive, and where the candidate exceeds the query.
        pos_mask = frozenset(np.flatnonzero(xbar.coords > 0.0).tolist())
        if pos_mask:
            both(mask_restrict(jy, pos_mask))
            both(mask_restrict(jx, pos_mask))
        over_mask = frozenset(np.flatnonzero(xstar.coords - ystar.coords > 0.0).tolist())
        if over_mask:
            both(mask_restrict(jx, over_mask))

    eye = np.eye(sp.n)
    for i in range(sp.n):
        both(sp.primal(eye[i]))

    probes = []
    for v in raw:
        unit = _unitize(v)
        if unit is not None:
            probes.append(unit)
    return probes


def _random_direction(sp, seed: int, radius_idx: int, dir_idx: int) -> PrimalPoint | None:
    # Counter-based stream: one substream per (seed, radius, direction), so
    # evaluation order cannot change the draws.
    bg = np.random.Philox(key=seed & (2**64 - 1), counter=[0, 0, radius_idx, dir_idx])
    rng = np.random.Generator(bg)
    return _unitize(sp.primal(rng.standard_normal(sp.n)))


def test_membership(
    set_: ConvexSet,
    xbar: PrimalPoint,
    xstar: DualPoint,
    ystar: DualPoint,
    cfg: OracleConfig = OracleConfig(),
) -> OracleVerdict:
    """Sampled one-sided membership verdict for x* in the fiber of y* at xbar."""
    probes = (
        structured_probes(set_, xbar, xstar, ystar) if cfg.structured_probes else []
    )
    if not probes and cfg.directions_per_radius == 0:
        raise ValueError("no probe directions: enable structured probes or random draws")
    px = project(set_, xbar)
    maxima: list[float] = []
    argmax_u: list[PrimalPoint] = []
    for ri, rho in enumerate(cfg.radii):
        best = -math.inf
        best_u = None
        directions = list(probes)
        for di in range(cfg.directions_per_radius):
            d = _random_direction(xbar.space, cfg.seed, ri, di)
            if d is not None:
                directions.append(d)
        for d in directions:
            u = xbar + rho * d
            num, ndu, ndp = _quotient_terms(set_, xbar, px, xstar, ystar, u)
            q = num / (ndu + ndp)
            if q > best:
                best = q
                best_u = u
        maxima.append(best)
        argmax_u.append(best_u)
    rejected = (
        maxima[-1] >= cfg.reject_threshold
        and maxima[-2] >= cfg.reject_threshold
        and maxima[-1] >= 0.5 * maxima[-2]
    )
    if rejected:
        return RejectedWithWitness(
            u=argmax_u[-1], quotient=maxima[-1], max_quotient_per_radius=tuple(maxima)
        )
    return NotRejected(max_quotient_per_radius=tuple(maxima))

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

Each radius is one array pass over a block of unit directions: the
structured probes, then the random rows. The random rows come from one
counter-based Philox block per (seed, radius index), so the draws do not
depend on evaluation order, and the m rows drawn for m directions are the
first m rows drawn for any larger count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import Anchor, o_star
from .errors import DegenerateInputError, DimensionMismatchError, PreconditionError
from .projections import (
    ConvexSet,
    Cylinder,
    PositiveCone,
    _mask_array,
    _project_coords,
)
from .space import (
    DualPoint,
    PrimalPoint,
    _finite,
    _norm,
    _pair,
    duality_map_inv,
    is_theta,
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
        if not all(0.0 < r < math.inf for r in self.radii):
            raise ValueError(f"radii must be positive and finite, got {self.radii}")
        if any(a <= b for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly decreasing")
        if not (math.isfinite(self.reject_threshold) and math.isfinite(self.accept_threshold)):
            raise ValueError("thresholds must be finite")
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
    _check_spaces(xbar, xstar, ystar, u)
    px = _project_coords(set_, xbar.space, xbar.coords)
    rows = _quotient_rows(set_, xbar, px, xstar, ystar, u.coords[np.newaxis])
    num, ndu, ndp = (float(v[0]) for v in rows)
    if ndu <= xbar.space.theta_tol:
        raise DegenerateInputError("the probe point must differ from the base point")
    return num / (ndu + ndp), num / math.hypot(ndu, ndp)


def _check_spaces(xbar: PrimalPoint, *others) -> None:
    for pt in others:
        if not xbar.space.compatible_with(pt.space):
            raise DimensionMismatchError("the query points live in different spaces")


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
) -> list[PrimalPoint]:
    """Deterministic unit probe directions adapted to the set and the query.

    The raw rays are stacked with their negatives (v0, -v0, v1, -v1, ...)
    and unitized in one row-norm pass; rays of norm <= theta_tol are dropped.
    """
    _check_spaces(xbar, xstar, ystar)
    sp = xbar.space
    x = xbar.coords
    jy = duality_map_inv(ystar).coords
    jx = duality_map_inv(xstar).coords
    rays = [x, jy, jx]
    if not is_theta(xbar):
        rays.append(duality_map_inv(o_star(Anchor.at(xbar), ystar)).coords)

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

    rays += list(np.eye(sp.n))
    rays = np.array(rays)
    raw = np.stack([rays, -rays], axis=1).reshape(-1, sp.n)
    return [PrimalPoint(c, sp) for c in _unit_rows(sp, raw)]


def _unit_rows(sp, raw: np.ndarray) -> np.ndarray:
    """The rows of a (k, n) block scaled to unit norm in one row-norm pass;
    rows of norm <= theta_tol are dropped."""
    nrm = _norm(raw, sp.weights, sp.p)
    keep = nrm > sp.theta_tol
    return raw[keep] * (1.0 / nrm[keep])[:, np.newaxis]


def _random_direction(sp, seed: int, radius_idx: int, m: int) -> np.ndarray:
    """Up to m seeded random unit rows for one radius, as a (k, n) array.

    One Philox block per (seed, radius index), so evaluation order cannot
    change the draws and they form a prefix in m. Rows of norm <= theta_tol
    are dropped.
    """
    bg = np.random.Philox(key=seed & (2**64 - 1), counter=[0, 0, radius_idx, 0])
    return _unit_rows(sp, np.random.Generator(bg).standard_normal((m, sp.n)))


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
        raise PreconditionError("no probe directions: enable structured probes or random draws")
    _check_spaces(xbar, xstar, ystar)
    sp = xbar.space
    px = _project_coords(set_, sp, xbar.coords)
    fixed = np.array([d.coords for d in probes]).reshape(len(probes), sp.n)
    maxima: list[float] = []
    for ri, rho in enumerate(cfg.radii):
        directions = np.vstack(
            [fixed, _random_direction(sp, cfg.seed, ri, cfg.directions_per_radius)]
        )
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
            u=PrimalPoint(u[best], sp),
            quotient=maxima[-1],
            max_quotient_per_radius=tuple(maxima),
        )
    return NotRejected(max_quotient_per_radius=tuple(maxima))

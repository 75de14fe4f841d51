"""Fréchet coderivative fibers of the projection operators, in closed form.

For a query dual vector y*, the coderivative of the projection P at xbar is
the set of x* whose graph-quotient limsup is nonpositive (see ``oracle`` for
the sampled version of that definition). Wherever P has a Fréchet
derivative, the fiber is the singleton {(grad P(xbar))^T y*}:

* interior points:  {y*}
* exterior cylinder: {(r/||xb_M||) (y*_M - <y*_M, xb_M>/||xb_M||^2 J(xb_M)) + y*_Mbar},
  the radial formula through the masked part plus the untouched unmasked
  part of y*. The ball is the cylinder whose mask is every coordinate.

On the boundary the fiber degenerates: the query theta* yields {theta*},
the query J(xb) yields the empty set, and for any other query the closed
forms characterize membership of theta* only. For the positive cone the
theta*-membership test is a componentwise sign condition; at the origin the
fiber of a nonnegative query psi is the componentwise order interval
[theta*, psi].

Every verdict carries named condition evaluations with numeric slacks so a
failed case can be reproduced from its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .decomposition import Anchor, o_star
from .derivatives import DirectionKind, classify_direction
from .errors import NotOnBoundaryError, PreconditionError
from .projections import DEFAULT_BAND_SCALE, Ball, Cylinder, RegionKind, _radial, classify_region
from .space import (
    DualPoint,
    PrimalPoint,
    _duality,
    _norm,
    _pair,
    duality_map,
    duality_map_inv,
    norm_dual,
    norm_primal,
    pair,
)

# Relative tolerance on the alignment equality <y*_M, xb_M> = -r ||y*_M||_q;
# both sides scale like r * ||y*||.
ALIGNMENT_TOL = 1e-9

# Relative tolerance for recognizing the special queries theta* and J(xb).
QUERY_MATCH_TOL = 1e-9

# Componentwise zero test for cone sign conditions.
COORD_ZERO_TOL = 1e-12


class Verdict(Enum):
    MEMBER = "member"
    NOT_MEMBER = "not_member"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ConditionReport:
    name: str
    holds: bool
    slack: float


@dataclass(frozen=True)
class Singleton:
    value: DualPoint


@dataclass(frozen=True)
class EmptyFiber:
    pass


@dataclass(frozen=True)
class ThetaMembership:
    verdict: Verdict
    certificates: tuple[ConditionReport, ...]


@dataclass(frozen=True)
class OrderInterval:
    lo: DualPoint
    hi: DualPoint


CoderivResult = Singleton | EmptyFiber | ThetaMembership | OrderInterval


def _fiber(set_: Ball | Cylinder, xbar: PrimalPoint, ystar: DualPoint) -> CoderivResult:
    """Fiber dispatch shared by the ball and the cylinder; ``_theta_member``
    decides the remaining boundary queries."""
    sp = xbar.space
    tag = classify_region(set_, xbar)
    if tag.kind is RegionKind.INTERIOR:
        return Singleton(value=ystar)
    if tag.kind is RegionKind.EXTERIOR:
        r, sel = _radial(set_, sp.n)
        xm = np.where(sel, xbar.coords, 0.0)
        ym = np.where(sel, ystar.coords, 0.0)
        nrm = _norm(xm, sp.weights, sp.p)
        a = _pair(sp.weights, ym, xm) / nrm**2
        jm = _duality(xm, sp.p, nrm, sp.theta_tol)
        return Singleton(value=sp.dual((r / nrm) * (ym - a * jm) + (ystar.coords - ym)))
    ny = norm_dual(ystar)
    if ny <= sp.theta_tol:
        return Singleton(value=sp.zero_dual())
    jx = duality_map(xbar)
    if norm_dual(ystar - jx) <= QUERY_MATCH_TOL * max(1.0, norm_dual(jx)):
        return EmptyFiber()
    return _theta_member(set_, xbar, ystar)


def coderiv_ball(r: float, xbar: PrimalPoint, ystar: DualPoint) -> CoderivResult:
    """Coderivative fiber of the ball projection at xbar for the query y*."""
    return _fiber(Ball(r), xbar, ystar)


def coderiv_cylinder(
    r: float, mask: frozenset[int], xbar: PrimalPoint, ystar: DualPoint
) -> CoderivResult:
    """Coderivative fiber of the cylinder projection at xbar for the query y*."""
    return _fiber(Cylinder(r=r, mask=frozenset(mask)), xbar, ystar)


# Certificate names (tail, equality, direction, alignment); the ball
# reports no tail, which vanishes identically under a full mask.
_BALL_LABELS = (
    None,
    "pairing with base point equals -r times dual norm",
    "reflected candidate -J*(y*) leaves the ball",
    "y* is a negative multiple of J(xbar)",
)
_CYLINDER_LABELS = (
    "unmasked part of y* vanishes",
    "masked pairing equals -r times masked dual norm",
    "masked reflected candidate -(J*(y*))_M leaves the cylinder",
    "y*_M is a negative multiple of J(xbar_M)",
)


def _theta_member(set_: Ball | Cylinder, xbar: PrimalPoint, ystar: DualPoint) -> ThetaMembership:
    """Theta*-membership at a boundary point of a ball or cylinder.

    Membership holds exactly when the unmasked part of y* vanishes, the
    masked reflected candidate -(J*(y*))_M points out of the set, and
    <y*_M, xbar_M> = -r ||y*_M||_q. A ball also reports the uniformly
    convex evidence, listed after the direction test.
    """
    sp = xbar.space
    r, sel = _radial(set_, sp.n)
    xm = np.where(sel, xbar.coords, 0.0)
    nxm = _norm(xm, sp.weights, sp.p)
    if abs(nxm - r) > DEFAULT_BAND_SCALE * r:
        raise NotOnBoundaryError("theta*-membership needs a boundary point")
    ny = norm_dual(ystar)
    if ny <= sp.theta_tol:
        raise PreconditionError("the zero query is handled by the fiber dispatch")
    is_ball = isinstance(set_, Ball)
    tail_label, eq_label, dir_label, align_label = _BALL_LABELS if is_ball else _CYLINDER_LABELS

    certs: list[ConditionReport] = []
    ym = np.where(sel, ystar.coords, 0.0)
    tail = _norm(ystar.coords - ym, sp.weights, sp.q)
    tail_zero = tail <= QUERY_MATCH_TOL * ny
    if tail_label is not None:
        certs.append(ConditionReport(name=tail_label, holds=tail_zero, slack=tail))

    nym = _norm(ym, sp.weights, sp.q)
    pairing = _pair(sp.weights, ym, xm)
    eq_slack = pairing + r * nym
    eq_holds = nym > sp.theta_tol and abs(eq_slack) <= ALIGNMENT_TOL * r * nym
    certs.append(ConditionReport(name=eq_label, holds=eq_holds, slack=eq_slack))

    cls = classify_direction(set_, xbar, -duality_map_inv(ystar))
    dir_up = cls.kind is DirectionKind.UP
    certs.append(ConditionReport(name=dir_label, holds=dir_up, slack=cls.slope))
    if is_ball:
        certs += _uniformly_convex(set_, xbar, ystar, pairing, ny)

    if eq_holds and tail_zero:
        c = nym / r
        align = _norm(ym + c * _duality(xm, sp.p, nxm, sp.theta_tol), sp.weights, sp.q)
        certs.append(ConditionReport(name=align_label, holds=align <= 1e-8 * nym, slack=align))

    slope_band = 1e-12 * max(1.0, ny)
    if tail_zero and eq_holds and dir_up and cls.slope > slope_band:
        verdict = Verdict.MEMBER
    elif tail_zero and eq_holds:
        # Equality within tolerance but a degenerate (parallel) direction
        # classification: numerically undecidable.
        verdict = Verdict.UNDETERMINED
    else:
        verdict = Verdict.NOT_MEMBER
    return ThetaMembership(verdict=verdict, certificates=tuple(certs))


def _uniformly_convex(
    ball: Ball, xbar: PrimalPoint, ystar: DualPoint, pairing: float, ny: float
) -> list[ConditionReport]:
    """Necessary conditions for theta*-membership at a sphere point that hold
    in any uniformly convex and uniformly smooth norm, plus the p = 2
    parallel test; reported as evidence, not used for the verdict."""
    r = ball.r
    certs = [
        ConditionReport(
            name="pairing with base point is nonpositive",
            holds=pairing <= ALIGNMENT_TOL * r * ny,
            slack=pairing,
        )
    ]
    anchor = Anchor.at(xbar)
    osy = o_star(anchor, ystar)
    josy = duality_map_inv(osy)
    njosy = norm_primal(josy)
    if njosy <= xbar.space.theta_tol:
        stays, slope, balance = True, 0.0, 0.0
    else:
        tcls = classify_direction(ball, xbar, -josy)
        stays, slope = tcls.kind is DirectionKind.DOWN, tcls.slope
        balance = (pairing / r**2) * pair(anchor.xbar_star, josy) + njosy**2
    certs.append(
        ConditionReport(
            name="reflected tangential component -J*(o*(y*)) stays in the ball",
            holds=stays,
            slack=slope,
        )
    )
    certs.append(
        ConditionReport(
            name="tangential balance term is nonpositive",
            holds=balance <= ALIGNMENT_TOL * max(1.0, ny**2),
            slack=balance,
        )
    )
    if xbar.space.p == 2.0:
        par_slack = norm_dual(osy)
        certs.append(
            ConditionReport(
                name="hilbert test: y* parallel to base point with negative pairing",
                holds=par_slack <= 1e-8 * ny and pairing < 0.0,
                slack=par_slack,
            )
        )
    return certs


def sphere_theta_member(r: float, xbar: PrimalPoint, ystar: DualPoint) -> ThetaMembership:
    """Decide whether theta* belongs to the sphere-point fiber of y*.

    Membership holds exactly when the reflected candidate -J*(y*) points out
    of the ball and <y*, xbar> = -r ||y*||_q. In a p-norm space the equality
    forces y* to be a negative multiple of J(xbar), which the certificate
    list records, together with the weaker necessary conditions that hold in
    any uniformly convex and uniformly smooth norm and the p = 2 parallel
    test.
    """
    return _theta_member(Ball(r), xbar, ystar)


def cylinder_theta_member(
    r: float, mask: frozenset[int], xbar: PrimalPoint, ystar: DualPoint
) -> ThetaMembership:
    """Decide whether theta* belongs to the cylinder boundary fiber of y*.

    The three conditions are jointly equivalent to membership: the unmasked
    part of y* vanishes, the masked reflected candidate points out of the
    masked ball, and <y*_M, xbar_M> = -r ||y*_M||_q.
    """
    return _theta_member(Cylinder(r=r, mask=frozenset(mask)), xbar, ystar)


def cone_theta_member(f: PrimalPoint, phi: DualPoint) -> ThetaMembership:
    """Componentwise sign test for theta* membership in the cone fiber of phi.

    With strictly positive weights a null set is empty, so membership holds
    exactly when no coordinate has (phi != 0 and f > 0) and none has
    (phi < 0 and f <= 0). Violating coordinates are listed as certificates;
    a violation at a strictly negative coordinate of f is additionally
    flagged, because no vanishing perturbation of f can expose it to the
    projection there.
    """
    certs: list[ConditionReport] = []
    tol = COORD_ZERO_TOL
    fc = f.coords
    pc = phi.coords
    ok = True
    for i in range(f.space.n):
        if abs(pc[i]) > tol and fc[i] > tol:
            ok = False
            certs.append(
                ConditionReport(
                    name=f"coordinate {i}: dual is nonzero where the point is positive",
                    holds=False,
                    slack=float(min(abs(pc[i]), fc[i])),
                )
            )
        if pc[i] < -tol and fc[i] <= tol:
            ok = False
            suffix = ""
            if fc[i] < -tol:
                suffix = " (strictly negative coordinate: invisible to vanishing perturbations)"
            certs.append(
                ConditionReport(
                    name=f"coordinate {i}: dual is negative where the point is nonpositive" + suffix,
                    holds=False,
                    slack=float(-pc[i]),
                )
            )
    if ok:
        certs.append(
            ConditionReport(name="no sign conflicts on any coordinate", holds=True, slack=0.0)
        )
    verdict = Verdict.MEMBER if ok else Verdict.NOT_MEMBER
    return ThetaMembership(verdict=verdict, certificates=tuple(certs))


def cone_jf_member(f: PrimalPoint) -> ThetaMembership:
    """For nonnegative f, J(f) always belongs to its own fiber."""
    min_coord = float(np.min(f.coords))
    if min_coord < -COORD_ZERO_TOL:
        raise PreconditionError("the point must lie in the positive cone")
    cert = ConditionReport(name="point lies in the positive cone", holds=True, slack=min_coord)
    return ThetaMembership(verdict=Verdict.MEMBER, certificates=(cert,))


def cone_interval_at_origin(psi: DualPoint) -> OrderInterval:
    """Fiber of a nonnegative query at the origin: the order interval [theta*, psi]."""
    if float(np.min(psi.coords)) < -COORD_ZERO_TOL:
        raise PreconditionError("the query must lie in the nonnegative dual cone")
    return OrderInterval(lo=psi.space.zero_dual(), hi=psi)


def interval_contains(interval: OrderInterval, phi: DualPoint) -> bool:
    """Componentwise lo <= phi <= hi, up to ``COORD_ZERO_TOL``."""
    lo = interval.lo.coords - COORD_ZERO_TOL
    hi = interval.hi.coords + COORD_ZERO_TOL
    return bool(np.all(phi.coords >= lo) and np.all(phi.coords <= hi))

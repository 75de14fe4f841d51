"""Fréchet coderivative fibers of the projection operators, in closed form.

For a query dual vector y*, the coderivative of the projection P at xbar is
the set of x* whose graph-quotient limsup is nonpositive (see ``oracle`` for
the sampled version of that definition). Wherever P has a Fréchet
derivative, the fiber is the singleton {(grad P(xbar))^T y*}:

* interior points:  {y*}
* exterior cylinder: {(r/||xb_M||) (y*_M - <y*_M, xb_M>/||xb_M||^2 J(xb_M)) + y*_Mbar},
  the radial formula through the masked part plus the untouched unmasked
  part of y*. The ball is the cylinder whose mask is every coordinate.

On the boundary (||xb_M|| = r) the fiber degenerates: the query theta*
yields {theta*}, the query J(xb) yields the empty set, and for any other
query the closed forms characterize membership of theta* only. With
g = J(xb_M) and lambda = -<y*_M, xb_M>/||xb_M||^2, the fiber is the segment
{y* + t g : 0 <= t <= lambda}, empty when lambda < 0 (Rockafellar-Wets,
Variational Analysis, Prop. 6.5). So theta* is a member exactly when the
unmasked part of y* vanishes, lambda > 0 and y*_M + lambda g = 0: theta* is
the upper end of the segment.

For the positive cone the fiber of psi at f is a box, taken one
coordinate at a time from the graph of t -> max(t, 0) (Rockafellar-Wets,
Variational Analysis, Prop. 6.41): {psi_i} where f_i > 0, [0, psi_i] where
f_i = 0 (empty if psi_i < 0) and {0} where f_i < 0. theta* is a member iff
every coordinate's interval holds 0; at the origin the box of a nonnegative
psi is the order interval [theta*, psi].

Every verdict carries named condition evaluations with numeric slacks so a
failed case can be reproduced from its inputs. The ball and cylinder fibers
work on the coordinates of ``projections._region`` and the query; each
public function checks its points once, at entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotOnBoundaryError, PreconditionError
from .projections import Ball, Cylinder, RegionKind, _region
from .space import DualPoint, PrimalPoint, _duality, _expect, _norm, _pair

# Relative tolerance, against ||y*||_q, on the alignment y*_M + lambda J(xb_M) = 0.
ALIGNMENT_TOL = 1e-8

# Relative tolerance for recognizing the special queries theta* and J(xb).
QUERY_MATCH_TOL = 1e-9

# Componentwise zero test for cone sign conditions.
COORD_ZERO_TOL = 1e-12


class Verdict(Enum):
    MEMBER = "member"
    NOT_MEMBER = "not_member"
    # No function returns it; it is kept because the benchmark's workloads
    # (perfbench/workloads.py) read it.
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


def _checked(set_: Ball | Cylinder, xbar: PrimalPoint, ystar: DualPoint):
    """Check xbar and y* once; return the space and ``projections._region``."""
    sp = xbar.space
    _expect(sp, PrimalPoint, xbar)
    _expect(sp, DualPoint, ystar)
    return sp, _region(set_, xbar)


def _fiber(set_: Ball | Cylinder, xbar: PrimalPoint, ystar: DualPoint) -> CoderivResult:
    """Fiber dispatch shared by the ball and the cylinder; ``_theta_member``
    decides the remaining boundary queries."""
    sp, region = _checked(set_, xbar, ystar)
    r, sel, xm, nrm, kind = region
    yc, w = ystar.coords, sp.weights
    if kind is RegionKind.INTERIOR:
        return Singleton(value=ystar)
    if kind is RegionKind.EXTERIOR:
        ym = np.where(sel, yc, 0.0)
        a = _pair(w, ym, xm) / nrm / nrm
        jm = _duality(xm, sp.p, nrm)
        return Singleton(value=sp.dual((r / nrm) * (ym - a * jm) + (yc - ym)))
    ny = _norm(yc, w, sp.q)
    if ny == 0.0:
        return Singleton(value=sp.zero_dual())
    jx = _duality(xbar.coords, sp.p, _norm(xbar.coords, w, sp.p))
    if _norm(yc - jx, w, sp.q) <= QUERY_MATCH_TOL * _norm(jx, w, sp.q):
        return EmptyFiber()
    return _theta_member(set_, sp, yc, region, ny)


def coderiv_ball(r: float, xbar: PrimalPoint, ystar: DualPoint) -> CoderivResult:
    """Coderivative fiber of the ball projection at xbar for the query y*."""
    return _fiber(Ball(r), xbar, ystar)


def coderiv_cylinder(
    r: float, mask: frozenset[int], xbar: PrimalPoint, ystar: DualPoint
) -> CoderivResult:
    """Coderivative fiber of the cylinder projection at xbar for the query y*."""
    return _fiber(Cylinder(r=r, mask=frozenset(mask)), xbar, ystar)


def _theta_member(set_: Ball | Cylinder, sp, yc: np.ndarray, region, ny: float) -> ThetaMembership:
    """Theta*-membership of the query coordinates yc, of dual norm ny > 0,
    at a boundary point of a ball or cylinder, given the point's
    ``projections._region``: theta* is the upper end of the segment
    {y* + t J(xbar_M) : 0 <= t <= lambda}, lambda = -<y*_M, xbar_M>/||xbar_M||^2.

    The certificates are the unmasked-tail test (cylinder only; a full mask
    leaves no tail) and the alignment, which holds when lambda > 0 and
    ||y*_M + lambda J(xbar_M)||_q <= ``ALIGNMENT_TOL`` ||y*||_q. The verdict
    is their conjunction.
    """
    _, sel, xm, nxm, _ = region
    w = sp.weights
    ym = np.where(sel, yc, 0.0)
    certs = []
    if isinstance(set_, Cylinder):
        tail = _norm(yc - ym, w, sp.q)
        certs.append(ConditionReport(
            name="unmasked part of y* vanishes", holds=tail <= QUERY_MATCH_TOL * ny, slack=tail))
        align_name = "y*_M is a negative multiple of J(xbar_M)"
    else:
        align_name = "y* is a negative multiple of J(xbar)"
    # Two divisions: ||xbar_M||^2 leaves the float range long before ||xbar_M||.
    lam = -_pair(w, ym, xm) / nxm / nxm
    align = _norm(ym + lam * _duality(xm, sp.p, nxm), w, sp.q)
    holds = lam > 0.0 and align <= ALIGNMENT_TOL * ny
    certs.append(ConditionReport(name=align_name, holds=holds, slack=align))
    verdict = Verdict.MEMBER if all(c.holds for c in certs) else Verdict.NOT_MEMBER
    return ThetaMembership(verdict=verdict, certificates=tuple(certs))


def _theta_entry(set_: Ball | Cylinder, xbar: PrimalPoint, ystar: DualPoint) -> ThetaMembership:
    """``_theta_member`` behind the checks of the public verdict functions:
    a boundary point and a nonzero query."""
    sp, region = _checked(set_, xbar, ystar)
    if region[4] is not RegionKind.BOUNDARY:
        raise NotOnBoundaryError("theta*-membership needs a boundary point")
    ny = _norm(ystar.coords, sp.weights, sp.q)
    if ny == 0.0:
        raise PreconditionError("the zero query is handled by the fiber dispatch")
    return _theta_member(set_, sp, ystar.coords, region, ny)


def sphere_theta_member(r: float, xbar: PrimalPoint, ystar: DualPoint) -> ThetaMembership:
    """Decide whether theta* belongs to the sphere-point fiber of y*.

    Membership holds exactly when y* is a negative multiple of J(xbar), the
    one certificate. The list is the full-mask cylinder's without its tail
    test.
    """
    return _theta_entry(Ball(r), xbar, ystar)


def cylinder_theta_member(
    r: float, mask: frozenset[int], xbar: PrimalPoint, ystar: DualPoint
) -> ThetaMembership:
    """Decide whether theta* belongs to the cylinder boundary fiber of y*.

    The two certificates are jointly equivalent to membership: the unmasked
    part of y* vanishes, and y*_M is a negative multiple of J(xbar_M).
    """
    return _theta_entry(Cylinder(r=r, mask=frozenset(mask)), xbar, ystar)


def cone_theta_member(f: PrimalPoint, phi: DualPoint) -> ThetaMembership:
    """Coordinatewise box test for theta* membership in the cone fiber of phi.

    The fiber is a box: coordinate i is {phi_i} where f_i > 0, [0, phi_i]
    where f_i = 0 (empty if phi_i < 0), and {0} where f_i < 0. So theta* is
    a member exactly when no coordinate has (f > 0 and phi != 0) and none
    has (f = 0 and phi < 0), each up to ``COORD_ZERO_TOL``. Every violating
    coordinate gets one certificate, in ascending order.
    """
    _expect(f.space, PrimalPoint, f)
    _expect(f.space, DualPoint, phi)
    tol = COORD_ZERO_TOL
    fc, pc = f.coords, phi.coords
    on_pos = (fc > tol) & (np.abs(pc) > tol)
    on_zero = (np.abs(fc) <= tol) & (pc < -tol)
    flagged = (on_pos | on_zero).nonzero()[0].tolist()
    if not flagged:
        cert = ConditionReport(name="no sign conflicts on any coordinate", holds=True, slack=0.0)
        return ThetaMembership(verdict=Verdict.MEMBER, certificates=(cert,))
    fl, pl = fc.tolist(), pc.tolist()
    certs = []
    for i in flagged:
        if fl[i] > tol:
            name, slack = "dual is nonzero where the point is positive", min(abs(pl[i]), fl[i])
        else:
            name, slack = "dual is negative where the point is zero", -pl[i]
        certs.append(ConditionReport(name=f"coordinate {i}: {name}", holds=False, slack=slack))
    return ThetaMembership(verdict=Verdict.NOT_MEMBER, certificates=tuple(certs))


def cone_jf_member(f: PrimalPoint) -> ThetaMembership:
    """For nonnegative f, J(f) always belongs to its own fiber."""
    _expect(f.space, PrimalPoint, f)
    min_coord = float(np.min(f.coords))
    if min_coord < -COORD_ZERO_TOL:
        raise PreconditionError("the point must lie in the positive cone")
    cert = ConditionReport(name="point lies in the positive cone", holds=True, slack=min_coord)
    return ThetaMembership(verdict=Verdict.MEMBER, certificates=(cert,))


def cone_interval_at_origin(psi: DualPoint) -> OrderInterval:
    """Fiber of a nonnegative query at the origin: the order interval [theta*, psi]."""
    _expect(psi.space, DualPoint, psi)
    if float(np.min(psi.coords)) < -COORD_ZERO_TOL:
        raise PreconditionError("the query must lie in the nonnegative dual cone")
    return OrderInterval(lo=psi.space.zero_dual(), hi=psi)


def interval_contains(interval: OrderInterval, phi: DualPoint) -> bool:
    """Componentwise lo <= phi <= hi, up to ``COORD_ZERO_TOL``."""
    _expect(phi.space, DualPoint, interval.lo, interval.hi, phi)
    lo = interval.lo.coords - COORD_ZERO_TOL
    hi = interval.hi.coords + COORD_ZERO_TOL
    return bool(np.all(phi.coords >= lo) and np.all(phi.coords <= hi))

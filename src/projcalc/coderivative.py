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
query the fiber is a ``ThetaMembership``: the verdict on theta* only. With
g = J(xb_M) and lambda = -<y*_M, xb_M>/||xb_M||^2, the fiber is the segment
{y* + t g : 0 <= t <= lambda}, empty when lambda < 0 (Rockafellar-Wets,
Variational Analysis, Prop. 6.5). So theta* is a member exactly when the
unmasked part of y* vanishes, lambda > 0 and y*_M + lambda g = 0: theta* is
the upper end of the segment.

For the positive cone the fiber of psi at f is a box, taken one coordinate
at a time from the graph of t -> max(t, 0) (Rockafellar-Wets, Variational
Analysis, Prop. 6.41): {psi_i} where f_i > 0, [0, psi_i] where f_i = 0
(empty if psi_i < 0) and {0} where f_i < 0. The signs of f are exact, and
dual entries are compared within ``QUERY_MATCH_TOL`` times the box's largest |bound|.

Every verdict carries named condition evaluations with numeric slacks so a
failed case can be reproduced from its inputs. The ball and cylinder fibers
work on the coordinates of ``projections._region`` and the query; each
public function checks its points once, at entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import PreconditionError
from .projections import Ball, Cylinder, RegionKind, _region
from .space import DualPoint, PrimalPoint, _duality, _expect, _norm, _pair

# Relative tolerance, against ||y*||_q, on the alignment y*_M + lambda J(xb_M) = 0.
ALIGNMENT_TOL = 1e-8

# Relative tolerance for the special queries theta* and J(xb), and for a cone box.
QUERY_MATCH_TOL = 1e-9


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
class Box:
    lo: DualPoint
    hi: DualPoint


CoderivResult = Singleton | EmptyFiber | ThetaMembership | Box


def _fiber(set_: Ball | Cylinder, xbar: PrimalPoint, ystar: DualPoint) -> CoderivResult:
    """Fiber dispatch shared by the ball and the cylinder, on the coordinates
    of ``projections._region``; ``_theta_member`` decides the boundary
    queries other than theta* and J(xbar)."""
    sp = xbar.space
    _expect(sp, PrimalPoint, xbar)
    _expect(sp, DualPoint, ystar)
    region = _region(set_, xbar)
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


def _cone_box(fc: np.ndarray, pc: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The cone fiber box of pc at fc, by the exact signs of fc, and its tolerance."""
    lo = np.where(fc > 0.0, pc, 0.0)
    hi = np.where(fc >= 0.0, pc, 0.0)
    return lo, hi, _box_tol(lo, hi)


def _box_tol(lo: np.ndarray, hi: np.ndarray) -> float:
    """``QUERY_MATCH_TOL`` times the box's largest |bound|."""
    return QUERY_MATCH_TOL * float(np.maximum(np.abs(lo), np.abs(hi)).max())


def cone_fiber(f: PrimalPoint, psi: DualPoint) -> Box | EmptyFiber:
    """Coderivative fiber of the cone projection at f for the query psi: the
    box of ``_cone_box``, or ``EmptyFiber`` when some psi_i < 0 at f_i = 0."""
    _expect(f.space, PrimalPoint, f)
    _expect(f.space, DualPoint, psi)
    lo, hi, tol = _cone_box(f.coords, psi.coords)
    if (hi < lo - tol).any():
        return EmptyFiber()
    return Box(lo=DualPoint(lo, f.space), hi=DualPoint(hi, f.space))


def contains(fiber: Box | EmptyFiber, xstar: DualPoint) -> ConditionReport:
    """Whether x* lies in the fiber, up to the box's relative tolerance; the
    slack is the largest coordinate violation. An empty fiber holds nothing."""
    if isinstance(fiber, EmptyFiber):
        return ConditionReport(name="the fiber is empty", holds=False, slack=np.inf)
    if not isinstance(fiber, Box):
        raise PreconditionError(f"contains takes a Box or an EmptyFiber, got {fiber!r}")
    _expect(xstar.space, DualPoint, fiber.lo, fiber.hi, xstar)
    lo, hi, xc = fiber.lo.coords, fiber.hi.coords, xstar.coords
    slack = max(0.0, float(np.max(np.maximum(lo - xc, xc - hi))))
    return ConditionReport(name="x* lies in the box", holds=slack <= _box_tol(lo, hi), slack=slack)


def cone_theta_member(f: PrimalPoint, phi: DualPoint) -> ThetaMembership:
    """Whether theta* lies in ``cone_fiber(f, phi)``: a coordinate conflicts
    where lo_i > tol (phi_i != 0 at f_i > 0) or hi_i < -tol (phi_i < 0 at
    f_i = 0), with the bounds and tolerance of ``_cone_box``. Every
    conflicting coordinate gets one certificate, in ascending order. Its
    slack is in dual units: |phi_i| at f_i > 0, the violation that
    ``contains(cone_fiber(f, phi), theta*)`` reports there, and -phi_i at
    f_i = 0."""
    _expect(f.space, PrimalPoint, f)
    _expect(f.space, DualPoint, phi)
    lo, hi, tol = _cone_box(f.coords, phi.coords)
    flagged = ((lo > tol) | (hi < -tol)).nonzero()[0].tolist()
    if not flagged:
        cert = ConditionReport(name="no sign conflicts on any coordinate", holds=True, slack=0.0)
        return ThetaMembership(verdict=Verdict.MEMBER, certificates=(cert,))
    fl, pl = f.coords.tolist(), phi.coords.tolist()
    certs = []
    for i in flagged:
        if fl[i] > 0.0:
            name, slack = "dual is nonzero where the point is positive", abs(pl[i])
        else:
            name, slack = "dual is negative where the point is zero", -pl[i]
        certs.append(ConditionReport(name=f"coordinate {i}: {name}", holds=False, slack=slack))
    return ThetaMembership(verdict=Verdict.NOT_MEMBER, certificates=tuple(certs))

"""Derivatives of the projections: closed forms, one-sided finite
differences, and boundary nonsmoothness witnesses.

The ball and cylinder projections are differentiable everywhere except on
the boundary. Inside, the derivative is the identity. Outside, it is the
radial-rescaling derivative

    v -> (r/||xb_M||) * (v_M - <J(xb_M), v_M>/||xb_M||^2 * xb_M) + v_Mbar

where the ball is the cylinder whose mask M is every coordinate.

On the boundary no linear derivative exists; ``nonsmoothness_witness``
exhibits a direction v whose one-sided difference quotients fail the odd
symmetry P'(v) = -P'(-v) by a definite margin.

Finite differences are array passes: ``gateaux_fd`` projects every step of
its schedule as one block, and the witness search evaluates every probe,
forward and backward, in one block before taking the first qualifying probe.

Boundary directions split into an "up" set (the masked norm exceeds r for
small t > 0) and a "down" set (it stays <= r). The first-order slope
d = psi(xb_M, v_M) decides: d < 0 is down, d > 0 is up, and d = 0 with a
nonzero masked part is up, because a supporting functional of a strictly
convex ball touches it only at the base point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateInputError,
    NoDerivativeError,
    NotOnBoundaryError,
    UnsupportedSetError,
)
from .projections import (
    Ball,
    ConvexSet,
    Cylinder,
    PositiveCone,
    RegionKind,
    _project_coords,
    _region,
)
from .space import PrimalPoint, _duality, _expect, _finite, _norm, _pair, is_theta


class DirectionKind(Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class DirectionClass:
    kind: DirectionKind
    slope: float


@dataclass(frozen=True)
class FDSchedule:
    """Decreasing step sizes for one-sided difference quotients."""

    steps: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    tol: float = 1e-5


DEFAULT_SCHEDULE = FDSchedule()


@dataclass(frozen=True)
class FDEstimate:
    """Forward-difference limit estimate with a convergence diagnostic.

    ``gaps`` holds the distances between successive difference quotients;
    ``converged`` is true when the last gap is within 10x the schedule
    tolerance. A divergent boundary quotient arrives flagged, not raised.
    """

    value: PrimalPoint
    gaps: tuple[float, ...]
    converged: bool


@dataclass(frozen=True)
class Witness:
    direction: PrimalPoint
    defect: float


def classify_direction(set_: ConvexSet, xbar: PrimalPoint, v: PrimalPoint) -> DirectionClass:
    """Up/down classification of a nonzero direction at a boundary point,
    by the slope psi(xbar_M, v_M) of the masked norm."""
    sp = xbar.space
    _expect(sp, PrimalPoint, xbar, v)
    _, sel, xm, nrm, kind = _region(set_, xbar)
    if kind is not RegionKind.BOUNDARY:
        raise NotOnBoundaryError("direction classification needs a boundary point")
    if _norm(v.coords, sp.weights, sp.p) <= sp.theta_tol:
        raise DegenerateInputError("directions must be nonzero")
    vm = np.where(sel, v.coords, 0.0)
    if _norm(vm, sp.weights, sp.p) <= sp.theta_tol:
        # The masked norm stays exactly r, hence never exceeds it.
        return DirectionClass(kind=DirectionKind.DOWN, slope=0.0)
    # psi(xm, vm) = <J(xm), vm>/||xm||, as ``space.smoothness`` evaluates it;
    # ||xm|| is about r > 0 on the boundary, so J needs no cutoff.
    d = _pair(sp.weights, _duality(xm, sp.p, nrm, 0.0), vm) / nrm
    kind = DirectionKind.DOWN if d < 0.0 else DirectionKind.UP
    return DirectionClass(kind=kind, slope=d)


def frechet_apply(set_: ConvexSet, xbar: PrimalPoint, v: PrimalPoint) -> PrimalPoint:
    """Apply the closed-form derivative of the projection at an interior or
    exterior point to the direction v. Raises at boundary points, where the
    projection has no derivative."""
    _expect(xbar.space, PrimalPoint, xbar, v)
    r, sel, xm, nrm, kind = _region(set_, xbar)
    if kind is RegionKind.BOUNDARY:
        raise NoDerivativeError("the projection is not differentiable on the boundary")
    if kind is RegionKind.INTERIOR:
        return v
    sp = xbar.space
    vm = np.where(sel, v.coords, 0.0)
    a = _pair(sp.weights, _duality(xm, sp.p, nrm, 0.0), vm) / nrm**2
    return sp.primal(np.where(sel, (r / nrm) * (v.coords - a * xbar.coords), v.coords))


def gateaux_fd(set_: ConvexSet, x: PrimalPoint, v: PrimalPoint) -> FDEstimate:
    """One-sided difference quotients (P(x + t v) - P(x))/t along
    ``DEFAULT_SCHEDULE``, every step in one (steps, n) projection block."""
    _expect(x.space, PrimalPoint, x, v)
    if is_theta(v):
        raise DegenerateInputError("finite differences need a nonzero direction")
    quotients = _difference_quotients(set_, x, v.coords)
    gaps = tuple(_norm(quotients[1:] - quotients[:-1], x.space.weights, x.space.p).tolist())
    converged = gaps[-1] <= 10.0 * DEFAULT_SCHEDULE.tol
    return FDEstimate(value=PrimalPoint(quotients[-1], x.space), gaps=gaps, converged=converged)


def _difference_quotients(set_: ConvexSet, x: PrimalPoint, v: np.ndarray) -> np.ndarray:
    """(P(x + t v) - P(x))/t for every step t of ``DEFAULT_SCHEDULE`` and
    every row v of a (..., n) block of directions, as a (..., steps, n)
    array. Each row is formed in the operand order of the point arithmetic,
    so it equals the quotient of a single direction bit for bit."""
    sp = x.space
    t = np.array(DEFAULT_SCHEDULE.steps)[:, np.newaxis]
    step = _finite(x.coords + np.expand_dims(v, -2) * t, "the step x + t v")
    px = _project_coords(set_, sp, x.coords)
    return (_project_coords(set_, sp, step) - px) * (1.0 / t)


def _witness_probes(set_: ConvexSet, xbar: PrimalPoint, masked: list) -> np.ndarray:
    """The probe directions as rows v0, -v0, v1, -v1, ...: the point, the
    ``masked`` rays (a cylinder point's nonzero masked part), every axis,
    and the cylinder's masked axes once more."""
    sp = xbar.space
    eye = np.eye(sp.n)
    rays = [xbar.coords] if not is_theta(xbar) else []
    rays += masked + list(eye)
    if isinstance(set_, Cylinder):
        rays += [eye[i] for i in sorted(set_.mask)]
    rays = np.array(rays)
    return np.stack([rays, -rays], axis=1).reshape(-1, sp.n)


def nonsmoothness_witness(set_: ConvexSet, xbar: PrimalPoint) -> Witness | None:
    """Search a fixed probe list for a direction certifying that no linear
    derivative exists at xbar.

    The defect of a probe v is ||P'(xbar; v) + P'(xbar; -v)|| estimated by
    one-sided differences along ``DEFAULT_SCHEDULE``; a linear derivative
    would make it vanish. Every probe, forward and backward, is one
    (2, probes, steps, n) block of difference quotients. Returns the first
    probe in list order with defect >= 0.1 ||v||, or None if no probe
    qualifies (which indicates the point is not genuinely nonsmooth).
    """
    sp = xbar.space
    _expect(sp, PrimalPoint, xbar)
    if isinstance(set_, (Ball, Cylinder)):
        _, _, xm, nrm, kind = _region(set_, xbar)
        if kind is not RegionKind.BOUNDARY:
            raise NotOnBoundaryError("nonsmoothness witnesses live on the boundary")
        masked = [xm] if isinstance(set_, Cylinder) and nrm > sp.theta_tol else []
    elif isinstance(set_, PositiveCone):
        if not np.any(np.abs(xbar.coords) <= sp.theta_tol):
            raise NotOnBoundaryError("cone witnesses need at least one zero coordinate")
        masked = []
    else:
        raise UnsupportedSetError("the subspace projection is linear, hence smooth")
    probes = _witness_probes(set_, xbar, masked)
    both = np.stack([probes, -probes])
    limits = _difference_quotients(set_, xbar, both)[:, :, -1]
    defects = _norm(limits[0] + limits[1], sp.weights, sp.p)
    hits = np.flatnonzero(defects >= 0.1 * _norm(probes, sp.weights, sp.p))
    if hits.size == 0:
        return None
    i = hits[0]
    return Witness(direction=PrimalPoint(probes[i], sp), defect=float(defects[i]))

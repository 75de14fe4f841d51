"""Derivatives of the projections: closed forms, one-sided finite
differences, and boundary nonsmoothness witnesses.

The ball and cylinder projections are differentiable everywhere except on
the boundary. Inside, the derivative is the identity. Outside, it is the
radial-rescaling derivative

    v -> (r/||xb_M||) * (v_M - <J(xb_M), v_M>/||xb_M||^2 * xb_M) + v_Mbar

where the ball is the cylinder whose mask M is every coordinate.

On the boundary no linear derivative exists; ``nonsmoothness_witness``
exhibits a direction v whose one-sided difference quotients fail the odd
symmetry P'(v) = -P'(-v) by a definite margin. It probes only the rays the
closed forms say can decide: xbar and xbar_M on a ball or cylinder, the
axes on the cone.

Finite differences are array passes: ``gateaux_fd`` projects every step of
its schedule as one block, and the witness search projects its probe rays,
forward and backward, at the schedule's last step alone, as one block.

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

_STEPS = np.array(DEFAULT_SCHEDULE.steps)[:, np.newaxis]  # read-only (steps, 1) column
_STEPS.flags.writeable = False


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
    if _norm(v.coords, sp.weights, sp.p) == 0.0:
        raise DegenerateInputError("directions must be nonzero")
    vm = np.where(sel, v.coords, 0.0)
    if _norm(vm, sp.weights, sp.p) == 0.0:
        # The masked norm stays exactly r, hence never exceeds it.
        return DirectionClass(kind=DirectionKind.DOWN, slope=0.0)
    d = _pair(sp.weights, _duality(xm, sp.p, nrm), vm) / nrm
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
    a = _pair(sp.weights, _duality(xm, sp.p, nrm), vm) / nrm / nrm
    return sp.primal(np.where(sel, (r / nrm) * (v.coords - a * xbar.coords), v.coords))


def gateaux_fd(set_: ConvexSet, x: PrimalPoint, v: PrimalPoint) -> FDEstimate:
    """One-sided difference quotients (P(x + t v) - P(x))/t along
    ``DEFAULT_SCHEDULE``, every step in one (steps, n) projection block."""
    _expect(x.space, PrimalPoint, x, v)
    if is_theta(v):
        raise DegenerateInputError("finite differences need a nonzero direction")
    quotients = _difference_quotients(set_, x, v.coords, _STEPS)
    gaps = tuple(_norm(quotients[1:] - quotients[:-1], x.space.weights, x.space.p).tolist())
    converged = gaps[-1] <= 10.0 * DEFAULT_SCHEDULE.tol
    return FDEstimate(value=PrimalPoint(quotients[-1], x.space), gaps=gaps, converged=converged)


def _difference_quotients(set_: ConvexSet, x: PrimalPoint, v: np.ndarray,
                          t: np.ndarray) -> np.ndarray:
    """(P(x + t v) - P(x))/t for every step of the (steps, 1) column t and
    every row v of a (..., n) block of directions, as a (..., steps, n)
    array. Each row is formed in the operand order of the point arithmetic,
    so it equals the quotient of one direction at one step bit for bit."""
    sp = x.space
    step = _finite(x.coords + v[..., np.newaxis, :] * t, "the step x + t v")
    px = _project_coords(set_, sp, x.coords)
    return (_project_coords(set_, sp, step) - px) * (1.0 / t)


def nonsmoothness_witness(set_: ConvexSet, xbar: PrimalPoint) -> Witness | None:
    """The first probe ray v certifying that no linear derivative exists at
    xbar: its defect ||P'(xbar; v) + P'(xbar; -v)||, each side the quotient
    at the last step of ``DEFAULT_SCHEDULE``, is >= 0.1 ||v||. The rays are
    the ones the closed forms say can decide. On a ball or cylinder: xbar,
    then xbar_M (for a ball the same row), as P(xbar + t xbar_M) = xbar and
    P(xbar - t xbar_M) = xbar - t xbar_M give xbar_M the defect ||xbar_M||
    at every scale. On the cone: the n axes, as P is positively homogeneous
    and xbar is a smooth direction. None if no ray qualifies (the point is
    then not genuinely nonsmooth).
    """
    sp = xbar.space
    _expect(sp, PrimalPoint, xbar)
    if isinstance(set_, (Ball, Cylinder)):
        _, _, xm, _, kind = _region(set_, xbar)
        if kind is not RegionKind.BOUNDARY:
            raise NotOnBoundaryError("nonsmoothness witnesses live on the boundary")
        probes = np.array([xbar.coords, xm])
    elif isinstance(set_, PositiveCone):
        if not np.any(np.abs(xbar.coords) <= sp.theta_tol):
            raise NotOnBoundaryError("cone witnesses need at least one zero coordinate")
        probes = np.eye(sp.n)
    else:
        raise UnsupportedSetError("the subspace projection is linear, hence smooth")
    limits = _difference_quotients(set_, xbar, np.stack([probes, -probes]), _STEPS[-1:])
    defects = _norm(limits[0, :, 0] + limits[1, :, 0], sp.weights, sp.p)
    hits = np.flatnonzero(defects >= 0.1 * _norm(probes, sp.weights, sp.p))
    if hits.size == 0:
        return None
    i = hits[0]
    return Witness(direction=PrimalPoint(probes[i], sp), defect=float(defects[i]))

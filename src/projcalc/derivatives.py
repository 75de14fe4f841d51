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
    _radial,
    classify_region,
    mask_restrict,
    project,
)
from .space import PrimalPoint, _duality, _norm, _pair, is_theta, norm_primal, smoothness


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

    def __post_init__(self):
        if not self.steps:
            raise ValueError("schedule needs at least one step")
        if any(t <= 0.0 for t in self.steps):
            raise ValueError("steps must be positive")
        if any(a <= b for a, b in zip(self.steps, self.steps[1:])):
            raise ValueError("steps must be strictly decreasing")


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


def classify_direction(
    set_: ConvexSet, xbar: PrimalPoint, v: PrimalPoint, band: float | None = None
) -> DirectionClass:
    """Up/down classification of a nonzero direction at a boundary point,
    by the slope psi(xbar_M, v_M) of the masked norm."""
    tag = classify_region(set_, xbar, band)
    if tag.kind is not RegionKind.BOUNDARY:
        raise NotOnBoundaryError("direction classification needs a boundary point")
    if is_theta(v):
        raise DegenerateInputError("directions must be nonzero")
    sp = xbar.space
    sel = _radial(set_, sp.n)[1]
    vm = np.where(sel, v.coords, 0.0)
    if _norm(vm, sp.weights, sp.p) <= sp.theta_tol:
        # The masked norm stays exactly r, hence never exceeds it.
        return DirectionClass(kind=DirectionKind.DOWN, slope=0.0)
    d = smoothness(sp.primal(np.where(sel, xbar.coords, 0.0)), sp.primal(vm))
    kind = DirectionKind.DOWN if d < 0.0 else DirectionKind.UP
    return DirectionClass(kind=kind, slope=d)


def frechet_apply(set_: ConvexSet, xbar: PrimalPoint, v: PrimalPoint) -> PrimalPoint:
    """Apply the closed-form derivative of the projection at an interior or
    exterior point to the direction v. Raises at boundary points, where the
    projection has no derivative."""
    tag = classify_region(set_, xbar)
    if tag.kind is RegionKind.BOUNDARY:
        raise NoDerivativeError("the projection is not differentiable on the boundary")
    if tag.kind is RegionKind.INTERIOR:
        return v
    sp = xbar.space
    r, sel = _radial(set_, sp.n)
    xm = np.where(sel, xbar.coords, 0.0)
    vm = np.where(sel, v.coords, 0.0)
    nrm = _norm(xm, sp.weights, sp.p)
    a = _pair(sp.weights, _duality(xm, sp.p, nrm, sp.theta_tol), vm) / nrm**2
    return sp.primal(np.where(sel, (r / nrm) * (v.coords - a * xbar.coords), v.coords))


def gateaux_fd(
    set_: ConvexSet,
    x: PrimalPoint,
    v: PrimalPoint,
    sched: FDSchedule = DEFAULT_SCHEDULE,
) -> FDEstimate:
    """One-sided difference quotients (P(x + t v) - P(x))/t along the schedule."""
    if is_theta(v):
        raise DegenerateInputError("finite differences need a nonzero direction")
    px = project(set_, x)
    estimates = []
    for t in sched.steps:
        q = (1.0 / t) * (project(set_, x + t * v) - px)
        estimates.append(q)
    gaps = tuple(
        norm_primal(b - a) for a, b in zip(estimates, estimates[1:])
    )
    converged = (not gaps) or gaps[-1] <= 10.0 * sched.tol
    return FDEstimate(value=estimates[-1], gaps=gaps, converged=converged)


def _witness_probes(set_: ConvexSet, xbar: PrimalPoint) -> list[PrimalPoint]:
    sp = xbar.space
    probes: list[PrimalPoint] = []
    if not is_theta(xbar):
        probes += [xbar, -xbar]
    if isinstance(set_, Cylinder):
        xm = mask_restrict(xbar, set_.mask)
        if not is_theta(xm):
            probes += [xm, -xm]
    coords = np.eye(sp.n)
    for i in range(sp.n):
        e = sp.primal(coords[i])
        probes += [e, -e]
    if isinstance(set_, Cylinder):
        for i in sorted(set_.mask):
            e = sp.primal(coords[i])
            probes += [e, -e]
    return probes


def nonsmoothness_witness(
    set_: ConvexSet,
    xbar: PrimalPoint,
    sched: FDSchedule = DEFAULT_SCHEDULE,
) -> Witness | None:
    """Search a fixed probe list for a direction certifying that no linear
    derivative exists at xbar.

    The defect of a probe v is ||P'(xbar; v) + P'(xbar; -v)|| estimated by
    one-sided differences; a linear derivative would make it vanish. Returns
    the first probe with defect >= 0.1 ||v||, or None if the probe list is
    exhausted (which indicates the point is not genuinely nonsmooth).
    """
    if isinstance(set_, (Ball, Cylinder)):
        tag = classify_region(set_, xbar)
        if tag.kind is not RegionKind.BOUNDARY:
            raise NotOnBoundaryError("nonsmoothness witnesses live on the boundary")
    elif isinstance(set_, PositiveCone):
        tol = xbar.space.theta_tol
        if not np.any(np.abs(xbar.coords) <= tol):
            raise NotOnBoundaryError("cone witnesses need at least one zero coordinate")
    else:
        raise UnsupportedSetError("the subspace projection is linear, hence smooth")
    for v in _witness_probes(set_, xbar):
        fwd = gateaux_fd(set_, xbar, v, sched).value
        bwd = gateaux_fd(set_, xbar, -v, sched).value
        defect = norm_primal(fwd + bwd)
        if defect >= 0.1 * norm_primal(v):
            return Witness(direction=v, defect=defect)
    return None

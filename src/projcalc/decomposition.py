"""Semi-orthogonal decomposition of a space (and its dual) against a fixed
nonzero anchor point.

Every x splits as x = a(x) * xbar + o(x) with <J(xbar), o(x)> = 0, where
a(x) = <J(xbar), x> / ||xbar||^2. Dually, every x* splits against
xbar* = J(xbar) as x* = a*(x*) * xbar* + o*(x*) with <o*(x*), xbar> = 0 and
a*(x*) = <x*, xbar> / ||xbar||^2. Both splits are linear in their argument.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateInputError
from .space import DualPoint, PrimalPoint, duality_map, norm_primal, pair

ANCHOR_PAIRING_TOL = 1e-9

# Composing J with the pairing costs about two decimal digits.
DEFAULT_MEMBERSHIP_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Anchor:
    """A nonzero reference point with its dual image J(xbar) cached.

    All four decomposition functionals share the cached value, which keeps
    the primal and dual splits exactly consistent with each other.
    """

    xbar: PrimalPoint
    xbar_star: DualPoint
    norm: float
    norm_sq: float

    @classmethod
    def at(cls, xbar: PrimalPoint) -> "Anchor":
        nrm = norm_primal(xbar)
        if nrm <= xbar.space.theta_tol:
            raise DegenerateInputError("anchor must be a nonzero point")
        xbar_star = duality_map(xbar)
        nsq = nrm * nrm
        if abs(pair(xbar_star, xbar) - nsq) > ANCHOR_PAIRING_TOL * max(1.0, nsq):
            raise DegenerateInputError("duality pairing at the anchor is inconsistent")
        return cls(xbar=xbar, xbar_star=xbar_star, norm=nrm, norm_sq=nsq)


def a_coef(anchor: Anchor, x: PrimalPoint) -> float:
    """Coefficient of x along the anchor: <J(xbar), x> / ||xbar||^2."""
    return pair(anchor.xbar_star, x) / anchor.norm_sq


def o_part(anchor: Anchor, x: PrimalPoint) -> PrimalPoint:
    """Residual x - a(x) * xbar, annihilated by J(xbar)."""
    return x - a_coef(anchor, x) * anchor.xbar


def a_star(anchor: Anchor, xs: DualPoint) -> float:
    """Dual coefficient <xs, xbar> / ||xbar||^2."""
    return pair(xs, anchor.xbar) / anchor.norm_sq


def o_star(anchor: Anchor, xs: DualPoint) -> DualPoint:
    """Dual residual xs - a*(xs) * J(xbar); vanishes on the anchor."""
    return xs - a_star(anchor, xs) * anchor.xbar_star


def in_O(anchor: Anchor, y: PrimalPoint) -> bool:
    """Whether y lies in the hyperplane annihilated by J(xbar)."""
    scale = max(1.0, anchor.norm * norm_primal(y))
    return abs(pair(anchor.xbar_star, y)) <= DEFAULT_MEMBERSHIP_TOL * scale


__all__ = ["Anchor", "a_coef", "o_part", "a_star", "o_star", "in_O"]

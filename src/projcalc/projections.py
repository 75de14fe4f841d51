"""Closed-form metric projections onto four convex sets.

Supported sets, all centered at the origin of a weighted p-norm space:

* ``Cylinder(r, mask)``  -- points whose masked part satisfies ||x_M|| <= r;
  projection rescales the masked part by r/||x_M|| and leaves the rest alone.
* ``Ball(r)``            -- points with ||x|| <= r. It is handled as the
  cylinder whose mask is every coordinate, so the projection is the radial
  scaling (r/||x||) x outside and the identity inside. Every ball/cylinder
  kernel here and in ``derivatives``, ``coderivative`` and ``instances`` is
  written once, over the coordinate mask from ``_radial``.
* ``CoordSubspace(mask)``-- coordinate subspace; projection truncates the
  complement coordinates to zero, for every exponent p.
* ``PositiveCone()``     -- componentwise nonnegative vectors; projection is
  the componentwise positive part.

``variational_residual`` turns the variational characterization
u = P(x)  iff  <J(x - u), u - z> >= 0 for all z in the set
into a falsifiable sampled quantity: the minimum of the pairing over a
list of feasible competitors.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidSetError,
    PreconditionError,
    UnsupportedSetError,
)
from .space import PrimalPoint, _duality, _expect, _norm, _pair

# Boundary band, relative to the radius. Boundary cases are constructed
# exactly in tests, so the band only has to absorb rounding.
DEFAULT_BAND_SCALE = 1e-9

SET_MEMBERSHIP_TOL = 1e-9


def _index_set(mask) -> frozenset[int]:
    """The mask as a frozenset of ints; an entry that is not an integer raises."""
    try:
        return frozenset(operator.index(i) for i in mask)
    except TypeError:
        raise InvalidSetError(f"a mask is a set of integer indices, got {mask!r}") from None


@dataclass(frozen=True)
class Ball:
    r: float

    def __post_init__(self):
        if not 0.0 < self.r < np.inf:
            raise InvalidSetError(f"ball radius must be positive and finite, got {self.r}")


@dataclass(frozen=True)
class Cylinder:
    r: float
    mask: frozenset[int]

    def __post_init__(self):
        if not 0.0 < self.r < np.inf:
            raise InvalidSetError(f"cylinder radius must be positive and finite, got {self.r}")
        object.__setattr__(self, "mask", _index_set(self.mask))
        if not self.mask:
            raise InvalidSetError("cylinder mask must be nonempty")


@dataclass(frozen=True)
class CoordSubspace:
    mask: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "mask", _index_set(self.mask))


@dataclass(frozen=True)
class PositiveCone:
    pass


ConvexSet = Ball | Cylinder | CoordSubspace | PositiveCone


class RegionKind(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


# -- masks -------------------------------------------------------------------


def check_mask(mask: frozenset[int], n: int) -> None:
    for i in mask:
        if not (0 <= i < n):
            raise DimensionMismatchError(f"mask index {i} outside 0..{n - 1}")


def mask_complement(mask: frozenset[int], n: int) -> frozenset[int]:
    check_mask(mask, n)
    return frozenset(range(n)) - mask


@functools.lru_cache(maxsize=256)
def _mask_array(mask: frozenset[int], n: int) -> np.ndarray:
    """The mask as a read-only boolean array of length n, cached by (mask, n).

    A mask with an index out of range raises on every call: the cache
    stores no exceptions.
    """
    check_mask(mask, n)
    sel = np.zeros(n, dtype=bool)
    if mask:
        sel[sorted(mask)] = True
    sel.setflags(write=False)
    return sel


@functools.lru_cache(maxsize=256)
def _full_index_set(n: int) -> frozenset[int]:
    """Every index below n: a ball's mask, kept so that its hash is computed once."""
    return frozenset(range(n))


def mask_restrict(point, mask: frozenset[int]):
    """Zero out every coordinate outside the mask (x = x_M + x_Mbar exactly)."""
    sel = _mask_array(frozenset(mask), point.space.n)
    return type(point)(np.where(sel, point.coords, 0.0), point.space)


def _radial(set_: Ball | Cylinder, n: int) -> tuple[float, np.ndarray]:
    """Radius and boolean coordinate mask of a ball or cylinder.

    A ball is the cylinder that masks every coordinate. Kernels take the
    masked part as ``np.where(sel, coords, 0.0)``: the zeros stay in place,
    so every sum rounds as it would over the full coordinate vector.
    """
    if isinstance(set_, Ball):
        return set_.r, _mask_array(_full_index_set(n), n)
    if isinstance(set_, Cylinder):
        return set_.r, _mask_array(set_.mask, n)
    raise UnsupportedSetError(f"this operation needs a ball or cylinder, got {set_!r}")


def _masked_norm(space, sel: np.ndarray, coords: np.ndarray) -> float:
    return _norm(np.where(sel, coords, 0.0), space.weights, space.p)


# -- positive/negative parts --------------------------------------------------


def pos_part(f):
    """Componentwise positive part; zero entries land in neither part."""
    return type(f)(np.where(f.coords > 0.0, f.coords, 0.0), f.space)


def neg_part(f):
    """Componentwise negative part, so that f = pos_part(f) + neg_part(f)."""
    return type(f)(np.where(f.coords < 0.0, f.coords, 0.0), f.space)


# -- membership and regions ----------------------------------------------------


def set_contains(set_: ConvexSet, x: PrimalPoint, tol: float = SET_MEMBERSHIP_TOL) -> bool:
    _expect(x.space, PrimalPoint, x)
    return bool(_contains_coords(set_, x.space, x.coords, tol))


def _contains_coords(set_: ConvexSet, space, coords: np.ndarray, tol: float = SET_MEMBERSHIP_TOL):
    """``set_contains`` on every row of a (..., n) coordinate array."""
    if isinstance(set_, (Ball, Cylinder)):
        r, sel = _radial(set_, space.n)
        return _masked_norm(space, sel, coords) <= r * (1.0 + tol)
    scale = np.maximum(1.0, _norm(coords, space.weights, space.p))
    if isinstance(set_, CoordSubspace):
        comp = ~_mask_array(set_.mask, space.n)
        return _norm(np.where(comp, coords, 0.0), space.weights, space.p) <= tol * scale
    if isinstance(set_, PositiveCone):
        return np.all(coords >= np.expand_dims(-tol * scale, -1), axis=-1)
    raise UnsupportedSetError(f"unknown set variant {set_!r}")


def classify_region(set_: ConvexSet, x: PrimalPoint) -> RegionKind:
    """Interior/Boundary/Exterior of a ball or cylinder, with a tolerance band
    of ``DEFAULT_BAND_SCALE * r``.

    The positive cone and coordinate subspaces are rejected: their geometry is
    handled by dedicated logic rather than a radius comparison.
    """
    _expect(x.space, PrimalPoint, x)
    return _region(set_, x)[4]


def _region(
    set_: Ball | Cylinder, x: PrimalPoint
) -> tuple[float, np.ndarray, np.ndarray, float, RegionKind]:
    """``(r, sel, xm, nrm, kind)``: the radius and coordinate mask, the masked
    part x_M and its norm, and the region of x. The only place the boundary
    band ``DEFAULT_BAND_SCALE * r`` is applied."""
    sp = x.space
    r, sel = _radial(set_, sp.n)
    xm = np.where(sel, x.coords, 0.0)
    nrm = _norm(xm, sp.weights, sp.p)
    band = DEFAULT_BAND_SCALE * r
    if abs(nrm - r) <= band:
        kind = RegionKind.BOUNDARY
    elif nrm < r - band:
        kind = RegionKind.INTERIOR
    else:
        kind = RegionKind.EXTERIOR
    return r, sel, xm, nrm, kind


# -- projections ---------------------------------------------------------------


def project(set_: ConvexSet, x: PrimalPoint) -> PrimalPoint:
    """Nearest point of the set in the weighted p-norm (closed form)."""
    _expect(x.space, PrimalPoint, x)
    return PrimalPoint(_project_coords(set_, x.space, x.coords), x.space)


def _project_coords(set_: ConvexSet, space, coords: np.ndarray) -> np.ndarray:
    """``project`` on every row of a (..., n) coordinate array."""
    if isinstance(set_, (Ball, Cylinder)):
        r, sel = _radial(set_, space.n)
        nrm = _masked_norm(space, sel, coords)
        # r / max(nrm, r) is exactly 1.0 inside the set, so the scaling
        # leaves an inner point's coordinates untouched.
        scale = (r / np.maximum(nrm, r))[..., np.newaxis]
        return np.where(sel, scale * coords, coords)
    if isinstance(set_, CoordSubspace):
        return np.where(_mask_array(set_.mask, space.n), coords, 0.0)
    if isinstance(set_, PositiveCone):
        return np.where(coords > 0.0, coords, 0.0)
    raise UnsupportedSetError(f"unknown set variant {set_!r}")


def variational_residual(
    set_: ConvexSet,
    x: PrimalPoint,
    u: PrimalPoint,
    z_samples: list[PrimalPoint],
) -> float:
    """min_z <J(x - u), u - z> over the given feasible competitors.

    A value >= -tol is consistent with u being the projection of x; a
    clearly negative value certifies that it is not. Every sample must lie
    in the set and in the space of x. The competitors are stacked into one
    (k, n) block for ``_residual_rows``.
    """
    _expect(x.space, PrimalPoint, x, u, *z_samples)
    if not z_samples:
        raise PreconditionError("variational residual needs at least one competitor")
    zs = np.array([z.coords for z in z_samples])
    return _residual_rows(set_, x.space, x.coords, u.coords, zs)


def _residual_rows(set_: ConvexSet, space, x: np.ndarray, u: np.ndarray, zs: np.ndarray) -> float:
    """``variational_residual`` over the competitor rows of a (k, n) block,
    given the coordinates of x and u: checked and paired in one pass."""
    if not _contains_coords(set_, space, zs).all():
        raise PreconditionError("competitor sample lies outside the set")
    d = x - u
    g = _duality(d, space.p, _norm(d, space.weights, space.p))
    if _norm(g, space.weights, space.q) <= space.theta_tol:
        return 0.0
    return float(np.min(_pair(space.weights, g, u - zs)))

"""Weighted finite-dimensional p-norm spaces and their duality mappings.

A space is fixed by a dimension ``n``, an exponent ``p`` with 1 < p < inf,
and strictly positive coordinate weights ``w`` (a discrete measure; all ones
for the plain p-norm). The primal norm is

    ||x||_p = (sum_s w_s |x_s|^p)^(1/p)

and the dual side carries the conjugate exponent q = p/(p-1) with the same
weights, paired through <phi, x> = sum_s w_s phi_s x_s.

The normalized duality mapping J sends x to the unique dual vector with
<J(x), x> = ||x||^2 and ||J(x)||_q = ||x||. Componentwise,

    J(x)_s = |x_s|^(p-2) x_s / ||x||^(p-2),

with J(0) = 0 by convention; the inverse mapping J* uses the same formula
with q on the dual side, and J* o J is the identity. The smoothness
functional psi(x, y) = <J(x), y> / ||x|| equals the one-sided derivative of
t -> ||x + t y|| at t = 0+. All three are positively homogeneous, so the
closed forms built on them treat only an exact zero as zero; ``theta_tol``
only discards numerically null sample rows in the verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError, InvalidSpaceError, NonFiniteError

# Exponents outside this range make |x|^(p-2) too ill-conditioned to verify
# at 64-bit precision.
P_MIN = 1.1
P_MAX = 10.0

# All this decides: sampled rows of norm <= THETA_TOL_SCALE * n are dropped as null.
THETA_TOL_SCALE = 1e-12


def _is_int(value) -> bool:
    """The integer test of every count, dimension and seed."""
    return isinstance(value, (int, np.integer))


@dataclass(frozen=True, eq=False)
class SpaceConfig:
    """A weighted p-norm space of dimension n (and its q-norm dual).

    ``weights`` defaults to all ones. ``q`` is the conjugate exponent
    p/(p-1), derived from ``p``.
    """

    n: int
    p: float
    weights: np.ndarray | None = None
    q: float = field(init=False)

    def __post_init__(self):
        if not _is_int(self.n) or self.n < 1:
            raise InvalidSpaceError(f"dimension must be a positive integer, got {self.n!r}")
        if not (P_MIN <= self.p <= P_MAX):
            raise InvalidSpaceError(f"exponent p must lie in [{P_MIN}, {P_MAX}], got {self.p}")
        object.__setattr__(self, "q", self.p / (self.p - 1.0))
        if self.weights is None:
            w = np.ones(self.n)
        else:
            w = np.asarray(self.weights, dtype=np.float64).copy()
        if w.shape != (self.n,):
            raise DimensionMismatchError(f"need {self.n} weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise InvalidSpaceError("all weights must be finite and strictly positive")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def theta_tol(self) -> float:
        return THETA_TOL_SCALE * self.n

    # -- point constructors ------------------------------------------------

    def primal(self, coords) -> "PrimalPoint":
        return PrimalPoint(coords, self)

    def dual(self, coords) -> "DualPoint":
        return DualPoint(coords, self)

    def zero_primal(self) -> "PrimalPoint":
        return PrimalPoint(np.zeros(self.n), self)

    def zero_dual(self) -> "DualPoint":
        return DualPoint(np.zeros(self.n), self)


def _freeze_coords(coords, n: int) -> np.ndarray:
    c = np.array(coords, dtype=np.float64)
    if c.shape != (n,):
        raise DimensionMismatchError(f"expected {n} coordinates, got shape {c.shape}")
    # One exact scalar test per coordinate: cheaper than np.isfinite on the
    # handful of coordinates a point holds, and no sum that could overflow.
    if not all(map(math.isfinite, c.tolist())):
        raise NonFiniteError("coordinates must be finite")
    c.setflags(write=False)
    return c


class _Point:
    """Shared arithmetic for primal and dual coordinate vectors.

    Instances are immutable: the coordinate array is read-only and the
    attributes cannot be rebound after construction.
    """

    __slots__ = ("coords", "space")

    def __init__(self, coords, space: SpaceConfig):
        object.__setattr__(self, "coords", _freeze_coords(coords, space.n))
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _like(self, coords):
        return type(self)(coords, self.space)

    def __add__(self, other):
        _expect(self.space, type(self), other)
        return self._like(self.coords + other.coords)

    def __sub__(self, other):
        _expect(self.space, type(self), other)
        return self._like(self.coords - other.coords)

    def __neg__(self):
        return self._like(-self.coords)

    def __mul__(self, scalar: float):
        return self._like(self.coords * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}({np.array2string(self.coords, precision=6)})"


class PrimalPoint(_Point):
    """A vector of the space itself (measured in the p-norm)."""


class DualPoint(_Point):
    """A vector of the dual space (measured in the q-norm, same weights)."""


def _expect(space: SpaceConfig, cls: type, *points) -> None:
    """Raise unless every point is exactly a ``cls`` of a space with the n, p
    and weights of ``space``: the one rule for which points a public function
    may combine, called at its entry once per kind of point it takes."""
    for pt in points:
        if type(pt) is not cls:
            raise DimensionMismatchError(f"expected a {cls.__name__}, got {type(pt).__name__}")
        sp = pt.space
        if sp is not space and not (
            (sp.n, sp.p) == (space.n, space.p) and np.array_equal(sp.weights, space.weights)
        ):
            raise DimensionMismatchError("points live in different spaces")


# -- array kernels ----------------------------------------------------------------
# The point functions below and the radial kernels of the set modules share
# these, so each formula is written once.


def _norm(coords: np.ndarray, weights: np.ndarray, exponent: float):
    """(sum_s w_s |c_s|^e)^(1/e) over the last axis of a (..., n) array.

    A float for one point, an array for a block of rows. The root is libm
    ``pow`` in both cases: Python's float power for one point, and
    ``np.float_power`` for a block, whose float64 loop calls ``pow`` on each
    entry with no SIMD dispatch (numpy's ``**`` on an array does dispatch,
    and rounds differently in a few percent of inputs). So every row of a
    block is bit-identical to the same point on its own. Raises when a norm
    overflows.
    """
    terms = np.abs(coords)
    terms **= exponent  # in place: a block allocates one array, not three
    terms *= weights
    sums = np.add.reduce(terms, axis=-1)
    inv = 1.0 / exponent
    if sums.ndim == 0:
        root = float(sums) ** inv
    else:
        root = np.float_power(sums, inv)
    # |c|^e overflows long before the coordinates do (p = 10, |c| ~ 1e31).
    return _finite(root, "norm")


def _pair(weights: np.ndarray, dual: np.ndarray, primal: np.ndarray):
    """sum_s w_s dual_s primal_s over the last axis; raises when it overflows."""
    return _finite(np.add.reduce(weights * dual * primal, axis=-1), "pairing")


def _finite(val, what: str):
    """A scalar as a float, or the array, once every entry is finite."""
    if isinstance(val, float):  # np.float64 included
        val = float(val)
        ok = math.isfinite(val)
    else:
        ok = bool(np.isfinite(val).all())
    if not ok:
        raise NonFiniteError(f"{what} of finite coordinates overflowed")
    return val


def _duality(coords: np.ndarray, exponent: float, nrm: float) -> np.ndarray:
    """Coordinates of J (exponent p) or J* (exponent q) at a point of norm nrm;
    zeros only when nrm == 0.0, since the formula is homogeneous."""
    if nrm == 0.0:
        return np.zeros_like(coords)
    # sign(x)*|x|^(e-1) is safe for all e > 1, including zero entries.
    return np.sign(coords) * np.abs(coords) ** (exponent - 1.0) / nrm ** (exponent - 2.0)


def norm_primal(x: PrimalPoint) -> float:
    """Weighted p-norm (sum_s w_s |x_s|^p)^(1/p)."""
    _expect(x.space, PrimalPoint, x)
    return _norm(x.coords, x.space.weights, x.space.p)


def norm_dual(xs: DualPoint) -> float:
    """Weighted q-norm of a dual vector; equals ||J(x)|| whenever xs = J(x)."""
    _expect(xs.space, DualPoint, xs)
    return _norm(xs.coords, xs.space.weights, xs.space.q)


def is_theta(point: PrimalPoint | DualPoint) -> bool:
    """Whether the norm is at most ``theta_tol``: a numerically null sample row."""
    if isinstance(point, DualPoint):
        return norm_dual(point) <= point.space.theta_tol
    return norm_primal(point) <= point.space.theta_tol


def pair(xs: DualPoint, x: PrimalPoint) -> float:
    """Canonical weighted pairing <xs, x> = sum_s w_s xs_s x_s."""
    _expect(x.space, PrimalPoint, x)
    _expect(x.space, DualPoint, xs)
    return _pair(x.space.weights, xs.coords, x.coords)


def duality_map(x: PrimalPoint) -> DualPoint:
    """Normalized duality mapping J, with J(0) = 0.

    Satisfies <J(x), x> = ||x||_p^2 and ||J(x)||_q = ||x||_p.
    """
    sp = x.space
    _expect(sp, PrimalPoint, x)
    nrm = _norm(x.coords, sp.weights, sp.p)
    return DualPoint(_duality(x.coords, sp.p, nrm), sp)


def duality_map_inv(xs: DualPoint) -> PrimalPoint:
    """Inverse duality mapping J*; J* o J and J o J* are identities."""
    sp = xs.space
    _expect(sp, DualPoint, xs)
    nrm = _norm(xs.coords, sp.weights, sp.q)
    return PrimalPoint(_duality(xs.coords, sp.q, nrm), sp)


def smoothness(x: PrimalPoint, y: PrimalPoint) -> float:
    """One-sided derivative of t -> ||x + t y|| at t = 0+, i.e. <J(x), y>/||x||.

    Raises DegenerateInputError at the origin, where the norm is not differentiable.
    """
    sp = x.space
    _expect(sp, PrimalPoint, x, y)
    nrm = _norm(x.coords, sp.weights, sp.p)
    if nrm == 0.0:
        raise DegenerateInputError("smoothness functional is undefined at the origin")
    return _pair(sp.weights, _duality(x.coords, sp.p, nrm), y.coords) / nrm

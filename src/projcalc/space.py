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
t -> ||x + t y|| at t = 0+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError, NonFiniteError

# Exponents outside this range make |x|^(p-2) too ill-conditioned to verify
# at 64-bit precision.
P_MIN = 1.1
P_MAX = 10.0

# A point whose norm is <= THETA_TOL_SCALE * n is treated as the origin.
THETA_TOL_SCALE = 1e-12


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
        if self.n < 1:
            raise ValueError(f"dimension must be positive, got {self.n}")
        if not (P_MIN <= self.p <= P_MAX):
            raise ValueError(f"exponent p must lie in [{P_MIN}, {P_MAX}], got {self.p}")
        object.__setattr__(self, "q", self.p / (self.p - 1.0))
        if self.weights is None:
            w = np.ones(self.n)
        else:
            w = np.asarray(self.weights, dtype=np.float64).copy()
        if w.shape != (self.n,):
            raise DimensionMismatchError(f"need {self.n} weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("all weights must be finite and strictly positive")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def theta_tol(self) -> float:
        return THETA_TOL_SCALE * self.n

    def compatible_with(self, other: "SpaceConfig") -> bool:
        return self is other or (
            self.n == other.n
            and self.p == other.p
            and np.array_equal(self.weights, other.weights)
        )

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
    c = np.asarray(coords, dtype=np.float64).copy()
    if c.shape != (n,):
        raise DimensionMismatchError(f"expected {n} coordinates, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise NonFiniteError("coordinates must be finite")
    c.flags.writeable = False
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

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if not self.space.compatible_with(other.space):
            raise DimensionMismatchError("points live in different spaces")

    def __add__(self, other):
        self._check(other)
        return self._like(self.coords + other.coords)

    def __sub__(self, other):
        self._check(other)
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


# -- array kernels ----------------------------------------------------------------
# The point functions below and the radial kernels of the set modules share
# these, so each formula is written once.


def _norm(coords: np.ndarray, weights: np.ndarray, exponent: float):
    """(sum_s w_s |c_s|^e)^(1/e) over the last axis of a (..., n) array.

    A float for one point, an array for a block of rows. The root is the
    scalar pow, one value at a time: numpy's array power rounds differently
    in a few percent of inputs, and the scalar root keeps every row of a
    block bit-identical to the same point on its own. Raises when a norm
    overflows.
    """
    sums = np.add.reduce(weights * np.abs(coords) ** exponent, axis=-1)
    inv = 1.0 / exponent
    if sums.ndim == 0:
        root = float(sums) ** inv
    else:
        root = np.array([s**inv for s in sums.ravel().tolist()]).reshape(sums.shape)
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


def _duality(coords: np.ndarray, exponent: float, nrm: float, tol: float) -> np.ndarray:
    """Coordinates of J (exponent p) or J* (exponent q) at a point of norm nrm."""
    if nrm <= tol:
        return np.zeros_like(coords)
    # sign(x)*|x|^(e-1) is safe for all e > 1, including zero entries.
    return np.sign(coords) * np.abs(coords) ** (exponent - 1.0) / nrm ** (exponent - 2.0)


def norm_primal(x: PrimalPoint) -> float:
    """Weighted p-norm (sum_s w_s |x_s|^p)^(1/p)."""
    return _norm(x.coords, x.space.weights, x.space.p)


def norm_dual(xs: DualPoint) -> float:
    """Weighted q-norm of a dual vector; equals ||J(x)|| whenever xs = J(x)."""
    return _norm(xs.coords, xs.space.weights, xs.space.q)


def is_theta(point: PrimalPoint | DualPoint) -> bool:
    """Whether the point is at (or numerically indistinguishable from) the origin."""
    if isinstance(point, DualPoint):
        return norm_dual(point) <= point.space.theta_tol
    return norm_primal(point) <= point.space.theta_tol


def pair(xs: DualPoint, x: PrimalPoint) -> float:
    """Canonical weighted pairing <xs, x> = sum_s w_s xs_s x_s."""
    if not xs.space.compatible_with(x.space):
        raise DimensionMismatchError("pairing requires a common space")
    return _pair(x.space.weights, xs.coords, x.coords)


def duality_map(x: PrimalPoint) -> DualPoint:
    """Normalized duality mapping J, with J(0) = 0.

    Satisfies <J(x), x> = ||x||_p^2 and ||J(x)||_q = ||x||_p.
    """
    sp = x.space
    return DualPoint(_duality(x.coords, sp.p, norm_primal(x), sp.theta_tol), sp)


def duality_map_inv(xs: DualPoint) -> PrimalPoint:
    """Inverse duality mapping J*; J* o J and J o J* are identities."""
    sp = xs.space
    return PrimalPoint(_duality(xs.coords, sp.q, norm_dual(xs), sp.theta_tol), sp)


def smoothness(x: PrimalPoint, y: PrimalPoint) -> float:
    """One-sided derivative of t -> ||x + t y|| at t = 0+, i.e. <J(x), y>/||x||.

    Raises DegenerateInputError when x is numerically the origin, where the
    norm is not differentiable.
    """
    nrm = norm_primal(x)
    if nrm <= x.space.theta_tol:
        raise DegenerateInputError("smoothness functional is undefined at the origin")
    return pair(duality_map(x), y) / nrm

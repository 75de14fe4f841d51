"""Deterministic test-instance generation.

Every instance is a (space, set, point) triple reproducible from a seed.
Boundary points are constructed exactly: the raw draw is rescaled so the
relevant (masked) norm equals the radius to machine precision. Balls and
cylinders share one draw and one rescaling, through the coordinate mask of
``projections._radial`` (every coordinate for a ball).
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError, UnsupportedSetError
from .projections import Ball, ConvexSet, CoordSubspace, Cylinder, PositiveCone, mask_restrict
from .projections import _mask_array, _masked_norm, _radial
from .space import PrimalPoint, SpaceConfig

_KIND_CODES = {"ball": 1, "cylinder": 2, "cone": 3, "subspace": 4}
_REGIME_CODES = {"interior": 1, "boundary": 2, "exterior": 3}


def _rng(seed: int, kind: str, regime: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed, _KIND_CODES[kind], _REGIME_CODES[regime]])
    )


def make_weights(n: int, mode: str, rng: np.random.Generator) -> np.ndarray:
    if mode == "ones":
        return np.ones(n)
    if mode == "random":
        return rng.uniform(0.5, 2.0, size=n)
    raise PreconditionError(f"unknown weights mode {mode!r}")


def pick_mask(n: int, density: float, rng: np.random.Generator) -> frozenset[int]:
    k = max(1, int(round(density * n)))
    k = min(k, n)
    return frozenset(rng.choice(n, size=k, replace=False).tolist())


def _rescale_masked(space: SpaceConfig, sel: np.ndarray, coords, target: float) -> PrimalPoint:
    """The point with coords' masked part rescaled to norm ``target`` and the
    unmasked coordinates kept. The masked part must be nonzero."""
    scale = target / _masked_norm(space, sel, coords)
    return space.primal(np.where(sel, scale * coords, coords))


def _masked_draw(space: SpaceConfig, sel: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A standard normal draw, redrawn until its masked part is nonzero."""
    v = rng.standard_normal(space.n)
    while _masked_norm(space, sel, v) <= space.theta_tol:
        v = rng.standard_normal(space.n)
    return v


def point_at_norm(
    space: SpaceConfig, set_: Ball | Cylinder, rng: np.random.Generator, target: float
) -> PrimalPoint:
    """A random point whose masked norm equals ``target`` (the radius for a
    boundary point)."""
    sel = _radial(set_, space.n)[1]
    return _rescale_masked(space, sel, _masked_draw(space, sel, rng), target)


def gen_instance(
    kind: str,
    regime: str,
    seed: int,
    n: int = 8,
    p: float = 2.0,
    r: float = 1.0,
    mask_density: float = 0.5,
    weights_mode: str = "ones",
) -> tuple[SpaceConfig, ConvexSet, PrimalPoint]:
    """Build a reproducible instance of the given kind and regime.

    Regimes: interior / boundary / exterior. For the cone, "boundary" means
    at least one zero and one positive coordinate, "exterior" at least one
    strictly negative coordinate, "interior" all strictly positive. For a
    subspace, "interior" is a point of the subspace and "exterior" one with
    a nonzero complement part.
    """
    if kind not in _KIND_CODES or regime not in _REGIME_CODES:
        raise PreconditionError(f"unknown instance kind {kind!r} or regime {regime!r}")
    rng = _rng(seed, kind, regime)
    space = SpaceConfig(n=n, p=p, weights=make_weights(n, weights_mode, rng))

    if kind in ("ball", "cylinder"):
        if kind == "ball":
            set_: ConvexSet = Ball(r=r)
        else:
            set_ = Cylinder(r=r, mask=pick_mask(n, mask_density, rng))
        sel = _radial(set_, n)[1]
        coords = _masked_draw(space, sel, rng)
        return space, set_, _rescale_masked(space, sel, coords, _target_norm(regime, r, rng))

    if kind == "cone":
        set_ = PositiveCone()
        mags = np.abs(_masked_draw(space, np.ones(n, dtype=bool), rng)) + 0.1
        if regime == "interior":
            coords = mags
        elif regime == "exterior":
            coords = mags.copy()
            neg = rng.choice(n, size=max(1, n // 3), replace=False)
            coords[neg] *= -1.0
        else:  # boundary
            coords = mags.copy()
            idx = rng.permutation(n)
            zeros = idx[: max(1, n // 3)]
            coords[zeros] = 0.0
            if n >= 3:
                negs = idx[max(1, n // 3) : max(1, n // 3) + max(1, n // 4)]
                coords[negs] *= -1.0
        return space, set_, space.primal(coords)

    mask = pick_mask(n, mask_density, rng)  # subspace
    set_ = CoordSubspace(mask=mask)
    x = space.primal(_masked_draw(space, np.ones(n, dtype=bool), rng))
    if regime in ("interior", "boundary"):
        x = mask_restrict(x, mask)
    return space, set_, x


def _target_norm(regime: str, r: float, rng: np.random.Generator) -> float:
    if regime == "interior":
        return r * rng.uniform(0.2, 0.8)
    if regime == "boundary":
        return r
    return r * (1.1 + rng.uniform(0.0, 1.0))  # exterior


def sample_in_set(
    set_: ConvexSet, space: SpaceConfig, rng: np.random.Generator, count: int
) -> list[PrimalPoint]:
    """``count`` feasible competitor samples: the rows of ``_sample_rows`` as points."""
    return [PrimalPoint(c, space) for c in _sample_rows(set_, space, rng, count)]


def _sample_rows(
    set_: ConvexSet, space: SpaceConfig, rng: np.random.Generator, count: int
) -> np.ndarray:
    """``count`` feasible competitor samples, drawn as one (count, n) block.

    Every set draws one ``standard_normal((count, n))`` block. A ball or
    cylinder then draws one ``uniform(0, 1, count)`` block of radius
    fractions and rescales each row's masked part to norm ``r * u``; a row
    whose masked norm is at most ``theta_tol`` keeps its unmasked part and
    gets a zero masked part. The cone takes absolute values, the subspace
    zeroes the complement.
    """
    if count < 0:
        raise PreconditionError(f"the number of samples must be nonnegative, got {count}")
    n = space.n
    if isinstance(set_, PositiveCone):
        return np.abs(rng.standard_normal((count, n)))
    if isinstance(set_, CoordSubspace):
        return np.where(_mask_array(set_.mask, n), rng.standard_normal((count, n)), 0.0)
    if not isinstance(set_, (Ball, Cylinder)):
        raise UnsupportedSetError(f"unknown set variant {set_!r}")
    r, sel = _radial(set_, n)
    block = rng.standard_normal((count, n))
    fracs = rng.uniform(0.0, 1.0, count)
    nrm = _masked_norm(space, sel, block)
    live = nrm > space.theta_tol
    scaled = (r * fracs / np.where(live, nrm, 1.0))[:, np.newaxis] * block
    return np.where(sel, np.where(live[:, np.newaxis], scaled, 0.0), block)

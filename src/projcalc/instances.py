"""Deterministic test-instance generation.

Every instance is a (space, set, point) triple reproducible from a seed.
Boundary points are constructed exactly: the raw draw is rescaled so the
relevant (masked) norm equals the radius to machine precision. Balls and
cylinders share one draw and one rescaling, through the coordinate mask of
``projections._radial`` (every coordinate for a ball).
"""

from __future__ import annotations

import numpy as np

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
    raise ValueError(f"unknown weights mode {mode!r}")


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
        elif regime == "boundary":
            coords = mags.copy()
            idx = rng.permutation(n)
            zeros = idx[: max(1, n // 3)]
            coords[zeros] = 0.0
            if n >= 3:
                negs = idx[max(1, n // 3) : max(1, n // 3) + max(1, n // 4)]
                coords[negs] *= -1.0
        else:
            raise ValueError(f"unknown regime {regime!r}")
        return space, set_, space.primal(coords)

    if kind == "subspace":
        mask = pick_mask(n, mask_density, rng)
        set_ = CoordSubspace(mask=mask)
        x = space.primal(_masked_draw(space, np.ones(n, dtype=bool), rng))
        if regime in ("interior", "boundary"):
            x = mask_restrict(x, mask)
        return space, set_, x

    raise ValueError(f"unknown instance kind {kind!r}")


def _target_norm(regime: str, r: float, rng: np.random.Generator) -> float:
    if regime == "interior":
        return r * rng.uniform(0.2, 0.8)
    if regime == "boundary":
        return r
    if regime == "exterior":
        return r * (1.1 + rng.uniform(0.0, 1.0))
    raise ValueError(f"unknown regime {regime!r}")


def sample_in_set(
    set_: ConvexSet, space: SpaceConfig, rng: np.random.Generator, count: int
) -> list[PrimalPoint]:
    """``count`` feasible competitor samples, one generator per set variant.

    The draws keep one seeded order: row by row, ``standard_normal(n)``, and
    for a ball or cylinder a ``uniform`` radius fraction only when the
    row's masked norm exceeds ``theta_tol`` (a row whose masked part is
    numerically zero keeps its unmasked part and is not rescaled). The
    rows are then rescaled, or made nonnegative or restricted to the
    subspace, as one (count, n) block.
    """
    n = space.n
    if isinstance(set_, (Ball, Cylinder)):
        r, sel = _radial(set_, n)
        rows, scales = [], []
        for _ in range(count):
            v = rng.standard_normal(n)
            nrm = _masked_norm(space, sel, v)
            if nrm > space.theta_tol:
                scales.append(r * rng.uniform(0.0, 1.0) / nrm)
            else:
                v = np.where(sel, 0.0, v)
                scales.append(0.0)
            rows.append(v)
        block = np.array(rows).reshape(count, n)
        coords = np.where(sel, np.array(scales)[:, np.newaxis] * block, block)
    elif isinstance(set_, PositiveCone):
        coords = np.abs(rng.standard_normal((count, n)))
    elif isinstance(set_, CoordSubspace):
        coords = np.where(_mask_array(set_.mask, n), rng.standard_normal((count, n)), 0.0)
    else:
        raise ValueError(f"unknown set variant {set_!r}")
    return [PrimalPoint(c, space) for c in coords]

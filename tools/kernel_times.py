"""Per-kernel call times of the working tree against a revision.

Times one call of each library kernel -- typed point construction, ``x - y``,
``norm_primal``, ``duality_map``, ``duality_map_inv``, ``project`` on each of
the four sets, an exterior ``frechet_apply``, ``coderiv_ball`` at an
interior, an exterior and a boundary point, a boundary ``coderiv_cylinder``,
``gateaux_fd``, ``nonsmoothness_witness`` at a boundary point of the ball,
the cylinder and the cone, and one ``test_membership`` with the default 256
and with 32 directions per radius (the oracle suites' count) -- at
n = 8, p = 3 with random weights and fixed inputs. Each tree is timed in
a child process that imports its own ``src``: the working tree, and a ``git
archive`` export of REV. The two trees alternate over ``ROUNDS`` rounds,
and the side that runs first alternates too. A kernel's time is the best of
7 timeit repeats in a child. Prints microseconds per call for both trees,
each as the best over the rounds and the min-max range of the rounds, and
the ratio REV / working tree of the best times, so a ratio above 1 means the
working tree is faster. When the two ranges overlap, the ratio is marked
unresolved: the difference is within the rounds' noise. A kernel that raises
in a tree is shown with the exception's name.

    python3 tools/kernel_times.py --against HEAD~1
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

import numpy as np

from bench_pairs import ROOT, _export

REPEATS = 7
ROUNDS = 3
# Calls per timeit repeat are chosen so that one repeat lasts about this long.
REPEAT_SECONDS = 0.05


def _kernels() -> dict:
    """Name -> zero-argument call, on inputs fixed by one seed."""
    import projcalc as pc
    from projcalc.instances import point_at_norm

    rng = np.random.default_rng(2024)
    n, r = 8, 1.0
    sp = pc.SpaceConfig(n=n, p=3.0, weights=rng.uniform(0.5, 2.0, n))
    mask = frozenset({0, 2, 3, 5})
    ball, cyl = pc.Ball(r), pc.Cylinder(r, mask)
    sets = {"ball": ball, "cylinder": cyl, "subspace": pc.CoordSubspace(mask),
            "cone": pc.PositiveCone()}
    coords = rng.standard_normal(n)
    x, y = sp.primal(coords), sp.primal(rng.standard_normal(n))
    v, ys = sp.primal(rng.standard_normal(n)), sp.dual(rng.standard_normal(n))
    jx = pc.duality_map(x)
    x_in, x_out, xb = (point_at_norm(sp, ball, rng, t * r) for t in (0.5, 1.6, 1.0))
    xc_b = point_at_norm(sp, cyl, rng, r)
    x_pos = sp.primal(np.maximum(coords, 0.0))  # zero where coords < 0: on the cone's boundary
    m32 = pc.OracleConfig(directions_per_radius=32)
    kernels = {
        "point": lambda: sp.primal(coords),
        "x - y": lambda: x - y,
        "norm_primal": lambda: pc.norm_primal(x),
        "duality_map": lambda: pc.duality_map(x),
        "duality_map_inv": lambda: pc.duality_map_inv(jx),
    }
    for name, set_ in sets.items():
        kernels[f"project {name}"] = lambda set_=set_: pc.project(set_, x_out)
    kernels.update({
        "frechet_apply exterior": lambda: pc.frechet_apply(ball, x_out, v),
        "coderiv_ball interior": lambda: pc.coderiv_ball(r, x_in, ys),
        "coderiv_ball exterior": lambda: pc.coderiv_ball(r, x_out, ys),
        "coderiv_ball boundary": lambda: pc.coderiv_ball(r, xb, ys),
        "coderiv_cylinder boundary": lambda: pc.coderiv_cylinder(r, mask, xc_b, ys),
        "gateaux_fd exterior": lambda: pc.gateaux_fd(ball, x_out, v),
        "nonsmoothness_witness ball": lambda: pc.nonsmoothness_witness(ball, xb),
        "nonsmoothness_witness cylinder": lambda: pc.nonsmoothness_witness(cyl, xc_b),
        "nonsmoothness_witness cone": lambda: pc.nonsmoothness_witness(sets["cone"], x_pos),
        "test_membership": lambda: pc.test_membership(ball, x_out, sp.zero_dual(), ys),
        "test_membership m=32": lambda: pc.test_membership(ball, x_out, sp.zero_dual(), ys, m32),
    })
    return kernels


def _best_us(call) -> float:
    """Microseconds per call: the best of ``REPEATS`` timeit repeats."""
    once = min(timeit.repeat(call, number=1, repeat=3))
    number = max(1, int(REPEAT_SECONDS / max(once, 1e-9)))
    return min(timeit.repeat(call, number=number, repeat=REPEATS)) / number * 1e6


def child() -> None:
    """Time every kernel of the ``projcalc`` on the path; print one JSON line."""
    out = {}
    for name, call in _kernels().items():
        try:
            out[name] = _best_us(call)
        except Exception as exc:  # a kernel missing or failing in one tree is reported
            out[name] = type(exc).__name__
    print(json.dumps(out))


def _time_tree(tree: Path) -> dict:
    code = (f"import sys; sys.path[:0] = [{str(tree / 'src')!r}, {str(ROOT / 'tools')!r}]; "
            "import kernel_times; kernel_times.child()")
    proc = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                          text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(rounds: list[dict]) -> dict:
    """Per kernel, the (least, greatest) time over the rounds, or the name of
    the exception a round raised."""
    out = {}
    for name in rounds[0]:
        vals = [r[name] for r in rounds]
        nums = [t for t in vals if isinstance(t, float)]
        out[name] = (min(nums), max(nums)) if len(nums) == len(vals) else next(
            t for t in vals if not isinstance(t, float))
    return out


def _cells(side) -> str:
    """One tree's best time and min-max range, or the exception's name."""
    if isinstance(side, str):
        return f"{side:>10}{'':>17}"
    return f"{side[0]:>10.2f}{f'{side[0]:.2f}-{side[1]:.2f}':>17}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", default="HEAD", help="git revision to compare with")
    args = ap.parse_args(argv)

    runs: dict[str, list[dict]] = {"against": [], "tree": []}
    with tempfile.TemporaryDirectory(prefix="kernel-times-") as tmp:
        trees = {"against": Path(tmp) / "against", "tree": ROOT}
        _export(args.against, trees["against"])
        for i in range(ROUNDS):
            # Alternate which tree runs first, so a drifting machine favours neither.
            order = ("against", "tree") if i % 2 == 0 else ("tree", "against")
            for side in order:
                runs[side].append(_time_tree(trees[side]))

    spread = {side: _spread(rounds) for side, rounds in runs.items()}
    rev = subprocess.run(["git", "rev-parse", "--short", args.against], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    print(f"us per call, timeit best of {REPEATS} x {ROUNDS} rounds (min-max of the rounds),"
          " n = 8, p = 3")
    print(f"{'kernel':<31}{rev:>10}{'range':>17}{'tree':>10}{'range':>17}{'ratio':>8}")
    for name, a in spread["against"].items():
        t = spread["tree"][name]
        timed = isinstance(a, tuple) and isinstance(t, tuple)
        ratio = f"{a[0] / t[0]:.2f}" if timed else "-"
        mark = "  unresolved" if timed and a[0] <= t[1] and t[0] <= a[1] else ""
        print(f"{name:<31}{_cells(a)}{_cells(t)}{ratio:>8}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

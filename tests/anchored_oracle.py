"""The anchored integral against mpmath: its reported error bound holds at every point.

Evaluates both series families through ``series._evaluate``, which returns each value's
error bound, at anchored points (past the direct radius, off w = 1) of every order in
ORDERS: w = -1 and points just beside it, points with |1 - w| from 1e-1 down to 1e-15
on and inside the circle, points on the circle, and rings with |w| in (0.64, 1).  At
each point the error against mpmath's hyp2f1 (30 digits) must be at most the reported
bound, and the bound at most ABS_TOL.  A second section does the same with the direct
sum cut to MOVED_TERMS terms, which moves its split down to |w| = 0.4147: at every
order, the first double past -split and rings with |w| between the split and 0.64.
Prints the largest ratio of error to bound of each section and ``ok``, or names the
failing points and exits 1.  Needs numpy and mpmath:

    PYTHONPATH=src python tests/anchored_oracle.py [--points 10000] [--seed 0]

``--points`` is the total over the orders of the first section (the second takes
``--points // 5``); tests/test_series.py runs a subset of each.
"""

from __future__ import annotations

import argparse
import math
import sys

import mpmath as mp
import numpy as np

from rosette import series
from rosette.series import SeriesKind, SeriesSpec

ORDERS = (2, 3, 5, 12, 96, 2000, 10**5)

# Direct terms of the second section: the split moves to the direct radius 0.4147.
MOVED_TERMS = 32


def anchored_points(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` points of the anchored regime at order n: w = -1 and its neighbours, the
    approach to w = 1, the circle, and rings with |w| in (0.64, 1)."""
    fixed = np.exp(1j * (math.pi - np.array([0.0, 1e-15, 1e-9, 1e-3])))
    near = max(count // 4, 1)
    gap = 10.0 ** -rng.uniform(1.0, 15.0, near)  # |1 - w|
    side = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, near)  # the direction from 1 to w
    inward = 1.0 - gap * np.exp(1j * side)
    onto = np.exp(1j * rng.choice([-1.0, 1.0], near) * 2.0 * np.arcsin(gap / 2.0))
    circle = np.exp(1j * rng.uniform(-math.pi, math.pi, near))
    rest = max(count - fixed.size - 3 * near, 1)
    ring = rng.uniform(0.64, 1.0, rest) * np.exp(1j * rng.uniform(-math.pi, math.pi, rest))
    w = np.concatenate([fixed, inward, onto, circle, ring])[:count]
    return np.where(np.abs(w) > 1.0, w / np.abs(w), w)


def reference(kind: SeriesKind, n: int, w: complex) -> complex:
    """hyp2f1 of the family at w, to 30 digits."""
    x = mp.mpf(1) / (2 * n)
    with mp.workdps(30):
        if kind is SeriesKind.ANALYTIC:
            return complex(mp.hyp2f1(0.5, x, 1 + x, mp.mpc(w)))
        return complex(mp.hyp2f1(0.5, 0.5 - x, 1.5 - x, mp.mpc(w)))


def moved_split_points(count: int, split: float, rng: np.random.Generator) -> np.ndarray:
    """``count`` points of the anchored regime below |w| = 0.64 when the direct radius is
    ``split``: the first double past -split, farthest from 1, and rings past the split."""
    rest = max(count - 1, 1)
    ring = rng.uniform(np.nextafter(split, 1.0), 0.64, rest)
    ring = ring * np.exp(1j * rng.uniform(-math.pi, math.pi, rest))
    return np.concatenate([[-np.nextafter(split, 1.0)], ring])[:count]


def check(orders=ORDERS, points: int = 10_000, seed: int = 0,
          direct_terms: int | None = None) -> tuple[list[str], float, int]:
    """The failures, the largest ratio of error to reported bound, and the points checked.
    With ``direct_terms`` the direct sum is cut to that many terms for the check, and the
    points are ``moved_split_points``."""
    rng = np.random.default_rng(seed)
    failures, worst, checked = [], 0.0, 0
    per_order = -(-points // len(orders))
    saved = series._DIRECT_TERMS
    series._DIRECT_TERMS = direct_terms or saved
    try:
        radius = series._direct_radius(series._DIRECT_TERMS, series.ABS_TOL)
        for n in orders:
            if direct_terms is None:
                w = anchored_points(n, per_order, rng)
            else:
                w = moved_split_points(per_order, radius, rng)
            assert (np.abs(w) > radius).all() and (np.abs(w - 1.0) > series._AT_ONE_RADIUS).all()
            specs = [SeriesSpec(kind, n) for kind in SeriesKind]
            _, values, bounds, _, _ = series._evaluate(specs, w)
            for spec, value, bound in zip(specs, values, bounds):
                for i in range(w.size):
                    error = abs(value[i] - reference(spec.kind, n, complex(w[i])))
                    worst = max(worst, error / bound[i])
                    if not (error <= bound[i] <= series.ABS_TOL):
                        failures.append(f"{spec.kind.value} n={n} w={complex(w[i])!r} "
                                        f"({series._DIRECT_TERMS} direct terms): "
                                        f"error {error:.3e}, bound {bound[i]:.3e}")
            checked += w.size
    finally:
        series._DIRECT_TERMS = saved
    return failures, worst, checked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    failures = []
    for label, points, terms in (("", args.points, None),
                                 (f" at {MOVED_TERMS} direct terms", args.points // 5,
                                  MOVED_TERMS)):
        found, worst, checked = check(points=points, seed=args.seed, direct_terms=terms)
        for line in found[:20]:
            print(line)
        print(f"{checked} points{label}, orders {', '.join(map(str, ORDERS))}: "
              f"largest error / bound {worst:.3g}")
        failures += found
    if failures:
        print(f"FAILED at {len(failures)} family values")
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

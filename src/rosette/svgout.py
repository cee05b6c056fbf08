"""Minimal deterministic SVG output.

Pure string assembly with fixed 3-decimal pixel coordinates, so identical
inputs produce byte-identical documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class SvgCanvas:
    """Square canvas mapping the world square [-half, half]^2 to pixels."""

    width_px: int
    world_half: float
    elements: list[str] = field(default_factory=list)

    def to_px(self, z):
        """Pixel coordinates (x, y) of a point, or of each point of an array."""
        s = self.width_px / (2.0 * self.world_half)
        return (
            (z.real + self.world_half) * s,
            (self.world_half - z.imag) * s,  # y axis points down in SVG
        )

    def _fmt(self, v: float) -> str:
        return f"{v:.3f}"

    def polyline(self, points, stroke: str = "#000000", width: float = 1.0) -> None:
        pts = np.asarray(points, dtype=complex)
        if pts.size < 2:
            return
        xs, ys = self.to_px(pts)
        d = "M" + "L".join(f"{x:.3f} {y:.3f}" for x, y in zip(xs.tolist(), ys.tolist()))
        self.elements.append(
            f'<path d="{d}" fill="none" stroke="{stroke}" '
            f'stroke-width="{self._fmt(width)}"/>'
        )

    def dot(self, z: complex, radius_px: float = 3.0, fill: str = "#000000") -> None:
        x, y = self.to_px(z)
        self.elements.append(
            f'<circle cx="{self._fmt(x)}" cy="{self._fmt(y)}" '
            f'r="{self._fmt(radius_px)}" fill="{fill}"/>'
        )

    def line(
        self, a: complex, b: complex, stroke: str = "#888888", width: float = 0.75
    ) -> None:
        x1, y1 = self.to_px(a)
        x2, y2 = self.to_px(b)
        self.elements.append(
            f'<line x1="{self._fmt(x1)}" y1="{self._fmt(y1)}" '
            f'x2="{self._fmt(x2)}" y2="{self._fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{self._fmt(width)}"/>'
        )

    def document(self) -> str:
        w = self.width_px
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{w}" '
            f'viewBox="0 0 {w} {w}">\n'
            f'<rect width="{w}" height="{w}" fill="#ffffff"/>\n'
        )
        return head + "\n".join(self.elements) + "\n</svg>\n"


def flatten_curves(value_fn, paths, tol_world: float, max_rounds: int = 12) -> list[np.ndarray]:
    """Adaptively sample several curves until their chords deviate < tol_world.

    Each path is ``(point_fn, t0, t1, initial)``: the curve is
    ``value_fn(point_fn(t))`` for t in [t0, t1], started on ``initial``
    equally spaced parameters.  A chord is split at its parameter midpoint
    when the curve midpoint is farther than tol_world from the chord
    midpoint; only the two halves of a split chord are tested again, for at
    most ``max_rounds`` rounds.  ``point_fn`` maps a parameter array to
    value_fn's input elementwise.  One ``value_fn`` call covers the initial
    parameters of every path, and one per round the midpoints of every
    path.  Returns the values of each path, in parameter order.
    """
    point_fns = [path[0] for path in paths]
    ts = [np.linspace(t0, t1, max(int(initial), 2)) for _, t0, t1, initial in paths]
    owner = np.repeat(np.arange(len(paths)), [t.size for t in ts])
    ts = np.concatenate(ts)

    def by_path(arr, who):  # who is non-decreasing: entries come grouped by path
        return np.split(arr, np.searchsorted(who, np.arange(1, len(paths))))

    def points(params, who):
        return np.concatenate(
            [fn(part) for fn, part in zip(point_fns, by_path(params, who)) if part.size]
        )

    vals = value_fn(points(ts, owner))
    pending = np.flatnonzero(owner[:-1] == owner[1:])  # left ends of the chords to test
    for _ in range(max_rounds):
        mid_ts = 0.5 * (ts[pending] + ts[pending + 1])
        mid_vals = value_fn(points(mid_ts, owner[pending]))
        chord_mid = 0.5 * (vals[pending] + vals[pending + 1])
        bad = np.abs(mid_vals - chord_mid) > tol_world
        if not bad.any():
            break
        idx = pending[bad]
        ts = np.insert(ts, idx + 1, mid_ts[bad])
        vals = np.insert(vals, idx + 1, mid_vals[bad])
        owner = np.insert(owner, idx + 1, owner[idx])
        left = idx + np.arange(idx.size)  # where the split chords' left ends moved
        pending = np.stack([left, left + 1], axis=1).ravel()
    return by_path(vals, owner)


def flatten_curve(curve_fn, t0: float, t1: float, initial: int, tol_world: float) -> np.ndarray:
    """flatten_curves for one curve given directly as ``curve_fn(t)``."""
    return flatten_curves(curve_fn, [(lambda t: t, t0, t1, initial)], tol_world)[0]


def axis_segment(center: complex, direction_arg: float, half_length: float) -> tuple[complex, complex]:
    d = half_length * complex(math.cos(direction_arg), math.sin(direction_arg))
    return center - d, center + d

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

    def to_px(self, z: complex) -> tuple[float, float]:
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
        coords = [self.to_px(complex(p)) for p in pts]
        d = "M" + "L".join(f"{self._fmt(x)} {self._fmt(y)}" for x, y in coords)
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


def flatten_curve(
    curve_fn, t0: float, t1: float, initial: int, tol_world: float, max_rounds: int = 12
) -> np.ndarray:
    """Adaptively sample curve_fn on [t0, t1] until chords deviate < tol_world.

    curve_fn must accept an ndarray of parameters and return complex values.
    Subdivision inserts parameter midpoints wherever the curve midpoint is
    farther than tol_world from the chord midpoint.
    """
    ts = np.linspace(t0, t1, max(int(initial), 2))
    vals = curve_fn(ts)
    for _ in range(max_rounds):
        mid_ts = 0.5 * (ts[:-1] + ts[1:])
        mid_vals = curve_fn(mid_ts)
        chord_mid = 0.5 * (vals[:-1] + vals[1:])
        bad = np.abs(mid_vals - chord_mid) > tol_world
        if not bad.any():
            break
        idx = np.flatnonzero(bad)
        ts = np.insert(ts, idx + 1, mid_ts[idx])
        vals = np.insert(vals, idx + 1, mid_vals[idx])
    return vals


def axis_segment(center: complex, direction_arg: float, half_length: float) -> tuple[complex, complex]:
    d = half_length * complex(math.cos(direction_arg), math.sin(direction_arg))
    return center - d, center + d

"""Figure rendering: images of a polar grid under a rosette map, with overlays.

The viewport is the square of side 2 * bounding_radius(n) * (1 + margin_frac)
centered at the origin, identical for every beta at fixed n, so figures for
different beta are directly size-comparable.  A margin for which that side
overflows is a DomainError.

The bold boundary is ``boundary_polyline(params, FIGURE_PER_INTERVAL)`` at the
phase of the spec, the polyline that ``verify --level quick`` certifies: its
cusps and nodes are vertices, and at beta = pi/2 + l pi it is the half-speed
curve, which skips the arcs of constancy.  ``samples_per_curve`` seeds the
adaptive sampling of the grid curves and of the hypocycloid overlay only.

The grid is flattened from data: a radius for each circle and a unit direction for
each ray, so that each flattening round forms all its points in one expression and
takes f at them from one series pass.  ``SvgCanvas`` writes the text of all the paths
in vectorised passes.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .boundary import (
    FIGURE_PER_INTERVAL,
    TWO_PI,
    RotatedCopy,
    boundary_points,
    boundary_polyline,
    bounding_radius,
    extract_features,
    rotated_copies,
)
from .errors import DomainError, as_number, require_integer
from .maps import RosetteParams, combine_parts, hypocycloid, parts_many, require_params
from .svgout import SvgCanvas, axis_segment, flatten_curve, flatten_curves


class Overlay(Enum):
    FEATURES = "features"
    CUSP_AXES = "axes"
    FUNDAMENTAL_SET = "fundamental"
    HYPOCYCLOID = "hypocycloid"


@dataclass(frozen=True)
class RenderSpec:
    params: RosetteParams
    radial_lines: int = 24
    circles: int = 16
    samples_per_curve: int = 256
    width_px: int = 900
    margin_frac: float = 0.08
    overlay: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        require_params(self.params)
        require_integer(self.radial_lines, 1, "radial_lines")
        require_integer(self.circles, 1, "circles")
        require_integer(self.width_px, 1, "width_px")
        require_integer(self.samples_per_curve, 16, "samples_per_curve")
        if not as_number(self.margin_frac, float, "margin_frac") >= 0.0:
            raise DomainError(f"margin_frac must be >= 0, got {self.margin_frac!r}")
        if not math.isfinite(self.half_width):
            raise DomainError(f"margin_frac {self.margin_frac!r} overflows the viewport "
                              f"half-width bounding_radius({self.params.n}) * (1 + margin_frac)")
        if not (isinstance(self.overlay, Iterable)
                and all(isinstance(item, Overlay) for item in self.overlay)):
            raise DomainError(f"overlay must be a set of Overlay members, got {self.overlay!r}")

    @property
    def half_width(self) -> float:
        """Half the side of the square viewport: bounding_radius(n) * (1 + margin_frac)."""
        return bounding_radius(self.params.n) * (1.0 + self.margin_frac)


class _Grid(NamedTuple):
    """The polar grid as data: circles |z| = rho, then rays arg z = theta, as flatten_curves
    spans.  Rays stop at |z| = 1 - 1e-4; render_svg appends their exact boundary values."""

    radii: np.ndarray       # rho = i / circles of each circle
    directions: np.ndarray  # e^{i theta} of each ray
    spans: list

    def points(self, ts: np.ndarray, path: np.ndarray) -> np.ndarray:
        """The grid point at each parameter: rho * e^{it} on a circle, t * e^{i theta} on a ray."""
        z = np.empty(ts.shape, dtype=complex)
        circle = path < self.radii.size
        z[circle] = self.radii[path[circle]] * np.exp(1j * ts[circle])
        ray = ~circle
        z[ray] = ts[ray] * self.directions[path[ray] - self.radii.size]
        return z


def _grid(spec: RenderSpec) -> _Grid:
    radii = np.arange(1, spec.circles) / spec.circles
    directions = np.array([cmath.exp(1j * theta) for theta in _ray_angles(spec)])
    spans = [(0.0, TWO_PI, spec.samples_per_curve)] * radii.size + [
        (0.0, 1.0 - 1e-4, max(spec.samples_per_curve // 4, 16))] * directions.size
    return _Grid(radii, directions, spans)


def _ray_angles(spec: RenderSpec) -> list[float]:
    return [TWO_PI * j / spec.radial_lines for j in range(spec.radial_lines)]


def render_svg(spec: RenderSpec, *, copies: list | None = None) -> str:
    """Build the SVG document for one rosette figure.

    The FUNDAMENTAL_SET overlay draws ``copies`` (n RotatedCopy) or ``rotated_copies(params)``.
    """
    if not isinstance(spec, RenderSpec):
        raise DomainError(f"spec must be a RenderSpec, got {spec!r}")
    params = spec.params
    n = params.n
    half = spec.half_width
    canvas = SvgCanvas(width_px=spec.width_px, world_half=half)
    tol_world = 0.1 * (2.0 * half / spec.width_px)

    # images of the polar grid: circles, then radial lines ending on the exact boundary
    grid = _grid(spec)
    curves = flatten_curves(
        lambda ts, path: combine_parts(params.beta, *parts_many(params, grid.points(ts, path))),
        grid.spans, tol_world,
    )
    ends = boundary_points(params, np.array(_ray_angles(spec)))
    rays = [np.append(c, e) for c, e in zip(curves[spec.circles - 1 :], ends)]
    for curve in curves[: spec.circles - 1] + rays:
        canvas.polyline(curve, stroke="#9db7d2", width=0.8)

    if Overlay.HYPOCYCLOID in spec.overlay:
        curve = flatten_curve(lambda ts: hypocycloid(n, np.exp(1j * ts)), 0.0, TWO_PI,
                              spec.samples_per_curve, tol_world)
        canvas.polyline(curve, stroke="#c08030", width=1.0)

    if Overlay.FUNDAMENTAL_SET in spec.overlay:
        copies = rotated_copies(params) if copies is None else copies
        if not (isinstance(copies, Sequence) and len(copies) == n
                and all(isinstance(c, RotatedCopy) for c in copies)):
            got = f"{len(copies)} items" if isinstance(copies, Sequence) else repr(copies)
            raise DomainError(f"copies must be {n} RotatedCopy, got {got}")
        for copy in copies[:-1]:
            canvas.polyline(copy.polyline, stroke="#bbbbbb", width=0.6)
        canvas.polyline(copies[-1].polyline, stroke="#207020", width=1.6)

    # boundary curve, bold, passing exactly through the features
    canvas.polyline(boundary_polyline(params, FIGURE_PER_INTERVAL), stroke="#123a66", width=1.6)

    if Overlay.CUSP_AXES in spec.overlay or Overlay.FEATURES in spec.overlay:
        feats = extract_features(params, confirm=False).features
    if Overlay.CUSP_AXES in spec.overlay:
        for ft in feats:
            if ft.axis_arg is not None and ft.kind.value == "cusp":
                a, b = axis_segment(ft.location, ft.axis_arg, 0.22 * half)
                canvas.line(a, b, stroke="#aa3333", width=0.7)
    if Overlay.FEATURES in spec.overlay:
        for ft in feats:
            color = "#aa3333" if ft.kind.value == "cusp" else "#333333"
            canvas.dot(ft.location, radius_px=3.0, fill=color)

    return canvas.document()

"""Figure rendering: images of a polar grid under a rosette map, with overlays.

The viewport is the square of side 2 * bounding_radius(n) * (1 + margin_frac)
centered at the origin, identical for every beta at fixed n, so figures for
different beta are directly size-comparable.

The bold boundary is ``boundary_polyline(params, FIGURE_PER_INTERVAL)`` at the
phase of the spec, the polyline that ``verify --level quick`` certifies: its
cusps and nodes are vertices, and at beta = pi/2 + l pi it is the half-speed
curve, which skips the arcs of constancy.  ``samples_per_curve`` seeds the
adaptive sampling of the grid curves and of the hypocycloid overlay only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .boundary import (
    FIGURE_PER_INTERVAL,
    boundary_points,
    boundary_polyline,
    bounding_radius,
    extract_features,
    rotated_copies,
)
from .errors import DomainError
from .maps import RosetteParams, combine_parts, hypocycloid, parts_many
from .series import require_integer
from .svgout import SvgCanvas, axis_segment, flatten_curve, flatten_curves

TWO_PI = 2.0 * math.pi


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
        require_integer(self.radial_lines, 1, "radial_lines")
        require_integer(self.circles, 1, "circles")
        require_integer(self.width_px, 1, "width_px")
        require_integer(self.samples_per_curve, 16, "samples_per_curve")
        if not 0.0 <= self.margin_frac < math.inf:
            raise DomainError("margin_frac must be a finite number >= 0")


def _grid_paths(spec: RenderSpec) -> list:
    """flatten_curves paths of the polar grid: circles |z| = rho, then rays arg z = theta.

    Rays stop at |z| = 1 - 1e-4; render_svg appends their exact boundary values.
    """
    circles = [
        (lambda ts, r=i / spec.circles: r * np.exp(1j * ts), 0.0, TWO_PI, spec.samples_per_curve)
        for i in range(1, spec.circles)
    ]
    rays = [
        (lambda rs, ray=cmath.exp(1j * theta): rs * ray, 0.0, 1.0 - 1e-4,
         max(spec.samples_per_curve // 4, 16))
        for theta in _ray_angles(spec)
    ]
    return circles + rays


def _ray_angles(spec: RenderSpec) -> list[float]:
    return [TWO_PI * j / spec.radial_lines for j in range(spec.radial_lines)]


def render_svg(spec: RenderSpec, *, copies: list | None = None) -> str:
    """Build the SVG document for one rosette figure.

    The FUNDAMENTAL_SET overlay draws ``copies``, else ``rotated_copies(spec.params)``.
    """
    params = spec.params
    n = params.n
    half = bounding_radius(n) * (1.0 + spec.margin_frac)
    canvas = SvgCanvas(width_px=spec.width_px, world_half=half)
    tol_world = 0.1 * (2.0 * half / spec.width_px)

    # images of the polar grid: circles, then radial lines ending on the exact boundary
    curves = flatten_curves(
        lambda z: combine_parts(params.beta, *parts_many(params, z)), _grid_paths(spec), tol_world
    )
    ends = boundary_points(params, np.array(_ray_angles(spec)))
    rays = [np.append(c, e) for c, e in zip(curves[spec.circles - 1 :], ends)]
    for curve in curves[: spec.circles - 1] + rays:
        canvas.polyline(curve, stroke="#9db7d2", width=0.8)

    if Overlay.HYPOCYCLOID in spec.overlay:
        curve = flatten_curve(
            lambda ts: hypocycloid(n, np.exp(1j * ts)),
            0.0,
            TWO_PI,
            spec.samples_per_curve,
            tol_world,
        )
        canvas.polyline(curve, stroke="#c08030", width=1.0)

    if Overlay.FUNDAMENTAL_SET in spec.overlay:
        copies = rotated_copies(params) if copies is None else copies
        for copy in copies[:-1]:
            canvas.polyline(copy.polyline, stroke="#bbbbbb", width=0.6)
        canvas.polyline(copies[-1].polyline, stroke="#207020", width=1.6)

    # boundary curve, bold, passing exactly through the features
    canvas.polyline(boundary_polyline(params, FIGURE_PER_INTERVAL), stroke="#123a66", width=1.6)

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

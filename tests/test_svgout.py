"""The batched adaptive flattener and the SVG path writer."""

import math
import re
import warnings

import numpy as np
import pytest

from rosette import DomainError, render
from rosette.boundary import bounding_radius, rotated_copies
from rosette.maps import RosetteParams, f_many, hypocycloid
from rosette.render import Overlay, RenderSpec, _grid_paths, render_svg
from rosette.svgout import SvgCanvas, flatten_curve, flatten_curves

PI = math.pi


def flatten_one(curve_fn, t0, t1, initial, tol_world, max_rounds=12):
    """Reference: the per-curve loop that tests the midpoint of every chord in every round."""
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


def render_tolerance(spec):
    """The world tolerance of render_svg: a tenth of a pixel."""
    half = bounding_radius(spec.params.n) * (1.0 + spec.margin_frac)
    return 0.1 * (2.0 * half / spec.width_px)


@pytest.mark.parametrize("margin", [-1.0, -2.0, math.nan, math.inf])
def test_render_spec_rejects_a_margin_that_is_not_finite_and_non_negative(margin):
    with pytest.raises(ValueError, match="margin_frac"):
        RenderSpec(RosetteParams(5, 0.0), margin_frac=margin)


@pytest.mark.parametrize("width", [0, -1])
def test_render_spec_rejects_a_width_below_one_pixel(width):
    # render_svg divided by the width and raised ZeroDivisionError at 0
    with pytest.raises(ValueError, match="width_px"):
        RenderSpec(RosetteParams(5, 0.3), width_px=width)


class Counting:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


@pytest.mark.parametrize("n", [5, 6, 12])
@pytest.mark.parametrize("beta", [0.0, PI / 2, -0.7])
def test_grid_curves_match_the_per_curve_loop(n, beta):
    params = RosetteParams(n, beta)
    spec = RenderSpec(params)
    tol = render_tolerance(spec)
    paths = _grid_paths(spec)
    value_fn = Counting(lambda z: f_many(params, z))
    got = flatten_curves(value_fn, paths, tol)
    assert len(got) == len(paths) == spec.circles - 1 + spec.radial_lines
    assert value_fn.calls <= 1 + 12
    for (point_fn, t0, t1, initial), curve in zip(paths, got):
        want = flatten_one(lambda t: f_many(params, point_fn(t)), t0, t1, initial, tol)
        assert curve.size == want.size
        # a direct-sum value depends on its batch by a few 1e-15
        assert np.abs(curve - want).max() <= 1e-13


@pytest.mark.parametrize("n", [3, 5, 12])
def test_hypocycloid_overlay_is_bit_equal(n):
    def curve(ts):
        return hypocycloid(n, np.exp(1j * ts))

    tol = render_tolerance(RenderSpec(RosetteParams(n, 0.0)))
    got = flatten_curve(curve, 0.0, 2 * PI, 256, tol)
    assert np.array_equal(got, flatten_one(curve, 0.0, 2 * PI, 256, tol))


def kink(t):
    return np.sqrt(np.abs(t)) + 0j  # chords at t = 0 never get flat enough


def line(t):
    return (1.0 + 2.0j) * t + 0.5


def test_straight_segment_needs_no_split():
    value_fn = Counting(lambda z: z)
    (got,) = flatten_curves(value_fn, [(line, 0.0, 1.0, 17)], 1e-9)
    assert value_fn.calls == 2  # the vertices, then the midpoints of one round
    assert np.array_equal(got, line(np.linspace(0.0, 1.0, 17)))


@pytest.mark.parametrize("max_rounds", [1, 3, 12])
def test_curve_that_hits_max_rounds(max_rounds):
    value_fn = Counting(lambda z: z)
    (got,) = flatten_curves(value_fn, [(kink, -1.0, 1.0, 3)], 1e-6, max_rounds)
    want = flatten_one(kink, -1.0, 1.0, 3, 1e-6, max_rounds)
    assert value_fn.calls == 1 + max_rounds
    assert got.size == want.size > 3
    assert np.array_equal(got, want)


def test_paths_that_stop_in_different_rounds_keep_their_own_vertices():
    paths = [(line, 0.0, 1.0, 5), (kink, -1.0, 1.0, 3), (line, -2.0, 3.0, 2), (kink, 0.0, 1.0, 8)]
    value_fn = Counting(lambda z: z)
    got = flatten_curves(value_fn, paths, 1e-4, 6)
    assert value_fn.calls == 1 + 6
    for (point_fn, t0, t1, initial), curve in zip(paths, got):
        assert np.array_equal(curve, flatten_one(point_fn, t0, t1, initial, 1e-4, 6))


def test_render_takes_each_flatten_round_from_one_series_pass(series_passes, monkeypatch):
    rounds, real = [], render.flatten_curves

    def counting(value_fn, paths, tol_world):
        return real(lambda z: rounds.append(np.size(z)) or value_fn(z), paths, tol_world)

    monkeypatch.setattr(render, "flatten_curves", counting)
    overlay = frozenset({Overlay.FEATURES, Overlay.CUSP_AXES})
    render_svg(RenderSpec(RosetteParams(6, 0.3), overlay=overlay))
    assert rounds[0] == 15 * 256 + 24 * 64 and len(rounds) == 9  # the initial grid, 8 splits
    # h and g of every round in one pass; then the ray ends' f_many (h, then g), the
    # boundary polyline's interval points and feature values, and the dots' feature values
    assert series_passes == [2] * 9 + [1, 1, 2, 2, 2]


def test_polyline_matches_the_per_point_format():
    canvas = SvgCanvas(width_px=900, world_half=1.37)
    rng = np.random.default_rng(3)
    pts = rng.normal(scale=1.5, size=500) + 1j * rng.normal(scale=1.5, size=500)
    # pixel coordinates near rounding ties, at zero and just below zero ("-0.000")
    px = np.array([0.0005, 1.2345, -0.0004, 0.0, 450.0625]) / (900 / 2.74)
    pts = np.concatenate([pts, (px - 1.37) + 1j * (1.37 - px)])
    canvas.polyline(pts, stroke="#123456", width=0.8)
    coords = [canvas.to_px(complex(p)) for p in pts]
    d = "M" + "L".join(f"{x:.3f} {y:.3f}" for x, y in coords)
    assert canvas.elements == [
        f'<path d="{d}" fill="none" stroke="#123456" stroke-width="0.800"/>'
    ]


def test_a_huge_margin_keeps_the_figure_at_the_centre():
    # 2 * world_half overflowed, and every coordinate came out as 0.000, a corner of the canvas
    svg = render_svg(RenderSpec(RosetteParams(5, 0.3), margin_frac=1e308))
    paths = re.findall(r' d="([^"]*)"', svg)
    assert paths and {v for d in paths for v in re.split("[ML ]", d) if v} == {"450.000"}


def test_a_margin_whose_viewport_overflows_is_a_domain_error():
    # bounding_radius(3) * (1 + 1e308) overflowed to inf, and every coordinate was nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="margin_frac"):
            RenderSpec(RosetteParams(3, 0.3), margin_frac=1e308)
    assert RenderSpec(RosetteParams(5, 0.3), margin_frac=1e308).half_width < math.inf


def test_polyline_skips_fewer_than_two_points():
    canvas = SvgCanvas(width_px=100, world_half=1.0)
    canvas.polyline([0.5 + 0.5j])
    canvas.polyline([])
    assert canvas.elements == []


@pytest.mark.parametrize("bad", [{"radial_lines": 0}, {"circles": 0}, {"width_px": 0},
                                 {"samples_per_curve": 15}, {"margin_frac": math.nan},
                                 {"radial_lines": 2.5}, {"circles": 1.5},
                                 {"samples_per_curve": 16.5}, {"width_px": 10.5},
                                 {"margin_frac": "0.1"}, {"overlay": frozenset({"features"})}])
def test_render_spec_refuses_with_a_domain_error(bad):
    # a fractional radial_lines raised TypeError, and the other fractional counts were taken;
    # a string margin raised TypeError, and an overlay named by its string drew nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            RenderSpec(RosetteParams(5, 0.3), **bad)


def test_render_svg_refuses_copies_that_are_not_the_n_rotated_copies():
    # copies=[] raised IndexError, and a list of the wrong length was drawn
    p = RosetteParams(5, 0.3)
    spec = RenderSpec(p, radial_lines=4, circles=2, samples_per_curve=16,
                      overlay=frozenset({Overlay.FUNDAMENTAL_SET}))
    copies = rotated_copies(p)
    for bad in ([], copies[:4], copies + copies[:1], [c.polyline for c in copies]):
        with pytest.raises(DomainError):
            render_svg(spec, copies=bad)
    assert render_svg(spec, copies=copies) == render_svg(spec)

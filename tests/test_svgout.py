"""The batched adaptive flattener and the SVG path writer."""

import cmath
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rosette import DomainError, render, svgout
from rosette.boundary import bounding_radius, rotated_copies
from rosette.cli import main
from rosette.maps import RosetteParams, f_many, hypocycloid
from rosette.render import Overlay, RenderSpec, _grid, render_svg
from rosette.svgout import SvgCanvas, flatten_curve, flatten_curves, path_data

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

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


def by_path(fns):
    """A flatten_curves curve function that runs fns[i] on the parameters of path i."""
    def curve(ts, path):
        out = np.empty(ts.shape, dtype=complex)
        for i, fn in enumerate(fns):
            mine = path == i
            out[mine] = fn(ts[mine])
        return out
    return curve


def grid_point_fns(spec):
    """The grid as one function a path: rho e^{it} for each circle, then t e^{i theta} a ray."""
    circles = [lambda ts, r=i / spec.circles: r * np.exp(1j * ts) for i in range(1, spec.circles)]
    rays = [lambda rs, ray=cmath.exp(2j * PI * j / spec.radial_lines): rs * ray
            for j in range(spec.radial_lines)]
    return circles + rays


@pytest.mark.parametrize("spec", [RenderSpec(RosetteParams(5, 0.3)),
                                  RenderSpec(RosetteParams(5, 0.3), radial_lines=7, circles=1,
                                             samples_per_curve=33)])
def test_the_grid_points_are_the_per_path_products_bit_for_bit(spec):
    grid = _grid(spec)
    fns = grid_point_fns(spec)
    assert len(grid.spans) == len(fns) == spec.circles - 1 + spec.radial_lines
    rng = np.random.default_rng(5)
    path = np.sort(rng.integers(0, len(fns), 4000))
    ts = rng.uniform(0.0, 2 * PI, path.size)
    assert np.array_equal(grid.points(ts, path), by_path(fns)(ts, path))


@pytest.mark.parametrize("n", [5, 6, 12])
@pytest.mark.parametrize("beta", [0.0, PI / 2, -0.7])
def test_grid_curves_match_the_per_curve_loop(n, beta):
    params = RosetteParams(n, beta)
    spec = RenderSpec(params)
    tol = render_tolerance(spec)
    grid = _grid(spec)
    curve_fn = Counting(lambda ts, path: f_many(params, grid.points(ts, path)))
    got = flatten_curves(curve_fn, grid.spans, tol)
    assert len(got) == len(grid.spans) == spec.circles - 1 + spec.radial_lines
    assert curve_fn.calls <= 1 + 12
    for point_fn, (t0, t1, initial), curve in zip(grid_point_fns(spec), grid.spans, got):
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
    curve_fn = Counting(lambda ts, path: line(ts))
    (got,) = flatten_curves(curve_fn, [(0.0, 1.0, 17)], 1e-9)
    assert curve_fn.calls == 2  # the vertices, then the midpoints of one round
    assert np.array_equal(got, line(np.linspace(0.0, 1.0, 17)))


@pytest.mark.parametrize("max_rounds", [1, 3, 12])
def test_curve_that_hits_max_rounds(max_rounds):
    curve_fn = Counting(lambda ts, path: kink(ts))
    (got,) = flatten_curves(curve_fn, [(-1.0, 1.0, 3)], 1e-6, max_rounds)
    want = flatten_one(kink, -1.0, 1.0, 3, 1e-6, max_rounds)
    assert curve_fn.calls == 1 + max_rounds
    assert got.size == want.size > 3
    assert np.array_equal(got, want)


def test_paths_that_stop_in_different_rounds_keep_their_own_vertices():
    fns = [line, kink, line, kink]
    spans = [(0.0, 1.0, 5), (-1.0, 1.0, 3), (-2.0, 3.0, 2), (0.0, 1.0, 8)]
    curve_fn = Counting(by_path(fns))
    got = flatten_curves(curve_fn, spans, 1e-4, 6)
    assert curve_fn.calls == 1 + 6
    for fn, (t0, t1, initial), curve in zip(fns, spans, got):
        assert np.array_equal(curve, flatten_one(fn, t0, t1, initial, 1e-4, 6))


def test_render_takes_each_flatten_round_from_one_series_pass(series_passes, monkeypatch):
    rounds, real = [], render.flatten_curves

    def counting(curve_fn, spans, tol_world):
        return real(lambda ts, path: rounds.append(ts.size) or curve_fn(ts, path), spans,
                    tol_world)

    monkeypatch.setattr(render, "flatten_curves", counting)
    overlay = frozenset({Overlay.FEATURES, Overlay.CUSP_AXES})
    render_svg(RenderSpec(RosetteParams(6, 0.3), overlay=overlay))
    assert rounds[0] == 15 * 256 + 24 * 64 and len(rounds) == 9  # the initial grid, 8 splits
    # h and g of every round in one pass; then the ray ends' f_many (h, then g) and the
    # boundary polyline's interval points; the feature values at w = 1 take no pass
    assert series_passes == [2] * 9 + [1, 1, 2]


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


def percent_text(xy):
    """The reference: one '%.3f' a coordinate, as one % call over the path prints it."""
    return "M" + "L".join(f"{x:.3f} {y:.3f}" for x, y in zip(xy[0::2], xy[1::2]))


def near_power(p, toward, sign):
    """+-10^p itself (toward None) or its float neighbour toward 0 or infinity."""
    power = 10.0**p
    return sign * (power if toward is None else float(np.nextafter(power, toward)))


_COORDINATES = st.one_of(
    st.integers(-10**8, 10**8).map(lambda m: (2 * m + 1) / 2000),  # exact decimal ties
    st.sampled_from([0.0, -0.0, -5e-324, -1e-300, -4.9999e-4, -5e-4, 5e-4, 9999.9995]),
    st.floats(-5e-4, -0.0),  # tiny negatives print "-0.000"
    st.builds(near_power, st.integers(-4, 9), st.sampled_from([None, 0.0, math.inf]),
              st.sampled_from([1.0, -1.0])),
    st.floats(1000.0, 2e4) | st.floats(-2e4, -1000.0),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)
# a path: x, y pairs of such coordinates
_PATHS = st.lists(st.lists(st.tuples(_COORDINATES, _COORDINATES), min_size=1, max_size=6)
                  .map(lambda pairs: np.array(pairs).ravel()), min_size=1, max_size=5)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_PATHS)
def test_the_writer_prints_each_coordinate_as_percent_format_does(paths):
    want = [percent_text(xy) for xy in paths]
    chunk, limit = svgout._CHUNK, svgout._K_LIMIT
    try:
        assert path_data(paths) == want
        svgout._CHUNK = 4  # paths that span the vectorised steps
        assert path_data(paths) == want
        svgout._K_LIMIT = 0  # every coordinate falls back to '%.3f'
        assert path_data(paths) == want
    finally:
        svgout._CHUNK, svgout._K_LIMIT = chunk, limit
    # a coordinate within the range and away from a tie is written from the digit tables
    v = np.concatenate(paths)
    exact = np.empty(v.size, dtype=bool)
    svgout._coordinate_text(v, np.zeros(v.size, dtype=np.uint8), exact)
    plain = np.array([abs(x) < 9999.0 and abs((x * 1000.0) % 1.0 - 0.5) > 1e-5 for x in v])
    assert exact[plain].all()


@pytest.mark.parametrize("argv", [
    ["render", "--n", "5", "--beta", "0.3", "--width", "4000"],
    ["render", "--n", "6", "--beta", "-0.7", "--margin", "0"],
    ["render", "--n", "2000", "--beta", "0.3",
     "--overlay", "features,axes,fundamental,hypocycloid"],
    ["decompose", "--n", "12", "--beta", "0.3"],
])
def test_documents_equal_those_of_the_percent_fallback(argv, monkeypatch, tmp_path):
    def written(name):
        out = tmp_path / name
        extra = ["--report", str(tmp_path / "r.json")] if argv[0] == "decompose" else []
        assert main(argv + ["--out", str(out)] + extra) == 0
        return out.read_bytes()

    fast = written("fast.svg")
    monkeypatch.setattr(svgout, "_K_LIMIT", 0)  # every coordinate falls back to '%.3f'
    assert written("fallback.svg") == fast
    if "4000" in argv:
        assert re.search(rb"[ ML]\d{4}\.\d{3}", fast)  # coordinates above 999 px


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


def test_the_document_is_joined_once():
    # head + "\n".join(elements) + tail held the document three times at its end: the
    # traced peak of this render was 3.03 times the document's length, and is 2.03
    spec = RenderSpec(RosetteParams(500, 0.3), overlay=frozenset(Overlay))
    tracemalloc.start()
    try:
        document = render_svg(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(document), (peak, len(document))


def test_an_empty_canvas_keeps_its_document():
    assert SvgCanvas(width_px=10, world_half=1.0).document() == (
        '<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg"'
        ' width="10" height="10" viewBox="0 0 10 10">\n<rect width="10" height="10"'
        ' fill="#ffffff"/>\n\n</svg>\n')


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

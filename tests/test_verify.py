import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rosette import (
    DomainError,
    OpenCurve,
    QuadratureFailure,
    RenderSpec,
    RosetteParams,
    SeriesKind,
    TooCloseToCurve,
    boundary_points,
    boundary_polyline,
    count_self_intersections,
    f,
    f_many,
    fundamental_decomposition,
    integral_oracle,
    render_svg,
    scale_constant,
    symmetry_suite,
    univalence_scan,
    winding_number,
    winding_numbers,
)
from rosette import geometry, maps, quadrature, verify
from rosette.boundary import (
    FIGURE_PER_INTERVAL,
    bounding_radius,
    feature_vertices,
    halfspeed_points,
    interval_offsets,
    rotated_copies,
    wrap_angle,
)
from rosette.cli import main
from rosette.maps import dg_many, dh_many
from rosette.svgout import SvgCanvas

PI = math.pi


def unit_circle(samples=256):
    t = np.linspace(0.0, 2 * PI, samples + 1)
    return np.exp(1j * t)


# --- winding numbers -------------------------------------------------------------


def test_winding_unit_circle():
    c = unit_circle()
    assert winding_number(c, 0.0).winding == 1
    assert winding_number(c, 2.0).winding == 0
    assert winding_number(c, 0.8 + 0.8j).winding == 0
    assert winding_number(c[::-1], 0.0).winding == -1


def test_winding_refinement_invariance():
    # doubling the sampling never changes the integer
    for samples in (64, 128, 256, 512):
        c = unit_circle(samples)
        assert winding_number(c, 0.3 - 0.2j).winding == 1
        assert winding_number(c, 1.7j).winding == 0


def test_winding_coarse_curve_subdivides():
    c = unit_circle(5)  # pentagon: increments near the probe exceed pi/2
    assert winding_number(c, 0.55 + 0.1j).winding == 1


def test_winding_errors():
    open_curve = np.array([0.0, 1.0, 1.0 + 1.0j])
    with pytest.raises(OpenCurve):
        winding_number(open_curve, 0.5)
    c = unit_circle()
    with pytest.raises(TooCloseToCurve):
        winding_number(c, 1.0, exclusion_radius=1e-3)


@pytest.mark.parametrize("probe", [complex(math.nan, 0.0), complex(0.5, math.nan)],
                         ids=["nan", "half-plus-nan-j"])
def test_a_nan_probe_is_too_close_to_the_curve(probe):
    # its distance is NaN, which no exclusion radius clears: no garbage winding number
    c = unit_circle()
    with pytest.raises(TooCloseToCurve):
        winding_numbers(c, [0.0, probe], 1e-9)
    with pytest.raises(TooCloseToCurve):
        winding_number(c, probe)


@pytest.mark.parametrize("curve", [[0, 1 + 1j, math.nan, 1, 1j, 0], [0, 1, complex(1, math.inf), 0],
                                   [], [1j]], ids=["nan-vertex", "inf-vertex", "empty", "one-vertex"])
def test_polylines_without_two_finite_vertices_are_domain_errors(curve):
    # no verdict can account for such a vertex: the parent skipped a NaN one silently
    pts = np.array(curve, dtype=complex)
    with pytest.raises(DomainError):
        count_self_intersections(pts)
    with pytest.raises(DomainError):
        winding_numbers(pts, [0.2 + 0.2j], 1e-9)


def test_winding_batch_matches_scalar():
    c = unit_circle(128)
    probes = np.array([0.0, 0.5 + 0.1j, 1.5, -2.0j, 0.9])
    batch = winding_numbers(c, probes, exclusion_radius=1e-6)
    for w0, res in zip(probes, batch):
        assert res.winding == winding_number(c, complex(w0)).winding


def test_interior_image_point_is_wound_once():
    p = RosetteParams(6, PI / 4)
    poly = boundary_polyline(p, per_interval=256)
    w0 = f(p, 0.5 * cmath.exp(1j * PI / 7)).f
    res = winding_number(poly, w0)
    assert res.winding == 1
    assert res.min_distance_to_curve > 1e-6 * scale_constant(6)


def test_min_distance_to_curve():
    square = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])
    assert verify.curve_distances(square, [0.0])[0] == pytest.approx(1.0)
    assert verify.curve_distances(square, [0.5 + 0.25j])[0] == pytest.approx(0.5)


@pytest.mark.parametrize("k", [-600, -540, 540, 600])
def test_curve_distances_scale_exactly_past_underflow_and_overflow(k):
    # |ab|^2 underflows below about 2^-537 and overflows above 2^512; such input is
    # measured scaled by a power of two, so the distances scale with it bit for bit
    square = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])
    probes = np.array([0.0, 0.5 + 0.25j, 0.9j, 3 - 2j, 1 + 1j, 0.999 + 0.3j])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = geometry.curve_distances(square * 2.0**k, probes * 2.0**k)
    assert np.array_equal(got, 2.0**k * geometry.curve_distances(square, probes))


def test_a_probe_near_a_tiny_curve_is_too_close():
    # 0.1 * 2^-540 from the middle of an edge; measured from the edge's start vertex,
    # 1.005 * 2^-540 away, it cleared the exclusion radius
    square = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j]) * 2.0**-540
    with pytest.raises(TooCloseToCurve):
        winding_numbers(square, [0.9j * 2.0**-540], 0.5 * 2.0**-540)


# --- simplicity ---------------------------------------------------------------------


def test_self_intersection_counts():
    square = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])
    assert count_self_intersections(square) == 0
    bowtie = np.array([0.0, 1.0 + 1.0j, 1.0, 0.0 + 1.0j, 0.0])
    assert count_self_intersections(bowtie) == 1


def test_self_intersection_ignores_touching_and_adjacent_segments():
    # vertex touching a segment, collinear overlap and a repeated vertex are not proper crossings
    touching = np.array([0, 2, 2 + 2j, 1, 1 - 1j, -1j, 0], dtype=complex)
    assert count_self_intersections(touching) == 0
    overlap = np.array([0, 2, 2 + 1j, 1, 3, 3 - 1j, -1j, 0], dtype=complex)
    assert count_self_intersections(overlap) == 0
    repeated = np.array([0.0, 1.0, 1.0, 1.0 + 1.0j, 1.0j, 0.0])
    assert count_self_intersections(repeated) == 0


# --- brute-force references for the geometry kernels ---------------------------------


def angle_sum_winding(poly, w0):
    """Winding of a closed polyline around w0 as the sum of the signed angles it subtends."""
    rel = np.asarray(poly, dtype=complex) - w0
    u, v = rel[:-1], rel[1:]
    angles = np.arctan2(u.real * v.imag - u.imag * v.real, u.real * v.real + u.imag * v.imag)
    return round(float(angles.sum()) / (2 * PI))


def brute_force_crossings(poly):
    """Proper crossings over every pair of non-adjacent segments, in exact arithmetic."""
    pts = [(Fraction(p.real), Fraction(p.imag)) for p in np.asarray(poly, dtype=complex)]
    segs = list(zip(pts[:-1], pts[1:]))
    n = len(segs)

    def orient(a, b, c):
        d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (d > 0) - (d < 0)

    count = 0
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            (a, b), (c, d) = segs[i], segs[j]
            if orient(a, b, c) * orient(a, b, d) < 0 and orient(c, d, a) * orient(c, d, b) < 0:
                count += 1
    return count


def on_polyline(poly, w0):
    """Exact test: w0 lies on some segment of the polyline."""
    x, y = Fraction(w0.real), Fraction(w0.imag)
    for a, b in zip(poly[:-1], poly[1:]):
        ax, ay, bx, by = (Fraction(v) for v in (a.real, a.imag, b.real, b.imag))
        collinear = (bx - ax) * (y - ay) == (by - ay) * (x - ax)
        if collinear and min(ax, bx) <= x <= max(ax, bx) and min(ay, by) <= y <= max(ay, by):
            return True
    return False


def brute_force_distances(curve, probes):
    """Nearest-segment distance of each probe over every segment, by the formula of
    ``curve_distances``: t = clip(Re((p - a) conj(ab)) / |ab|^2, 0, 1), |p - (a + t ab)|,
    evaluated, as there, on input scaled by a power of two when its largest coordinate
    lies outside ``_PLAIN_SCALES``."""
    curve = np.ascontiguousarray(curve, dtype=complex)
    probes = np.ascontiguousarray(probes, dtype=complex).ravel()
    top = max(np.abs(x.view(float)).max(initial=0.0) for x in (curve, probes))
    if 0.0 < top < geometry._PLAIN_SCALES[0] or geometry._PLAIN_SCALES[1] < top < math.inf:
        k = math.frexp(top)[1]
        curve, probes = (np.ldexp(x.view(float), -k).view(complex) for x in (curve, probes))
        return np.ldexp(brute_force_distances(curve, probes), k)
    a = curve[:-1]
    ab = curve[1:] - a
    denom = np.abs(ab) ** 2
    denom[denom == 0.0] = np.inf
    conj_ab = np.conj(ab)
    out = np.empty(len(probes))
    for i, w0 in enumerate(np.asarray(probes, dtype=complex)):
        t = np.clip(((w0 - a) * conj_ab).real / denom, 0.0, 1.0)
        out[i] = np.abs(w0 - (a + t * ab)).min()
    return out


lattice_polygons = st.lists(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=3, max_size=12
).map(lambda vs: np.array([complex(x, y) for x, y in vs + vs[:1]]))
# half-integer probes: many sit at the height of a vertex or of a horizontal edge
lattice_probes = st.lists(
    st.tuples(st.integers(-14, 14), st.integers(-14, 14)), min_size=1, max_size=30
).map(lambda ps: np.array([complex(x, y) / 2 for x, y in ps]))


@st.composite
def star_polygons(draw):
    """Simple counter-clockwise polygons: vertices at sorted angles around the origin.

    Every angular gap stays below pi, so the origin is inside and the polygon
    is star-shaped about it (with a wider gap it would run clockwise).
    """
    m = draw(st.integers(3, 40))
    angles = sorted(draw(st.lists(st.floats(0.0, 2 * PI, exclude_max=True), min_size=m,
                                  max_size=m, unique=True)))
    assume(max(np.diff(angles, append=angles[0] + 2 * PI)) < PI)
    radii = draw(st.lists(st.floats(0.2, 3.0), min_size=m, max_size=m))
    poly = np.array([r * cmath.exp(1j * t) for r, t in zip(radii, angles)])
    return np.append(poly, poly[0])


def check_windings_match_reference(poly, probes):
    probes = np.array([w for w in probes if not on_polyline(poly, w)])
    if probes.size == 0:
        return
    for curve, sign in ((poly, 1), (poly[::-1], -1)):
        got = [r.winding for r in winding_numbers(curve, probes, exclusion_radius=0.0)]
        assert got == [sign * angle_sum_winding(poly, w) for w in probes]


@settings(max_examples=150, deadline=None)
@given(lattice_polygons, lattice_probes)
def test_crossing_kernel_matches_angle_sum_on_lattice_polygons(poly, probes):
    check_windings_match_reference(poly, probes)


@settings(max_examples=100, deadline=None)
@given(star_polygons(), st.lists(st.complex_numbers(max_magnitude=3.5), min_size=1, max_size=30))
def test_crossing_kernel_matches_angle_sum_on_simple_polygons(poly, probes):
    probes = np.array(probes, dtype=complex)
    far = verify.curve_distances(poly, probes) > 1e-9
    check_windings_match_reference(poly, probes[far])
    inside = [r.winding for r in winding_numbers(poly, probes[far], exclusion_radius=0.0)]
    assert set(inside) <= {0, 1}


@settings(max_examples=150, deadline=None)
@given(lattice_polygons)
def test_self_intersections_match_brute_force(poly):
    assert count_self_intersections(poly) == brute_force_crossings(poly)
    assert count_self_intersections(poly[::-1]) == brute_force_crossings(poly)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_BLOCK", 4)  # pairs built four at a time
        assert count_self_intersections(poly) == brute_force_crossings(poly)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=10.0), min_size=3, max_size=40))
def test_self_intersections_match_brute_force_on_random_polygons(vertices):
    poly = np.array(vertices + vertices[:1], dtype=complex)
    assert count_self_intersections(poly) == brute_force_crossings(poly)


def test_crossing_signs_are_exact_past_underflow_and_overflow_and_within_one_ulp():
    # a bow-tie whose float cross products underflow to zero or below the least normal
    tiny = np.array([0, 1 + 1j, 1, 1j, 0]) * 1e-160
    # a lattice polygon scaled so far that the cross products overflow to inf - inf
    huge = np.array([1 + 3j, 2j, -3 + 2j, -3, 1 + 3j]) * 2.0**600
    # p lies less than an ulp left of the line a-b, where the float cross product
    # (b - a) x (p - a) rounds to 0, and q lies right of it: p-q crosses a-b
    a, b = complex(0.1, 0.3), complex(17.3, 11.9)
    p = complex(8.821999166906648, 6.182278507913787)
    q = complex(10.499424171739994, 3.6950621214367576)
    near = np.array([a, b, b + 20j, p, q, a - 20j, a])
    for poly in (tiny, huge, near):
        assert brute_force_crossings(poly) == 1
        assert count_self_intersections(poly) == 1
        assert count_self_intersections(poly[::-1]) == 1


def test_winding_half_open_rule_degenerate_cases():
    # probes at the exact height of vertices, of horizontal edges, with repeated vertices
    diamond = np.array([-1j, 1.0, 1j, -1.0, -1j])
    staircase = np.array([0, 4, 4 + 2j, 2 + 2j, 2 + 2j, 2 + 4j, 4j, 4j, 0])
    cases = [
        (diamond, [0.2, 0.9, -0.9, 2.0, -2.0, 1j - 0.5, 0.5j]),
        (staircase, [1 + 2j, 3 + 2j, 5 + 2j, -1 + 2j, 1 + 4j, 3 + 4j, 1, 3, 5, 0.5j]),
    ]
    for poly, probes in cases:
        check_windings_match_reference(poly, np.array(probes, dtype=complex))
    probes = [1 + 2j, 5 + 2j, 3 + 3j, 1 + 3j, 3 + 4j]
    got = winding_numbers(staircase, probes, exclusion_radius=0.0)
    assert [r.winding for r in got] == [1, 0, 0, 1, 0]


def test_winding_exact_sign_within_one_ulp_of_an_edge():
    # p is one ulp right of the point of the line a-b at its height, so exactly
    # left of a -> b, but the float determinant says right
    a, b = complex(0.1, 0.3), complex(17.3, 11.9)
    px, py = 0.998796992481203, 0.9061654135338346
    float_det = (a.real - px) * (b.imag - py) - (a.imag - py) * (b.real - px)
    exact = (Fraction(a.real) - Fraction(px)) * (Fraction(b.imag) - Fraction(py)) - (
        Fraction(a.imag) - Fraction(py)
    ) * (Fraction(b.real) - Fraction(px))
    assert exact > 0 > float_det
    p = complex(px, py)
    right_of_ab = np.array([a, b, complex(17.3, 0.3), a])  # clockwise, interior on the right
    left_of_ab = np.array([a, b, complex(0.1, 11.9), a])  # counter-clockwise
    assert winding_number(right_of_ab, p, exclusion_radius=0.0).winding == 0
    assert winding_number(left_of_ab, p, exclusion_radius=0.0).winding == 1
    assert winding_number(left_of_ab[::-1], p, exclusion_radius=0.0).winding == -1


def test_curve_distances_match_the_scalar_query():
    c = unit_circle(64)
    probes = np.array([0.0, 0.5 + 0.1j, 1.5, -2.0j, 0.9])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_CHUNK", 2)
        batch = geometry.curve_distances(c, probes)
    assert batch.tolist() == [geometry.curve_distances(c, [w])[0] for w in probes]
    res = winding_numbers(c, probes, exclusion_radius=1e-6)
    assert [r.min_distance_to_curve for r in res] == batch.tolist()
    with pytest.raises(TooCloseToCurve, match=r"probe \(1\.5"):
        winding_numbers(c, [0.0, 1.5, 1.0], exclusion_radius=0.6)


@pytest.mark.parametrize("n", [3, 12, 96, 500])
@pytest.mark.parametrize("beta", [0.3, PI / 2])
def test_pruned_distances_are_the_brute_force_ones_on_rosette_polylines(n, beta):
    # the polyline of univalence_scan, probed at grid images, on the exterior ring, on
    # vertices and segment midpoints, and at the origin, nearly equidistant from all n arcs
    p = RosetteParams(n, beta)
    poly = boundary_polyline(p, max(320, -(-4096 // (2 * n))))
    radius = bounding_radius(n) + 0.25 * scale_constant(n)
    ring = radius * np.exp(2j * PI * (np.arange(16) + 0.37) / 16)
    at = np.linspace(0, poly.size - 2, 9).astype(int)
    probes = np.concatenate([f_many(p, verify._interior_grid(6)), ring, poly[at],
                             0.5 * (poly[at] + poly[at + 1]), [0.0]])
    got = verify.curve_distances(poly, probes)
    assert np.array_equal(got, brute_force_distances(poly, probes))
    assert np.all(got[36 + 16 : 36 + 16 + at.size] == 0.0)


def test_pruned_distances_on_short_padded_and_degenerate_curves(monkeypatch):
    rng = np.random.default_rng(3)
    walk = np.cumsum(rng.normal(size=3 * 64 + 17) + 1j * rng.normal(size=3 * 64 + 17))
    stalled = np.repeat(walk[:80], 3)  # zero-length segments, also at chunk ends
    flat = np.concatenate([walk[:10], np.full(70, walk[10]), walk[10:20]])  # a chunk of one point
    near = walk[::7] + 0.3 * rng.normal(size=walk[::7].size)
    probes = np.concatenate([near, walk[:5], [0.0, 1e3]])
    for curve in (walk[:6], walk, stalled, flat):  # fewer segments than a chunk; a partial chunk
        for chunk in (1, 3, 64, 1000):
            monkeypatch.setattr(geometry, "_CHUNK", chunk)
            want = brute_force_distances(curve, probes)
            assert np.array_equal(geometry.curve_distances(curve, probes), want)
            assert geometry.curve_distances(curve, probes[3:4]).tolist() == [want[3]]
            assert geometry.curve_distances(curve, []).shape == (0,)


def test_pruned_distances_keep_a_chunk_whose_float_bound_rounds_above_its_distance(monkeypatch):
    # two radial segments whose near ends lie one unit from the probe, one chunk each:
    # the first holds the minimum, but its float |p - c| - r rounds above that minimum
    # and above the second's distance, so without the slack it would be pruned
    p = 1000.0 + 1000.0j
    curve = np.array([1000.9990766377427 + 1000.0429636115424j,
                      1002.997229913228 + 1000.1288908346271j,
                      1002.95351838846 + 1000.526050500455j,
                      1000.9845061294867 + 1000.1753501668184j])
    monkeypatch.setattr(geometry, "_CHUNK", 1)
    got = geometry.curve_distances(curve, [p])
    assert np.array_equal(got, brute_force_distances(curve, [p]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=10.0), min_size=2, max_size=200),
       st.lists(st.complex_numbers(max_magnitude=1e3), min_size=1, max_size=20),
       st.sampled_from([1, 2, 5, 64]))
def test_pruned_distances_match_brute_force_on_random_polylines(vertices, probes, chunk):
    curve = np.array(vertices, dtype=complex)
    probes = np.concatenate([np.array(probes, dtype=complex), curve[:2]])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_CHUNK", chunk)
        assert np.array_equal(geometry.curve_distances(curve, probes),
                              brute_force_distances(curve, probes))


# --- failure witnesses -----------------------------------------------------------------


def test_univalence_failure_witnesses(monkeypatch):
    # a figure eight in place of the boundary: one crossing, interior probes wound 0 or -1
    t = 2 * PI * (np.arange(801) + 0.3) / 800  # the crossing at 0 falls between vertices
    eight = np.sin(t) + 0.5j * np.sin(2 * t)
    eight[-1] = eight[0]
    monkeypatch.setattr(verify, "boundary_polyline", lambda params, per_interval: eight)
    report = univalence_scan(RosetteParams(5, 0.0), grid_resolution=8, per_interval=64)
    by_name = {c.name: c for c in report.checks}
    simple = by_name["boundary_simple"]
    assert not simple.passed and simple.max_residual == 1.0
    crossing = simple.details["first_crossing"]
    point = complex(*crossing["point"])
    i, j = crossing["segments"]
    assert i < j and abs(point) < 1e-6
    assert verify.curve_distances(eight[i : i + 2], [point])[0] < 1e-15
    assert verify.curve_distances(eight[j : j + 2], [point])[0] < 1e-15
    interior = by_name["interior_winding_one"]
    assert not interior.passed
    worst = interior.details["worst_probe"]
    assert abs(worst["winding"] - 1) == interior.max_residual
    assert angle_sum_winding(eight, complex(*worst["point"])) == worst["winding"]
    assert by_name["exterior_winding_zero"].details is None


def test_tiling_failure_witness(monkeypatch):
    real = verify.rotated_copies

    def doubled(params):
        copies = real(params)
        return copies + copies[:1]

    monkeypatch.setattr(verify, "rotated_copies", doubled)
    _, cov = fundamental_decomposition(RosetteParams(5, PI / 5), probe_grid=20)
    assert not cov.passed and cov.violations > 0
    witness = cov.first_violation
    assert witness["copies_containing"] == 2
    z = complex(*witness["z"])
    image = f_many(RosetteParams(5, PI / 5), z)
    assert complex(*witness["point"]) == pytest.approx(image, abs=1e-12)
    check = verify.fundamental_tiling(RosetteParams(5, PI / 5), probe_grid=20)
    assert (check.name, check.passed, check.samples_used) == ("fundamental_tiling", False, 400)
    assert check.max_residual == cov.violations
    assert check.details == {"exempt": cov.exempt, "first_violation": witness}


def test_passing_checks_carry_no_witness():
    _, cov = fundamental_decomposition(RosetteParams(5, PI / 5), probe_grid=20)
    assert cov.passed and cov.first_violation is None
    check = verify.fundamental_tiling(RosetteParams(5, PI / 5), probe_grid=20)
    assert check.passed and check.max_residual == 0.0 and check.details == {"exempt": cov.exempt}
    report = univalence_scan(RosetteParams(5, 0.0), grid_resolution=8, per_interval=64)
    assert all("first_crossing" not in (c.details or {}) and "worst_probe" not in (c.details or {})
               for c in report.checks)


# --- boundary polylines ---------------------------------------------------------------


@pytest.mark.parametrize("n,beta", [(5, 0.3), (12, -1.2), (5, PI / 2), (12, PI / 2)])
def test_boundary_polylines_follow_the_sorted_parameter_grid(n, beta):
    # vertex by vertex, the curve on the grid (j + s) pi/n with the feature parameters
    # merged in: half-speed at pi/2
    p = RosetteParams(n, beta)
    ft_ts, ft_vals = feature_vertices(p)

    def merged(part, offsets):
        grid = ((np.arange(2 * n)[:, None] + offsets) * (PI / n)).ravel()
        order = np.argsort(np.concatenate([grid, ft_ts]))
        return np.concatenate([part(p, grid), ft_vals])[order]

    want = merged(halfspeed_points if beta == PI / 2 else boundary_points,
                  interval_offsets(64))
    poly = boundary_polyline(p, per_interval=64)
    assert poly.size == want.size + 1 and poly[-1] == poly[0]
    assert np.abs(poly[:-1] - want).max() < 1e-12


@pytest.mark.parametrize("shifts", [-1, 1, 2])
def test_half_pi_class_polylines_are_the_half_pi_polyline_carried_by_the_law(shifts):
    # the half-speed grid at every l, not only at l = 0: at n = 5 the plain grid of
    # 3pi/2, -pi/2 and 5pi/2 collapsed to 3586 vertices against 7166 at pi/2
    p0, p = RosetteParams(5, PI / 2), RosetteParams(5, PI / 2 + shifts * PI)
    poly0, poly = boundary_polyline(p0), boundary_polyline(p)
    assert poly.size == poly0.size == 7166
    assert np.array_equal(poly, maps.half_turn_rotation(5, shifts) * poly0)
    verdicts = [[(c.name, c.passed, c.samples_used) for c in univalence_scan(q, 12).checks]
                for q in (p0, p)]
    assert verdicts[0] == verdicts[1] and all(passed for _, passed, _ in verdicts[1])


@pytest.mark.parametrize("n", [5, 96])
@pytest.mark.parametrize("beta", [0.3, PI / 2])
def test_boundary_polylines_evaluate_the_series_on_one_interval(series_points, n, beta):
    # one pass over the k offsets of one basic interval (2k on the half-speed curve) and
    # one over the feature argument w = 1: k + 1 series points, not 2n * k + 1
    p = RosetteParams(n, beta)
    boundary_polyline(p)
    k = interval_offsets(512).size * (2 if beta == PI / 2 else 1)
    assert series_points == [k, 1]


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("beta", [0.3, PI / 2, 3 * PI / 2, 2.5])
def test_the_figure_draws_the_polyline_that_quick_verify_certifies(n, beta, monkeypatch, tmp_path):
    # at the phase given, 3pi/2 too: a quick verify hands univalence_scan the figure's params
    # and density, and the figure's bold path is SvgCanvas's printing of that polyline
    seen = []
    real = verify.boundary_polyline
    monkeypatch.setattr(verify, "boundary_polyline",
                        lambda params, per_interval: seen.append((params, per_interval))
                        or real(params, per_interval))
    argv = ["verify", "--n", str(n), "--beta", repr(beta), "--level", "quick"]
    assert main(argv + ["--out", str(tmp_path / "v.json")]) == 0
    p = RosetteParams(n, beta)
    assert seen == [(p, FIGURE_PER_INTERVAL)]
    spec = RenderSpec(p, radial_lines=4, circles=2, samples_per_curve=16)
    canvas = SvgCanvas(spec.width_px, bounding_radius(n) * (1.0 + spec.margin_frac))
    canvas.polyline(real(p, FIGURE_PER_INTERVAL), stroke="#123a66", width=1.6)
    bold = [line for line in render_svg(spec).splitlines() if 'stroke="#123a66"' in line]
    assert bold == canvas.elements


# --- univalence -----------------------------------------------------------------------


@pytest.mark.parametrize("n,beta", [(6, 0.0), (5, PI / 2), (3, PI / 4)])
def test_univalence_scan_passes(n, beta):
    report = univalence_scan(RosetteParams(n, beta), grid_resolution=10, per_interval=128)
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["boundary_simple"].max_residual == 0.0
    assert by_name["interior_winding_one"].samples_used == 100
    assert by_name["grid_images_distinct"].details["min_separation"] > 0.0


def test_univalence_scan_passes_at_large_order():
    report = univalence_scan(RosetteParams(500, 0.3))
    assert report.passed
    assert [c.name for c in report.checks] == [
        "boundary_simple", "interior_winding_one", "exterior_winding_zero", "grid_images_distinct"]
    assert all("first_crossing" not in (c.details or {}) and "worst_probe" not in (c.details or {})
               for c in report.checks)
    by_name = {c.name: c for c in report.checks}
    gap = by_name["interior_winding_one"].details["min_curve_distance"]
    assert gap > 1e-6 * scale_constant(500)


# --- integral identities ------------------------------------------------------------------


def test_integral_oracle_at_zero():
    chk = integral_oracle(RosetteParams(4, 0.0), 0.0)
    assert chk.lhs == 0.0 and chk.rhs == 0.0 and chk.residual == 0.0


def test_integral_oracle_analytic_at_one():
    chk = integral_oracle(RosetteParams(6, 0.0), 1.0, SeriesKind.ANALYTIC)
    assert abs(chk.lhs - scale_constant(6)) < 1e-9
    assert chk.residual < 1e-9


def test_integral_oracle_coanalytic_interior():
    z = 0.7 * cmath.exp(1j * PI / 5)
    chk = integral_oracle(RosetteParams(5, 0.0), z, SeriesKind.COANALYTIC)
    assert chk.residual < 1e-10


def test_integral_oracle_near_circle():
    z = cmath.exp(0.9j)
    for kind in SeriesKind:
        chk = integral_oracle(RosetteParams(3, 0.0), z, kind)
        assert chk.residual < 1e-9


def _closed_form(n: int, z: complex, kind: SeriesKind) -> complex:
    """h(z) or g(z) from mpmath's general 2F1 with 30 digits."""
    import mpmath as mp

    with mp.workdps(30):
        z, x = mp.mpmathify(z), mp.mpf(1) / (2 * n)
        if kind is SeriesKind.ANALYTIC:
            return complex(z * mp.hyp2f1(0.5, x, 1 + x, z ** (2 * n)))
        return complex(z ** (n - 1) / (n - 1) * mp.hyp2f1(0.5, 0.5 - x, 1.5 - x, z ** (2 * n)))


@pytest.mark.parametrize("n", [3, 12, 96, 500])
def test_integral_oracle_next_to_singular_points(n):
    # Adaptive Gauss-Kronrod from 0 missed the series by 2.6e-8 (n = 3) at 1 - 1e-15
    # and did not converge at e^{i pi/n}(1 - 1e-12).  Against mpmath the bound is
    # looser because the float z is itself off by up to 1.1e-16 per part, which
    # |h'(z)| = |1 - z^{2n}|^{-1/2} (4e5 at n = 3, 1e-12 from the root) magnifies.
    params = RosetteParams(n, 0.0)
    for z in (1 - 1e-15, cmath.exp(1j * PI / n) * (1 - 1e-12)):
        for kind in SeriesKind:
            chk = integral_oracle(params, z, kind)
            assert chk.residual < 1e-14
            assert abs(chk.lhs - _closed_form(n, z, kind)) < 1e-10


@pytest.mark.parametrize("n", [3, 5, 12, 96, 500])
def test_integral_oracle_is_the_batched_row(n):
    # rhs is h_many's or g_many's row bit for bit, though the oracle takes it from parts_many
    params = RosetteParams(n, 0.3)
    rng = np.random.default_rng(n)
    z = 0.99 * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(2j * PI * rng.uniform(0, 1, 40))
    z = np.concatenate([z, [0.0, 1.0, 1 - 1e-15, cmath.exp(1j * PI / n) * (1 - 1e-12),
                            0.3 + 0.2j, -1.0, cmath.exp(0.7j)]])
    filler = 0.9 * np.exp(2j * PI * rng.uniform(0, 1, 300))  # moves z across a block boundary
    for kind, power, part in zip(SeriesKind, (0, n - 2), (maps.h_many, maps.g_many)):
        lhs, rhs = quadrature.tanh_sinh(n, z, power), part(params, z)
        for zk, lk, rk in zip(z, lhs, rhs):
            chk = integral_oracle(params, complex(zk), kind)
            assert (chk.lhs, chk.rhs, chk.residual) == (lk, rk, abs(lk - rk))
        long_lhs = quadrature.tanh_sinh(n, np.concatenate([filler, z]), power)
        assert np.array_equal(long_lhs[filler.size :], lhs)


@pytest.mark.parametrize("n,beta,count,seed", [(3, 0.0, 10, 0), (5, PI / 2, 50, 3), (12, -2.9, 10, 7)])
def test_integral_identities_equal_the_per_kind_oracle(series_passes, n, beta, count, seed):
    params = RosetteParams(n, beta)
    check = verify.integral_identities(params, count, seed)
    assert series_passes == [2]  # h and g at every point, in one pass
    z = np.append(verify._disk_samples(np.random.default_rng(seed), count, 0.95), 1.0)
    sides = [(quadrature.tanh_sinh(n, z, power), part(params, z))
             for power, part in ((0, maps.h_many), (n - 2, maps.g_many))]
    residual = np.array([np.abs(lhs - rhs) for lhs, rhs in sides])
    i, k = np.unravel_index(np.argmax(residual), residual.shape)
    lhs, rhs = complex(sides[i][0][k]), complex(sides[i][1][k])
    assert (check.name, check.passed, check.samples_used) == ("integral_identities", True, 2 * z.size)
    assert check.max_residual == residual.max()
    assert check.details == {"worst_point": {
        "point": [z[k].real, z[k].imag], "kind": list(SeriesKind)[i].value,
        "lhs": [lhs.real, lhs.imag], "rhs": [rhs.real, rhs.imag]}}


def test_integral_oracle_outside_the_disk_is_a_domain_error():
    params = RosetteParams(5, 0.0)
    with pytest.raises(DomainError):
        integral_oracle(params, 1.2)
    with pytest.raises(DomainError):
        integral_oracle(params, 1.2j, SeriesKind.COANALYTIC)


def test_tanh_sinh_raises_when_its_level_cap_is_too_low(monkeypatch):
    z = np.array([cmath.exp(1j * PI / 3) * (1 - 1e-12)])  # needs level 4
    monkeypatch.setattr(quadrature, "_TS_MAX_LEVEL", 4)
    quadrature.tanh_sinh(3, z, 0)
    monkeypatch.setattr(quadrature, "_TS_MAX_LEVEL", 3)
    with pytest.raises(QuadratureFailure):
        quadrature.tanh_sinh(3, z, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 0.5)])
def test_tanh_sinh_never_accepts_a_non_finite_estimate(monkeypatch, bad):
    monkeypatch.setattr(quadrature, "_TS_MAX_LEVEL", 3)
    for power in (0, 2):  # h and g at n = 4
        quadrature.tanh_sinh(4, np.array([0.5]), power)
        with np.errstate(invalid="ignore"), pytest.raises(QuadratureFailure):
            quadrature.tanh_sinh(4, np.array([0.5, bad]), power)


# --- symmetry suite ---------------------------------------------------------------------


@pytest.mark.parametrize("n,beta", [(6, 0.3), (5, PI / 2), (4, 1.9), (3, 0.0)])
def test_symmetry_suite_passes(n, beta):
    report = symmetry_suite(RosetteParams(n, beta), sample_count=300, seed=11)
    failed = [c.name for c in report.checks if not c.passed]
    assert not failed, failed


def test_symmetry_suite_deterministic():
    a = symmetry_suite(RosetteParams(5, 0.4), sample_count=100, seed=3)
    b = symmetry_suite(RosetteParams(5, 0.4), sample_count=100, seed=3)
    assert [c.max_residual for c in a.checks] == [c.max_residual for c in b.checks]


def test_identity_residuals_tight():
    report = symmetry_suite(RosetteParams(6, 0.3), sample_count=500, seed=42)
    by_name = {c.name: c for c in report.checks}
    for name in (
        "rotational_symmetry",
        "reflection_conjugation",
        "half_turn_shift",
        "half_pi_reflection",
    ):
        assert by_name[name].max_residual < 1e-10


def separate_call_residuals(params, sample_count=1000, seed=42):
    """The symmetry suite's shared-pair identities as separate f/h/g calls, the oracle."""
    n, beta = params.n, params.beta
    rng = np.random.default_rng(seed)
    z = verify._disk_samples(rng, sample_count)
    k = rng.integers(1, n, sample_count)
    rot = np.exp(2j * PI * k / n)
    out = {"rotational_symmetry": np.abs(f_many(params, rot * z) - rot * f_many(params, z)).max()}
    j = rng.integers(1, 2 * n, sample_count)
    rot_j = np.exp(1j * PI * j / n)
    res_h = np.abs(maps.h_many(params, rot_j * z) - rot_j * maps.h_many(params, z)).max()
    sign = (-1.0) ** j
    res_g = np.abs(maps.g_many(params, rot_j * z) - sign / rot_j * maps.g_many(params, z)).max()
    out["summand_rotation"] = max(res_h, res_g)
    mirrored = RosetteParams(n, -beta)
    out["reflection_conjugation"] = np.abs(
        f_many(params, np.conj(z)) - np.conj(f_many(mirrored, z))).max()
    shifted = RosetteParams(n, beta + PI)
    out["half_turn_shift"] = np.abs(
        f_many(params, z) - maps.half_turn_rotation(n, -1) * f_many(shifted, np.exp(1j * PI / n) * z)
    ).max()
    canonical, shifts = params.canonical()
    out["phase_reduction"] = np.abs(f_many(params, z) - maps.half_turn_rotation(n, shifts)
                                    * f_many(canonical, z * cmath.exp(-1j * shifts * PI / n))).max()
    zs = z[np.abs(1.0 - z ** (2 * n)) > 1e-6]
    quot = dg_many(params, zs) / dh_many(params, zs)
    out["dilatation_quotient"] = np.abs(quot / zs ** (n - 2) - 1.0)[zs != 0].max()
    half = RosetteParams(n, PI / 2)
    turn, gam = cmath.exp(1j * (PI / (2 * n) - PI / 4)), cmath.exp(-1j * PI / (2 * n))
    out["half_pi_reflection"] = np.abs(
        turn * f_many(half, gam * np.conj(z)) - np.conj(turn * f_many(half, gam * z))).max()
    sub, delta, rot_b = z[:100] * 0.9, 1e-5, cmath.exp(0.5j * beta)
    fx = (f_many(params, sub + delta) - f_many(params, sub - delta)) / (2 * delta)
    fy = (f_many(params, sub + 1j * delta) - f_many(params, sub - 1j * delta)) / (2 * delta)
    hp, gp = rot_b * dh_many(params, sub), np.conj(dg_many(params, sub)) / rot_b
    out["wirtinger_consistency"] = max(np.abs(fx - (hp + gp)).max(), np.abs(fy - 1j * (hp - gp)).max())
    r, ray = np.linspace(1e-3, 0.999, 400), cmath.exp(1j * PI / n)
    if 0.0 < canonical.beta <= PI / 2:  # the suite checks the rays only at these phases
        worst = 0.0
        for through, rises in ((1.0, False), (ray, True)):
            mono = np.diff(np.abs(f_many(canonical, r * through)))
            z_ray, rot_c = r * through, cmath.exp(0.5j * canonical.beta)  # d f(r through)/dr:
            dr = through * rot_c * dh_many(canonical, z_ray) + np.conj(
                through * dg_many(canonical, z_ray)) / rot_c
            dargs = np.diff(np.unwrap(np.angle(dr)))
            worst = max(worst, -mono.min(), -dargs.min() if rises else dargs.max())
        out["radial_monotonicity"] = worst
    flat = RosetteParams(n, 0.0)
    out["ray_straightness"] = max(np.abs(np.angle(f_many(flat, r))).max(), np.abs(
        np.angle(f_many(flat, r * ray) * cmath.exp(-1j * PI / n))).max())
    return {name: float(v) for name, v in out.items()}


@pytest.mark.parametrize("n", [3, 7, 12])
@pytest.mark.parametrize("beta", [0.0, PI / 2, -1.2, 0.3 + PI, -1.2 - 2 * PI, PI / 2 + 3 * PI])
def test_shared_symmetry_residuals_equal_the_separate_calls(n, beta):
    params = RosetteParams(n, beta)
    by_name = {c.name: c for c in symmetry_suite(params).checks}
    separate = separate_call_residuals(params)
    # every check that evaluates f, h or g; jacobian_positive uses the closed form only
    assert set(separate) == set(by_name) - {"jacobian_positive"}
    for name, residual in separate.items():
        assert by_name[name].max_residual == residual, name
    assert by_name["dilatation_quotient"].details == {"dropped": 0}


def test_symmetry_suite_makes_one_fused_series_pass(series_passes):
    # one pass over every point set at both kinds, the phase reduction's shifted set too
    for beta in (0.3, 3 * PI / 2, -2.9):
        series_passes.clear()
        symmetry_suite(RosetteParams(5, beta))
        assert series_passes == [2], beta


def test_full_verify_makes_nine_series_passes(series_passes, tmp_path):
    # symmetry 1, univalence 3, integral identities 1, decomposition 4
    argv = ["verify", "--n", "5", "--beta", "0.3", "--level", "full"]
    assert main(argv + ["--out", str(tmp_path / "v.json")]) == 0
    assert len(series_passes) == 9


@pytest.mark.parametrize("n", [3, 7, 12])
@pytest.mark.parametrize("beta", [0.3, PI / 2, 0.3 + PI, 1.2 - 2 * PI])
def test_radial_monotonicity_reads_f_along_both_rays(monkeypatch, n, beta):
    # the check's residual is 0 whenever |f| rises and the tangent turns the right way, so
    # a wrong point set could pass unseen: pin the values it forms at the canonical phase
    real, formed = verify.combine_parts, []

    def spy(phase, hz, gz):
        out = real(phase, hz, gz)
        formed.append((phase, out))
        return out

    monkeypatch.setattr(verify, "combine_parts", spy)
    params = RosetteParams(n, beta)
    assert "radial_monotonicity" in {c.name for c in symmetry_suite(params).checks}
    canonical, _ = params.canonical()
    r = np.linspace(1e-3, 0.999, 400)
    for ray in (1.0, cmath.exp(1j * PI / n)):
        want = f_many(canonical, r * ray)
        assert any(phase == canonical.beta and np.array_equal(values, want)
                   for phase, values in formed), ray


@pytest.mark.parametrize("n,dropped", [(200, 0), (500, 70)])
def test_dilatation_quotient_compares_only_where_the_power_stays_normal(n, dropped):
    # |z|^(n-2) underflows for |z| < 0.97 at these n; the parent divided 0 by 0 here
    check = next(c for c in symmetry_suite(RosetteParams(n, 0.3)).checks
                 if c.name == "dilatation_quotient")
    assert check.passed and check.max_residual <= 1e-15
    assert check.details == {"dropped": dropped}
    assert check.samples_used + dropped == 1000


def test_dilatation_quotient_still_fails_on_a_nan(monkeypatch):
    real = verify.derivative_parts

    def nan_at_3(p, z):
        dh_z, dg_z = real(p, z)
        return dh_z, np.where(np.arange(z.size) == 3, np.nan, dg_z)

    monkeypatch.setattr(verify, "derivative_parts", nan_at_3)
    check = next(c for c in symmetry_suite(RosetteParams(6, 0.3), sample_count=50).checks
                 if c.name == "dilatation_quotient")
    assert math.isnan(check.max_residual) and not check.passed


# --- fundamental sets -------------------------------------------------------------------


def test_fundamental_set_polyline_closed():
    poly = rotated_copies(RosetteParams(5, PI / 5))[0].fundamental
    assert abs(poly[0] - poly[-1]) == 0.0
    assert count_self_intersections(poly) == 0


def test_fundamental_decomposition_tiles():
    copies, cov = fundamental_decomposition(RosetteParams(5, PI / 5), probe_grid=40)
    assert len(copies) == 5
    assert cov.passed
    assert cov.count_histogram == {1: 1600}
    assert cov.vertex_angle == pytest.approx(2 * PI / 5, abs=1e-9)
    assert cov.half_sector_angles[0] == pytest.approx(PI / 5, abs=1e-9)
    assert cov.half_sector_angles[1] == pytest.approx(PI / 5, abs=1e-9)


def test_the_tiling_asks_no_boundary_distance_when_every_probe_is_in_one_copy(monkeypatch):
    # the exemption near copy boundaries is only for probes not in exactly one copy
    real, calls = verify.curve_distances, []
    monkeypatch.setattr(verify, "curve_distances", lambda *a: calls.append(a) or real(*a))
    _, cov = fundamental_decomposition(RosetteParams(5, PI / 5), probe_grid=40)
    assert calls == []
    assert cov.passed and cov.violations == 0 and cov.first_violation is None
    assert cov.count_histogram == {1: 1600} and cov.probes == 1600


def test_fundamental_decomposition_noncanonical_beta():
    copies, cov = fundamental_decomposition(RosetteParams(4, 1.9), probe_grid=30)
    assert cov.passed
    # prefactors include the i^l twist from the phase reduction
    beta, shifts = 1.9 - PI, 1
    pre = cmath.exp(1j * (shifts * PI / 2 + (2 + shifts) * PI / 4))
    assert copies[0].prefactor == pytest.approx(pre, abs=1e-14)
    _ = beta


def per_set_parts(params, *sets):
    """verify._parts_at as separate calls: the h_many and g_many passes f_many makes, per set."""
    return [(maps.h_many(params, s), maps.g_many(params, s)) for s in sets]


@pytest.mark.parametrize("n", [3, 5, 12])
@pytest.mark.parametrize("beta", [0.0, PI / 2, -1.2, 0.3 + PI])
def test_fused_stages_equal_the_per_call_path(monkeypatch, n, beta):
    params = RosetteParams(n, beta)
    real, probes = verify.windings, []  # the winding probes of both stages, as bytes
    monkeypatch.setattr(verify, "windings", lambda pts, w: probes.append(w.tobytes()) or real(pts, w))
    scan = univalence_scan(params)
    copies, coverage = fundamental_decomposition(params, probe_grid=60)
    fused_probes, probes[:] = probes[:], []
    monkeypatch.setattr(verify, "_parts_at", per_set_parts)
    assert univalence_scan(params) == scan
    per_call_copies, per_call_coverage = fundamental_decomposition(params, probe_grid=60)
    assert per_call_coverage == coverage
    assert probes == fused_probes
    for got, want in zip(copies, per_call_copies, strict=True):
        assert got.prefactor == want.prefactor
        assert got.polyline.tobytes() == want.polyline.tobytes()


def test_bigon_tangency_angle_at_half_pi_node():
    # the two radial sides of the beta = pi/2 bigon meet at the node at the
    # interior angle pi/2 - pi/n
    n = 5
    p = RosetteParams(n, PI / 2)
    rs = 1.0 - np.array([4e-5, 2e-5, 1e-5])
    inner = f_many(p, rs * cmath.exp(1j * PI / n))
    outer = f_many(p, rs * cmath.exp(2j * PI / n))
    node = boundary_points(p, np.array([2 * PI / n]))[0]
    arg_in = np.angle(node - inner[-1])
    arg_out = np.angle(node - outer[-1])
    got = abs(wrap_angle(arg_in - arg_out))
    assert got == pytest.approx(PI / 2 - PI / n, abs=1e-2)


def test_beta_zero_triangle_halves_mirror():
    # at beta = 0 the two halves of the fundamental set are reflections in
    # the straight common side of argument pi/n
    n = 6
    p = RosetteParams(n, 0.0)
    ts = np.linspace(0.05, PI / n - 0.05, 40)
    lhs = boundary_points(p, 2 * PI / n - ts)
    rhs = cmath.exp(2j * PI / n) * np.conj(boundary_points(p, ts))
    assert np.abs(lhs - rhs).max() < 1e-11


def test_jacobian_closed_form_vs_derivatives():
    p = RosetteParams(5, 0.0)
    rng = np.random.default_rng(9)
    z = 0.93 * np.sqrt(rng.uniform(0, 1, 64)) * np.exp(1j * rng.uniform(0, 2 * PI, 64))
    direct = np.abs(dh_many(p, z)) ** 2 - np.abs(dg_many(p, z)) ** 2
    closed = (1.0 - np.abs(z) ** (2 * (5 - 2))) / np.abs(1.0 - z**10)
    assert np.abs(direct - closed).max() < 1e-12


# --- sample counts and seeds are checked where they enter -----------------------


@pytest.mark.parametrize("call", [
    lambda p: verify.fundamental_tiling(p, 0),
    lambda p: fundamental_decomposition(p, probe_grid=0),
    lambda p: univalence_scan(p, grid_resolution=0),
    lambda p: univalence_scan(p, grid_resolution=1),
    lambda p: univalence_scan(p, per_interval=0),
    lambda p: symmetry_suite(p, sample_count=0),
    lambda p: symmetry_suite(p, sample_count=2.5),
    lambda p: verify.integral_identities(p, -1, 0),
    lambda p: verify.integral_identities(p, 1.5, 0),
    lambda p: boundary_polyline(p, 0),
    lambda p: boundary_polyline(p, -3),
    lambda p: symmetry_suite(p, 10, seed=-1),
    lambda p: symmetry_suite(p, 10, seed=1.5),
    lambda p: verify.integral_identities(p, 3, -1),
    lambda p: verify.integral_identities(p, 3, 1.5),
], ids=["tiling", "decomposition", "univalence-grid", "univalence-grid-one",
        "univalence-per-interval",
        "symmetry", "symmetry-float", "integral", "integral-float", "polyline",
        "polyline-negative", "symmetry-seed-negative", "symmetry-seed-float",
        "integral-seed-negative", "integral-seed-float"])
def test_a_sample_count_out_of_range_is_a_domain_error(call):
    # before, the tiling passed with 0 probes and the others raised numpy errors (for a
    # seed, numpy's ValueError or TypeError)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call(RosetteParams(5, 0.3))


def test_integral_identities_accept_zero_random_points():
    check = verify.integral_identities(RosetteParams(5, 0.3), 0, 0)
    assert check.passed and check.samples_used == 2  # z = 1 alone, both kinds

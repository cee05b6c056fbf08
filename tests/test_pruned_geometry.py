"""The pruned planar queries of verify against the brute force they replace.

``fundamental_decomposition`` winds each probe only around the copies whose cone holds
it, and measures a violating probe only against the copies near it; the oracle here
winds every probe around every copy and measures it against every copy, as 0.18.0 did.
``min_curve_distance`` and ``min_pairwise_distance`` must return the brute-force
minimum bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rosette import RosetteParams, TooCloseToCurve, geometry, verify
from rosette.boundary import bounding_radius, rotated_copies
from rosette.geometry import curve_distances, ensure_closed, windings
from rosette.maps import combine_parts, parts_many
from rosette.series import scale_constant

PI = math.pi

# One phase of each class of the benchmark's decks: zero, pi/2, negative, shifted by a half turn.
PHASES = (0.0, PI / 2, -1.2, 0.3 + PI)


def all_copies_coverage(params, probe_grid):
    """Per-probe copy counts, violating probe indices and exempt count, with every probe
    wound around every copy and every violating probe measured against every copy."""
    copies = rotated_copies(params)
    tol = 1e-6 * scale_constant(params.n)
    probes = combine_parts(params.beta, *parts_many(params, verify._interior_grid(probe_grid, 0.98)))
    counts = np.zeros(probes.size, dtype=int)
    for copy in copies:
        counts += windings(ensure_closed(copy.polyline), probes) != 0
    violating = np.flatnonzero(counts != 1)
    if violating.size:
        dist = np.min([curve_distances(c.polyline, probes[violating]) for c in copies], axis=0)
        violating = violating[dist > tol]
    return probes, counts, violating, int(np.count_nonzero(counts != 1)) - violating.size


@pytest.mark.parametrize("n", [*range(3, 13), 96, 500])
@pytest.mark.parametrize("beta", PHASES, ids=["zero", "half_pi", "negative", "shifted"])
def test_the_cone_restricted_tiling_is_the_all_copies_tiling(monkeypatch, n, beta):
    # grids 12, 21 and 60 put probes on the seams at n = 8 and n = 96
    params = RosetteParams(n, beta)
    for grid in (12, 21, 60):
        probes, counts, violating, exempt = all_copies_coverage(params, grid)
        index = {complex(p): k for k, p in enumerate(probes)}
        assert len(index) == probes.size
        seen = np.zeros(probes.size, dtype=int)  # the copy counts that the tiling forms

        def spy(pts, subset, real=verify.windings):
            wound = real(pts, subset)
            for p, w in zip(subset, wound):
                seen[index[complex(p)]] += w != 0
            return wound

        monkeypatch.setattr(verify, "windings", spy)
        _, cov = verify.fundamental_decomposition(params, probe_grid=grid)
        monkeypatch.undo()
        assert np.array_equal(seen, counts), (grid, np.flatnonzero(seen != counts))
        assert cov.count_histogram == {c: int(m) for c, m in enumerate(np.bincount(counts)) if m}
        assert (cov.violations, cov.exempt) == (violating.size, exempt)
        if violating.size:
            k = int(violating[0])
            assert cov.first_violation["index"] == k
            assert cov.first_violation["copies_containing"] == counts[k]
        else:
            assert cov.first_violation is None
        assert cov.passed == (violating.size == 0)
        check = verify.fundamental_tiling(params, grid)
        assert (check.passed, check.max_residual) == (cov.passed, float(violating.size))


def test_the_tiling_at_order_2000_is_the_all_copies_one():
    # 0.18.0's report, from winding all 3600 probes around all 2000 copies (17 s); the
    # exempt probes are those whose images fall on the seams between copies
    _, cov = verify.fundamental_decomposition(RosetteParams(2000, 0.3), probe_grid=60)
    assert cov.passed and cov.probes == 3600
    assert cov.count_histogram == {0: 197, 1: 3025, 2: 378}
    assert (cov.violations, cov.first_violation, cov.exempt) == (0, None, 575)


def test_a_cone_of_pi_or_more_tests_every_probe_against_every_copy():
    half = np.array([0.0, 1.0, 1.0 + 1.0j, -1.0 + 0.5j, -1.0, 0.0])  # spans exactly pi
    assert verify._cone(half) is None
    assert verify._cone(half[:3]) == (0.0, pytest.approx(PI / 4))
    probes = np.array([1.0 + 0.1j, -1.0 - 0.1j, -0.1j, 0.5 + 0.5j])
    copies = rotated_copies(RosetteParams(4, 0.0))  # turned by i, -1, -i and 1
    for cone, reach in ((None, 0.0), ((0.0, PI / 4), PI)):  # no cone; widened past 2pi
        assert [m.tolist() for m in verify._cone_members(probes, copies, cone, reach)] == [
            [0, 1, 2, 3]] * 4
    members = [sorted(m.tolist()) for m in verify._cone_members(probes, copies, (0.0, PI / 4), 0.0)]
    assert members == [[], [1], [2], [0, 3]]


# --- min_curve_distance -------------------------------------------------------------


def _brute_min(curve, points):
    return float(np.min(curve_distances(curve, points), initial=math.inf))


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=150, deadline=None, suppress_health_check=list(HealthCheck))
@given(st.lists(st.complex_numbers(max_magnitude=10.0), min_size=2, max_size=300),
       st.lists(st.complex_numbers(max_magnitude=1e3), min_size=0, max_size=40),
       st.sampled_from([1, 2, 5, 64]), st.sampled_from([1, 3, 16]),
       st.sampled_from([0, -600, 600, -1074]), st.booleans())
def test_the_nearest_query_is_the_least_curve_distance(vertices, probes, chunk, leads, k, on):
    curve = np.ldexp(np.array(vertices, dtype=complex).view(float), k).view(complex)
    probes = np.ldexp(np.array(probes, dtype=complex).view(float), k).view(complex)
    if on:  # probes on the curve: at vertices and at segment midpoints
        probes = np.concatenate([probes, curve[::3], 0.5 * (curve[:-1] + curve[1:])[::5]])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_CHUNK", chunk)
        patch.setattr(geometry, "_LEADS", leads)
        got = geometry.min_curve_distance(curve, probes)
        assert _same(got, _brute_min(curve, probes)), (got, _brute_min(curve, probes))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, -math.inf)])
def test_the_nearest_query_is_nan_for_points_that_are_not_finite(bad):
    # winding_numbers measures such a point as NaN, which no exclusion radius clears
    square = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j, 1 + 1j])
    probes = np.array([0.0, 0.5j, bad])
    assert math.isnan(geometry.min_curve_distance(square, probes))
    assert math.isnan(_brute_min(square, np.where(np.isfinite(probes), probes, math.nan)))
    assert geometry.min_curve_distance(square, []) == math.inf


@pytest.mark.parametrize("n", [3, 12, 48])
@pytest.mark.parametrize("beta", PHASES)
def test_the_nearest_query_on_the_univalence_polylines(n, beta):
    params = RosetteParams(n, beta)
    for grid, per in ((21, max(320, -(-4096 // (2 * n)))), (12, 96)):
        poly = ensure_closed(verify.boundary_polyline(params, per))
        probes = combine_parts(beta, *parts_many(params, verify._interior_grid(grid)))
        assert geometry.min_curve_distance(poly, probes) == _brute_min(poly, probes)


# --- min_pairwise_distance ----------------------------------------------------------


def _brute_pairwise(points):
    p = np.asarray(points, dtype=complex)
    d = np.abs(p[:, None] - p[None, :])
    d[np.diag_indices(p.size)] = math.inf
    return float(d.min(initial=math.inf))


# a coarse lattice, so that ties, duplicate points and equal x are common
_LATTICE = st.builds(complex, st.integers(-6, 6).map(lambda v: v / 4),
                     st.integers(-6, 6).map(lambda v: v / 4))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_LATTICE, st.complex_numbers(max_magnitude=1e6)), max_size=120),
       st.sampled_from([1.0, 2.0**-600, 2.0**500]))
def test_the_pairwise_sweep_is_the_brute_force_minimum(points, scale):
    points = np.array(points, dtype=complex) * scale
    assert geometry.min_pairwise_distance(points) == _brute_pairwise(points)


def test_the_pairwise_sweep_on_a_column_and_on_duplicates():
    column = 1.5 + 1j * np.linspace(-1.0, 1.0, 301)  # one x: every pair is within the bound
    assert geometry.min_pairwise_distance(column) == _brute_pairwise(column)
    twice = np.concatenate([column, column[::-1]])
    assert geometry.min_pairwise_distance(twice) == 0.0
    assert geometry.min_pairwise_distance(column[:1]) == math.inf
    assert geometry.min_pairwise_distance([]) == math.inf


# --- univalence_scan ----------------------------------------------------------------


@pytest.mark.parametrize("index", [0, 57, 143, 144])
def test_a_probe_on_the_curve_raises_the_winding_numbers_message(monkeypatch, index):
    # the scan asks winding_numbers for the message whenever the nearest probe is too close,
    # so it names the same probe and distance as when every probe went through it; index 144
    # is the exterior ring's first probe, which leaves the curve near a(0)
    params = RosetteParams(5, 0.3)
    probes = combine_parts(params.beta, *parts_many(params, verify._interior_grid(12)))
    ring = (bounding_radius(5) + 0.25 * scale_constant(5)) * np.exp(
        2j * PI * (np.arange(64) + 0.37) / 64)
    probes, point = (probes, probes[index]) if index < probes.size else (ring, ring[0])
    real = verify.boundary_polyline(params, 96)
    poly = np.concatenate([real[:10], [point], real[10:]])
    monkeypatch.setattr(verify, "boundary_polyline", lambda params, per_interval: poly)
    with pytest.raises(TooCloseToCurve) as want:
        verify.winding_numbers(poly, probes, 1e-6 * scale_constant(5))
    with pytest.raises(TooCloseToCurve) as got:
        verify.univalence_scan(params, grid_resolution=12, per_interval=96)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"probe {point} at distance 0.000e+00 <= exclusion ")


def _reference_scan(params, grid_resolution=24, per_interval=None):
    """univalence_scan as 0.27.0 ran it: each probe set measured by its own nearest query
    and wound by its own crossing pass, winding_numbers naming a probe that is too close."""
    n = params.n
    if per_interval is None:
        per_interval = max(320, -(-4096 // (2 * n)))
    poly = verify.boundary_polyline(params, per_interval)
    crossings = verify.count_self_intersections(poly)
    simple = {"segments": poly.size - 1}
    if crossings:
        simple["first_crossing"] = verify.crossing_witness(poly)
    checks = [verify.CheckResult("boundary_simple", crossings == 0, float(crossings),
                                 poly.size - 1, simple)]
    scale = scale_constant(n)
    exclusion = 1e-6 * scale

    def wound(points, target):
        near = geometry.min_curve_distance(poly, points)
        if not near > exclusion:
            verify.winding_numbers(poly, points, exclusion)
        winds = windings(poly, points)
        errors = np.abs(winds - target)
        k = int(np.argmax(errors))
        p, w, worst = complex(points[k]), int(winds[k]), int(errors[k])
        witness = {"index": k, "point": [p.real, p.imag], "winding": w}
        return near, worst, {"worst_probe": witness} if worst else {}

    probes = combine_parts(params.beta, *parts_many(params, verify._interior_grid(grid_resolution)))
    near, worst, found = wound(probes, 1)
    checks.append(verify.CheckResult("interior_winding_one", worst == 0, float(worst), probes.size,
                                     {"min_curve_distance": near, **found}))
    ring = (bounding_radius(n) + 0.25 * scale) * np.exp(2j * PI * (np.arange(64) + 0.37) / 64)
    _, worst, found = wound(ring, 0)
    checks.append(verify.CheckResult("exterior_winding_zero", worst == 0, float(worst), ring.size,
                                     found or None))
    min_sep = geometry.min_pairwise_distance(probes)
    checks.append(verify.CheckResult("grid_images_distinct", min_sep > 0.0,
                                     0.0 if min_sep > 0.0 else 1.0, probes.size,
                                     {"min_separation": min_sep}))
    return verify.VerificationReport(params=params, checks=checks)


def _outcome(scan, params, grid, per_interval):
    """The scan's report, or the message of the TooCloseToCurve it raises."""
    try:
        return repr(scan(params, grid, per_interval))  # repr: the float and bool types too
    except TooCloseToCurve as error:
        return f"TooCloseToCurve: {error}"


def _on_the_ring(poly, n):
    """The polyline with its vertex 10 moved out to the exterior ring's radius, between two
    probes: the disc bound fails there, yet no probe is within the exclusion radius."""
    poly = poly.copy()
    poly[10] *= (bounding_radius(n) + 0.25 * scale_constant(n)) / abs(poly[10])
    return poly


def _through_a_ring_probe(poly, n):
    """The polyline with a vertex inserted at the exterior ring's probe 5, too close to it."""
    ring = (bounding_radius(n) + 0.25 * scale_constant(n)) * np.exp(2j * PI * 5.37 / 64)
    return np.insert(poly, 10, ring)


_MUTANTS = {  # the builder's polyline, and ones that fail a check, the disc bound or the scan
    "as_built": lambda poly, n: poly,
    "vertex_doubled": lambda poly, n: np.insert(poly, 10, poly[10]),
    "scaled": lambda poly, n: 0.3 * poly,
    "vertex_on_ring": _on_the_ring,
    "through_a_ring_probe": _through_a_ring_probe,
}


@pytest.mark.parametrize("n", [3, 4, 5, 12, 96])
@pytest.mark.parametrize("beta", [0.0, 0.3, PI / 2, -2.9, 3 * PI / 2],
                         ids=["zero", "0.3", "half_pi", "negative", "three_half_pi"])
def test_the_one_pass_scan_is_the_scan_of_two_probe_sets(monkeypatch, n, beta):
    # the checks, details included, and the TooCloseToCurve messages of the 0.27.0 route, on
    # the builder's polylines and on mutants that fail checks or take the exact fallback
    params = RosetteParams(n, beta)
    real = verify.boundary_polyline
    for per_interval in (64, None):
        for name, mutate in _MUTANTS.items():
            monkeypatch.setattr(verify, "boundary_polyline",
                                lambda params, per, mutate=mutate: mutate(real(params, per), n))
            for grid in ((2, 3, 12) if per_interval else (12,)):
                want = _outcome(_reference_scan, params, grid, per_interval)
                got = _outcome(verify.univalence_scan, params, grid, per_interval)
                assert got == want, (name, grid, per_interval)


def test_a_ring_bound_that_fails_takes_winding_numbers_and_returns(monkeypatch):
    # a vertex on the ring's circle leaves no room for the disc bound, yet the nearest ring
    # probe is far from it: winding_numbers runs once, raises nothing, and the scan goes on
    params = RosetteParams(5, 0.3)
    poly = _on_the_ring(verify.boundary_polyline(params, 96), 5)
    monkeypatch.setattr(verify, "boundary_polyline", lambda params, per_interval: poly)
    calls = []
    monkeypatch.setattr(verify, "winding_numbers",
                        lambda *args, real=verify.winding_numbers: calls.append(real(*args)))
    report = verify.univalence_scan(params, grid_resolution=12, per_interval=96)
    assert len(calls) == 1 and len(calls[0]) == 144 + 64
    assert min(r.min_distance_to_curve for r in calls[0][144:]) > 1e-3 * scale_constant(5)
    assert report.passed
    assert repr(report) == repr(_reference_scan(params, 12, 96))


def test_a_passing_scan_winds_every_probe_set_by_one_route(monkeypatch):
    # both probe sets in one crossing pass, the grid measured by one nearest query on one
    # set of chunk discs and the ring by the disc bound, with winding_numbers only to name a
    # probe that is too close; neither stage closes the builders' polylines again
    calls = {"winding_numbers": 0, "min_curve_distance": 0, "ensure_closed": 0, "windings": 0}
    for name in calls:
        def spy(*args, name=name, real=getattr(verify, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(verify, name, spy)
    chunks = []
    monkeypatch.setattr(geometry, "_chunks",
                        lambda pts, real=geometry._chunks: chunks.append(pts.size) or real(pts))
    params = RosetteParams(5, 0.3)
    assert verify.univalence_scan(params, grid_resolution=12, per_interval=96).passed
    assert calls == {"winding_numbers": 0, "min_curve_distance": 1, "ensure_closed": 0,
                     "windings": 1}
    assert len(chunks) == 1
    assert verify.fundamental_decomposition(params, probe_grid=12)[1].passed
    del calls["windings"]  # the tiling winds its probes around each copy
    assert calls == {"winding_numbers": 0, "min_curve_distance": 1, "ensure_closed": 0}

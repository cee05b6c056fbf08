"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import cmath
import math
import time

import numpy as np

from rosette import (
    FeatureKind,
    RosetteParams,
    SeriesKind,
    SeriesSpec,
    boundary_points,
    classify_singular_point,
    eval_series_many,
    extract_features,
    fundamental_decomposition,
    gamma_real,
    halfspeed_points,
    hypocycloid,
    integral_oracle,
    jacobian,
    scale_constant,
    separation_angle,
    symmetry_suite,
    total_curvature,
    total_curvature_numeric,
    univalence_scan,
)
from rosette.boundary import (
    FIGURE_PER_INTERVAL,
    SeparationSide,
    boundary_polyline,
    bounding_radius,
    wrap_angle,
)
from rosette.geometry import curve_distances
from rosette.maps import dg_many, dh_many
from rosette.render import Overlay, RenderSpec, render_svg

PI = math.pi


def report(number, ok, description):
    print(f"[criterion {number:>2}] {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"criterion {number}: {description}"


def disk_samples(seed, count, r_max=0.95, r_min=0.05):
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(r_min**2, r_max**2, count))
    return r * np.exp(1j * rng.uniform(0, 2 * PI, count))


def test_criterion_1_endpoint_identity():
    start = time.monotonic()
    worst_ratio = 0.0
    worst_value = 0.0
    for n in range(3, 13):
        a = eval_series_many(SeriesSpec(SeriesKind.ANALYTIC, n), [1.0])[0].real
        c = eval_series_many(SeriesSpec(SeriesKind.COANALYTIC, n), [1.0])[0].real
        ratio_expect = (n - 1) * math.tan(PI / (2 * n))
        worst_ratio = max(worst_ratio, abs(c / a / ratio_expect - 1.0))
        gamma_form = math.sqrt(PI) * gamma_real(1 + 0.5 / n) / gamma_real(0.5 + 0.5 / n)
        worst_value = max(worst_value, abs(a - gamma_form))
    elapsed = time.monotonic() - start
    ok = worst_ratio < 1e-9 and worst_value < 1e-9 and elapsed < 30.0
    report(
        1,
        ok,
        f"endpoint identity n=3..12: ratio err {worst_ratio:.2e}, "
        f"value err {worst_value:.2e}, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_bounds_chain():
    margin = math.inf
    for n in range(3, 51):
        g_m = eval_series_many(SeriesSpec(SeriesKind.COANALYTIC, n), [-1.0])[0].real
        h_m = eval_series_many(SeriesSpec(SeriesKind.ANALYTIC, n), [-1.0])[0].real
        h_p = eval_series_many(SeriesSpec(SeriesKind.ANALYTIC, n), [1.0])[0].real
        g_p = eval_series_many(SeriesSpec(SeriesKind.COANALYTIC, n), [1.0])[0].real
        gaps = (
            g_m - 5.0 / 6.0,
            h_m - g_m,
            1.0 - h_m,
            h_p - 1.0,
            g_p - h_p,
            2.0 - g_p,
        )
        margin = min(margin, *gaps)
    report(2, margin > 1e-6, f"value bounds n=3..50 strict with margin {margin:.2e}")


def test_criterion_3_integral_oracle():
    worst = 0.0
    for n in range(3, 9):
        params = RosetteParams(n, 0.0)
        pts = disk_samples(seed=100 + n, count=100, r_max=0.99)
        for kind in (SeriesKind.ANALYTIC, SeriesKind.COANALYTIC):
            for z in pts:
                worst = max(worst, integral_oracle(params, complex(z), kind).residual)
            worst = max(worst, integral_oracle(params, 1.0, kind).residual)
    report(3, worst < 1e-9, f"integral identities n=3..8: max residual {worst:.2e}")


def test_criterion_4_dilatation_and_jacobian():
    worst_rel = 0.0
    min_jac = math.inf
    for n in (3, 6, 9):
        params = RosetteParams(n, 0.7)
        pts = disk_samples(seed=4 * n, count=1000, r_max=0.99, r_min=0.02)
        for z in pts:
            z = complex(z)
            quotient = dg_many(params, [z])[0] / dh_many(params, [z])[0]
            worst_rel = max(worst_rel, abs(quotient / z ** (n - 2) - 1.0))
            min_jac = min(min_jac, jacobian(params, z))
    ok = worst_rel < 1e-12 and min_jac > 0.0
    report(
        4,
        ok,
        f"dilatation quotient rel err {worst_rel:.2e}, min Jacobian {min_jac:.2e} > 0",
    )


def test_criterion_5_symmetry_suite():
    names = (
        "rotational_symmetry",
        "reflection_conjugation",
        "half_turn_shift",
        "half_pi_reflection",
    )
    worst = 0.0
    for n in (3, 5, 6):
        for beta in (0.0, 0.3, PI / 4, PI / 2):
            rep = symmetry_suite(RosetteParams(n, beta), sample_count=1000, seed=42)
            by_name = {c.name: c for c in rep.checks}
            for name in names:
                worst = max(worst, by_name[name].max_residual)
    report(
        5,
        worst < 1e-10,
        f"symmetry identities, (n,beta) in {{3,5,6}}x{{0,0.3,pi/4,pi/2}}: "
        f"max residual {worst:.2e}",
    )


def test_criterion_6_separation_and_curvature_numbers():
    p = RosetteParams(5, PI / 4)
    sep = separation_angle(p, SeparationSide.NODE_AFTER_CUSP)
    closed = PI / 5 + math.atan(math.sqrt(5.0 / 2.0 - math.sqrt(5.0)))
    ok = abs(sep - closed) < 1e-12 and abs(math.degrees(sep) - 63.0) < 0.5
    sep2 = separation_angle(RosetteParams(5, 2 * PI / 5), SeparationSide.NODE_AFTER_CUSP)
    ok = ok and abs(math.degrees(sep2) - 71.0) < 0.5
    analytic = total_curvature(p, 0.0, 2 * PI / 5)
    ok = ok and math.degrees(analytic) == 108.0
    numeric = total_curvature_numeric(p, 0.0, 2 * PI / 5)
    ok = ok and abs(numeric - analytic) < 1e-4
    report(
        6,
        ok,
        f"n=5 separations {math.degrees(sep):.3f}deg/{math.degrees(sep2):.3f}deg, "
        f"petal curvature {math.degrees(analytic):.1f}deg "
        f"(numeric gap {abs(numeric - analytic):.2e})",
    )


def test_criterion_7_feature_magnitudes():
    worst = 0.0
    for n in (3, 5, 6, 9):
        k = scale_constant(n)
        tn = math.tan(PI / (2 * n))
        rep = extract_features(RosetteParams(n, 0.0))
        for ft in rep.features:
            expect = k * (1 + tn) if ft.kind is FeatureKind.CUSP else k * (1 - tn)
            worst = max(worst, abs(ft.magnitude - expect))
        rep2 = extract_features(RosetteParams(n, PI / 2))
        sec = k / math.cos(PI / (2 * n))
        for ft in rep2.features:
            worst = max(worst, abs(ft.magnitude - sec))
        worst = max(worst, abs(rep2.features[0].argument - (PI / 4 - PI / (2 * n))))
    report(7, worst < 1e-9, f"cusp/node magnitudes and arguments: max err {worst:.2e}")


def test_criterion_8_half_pi_constancy_and_angle():
    worst_diam = 0.0
    worst_angle = 0.0
    for n in (3, 5, 8):
        p = RosetteParams(n, PI / 2)
        k = scale_constant(n)
        for j in range(n):
            lo = (2 * j + 1) * PI / n
            ts = np.linspace(lo + 1e-4, lo + PI / n - 1e-4, 64)
            vals = boundary_points(p, ts)
            diam = float(np.abs(vals[:, None] - vals[None, :]).max())
            worst_diam = max(worst_diam, diam / k)
        node_t = 2 * PI / n
        est = classify_singular_point(
            lambda ts: halfspeed_points(p, ts),
            node_t,
            location=complex(halfspeed_points(p, np.array([node_t]))[0]),
        )
        interior = PI - abs(wrap_angle(est.right_arg - est.left_arg))
        worst_angle = max(worst_angle, abs(interior - (PI / 2 - PI / n)))
    ok = worst_diam < 1e-7 and worst_angle < 1e-3
    report(
        8,
        ok,
        f"beta=pi/2: constancy diameter {worst_diam:.2e} (of scale), "
        f"node interior angle err {worst_angle:.2e} rad",
    )


def test_criterion_9_univalence_scan():
    all_ok = True
    details = []
    for n in (3, 5, 6):
        for beta in (0.0, PI / 4, PI / 2):
            start = time.monotonic()
            rep = univalence_scan(RosetteParams(n, beta))
            elapsed = time.monotonic() - start
            by_name = {c.name: c for c in rep.checks}
            segments = by_name["boundary_simple"].details["segments"]
            probes = by_name["interior_winding_one"].samples_used
            ok = (
                rep.passed
                and segments >= 4096
                and probes >= 400
                and elapsed < 120.0
            )
            all_ok = all_ok and ok
            details.append(f"({n},{beta:.2f}):{elapsed:.0f}s")
    report(9, all_ok, "univalence scans " + " ".join(details))


def test_criterion_10_fundamental_tiling():
    all_ok = True
    details = []
    for n, beta in ((5, PI / 5), (5, PI / 2), (6, 0.0), (4, 1.9)):
        copies, cov = fundamental_decomposition(RosetteParams(n, beta), probe_grid=100)
        ok = cov.passed and cov.probes == 10_000 and cov.violations == 0
        all_ok = all_ok and ok
        details.append(f"({n},{beta:.2f}):{cov.count_histogram}")
    report(10, all_ok, "fundamental-set tiling of 1e4 probes " + " ".join(details))


def test_criterion_11_hypocycloid_baseline():
    worst = 0.0
    ok = True
    for n in (3, 5, 7):
        curve = lambda ts: hypocycloid(n, np.exp(1j * np.asarray(ts)))  # noqa: E731
        for k in range(n):
            t0 = 2 * PI * k / n
            est = classify_singular_point(curve, t0)
            ok = ok and est.kind is FeatureKind.CUSP
            worst = max(worst, abs(est.location - n / (n - 1) * cmath.exp(1j * t0)))
            ok = ok and abs(wrap_angle(est.left_arg - t0)) < 5e-3
    report(
        11,
        ok and worst < 1e-10,
        f"hypocycloid baseline: n cusps detected, location err {worst:.2e}",
    )


def feature_overlay_deviation_px(spec: RenderSpec) -> float:
    """Largest pixel distance from any feature dot to the rendered boundary."""
    half = bounding_radius(spec.params.n) * (1.0 + spec.margin_frac)
    scale = spec.width_px / (2.0 * half)
    boundary = boundary_polyline(spec.params, FIGURE_PER_INTERVAL) * scale
    feats = extract_features(spec.params, confirm=False).features
    dots = np.array([complex(ft.location) * scale for ft in feats])
    return float(curve_distances(boundary, dots).max(initial=0.0))


def test_criterion_12_figures_render():
    figures = [
        RenderSpec(
            params=RosetteParams(6, 0.0),
            radial_lines=24,
            circles=16,
            samples_per_curve=128,
            overlay=frozenset({Overlay.FEATURES, Overlay.HYPOCYCLOID}),
        ),
    ]
    for beta in (0.0, PI / 3, -PI / 3, PI / 2):
        figures.append(
            RenderSpec(
                params=RosetteParams(5, beta),
                radial_lines=16,
                circles=10,
                samples_per_curve=128,
                overlay=frozenset({Overlay.FEATURES}),
            )
        )
    for beta in (PI / 5, PI / 2):
        figures.append(
            RenderSpec(
                params=RosetteParams(5, beta),
                radial_lines=12,
                circles=8,
                samples_per_curve=128,
                overlay=frozenset({Overlay.FUNDAMENTAL_SET, Overlay.FEATURES}),
            )
        )
    worst = 0.0
    ok = True
    for spec in figures:
        doc = render_svg(spec)
        ok = ok and doc.startswith("<?xml") and "<path" in doc
        worst = max(worst, feature_overlay_deviation_px(spec))
    report(
        12,
        ok and worst < 0.5,
        f"figure set renders; feature dots within {worst:.3f}px of the boundary",
    )

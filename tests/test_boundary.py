import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rosette import (
    FeatureKind,
    IntervalCrossesCusp,
    NonCanonicalBeta,
    RosetteParams,
    SeparationSide,
    WrongBeta,
    boundary_points,
    boundary_polyline,
    classify_singular_point,
    curve_samples,
    detect_arg_nonmonotonicity,
    extract_features,
    g_many,
    h_many,
    halfspeed_points,
    hypocycloid,
    rotated_copies,
    scale_constant,
    separation_angle,
    total_curvature,
    total_curvature_numeric,
)
from rosette import DomainError, FeatureMismatch, RosetteError, boundary, f_many
from rosette.boundary import (
    CONFIRM_OFFSETS,
    FIGURE_PER_INTERVAL,
    _boundary_values,
    _confirm_offsets,
    _mirror_pairs,
    distance_to_singular,
    feature_values,
    half_pi_shift,
    interval_offsets,
    interval_points,
    one_sided_tangents,
    wrap_angle,
)
from rosette.maps import BETA_LIMIT, combine_parts, f, half_turn_rotation, parts_many

PI = math.pi


def secant_derivative(params, t, delta=1e-6):
    a = boundary_points(params, [t + delta])[0]
    b = boundary_points(params, [t - delta])[0]
    return (a - b) / (2 * delta)


# --- boundary values -----------------------------------------------------------


def test_boundary_point_at_zero_phase():
    for n in (3, 6):
        p = RosetteParams(n, 0.0)
        expect = scale_constant(n) * (1.0 + math.tan(PI / (2 * n)))
        assert boundary_points(p, [0.0])[0] == pytest.approx(expect, abs=1e-12)


def test_boundary_argument_at_first_node():
    n, beta = 5, 0.8
    p = RosetteParams(n, beta)
    tn = math.tan(PI / (2 * n))
    psi_prime = math.atan((1.0 + tn) / (1.0 - tn) * math.tan(beta / 2))
    val = feature_values(p)[1]  # a(pi/n)
    assert cmath.phase(val) == pytest.approx(PI / n + psi_prime, abs=1e-12)


def test_boundary_rotation_law():
    p = RosetteParams(5, 0.4)
    for t in (0.13, 1.0, 2.7):
        lhs = boundary_points(p, [t + 2 * PI / 5])[0]
        rhs = cmath.exp(2j * PI / 5) * boundary_points(p, [t])[0]
        assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("beta", [0.0, 0.3, PI / 2, -2.9])
def test_feature_values_are_the_scalar_loop_bit_for_bit(beta):
    # the one numpy pass against the loop it replaced: cmath.exp(1j j pi/n) times the
    # even or odd base, one Python complex product per j
    for n in [*range(3, 300), 1000, 2000, 10**4, 10**5]:
        p = RosetteParams(n, beta)
        at_one = f(p, 1.0)
        even, odd = at_one.h + at_one.gbar, at_one.h - at_one.gbar
        loop = [cmath.exp(1j * j * PI / n) * (even if j % 2 == 0 else odd) for j in range(2 * n)]
        assert feature_values(p).tobytes() == np.array(loop).tobytes(), n


def test_scaling_coherence():
    # |a(0)|^2 + |a(pi/n)|^2 = 2 K^2 sec^2(pi/2n), independent of beta
    for n in (3, 6, 9):
        k = scale_constant(n)
        expect = 2.0 * k * k / math.cos(PI / (2 * n)) ** 2
        for beta in (0.0, 0.3, PI / 4, PI / 2):
            vals = feature_values(RosetteParams(n, beta))
            got = abs(vals[0]) ** 2 + abs(vals[1]) ** 2
            assert got == pytest.approx(expect, rel=1e-12)


# --- boundary derivative ---------------------------------------------------------


def test_derivative_magnitude_beta_zero():
    p = RosetteParams(6, 0.0)
    for t in (0.1, 0.4, 0.9, 2.0):
        d = curve_samples(p, [t])[0]
        expect = math.sqrt(2.0) / abs(cmath.sqrt(1.0 - cmath.exp(12j * t)))
        assert d.d_mag == pytest.approx(expect, rel=1e-12)
        assert abs(d.d_value) == pytest.approx(d.d_mag, rel=1e-10)


def test_derivative_magnitude_half_interval_rule():
    n, beta = 5, 0.6
    p = RosetteParams(n, beta)
    x = lambda t: 1.0 / abs(cmath.sqrt(1.0 - cmath.exp(2j * n * t)))  # noqa: E731
    t1 = 0.3 * PI / n  # first half: sin term added
    t2 = 1.7 * PI / n  # second half: sin term subtracted
    d1 = curve_samples(p, [t1])[0]
    d2 = curve_samples(p, [t2])[0]
    assert d1.d_mag == pytest.approx(math.sqrt(2 * (1 + math.sin(beta))) * x(t1), rel=1e-12)
    assert d2.d_mag == pytest.approx(math.sqrt(2 * (1 - math.sin(beta))) * x(t2), rel=1e-12)
    # and the closed-form d_value agrees with a secant of the curve itself
    assert abs(secant_derivative(p, t1) - d1.d_value) < 1e-6


def test_derivative_argument_compass():
    n = 5
    p = RosetteParams(n, 0.2)
    for k in (1, 2, 4):
        for frac in (0.21, 0.9, 1.35, 1.8):
            t = (2 * (k - 1) + frac) * PI / n
            d = curve_samples(p, [t])[0]
            assert d.d_arg == pytest.approx(k * PI - (n / 2 - 1) * t, abs=1e-12)
            assert wrap_angle(cmath.phase(d.d_value) - d.d_arg) == pytest.approx(
                0.0, abs=1e-9
            )


def test_compass_against_numerical_tangent():
    for n, beta in ((4, 0.0), (6, 0.7), (5, PI / 2)):
        p = RosetteParams(n, beta)
        for frac in (0.25, 0.55, 0.85):
            t = frac * PI / n  # first half-interval (valid for beta = pi/2 too)
            d = curve_samples(p, [t])[0]
            num = secant_derivative(p, t, delta=1e-7)
            assert wrap_angle(cmath.phase(num) - d.d_arg) == pytest.approx(0, abs=1e-6)
            assert abs(num) == pytest.approx(d.d_mag, rel=1e-8)


def test_cusp_one_sided_argument_limits():
    n = 6
    p = RosetteParams(n, 0.3)
    k = 2
    t0 = 2 * k * PI / n
    eps = 1e-7
    left = curve_samples(p, [t0 - eps])[0]
    right = curve_samples(p, [t0 + eps])[0]
    assert wrap_angle(left.d_arg - t0) == pytest.approx(0.0, abs=1e-5)
    assert wrap_angle(right.d_arg - (PI + t0)) == pytest.approx(0.0, abs=1e-5)


def test_constancy_arcs_at_half_pi():
    n = 5
    p = RosetteParams(n, PI / 2)
    t = 1.5 * PI / n  # second half-interval
    d = curve_samples(p, [t])[0]
    assert d.d_mag == 0.0
    assert d.d_arg is None
    assert abs(d.d_value) < 1e-10
    ts = np.linspace(1.05 * PI / n, 1.95 * PI / n, 40)
    vals = boundary_points(p, ts)
    assert np.abs(vals - vals[0]).max() < 1e-12 * scale_constant(n)


def test_singular_parameter_guard():
    p = RosetteParams(4, 0.1)
    samples = curve_samples(p, [PI / 4, 0.31])
    assert samples[0].d_value is None and samples[0].d_arg is None
    assert samples[1].d_value is not None


# --- features --------------------------------------------------------------------


def test_feature_counts_and_alternation():
    rep = extract_features(RosetteParams(6, 0.0))
    assert len(rep.features) == 12
    kinds = [ft.kind for ft in rep.features]
    assert kinds[0::2] == [FeatureKind.CUSP] * 6
    assert kinds[1::2] == [FeatureKind.REMOVABLE_NODE] * 6
    assert [ft.t for ft in rep.features] == pytest.approx(
        [j * PI / 6 for j in range(12)]
    )
    # equal spacing of the feature arguments at beta = 0
    assert list(rep.separations) == pytest.approx([PI / 6] * 12, abs=1e-12)


def test_feature_magnitudes_beta_zero():
    n = 6
    rep = extract_features(RosetteParams(n, 0.0))
    k = scale_constant(n)
    tn = math.tan(PI / (2 * n))
    for ft in rep.features:
        if ft.kind is FeatureKind.CUSP:
            assert ft.magnitude == pytest.approx(k * (1 + tn), abs=1e-12)
            assert wrap_angle(ft.axis_arg - ft.t) == pytest.approx(0.0, abs=1e-12)
        else:
            assert ft.magnitude == pytest.approx(k * (1 - tn), abs=1e-12)
            assert wrap_angle(ft.axis_arg - (PI / 2 + ft.t)) == pytest.approx(
                0.0, abs=1e-12
            )


def test_features_at_half_pi():
    n = 5
    rep = extract_features(RosetteParams(n, PI / 2))
    assert len(rep.features) == 5
    k = scale_constant(n)
    for ft in rep.features:
        assert ft.kind is FeatureKind.NODE
        assert ft.magnitude == pytest.approx(k / math.cos(PI / (2 * n)), abs=1e-12)
        assert ft.interior_angle == pytest.approx(PI / 2 - PI / n)
    assert rep.features[0].argument == pytest.approx(PI / 4 - PI / (2 * n), abs=1e-12)


def test_features_of_a_noncanonical_beta_are_the_carried_canonical_features():
    n, params = 5, RosetteParams(5, 2.0)
    canonical, shifts = params.canonical()
    rep, base = extract_features(params), extract_features(canonical)
    turn = half_turn_rotation(n, shifts)
    assert rep.params == params and len(rep.features) == len(base.features) == 2 * n
    for ft, b in zip(rep.features, base.features):  # canonical order, carried
        assert (ft.kind, ft.magnitude) == (b.kind, b.magnitude)
        assert ft.interior_angle == b.interior_angle
        assert ft.t == pytest.approx((b.t + shifts * PI / n) % (2 * PI), abs=1e-12)
        assert 0.0 <= ft.t < 2 * PI
        assert ft.location == turn * b.location
        assert abs(wrap_angle(ft.argument - b.argument - cmath.phase(turn))) < 1e-12
        assert abs(wrap_angle(ft.argument - cmath.phase(ft.location))) < 1e-12
        if b.axis_arg is not None:
            assert abs(wrap_angle(ft.axis_arg - b.axis_arg - cmath.phase(turn))) < 1e-12
    assert rep.separations == pytest.approx(base.separations, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_feature_angles_lie_in_zero_to_two_pi_and_none_is_negative_zero(n):
    # fmod(-2pi, 2pi) is -0.0 and x + 2pi rounds to 2pi for x just below 0: reduced that way,
    # n = 3 at beta = -29.75 reported t = -0.0 and n = 4 at beta = 4.75 an axis_arg of 2pi
    for beta in np.arange(-120, 121) * 0.25:
        features = extract_features(RosetteParams(n, float(beta)), confirm=False).features
        for column in (features.t, features.argument, features.axis_arg):
            angles = column[~np.isnan(column)]
            assert ((angles >= 0.0) & (angles < 2 * PI)).all(), (n, beta)
            assert not np.signbit(angles).any(), (n, beta)


def test_wrap_angle_takes_a_number_to_the_bits_of_the_array_path():
    xs = [PI, -PI, 0.0, -0.0, 2 * PI, -2 * PI, 3 * PI, 1e300, -1e300,
          *np.random.default_rng(5).uniform(-50.0, 50.0, 200)]
    got = [wrap_angle(float(x)) for x in xs]
    assert all(type(y) is float and -PI < y <= PI for y in got)
    assert np.array(got).tobytes() == wrap_angle(np.array(xs)).tobytes()


@pytest.mark.parametrize("beta", [0.3 + PI, 0.3 - 2 * PI, -2.9, 7.5])
def test_separation_angles_are_those_of_the_canonical_phase(beta):
    canonical, _ = RosetteParams(5, beta).canonical()
    for side in SeparationSide:
        assert separation_angle(RosetteParams(5, beta), side) == separation_angle(canonical, side)


# Phases within BETA_HALF_PI_TOL above pi/2 + l pi, the first one pi/2 to ten digits;
# reduce_beta takes each of them to -pi/2 + delta, off the class of pi/2.
NEAR_HALF_PI = (PI / 2 + 1e-10, 1.5707963268, -PI / 2 + 1e-10, 3 * PI / 2 + 1e-10)


@pytest.mark.parametrize("beta", (PI / 2, -PI / 2, 3 * PI / 2) + NEAR_HALF_PI)
def test_separation_angles_refuse_the_half_pi_class(beta):
    with pytest.raises(NonCanonicalBeta):
        separation_angle(RosetteParams(5, beta), SeparationSide.NODE_AFTER_CUSP)


def test_separation_examples():
    for side in SeparationSide:
        assert separation_angle(RosetteParams(7, 0.0), side) == pytest.approx(PI / 7)
    got = separation_angle(RosetteParams(5, PI / 4), SeparationSide.NODE_AFTER_CUSP)
    expect = PI / 5 + math.atan(math.sqrt(5.0 / 2.0 - math.sqrt(5.0)))
    assert got == pytest.approx(expect, abs=1e-14)
    assert math.degrees(got) == pytest.approx(63.0, abs=0.5)
    got2 = separation_angle(RosetteParams(5, 2 * PI / 5), SeparationSide.NODE_AFTER_CUSP)
    assert math.degrees(got2) == pytest.approx(71.0, abs=0.5)
    # both sides always sum to 2pi/n
    p = RosetteParams(5, 1.1)
    total = separation_angle(p, SeparationSide.NODE_AFTER_CUSP) + separation_angle(
        p, SeparationSide.CUSP_AFTER_NODE
    )
    assert total == pytest.approx(2 * PI / 5, rel=1e-14)


def test_separation_matches_feature_arguments():
    p = RosetteParams(5, PI / 4)
    rep = extract_features(p)
    want_after_cusp = separation_angle(p, SeparationSide.NODE_AFTER_CUSP)
    want_after_node = separation_angle(p, SeparationSide.CUSP_AFTER_NODE)
    assert rep.separations[0] == pytest.approx(want_after_cusp, abs=1e-12)
    assert rep.separations[1] == pytest.approx(want_after_node, abs=1e-12)


def test_cusp_ordering():
    for beta in (0.2, -0.7, 1.2):
        rep = extract_features(RosetteParams(5, beta))
        args = np.unwrap([ft.argument for ft in rep.features])
        assert (np.diff(args) > 0).all()


def test_monotone_feature_drift():
    n = 6
    betas = np.linspace(0.0, PI / 2 - 0.02, 12)
    cusp_mags, node_mags, first_args = [], [], []
    for b in betas:
        rep = extract_features(RosetteParams(n, float(b)), confirm=False)
        cusp_mags.append(rep.features[0].magnitude)
        node_mags.append(rep.features[1].magnitude)
        first_args.append(rep.features[0].argument)
    assert (np.diff(cusp_mags) < 0).all()
    assert (np.diff(node_mags) > 0).all()
    assert (np.diff(first_args) > 0).all()
    k = scale_constant(n)
    tn = math.tan(PI / (2 * n))
    sec = 1.0 / math.cos(PI / (2 * n))
    assert cusp_mags[0] == pytest.approx(k * (1 + tn), abs=1e-12)
    assert node_mags[0] == pytest.approx(k * (1 - tn), abs=1e-12)
    assert k * (1 + tn) > k * sec  # the two limits are ordered as implemented
    assert abs(extract_features(RosetteParams(n, PI / 2)).features[0].magnitude - k * sec) < 1e-12


# --- closed forms carried by the half-turn law ------------------------------------------

CARRIED_PHASES = (2.5, -2.0, -2.9, 0.3 + PI, 0.3 - PI, PI / 2, -PI / 2, 3 * PI / 2, 7.5, 1e4)


@pytest.mark.parametrize("n", [3, 5, 12])
@pytest.mark.parametrize("beta", CARRIED_PHASES)
def test_sampled_derivative_fields_agree_with_the_derivative_value(n, beta):
    ts = np.linspace(-7.0, 13.0, 401)
    ts = ts[distance_to_singular(n, ts) > 1e-6]
    for s in curve_samples(RosetteParams(n, beta), ts):
        assert s.d_mag == pytest.approx(abs(s.d_value), rel=1e-9, abs=1e-12)
        assert (s.d_arg is None) == (s.d_mag == 0.0), s.t
        if s.d_mag > 0.0:
            assert abs(wrap_angle(s.d_arg - cmath.phase(s.d_value))) < 1e-9, s.t


@pytest.mark.parametrize("n", [3, 5, 12])
@pytest.mark.parametrize("beta", NEAR_HALF_PI)
def test_phases_near_the_half_pi_class_have_its_constancy_arcs(n, beta):
    ts = np.linspace(-7.0, 13.0, 401)
    ts = ts[distance_to_singular(n, ts) > 1e-6]
    exact = curve_samples(RosetteParams(n, PI / 2 + half_pi_shift(beta) * PI), ts)
    for s, e in zip(curve_samples(RosetteParams(n, beta), ts), exact):
        assert (s.d_arg is None) == (e.d_arg is None) == (s.d_mag == 0.0), s.t
        if s.d_mag > 0.0:
            assert s.d_mag == pytest.approx(abs(s.d_value), rel=1e-9)
            assert abs(wrap_angle(s.d_arg - cmath.phase(s.d_value))) < 1e-9, s.t
        else:  # the curve moves at a speed of order beta's distance to the class
            assert abs(s.d_value) < 1e-7, s.t


@pytest.mark.parametrize("beta, t0, t1", [(0.3 + PI, PI / 10, 3 * PI / 10),
                                           (3 * PI / 2, 0.04 * PI, 0.16 * PI),
                                           (PI / 2 + 1e-10, 0.24 * PI, 0.36 * PI),
                                           (1.5707963268, 0.24 * PI, 0.36 * PI),
                                           (-PI / 2 + 1e-10, 0.04 * PI, 0.16 * PI)])
def test_carried_curvature_intervals_are_checked_at_the_canonical_phase(beta, t0, t1):
    # [pi/10, 3pi/10] crosses the cusp carried to pi/5; in the class of pi/2 the
    # interval lies on a constancy arc
    for curvature in (total_curvature, total_curvature_numeric):
        with pytest.raises(IntervalCrossesCusp):
            curvature(RosetteParams(5, beta), t0, t1)


def test_carried_curvature_matches_its_numeric_cross_check():
    p = RosetteParams(5, 0.3 + PI)  # cusps at the odd multiples of pi/5
    assert total_curvature(p, 0.25 * PI, 0.55 * PI) == pytest.approx(
        total_curvature_numeric(p, 0.25 * PI, 0.55 * PI), abs=1e-4
    )


# --- one decision of the class of pi/2 per call -------------------------------------

# Phases of the class of pi/2 at n = 5 whose base beta - l pi rounds just past the
# BETA_HALF_PI_TOL band, while half_pi_shift, which reduces beta by reduce_beta, puts them
# in it (l = -661, -79 and 1000; found by a scan of 3000 ulps around each band edge).
CLASS_EDGE_WITNESSES = (-2075.0219476950583, -246.61502330579876, 3143.163449917588)

# Every 97th l with pi/2 + l pi within BETA_LIMIT, and the two ends and the two nearest 0.
SWEEP_SHIFTS = sorted({*range(-3183, 3183, 97), -1, 0, 3182})


def _class_actions(beta: float, l: int) -> dict:
    """Whether each boundary function acts on the class of pi/2 at n = 5 for beta, a phase
    near pi/2 + l pi."""
    n, p = 5, RosetteParams(5, beta)
    ts = (np.arange(20) + 0.5) * (PI / 10)  # off the multiples of pi/5

    def raises(error, fn, *args) -> bool:
        try:
            fn(*args)
        except error:
            return True
        return False

    node_polyline = boundary_polyline(RosetteParams(n, PI / 2), 2)
    # the curvature interval, within (l + 1) pi/n to (l + 2) pi/n, lies on a constancy arc in
    # the class and within one petal off it
    return {
        "curve_samples": bool(np.isnan(curve_samples(p, ts).d_arg).any()),
        "boundary_polyline": len(boundary_polyline(p, 2)) == len(node_polyline),
        "separation_angle": raises(NonCanonicalBeta, separation_angle, p,
                                   SeparationSide.NODE_AFTER_CUSP),
        "total_curvature": raises(IntervalCrossesCusp, total_curvature, p,
                                  (l + 1) * PI / n + 0.1, (l + 2) * PI / n - 0.1),
        "halfspeed_points": not raises(WrongBeta, halfspeed_points, p, ts),
        "extract_features": len(extract_features(p).features) == n,
    }


@pytest.mark.parametrize("beta", CLASS_EDGE_WITNESSES)
def test_phases_whose_base_rounds_past_the_band_act_on_the_class_of_half_pi(beta):
    n, l = 5, half_pi_shift(beta)
    assert l is not None
    actions = _class_actions(beta, l)
    assert actions == dict.fromkeys(actions, True)
    p = RosetteParams(n, beta)
    samples = curve_samples(p, (np.arange(400) + 0.5) * (2 * PI / 400))  # dump --count 400
    arcs = samples.d_mag == 0.0
    assert arcs.sum() == 200 and np.array_equal(np.isnan(samples.d_arg), arcs)
    figure = boundary_polyline(p, FIGURE_PER_INTERVAL)  # what verify --level quick certifies
    assert len(figure) == len(boundary_polyline(RosetteParams(n, PI / 2), FIGURE_PER_INTERVAL))
    with pytest.raises(IntervalCrossesCusp):
        total_curvature(p, l * PI / n + 0.1, l * PI / n + 1.9 * PI / n)


@pytest.mark.parametrize("l", SWEEP_SHIFTS)
def test_every_function_acts_on_the_class_that_half_pi_shift_decides(l):
    # phases on both sides of the band edges pi/2 + l pi -+ 1e-9, up to 3000 ulps away
    phases = [edge + k * np.spacing(abs(edge))
              for edge in (PI / 2 + l * PI - 1e-9, PI / 2 + l * PI + 1e-9)
              for k in (-3000, -30, -1, 0, 1, 30, 3000)]
    assert all(abs(beta) <= BETA_LIMIT for beta in phases)
    classes = [half_pi_shift(beta) is not None for beta in phases]
    assert True in classes and False in classes
    for beta, nodes in zip(phases, classes):
        actions = _class_actions(beta, l)
        assert actions == dict.fromkeys(actions, nodes), beta


# --- curvature --------------------------------------------------------------------


def test_total_curvature_values():
    p5 = RosetteParams(5, 0.3)
    full = total_curvature(p5, 0.0, 2 * PI / 5)
    assert full == pytest.approx(3 * PI / 5, rel=1e-14)
    assert math.degrees(full) == pytest.approx(108.0, abs=1e-10)
    half = total_curvature(p5, 0.0, PI / 5)
    assert math.degrees(half) == pytest.approx(54.0, abs=1e-10)
    p6 = RosetteParams(6, 0.0)
    assert total_curvature(p6, 0.0, PI / 3) == pytest.approx(PI - 2 * PI / 6, rel=1e-14)


def test_total_curvature_numeric_cross_check():
    p = RosetteParams(5, PI / 4)
    got = total_curvature_numeric(p, 0.0, 2 * PI / 5)
    assert got == pytest.approx(3 * PI / 5, abs=1e-4)
    got_half = total_curvature_numeric(p, 0.0, PI / 5)
    assert got_half == pytest.approx(3 * PI / 10, abs=1e-4)


def test_total_curvature_interval_validation():
    p = RosetteParams(5, 0.3)
    with pytest.raises(IntervalCrossesCusp):
        total_curvature(p, 0.3, 2 * PI / 5 + 0.2)
    half_pi = RosetteParams(5, PI / 2)
    with pytest.raises(IntervalCrossesCusp):
        total_curvature(half_pi, 0.0, 1.5 * PI / 5)  # reaches into the constancy arc
    assert total_curvature(half_pi, 0.0, PI / 5) == pytest.approx(
        (5 / 2 - 1) * PI / 5
    )


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_a_non_finite_boundary_parameter_is_a_domain_error(t):
    p = RosetteParams(5, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            curve_samples(p, [t])
        for curvature in (total_curvature, total_curvature_numeric):
            for t0, t1 in ((t, 1.0), (0.1, t), (t, t)):
                with pytest.raises(DomainError):
                    curvature(p, t0, t1)
        # the sample sets refuse t before e^{it} is formed: no numpy warning, and the
        # message names t, not a NaN point
        ts = [0.1, t, 0.2]
        for fn, params, arg in [
            (boundary_points, p, ts),
            (boundary_points, p, [t]),
            (curve_samples, p, ts),
            (halfspeed_points, RosetteParams(5, PI / 2), ts),
            (halfspeed_points, RosetteParams(5, PI / 2 + 2 * PI), ts),
        ]:
            with pytest.raises(DomainError, match=f"^boundary parameter t={t} is not finite$"):
                fn(params, arg)


def test_curve_samples_take_parameters_of_any_shape_in_raveled_order():
    p = RosetteParams(5, 0.3)
    ts = np.array([[0.1, 0.2], [PI / 5, 2.0]])
    assert curve_samples(p, ts) == curve_samples(p, ts.ravel().tolist())
    assert curve_samples(p, 0.1) == curve_samples(p, [0.1])


@pytest.mark.parametrize("beta", [0.3, -1.2, 2.5, 3 * PI / 2, PI / 2, 5 * PI / 2])
def test_each_sample_set_takes_one_two_family_series_pass(series_passes, monkeypatch, beta):
    # f_many would make [1, 1] per set, one pass for h and one for g; each set must also
    # be bit for bit what f_many gives at its parameters
    p = RosetteParams(6, beta)
    ts = np.linspace(-1.0, 7.0, 203)
    sets, real = [], boundary._boundary_values

    def recorded(params, at):
        sets.append((params, at, real(params, at)))
        return sets[-1][2]

    monkeypatch.setattr(boundary, "_boundary_values", recorded)
    values = [s.value for s in curve_samples(p, ts)]
    assert series_passes == [2]
    extract_features(p)
    assert series_passes == [2, 2]  # the confirmation; the values at w = 1 take no pass
    if half_pi_shift(beta) is not None:
        halfspeed = halfspeed_points(p, ts)
        assert series_passes == [2, 2, 2]
        monkeypatch.setattr(boundary, "_boundary_values",
                            lambda params, at: f_many(params, np.exp(1j * at)))
        assert np.array_equal(halfspeed, halfspeed_points(p, ts))
    assert values == boundary_points(p, ts).tolist()
    for params, at, got in sets:
        assert np.array_equal(got, f_many(params, np.exp(1j * at)))


# --- half-speed reparametrization ---------------------------------------------------


def test_halfspeed_examples():
    n = 5
    p = RosetteParams(n, PI / 2)
    assert halfspeed_points(p, [0.0])[0] == pytest.approx(boundary_points(p, [0.0])[0],
                                                           abs=1e-12)
    nodes = feature_values(p)
    for k in (1, 2, 4):
        got = halfspeed_points(p, [2 * k * PI / n])[0]
        assert got == pytest.approx(nodes[(2 * k) % (2 * n)], abs=1e-11)


@pytest.mark.parametrize("n", [3, 5, 12, 97, 1001])
def test_halfspeed_points_snap_only_a_node_itself_to_its_feature_value(n):
    # until 0.17.0 every mapped parameter within 1e-9 of j pi/n took the node's value; the
    # curve is only Hoelder-1/2 there, so 1.9e-9 past the node at n = 5 that was 3.9e-5 off
    p = RosetteParams(n, PI / 2)
    nodes, ks = feature_values(p), range(0, n, max(1, n // 7))
    for k in ks:  # the node ends the skipped constancy arc [(2k - 1) pi/n, 2k pi/n]
        got = halfspeed_points(p, [2 * k * PI / n])[0]
        assert got in (nodes[2 * k], nodes[2 * k - 1]), k
    for d in (1e-12, 1e-10, 5e-10, 1.9e-9):
        for k in ks:
            after, before = 2 * k * PI / n + d, 2 * k * PI / n - d
            mapped = [k * PI / n + after / 2]
            if k:
                mapped.append((k - 1) * PI / n + before / 2)
            got = halfspeed_points(p, [after, before][: len(mapped)])
            assert got.tobytes() == _boundary_values(p, np.array(mapped)).tobytes(), (k, d)


def test_every_node_of_the_half_pi_class_takes_its_feature_value():
    # until 0.18.0 the snap window was 4 ulps of j pi/n, 5e-324 wide at j = 0: at l = 3 the
    # node t = 3 * (pi/n) mapped to about 1e-17 and took the curve there, 3.0e-9 off at
    # n = 25 (32 of these orders were off); every node at n = 10^5 would take 10 s, so its
    # first and last 64 nodes stand for it
    for n in [*range(3, 300), 1001, 5000, 10**5]:
        nodes = feature_values(RosetteParams(n, PI / 2))[0::2]
        ks = np.arange(n) if n <= 5000 else np.r_[0:64, n - 64 : n]
        for shifts in range(-1, 4):
            got = halfspeed_points(RosetteParams(n, PI / 2 + shifts * PI),
                                   (2 * ks + shifts) * (PI / n))
            want = half_turn_rotation(n, shifts) * nodes[ks]
            assert np.abs(got - want).max() <= 1e-12, (n, shifts)
    # one t, not a list: until 0.18.0 a node raised TypeError (item assignment to a scalar)
    p = RosetteParams(5, PI / 2)
    assert halfspeed_points(p, 0.0) == feature_values(p)[0]


def test_halfspeed_continuity_at_seams():
    p = RosetteParams(4, PI / 2)
    for k in (1, 2, 3):
        t0 = 2 * k * PI / 4
        left = halfspeed_points(p, [t0 - 1e-9])[0]
        right = halfspeed_points(p, [t0 + 1e-9])[0]
        assert abs(left - right) < 1e-4  # continuous seam (sqrt-type modulus)


def test_halfspeed_tangent_jump_is_node_angle():
    n = 5
    p = RosetteParams(n, PI / 2)
    t0 = 2 * PI / n
    node = halfspeed_points(p, [t0])[0]
    est = classify_singular_point(
        lambda ts: halfspeed_points(p, ts), t0, location=node
    )
    assert est.kind is FeatureKind.NODE
    exterior = abs(wrap_angle(est.right_arg - est.left_arg))
    assert PI - exterior == pytest.approx(PI / 2 - PI / n, abs=1e-3)


@pytest.mark.parametrize("shifts", [-1, 1, 2])
def test_halfspeed_points_of_the_half_pi_class_are_the_carried_curve(shifts):
    n = 5
    ts = np.linspace(-1.0, 7.0, 161)
    got = halfspeed_points(RosetteParams(n, PI / 2 + shifts * PI), ts)
    base = halfspeed_points(RosetteParams(n, PI / 2), ts - shifts * PI / n)
    assert np.abs(got - half_turn_rotation(n, shifts) * base).max() < 1e-12


def test_halfspeed_requires_half_pi():
    with pytest.raises(WrongBeta):
        halfspeed_points(RosetteParams(5, 0.3), [0.1])


# --- argument monotonicity ------------------------------------------------------------


def test_arg_nonmonotonicity_is_scanned_at_any_phase():
    for beta, found in ((PI / 4 + PI, True), (PI / 3 - 2 * PI, True), (0.0 + PI, False)):
        assert detect_arg_nonmonotonicity(RosetteParams(5, beta))[0] is found


def test_arg_nonmonotonicity_detection():
    found, witness = detect_arg_nonmonotonicity(RosetteParams(5, PI / 4))
    assert found and witness is not None
    found3, _ = detect_arg_nonmonotonicity(RosetteParams(3, PI / 3))
    assert found3
    flat_found, flat_witness = detect_arg_nonmonotonicity(RosetteParams(6, 0.0))
    assert not flat_found and flat_witness is None


# --- summand structure -----------------------------------------------------------------


def test_magnitude_periodicity_of_parts():
    # grid offset from the singular parameters, where the parts are C^(1/2) only
    n = 4
    p = RosetteParams(n, 0.0)
    ts = (np.arange(96) + 0.37) * PI / (n * 12)
    hv = np.abs(h_many(p, np.exp(1j * ts)))
    gv = np.abs(g_many(p, np.exp(1j * ts)))
    hv2 = np.abs(h_many(p, np.exp(1j * (ts + PI / n))))
    gv2 = np.abs(g_many(p, np.exp(1j * (ts + PI / n))))
    assert np.abs(hv - hv2).max() < 1e-11
    assert np.abs(gv - gv2).max() < 1e-11


def test_summand_phase_lock():
    n, beta = 5, 0.45
    rot = cmath.exp(0.5j * beta)
    for j, expect in ((1, beta - PI / 2), (2, beta + PI / 2), (3, beta - PI / 2)):
        ts = (j - 1 + np.array([0.2, 0.5, 0.8])) * PI / n
        z = np.exp(1j * ts)
        root = np.sqrt(1.0 - z ** (2 * n))
        d_h_part = rot * 1j * z / root
        d_g_part = np.conj(1j * z ** (n - 1) / root) / rot
        diffs = np.angle(d_h_part) - np.angle(d_g_part)
        for d in diffs:
            assert abs(wrap_angle(d - expect)) < 1e-12


def test_rigid_congruence_of_part_arcs():
    # h- and g-boundary arcs over basic intervals are rigid motions of one
    # another with opposite orientation.  Arclength is accumulated in the
    # substituted parameter t = (pi/n) sin^2(pi u / 2), which makes the speed
    # integrand bounded at the endpoints (|dh/dt| blows up like t^{-1/2}).
    n = 5
    p = RosetteParams(n, 0.0)
    m = 4000
    u = (np.arange(m) + 0.5) / m
    ts = (PI / n) * np.sin(0.5 * PI * u) ** 2
    dt_du = (PI / n) * PI * np.sin(0.5 * PI * u) * np.cos(0.5 * PI * u)
    speed_u = dt_du / np.abs(np.sqrt(1.0 - np.exp(2j * n * ts)))
    s = np.concatenate([[0.0], np.cumsum(speed_u)])[:-1] + 0.5 * speed_u
    s = (s - s[0]) / (s[-1] - s[0])
    nodes = np.linspace(0.002, 0.998, 160)
    t_at = np.interp(nodes, s, ts)
    arc_h = h_many(p, np.exp(1j * t_at))
    for t_shift in (0.0, PI / n):  # any basic interval of the g-arc works
        arc_g = g_many(p, np.exp(1j * (t_at + t_shift)))[::-1]  # opposite orientation
        ph = arc_h - arc_h.mean()
        pg = arc_g - arc_g.mean()
        rot = np.sum(pg * np.conj(ph))
        rot /= abs(rot)
        aligned = rot * ph + arc_g.mean()
        assert np.abs(aligned - arc_g).max() < 1e-6


# --- hypocycloid baseline -----------------------------------------------------------------


def test_hypocycloid_cusp_detection():
    for n in (3, 5, 7):
        curve = lambda ts: hypocycloid(n, np.exp(1j * np.asarray(ts)))  # noqa: E731
        for k in range(n):
            t0 = 2 * PI * k / n
            est = classify_singular_point(curve, t0)
            assert est.kind is FeatureKind.CUSP
            expect = n / (n - 1) * cmath.exp(1j * t0)
            assert abs(est.location - expect) < 1e-10
            # the axis (left-limit direction) points along 2k pi/n
            assert abs(wrap_angle(est.left_arg - t0)) < 5e-3


def test_hypocycloid_regular_at_odd_multiples():
    n = 4
    curve = lambda ts: hypocycloid(n, np.exp(1j * np.asarray(ts)))  # noqa: E731
    est = classify_singular_point(curve, PI / n)
    assert est.kind is FeatureKind.REMOVABLE_NODE  # smooth point: tangents agree


# --- feature vertices and confirmation ------------------------------------------------------


def _sorted_feature_vertices(params):
    # the report lists the features of a phase past its canonical one in the canonical order,
    # carried by the half-turn law; sorted by t they read as the multiples of pi/n in order
    feats = extract_features(params, confirm=False).features
    order = np.argsort(feats.t)
    return feats.t[order], feats.location[order]


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("shifts", [-1, 1, 2])
def test_feature_vertices_at_shifted_half_pi_are_the_rotated_nodes(n, shifts):
    ts, vals = _sorted_feature_vertices(RosetteParams(n, PI / 2 + shifts * PI))
    base_ts, base_vals = _sorted_feature_vertices(RosetteParams(n, PI / 2))
    assert len(ts) == len(base_ts) == n
    moved = np.mod(base_ts + shifts * PI / n, 2 * PI)
    order = np.argsort(moved)
    assert np.allclose(ts, moved[order], atol=1e-12)
    assert np.abs(vals - half_turn_rotation(n, shifts) * base_vals[order]).max() < 1e-12


def test_feature_vertices_away_from_half_pi_are_all_multiples():
    for beta in (0.0, 0.3, -1.2, 0.3 + 2 * PI):
        p = RosetteParams(5, beta)
        ts, vals = _sorted_feature_vertices(p)
        assert np.allclose(ts, np.arange(10) * PI / 5)
        exact = feature_values(p)
        if p.canonical()[1] == 0:
            assert vals.tolist() == [exact[j] for j in range(10)]
        else:  # the canonical phase's values, turned by the half-turn law
            assert np.abs(vals - exact).max() < 1e-12


@pytest.mark.parametrize("beta", [0.0, 0.7, -1.2, PI / 2])
def test_batched_tangents_match_one_point_classification(beta):
    p = RosetteParams(5, beta)
    feats = extract_features(p, confirm=False).features
    part = halfspeed_points if half_pi_shift(beta) is not None else boundary_points
    curve = lambda ts: part(p, ts)  # noqa: E731
    left, right = one_sided_tangents(curve, [ft.t for ft in feats], [ft.location for ft in feats])
    for ft, lo, hi in zip(feats, left, right):
        est = classify_singular_point(curve, ft.t, location=ft.location)
        assert est.kind is ft.kind
        assert abs(wrap_angle(est.left_arg - lo)) < 1e-9
        assert abs(wrap_angle(est.right_arg - hi)) < 1e-9


def test_batched_tangents_match_one_point_classification_on_hypocycloid():
    n = 5
    curve = lambda ts: hypocycloid(n, np.exp(1j * np.asarray(ts)))  # noqa: E731
    ts = np.arange(2 * n) * PI / n
    left, right = one_sided_tangents(curve, ts, curve(ts))
    for t0, lo, hi in zip(ts, left, right):
        est = classify_singular_point(curve, t0)
        assert abs(wrap_angle(est.left_arg - lo)) < 1e-12
        assert abs(wrap_angle(est.right_arg - hi)) < 1e-12


@pytest.mark.parametrize("n, t0", [(5, 0.0), (12, 4 * PI / 12)])
def test_a_secant_within_rounding_is_refused(n, t0):
    # at beta = pi/2 these nodes' left side is an arc of constancy of boundary_points: the
    # left secants are 2e-16 to 4e-15 long, and their directions gave a left_arg of 0.107
    # (n = 5) and -6.143 (n = 12) with the kind NODE; the half-speed curve skips the arc
    p = RosetteParams(n, PI / 2)
    with pytest.raises(DomainError, match=f"^the left secant at t0 = {t0!r} is rounding$"):
        classify_singular_point(lambda ts: boundary_points(p, ts), t0)
    est = classify_singular_point(lambda ts: halfspeed_points(p, ts), t0)
    assert est.kind is FeatureKind.NODE
    with pytest.raises(DomainError, match="^the right secant at t0 = 0.5 is rounding$"):
        one_sided_tangents(lambda ts: np.where(ts < 0.5, ts, 0.5) + 0j, [0.25, 0.5], [0.25, 0.5])


def test_confirm_offsets_shrink_only_past_n_1000():
    for n in (3, 12, 999, 1000):
        assert _confirm_offsets(n) == CONFIRM_OFFSETS
    for n in (1001, 5000, 100000):
        assert max(_confirm_offsets(n)) < 0.5 * PI / n


@pytest.mark.parametrize("beta", [0.3, PI / 2])
def test_features_confirm_at_large_order(beta):
    n = 5000
    rep = extract_features(RosetteParams(n, beta))
    assert len(rep.features) == (n if beta == PI / 2 else 2 * n)
    assert rep.features[1].t == pytest.approx((2 if beta == PI / 2 else 1) * PI / n)


def test_feature_mismatch_carries_its_witness(monkeypatch):
    real = boundary.one_sided_tangents

    def skewed(*args, **kwargs):
        left, right = real(*args, **kwargs)
        return left + 0.1, right

    monkeypatch.setattr(boundary, "one_sided_tangents", skewed)
    with pytest.raises(FeatureMismatch) as exc:
        extract_features(RosetteParams(5, 0.3))
    err = exc.value
    assert isinstance(err, RosetteError)
    assert err.kind is FeatureKind.CUSP and err.t == 0.0
    assert err.expected == 0.0
    assert wrap_angle(err.measured - err.expected) == pytest.approx(0.1, abs=1e-3)
    assert str(err).startswith("cusp at t=0.0: tangent direction")


CARRY_ORDERS = (3, 4, 5, 7, 12, 48, 1001, 5000)
CARRY_PHASES = (0.0, 0.3, -0.7, 1.5, -1.5, PI / 2, -PI / 2 + 1e-10, PI / 2 - 5e-10)


@pytest.mark.parametrize("n", CARRY_ORDERS)
def test_carried_tangents_match_the_per_point_evaluation(monkeypatch, n):
    # the confirmation samples one orbit and carries it by a(t + 2pi/n) = e^{2i pi/n} a(t);
    # the oracle sends every feature's secant points through the curve itself
    real, calls = boundary.one_sided_tangents, []

    def recorded(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(boundary, "one_sided_tangents", recorded)
    for beta in CARRY_PHASES:
        canonical = RosetteParams(n, beta).canonical()[0]
        nodes = half_pi_shift(beta) is not None
        part = halfspeed_points if nodes else _boundary_values
        extract_features(RosetteParams(n, beta))
        (_, ts, locations, offsets), carried = calls.pop()
        assert len(ts) == (n if nodes else 2 * n)
        oracle = real(lambda at: part(canonical, at), ts, locations, offsets)
        for got, want in zip(carried, oracle):
            assert np.abs(np.angle(np.exp(1j * (got - want)))).max() < 1e-9, beta


@pytest.mark.parametrize("beta, points", [(0.3, [12]), (PI / 2, [6]),
                                          (-PI / 2 + 1e-10, [6])])
def test_features_send_one_orbit_through_the_series_at_any_order(series_points, beta, points):
    # features 0 and 1 (node 0 alone) at 2 sides x 3 offsets; the values at w = 1 take no pass
    extract_features(RosetteParams(5000, beta))
    assert series_points == points


@pytest.mark.parametrize("n, move", [(5, 1e-4), (12, 1e-4), (1001, 1e-6), (5000, 1e-6)])
@pytest.mark.parametrize("beta", [0.3, -PI / 2 + 1e-10])
def test_a_wrong_location_past_the_first_orbit_fails_the_confirmation(monkeypatch, n, move, beta):
    # feature t = 3pi/n (a removable node, or the second node just above -pi/2) is carried
    # from the first orbit; its secants start at its own location, so a move is caught.
    # Up to n = 500 the unscaled offsets see moves of 1e-4 * scale, not 1e-6 * scale.
    real = boundary.feature_values

    def moved(params):
        values = real(params)
        values[3] += move * scale_constant(params.n)
        return values

    monkeypatch.setattr(boundary, "feature_values", moved)
    with pytest.raises(FeatureMismatch) as exc:
        extract_features(RosetteParams(n, beta))
    assert exc.value.t == pytest.approx(3 * PI / n, abs=1e-15)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_features_just_above_minus_half_pi_are_the_carried_nodes(n):
    # beta = -pi/2 + 1e-10 is canonical and lies in the class of pi/2 (l = -1):
    # its nodes sit at the odd multiples of pi/n and are confirmed, not refused
    rep = extract_features(RosetteParams(n, -PI / 2 + 1e-10))
    assert [ft.kind for ft in rep.features] == [FeatureKind.NODE] * n
    assert [ft.t for ft in rep.features] == [j * PI / n for j in range(1, 2 * n, 2)]
    canon = extract_features(RosetteParams(n, PI / 2)).features
    rot = half_turn_rotation(n, -1)
    for k, ft in enumerate(rep.features):
        assert abs(ft.location - rot * canon[(k + 1) % n].location) < 1e-8


# --- one basic interval rotated onto all 2n ---------------------------------------------

INTERVAL_ORDERS = (3, 5, 12, 96, 500)
INTERVAL_PHASES = (0.0, 0.3, -1.2, PI / 2, 2.5)
# Both ends of an interval (next to a cusp or node), its middle and the grid's band, in the
# exact mirror pairs that interval_points takes.  The far end's values are the near end's
# carried by the reflection law, so they hold to 1 - 1e-6: had they come from the series at
# the rounded s pi/n, that rounding times |a'| ~ d^{-1/2} would move them by 1.4e-13 there.
INTERVAL_OFFSETS = _mirror_pairs(np.array([1e-6, 1e-4, 1e-3, 0.04, 0.19, 0.37, 0.5]))


def _pairs(*sets):
    """The exact mirror pairs of the offsets s <= 1/2 of ``sets``."""
    s = np.concatenate(sets)
    return _mirror_pairs(s[s <= 0.5])


def _oracle_rows(n):
    """Rows j checked against the oracle: all of them up to n = 12, else the ends and the middle."""
    if n <= 12:
        return list(range(2 * n))
    return [0, 1, 2, n - 1, n, n + 1, 2 * n - 2, 2 * n - 1]


@pytest.mark.parametrize("n", INTERVAL_ORDERS)
def test_interval_points_match_the_oracle_at_the_exact_parameter(n):
    # a(t) at t = (j + s) pi/n exactly, from mpmath's general 2F1 with 30 digits;
    # z^{2n} = e^{2 i s pi} for every j, so each offset needs one pair of 2F1 values
    import mpmath as mp

    rows = _oracle_rows(n)
    with mp.workdps(30):
        x = mp.mpf(1) / (2 * n)
        parts = {}
        for s in INTERVAL_OFFSETS.tolist():
            w = mp.expjpi(2 * mp.mpf(s))
            fa = mp.hyp2f1(0.5, x, 1 + x, w)
            fc = mp.hyp2f1(0.5, 0.5 - x, 1.5 - x, w)
            for j in rows:
                z = mp.expjpi((j + mp.mpf(s)) / n)
                parts[j, s] = z * fa, z ** (n - 1) / (n - 1) * fc
        for beta in INTERVAL_PHASES:
            got = interval_points(RosetteParams(n, beta), INTERVAL_OFFSETS)
            rot = mp.expj(mp.mpf(beta) / 2)
            for j in rows:
                for k, s in enumerate(INTERVAL_OFFSETS.tolist()):
                    hv, gv = parts[j, s]
                    want = rot * hv + mp.conj(gv) / rot
                    assert abs(got[j, k + 1] - want) < 2e-14, (beta, j, s)


@pytest.mark.parametrize("n", INTERVAL_ORDERS)
def test_interval_points_agree_with_boundary_points(n):
    offsets = _pairs(INTERVAL_OFFSETS, interval_offsets(16))
    ts = (np.arange(2 * n)[:, None] + offsets) * (PI / n)
    for beta in INTERVAL_PHASES:
        p = RosetteParams(n, beta)
        got = interval_points(p, offsets)
        assert got.shape == (2 * n, offsets.size + 1)
        assert np.abs(got[:, 1:] - boundary_points(p, ts.ravel()).reshape(ts.shape)).max() < 1e-12


@pytest.mark.parametrize("n", INTERVAL_ORDERS)
def test_interval_points_columns_do_not_depend_on_the_batch(n):
    # a pair's two columns are the two-offset call's, 1/2 alone its own mirror
    offsets = _pairs(INTERVAL_OFFSETS, interval_offsets(64))
    middle = offsets.size // 2
    for beta in INTERVAL_PHASES:
        p = RosetteParams(n, beta)
        full = interval_points(p, offsets)
        for k in [*range(0, middle, 7), middle]:
            pair = np.unique(offsets[[k, -1 - k]])
            got = interval_points(p, pair)
            assert np.array_equal(full[:, [k + 1, offsets.size - k]], got[:, [1, -1]])


@pytest.mark.parametrize("n", INTERVAL_ORDERS)
def test_interval_points_selected_rows_are_the_full_arrays_rows(n):
    offsets = _pairs(INTERVAL_OFFSETS, interval_offsets(64))
    picks = (slice(0, None, 2), slice(1, None, 2), slice(0, 2), [2 * n - 1, 0, n], [])
    for beta in INTERVAL_PHASES:
        p = RosetteParams(n, beta)
        full = interval_points(p, offsets)
        for rows in picks:
            got = interval_points(p, offsets, js=rows)
            assert got.shape == full[rows].shape
            assert np.array_equal(got, full[rows])


@pytest.mark.parametrize("n", [3, 5, 96])
@pytest.mark.parametrize("beta", [0.3, PI / 2, 3 * PI / 2])
def test_interval_points_lead_each_row_with_its_exact_feature_value(n, beta):
    # column 0 is a(j pi/n) from the rotation laws, bit for bit, whatever the offsets
    p = RosetteParams(n, beta)
    exact = feature_values(p)
    for js in (slice(None), slice(1, None, 2), [2 * n - 1, 0]):
        got = interval_points(p, np.array([0.25, 0.5, 0.75]), js=js)
        assert np.array_equal(got[:, 0], exact[np.arange(2 * n)[js]])
    assert interval_points(p, np.array([]), js=[2]).tolist() == [[exact[2]]]


@pytest.mark.parametrize("n", [3, 5, 96])
@pytest.mark.parametrize("beta", [0.3, PI / 2])
def test_interval_points_carry_the_mirror_offset_by_the_reflection_law(n, beta):
    # the pair of 0.3 beside 1/2, its own mirror: the series runs at s = 0.3 on the 2^-53
    # grid, and the value at 1 - s is a(t) at t = (j + 1 - s) pi/n
    import mpmath as mp

    p, rows = RosetteParams(n, beta), _oracle_rows(n)
    batch = _mirror_pairs(np.array([0.3, 0.5]))
    got = interval_points(p, batch)
    assert np.array_equal(got[:, [1, 3]], interval_points(p, batch[[0, 2]])[:, 1:])
    assert np.array_equal(got[:, 2], interval_points(p, batch[1:2])[:, 1])
    with mp.workdps(30):
        x = mp.mpf(1) / (2 * n)
        u = 1 - mp.mpf(batch[0])
        w = mp.expjpi(2 * u)
        fa, fc = mp.hyp2f1(0.5, x, 1 + x, w), mp.hyp2f1(0.5, 0.5 - x, 1.5 - x, w)
        rot = mp.expj(mp.mpf(beta) / 2)
        for j in rows:
            z = mp.expjpi((j + u) / n)
            want = rot * z * fa + mp.conj(z ** (n - 1) / (n - 1) * fc) / rot
            assert abs(got[j, 3] - want) < 2e-14, j


def _reference_interval_points(params, offsets, js=slice(None)):
    """interval_points as it took any offsets: the series at each distinct min(s, 1 - s) by
    bit pattern, each s in (1/2, 1] carried from 1 - s by the reflection law."""
    n = params.n
    s = np.ravel(np.asarray(offsets, dtype=float))
    upper = (s > 0.5) & (s <= 1.0)
    x = np.where(upper, 1.0 - s, s)
    bits = x.view(np.int64)
    order = np.argsort(bits, kind="stable")
    first = np.ones(x.size, dtype=bool)
    first[1:] = bits[order[1:]] != bits[order[:-1]]
    inverse = np.empty(x.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    keys = x[order[first]]
    hz, gz = (part[inverse] for part in parts_many(params, np.exp(1j * (keys * (PI / n)))))
    w1 = cmath.exp(1j * PI / n)
    hz[upper] = np.multiply(w1, np.conj(hz[upper]))
    gz[upper] = np.multiply(-w1.conjugate(), np.conj(gz[upper]))
    j = np.arange(2 * n)[js]
    omega = np.exp(1j * (j * PI / n))[:, None]
    odd = j % 2 == 1
    out = np.empty((j.size, s.size + 1), dtype=complex)
    out[:, 0] = feature_values(params)[j]
    out[~odd, 1:] = np.multiply(omega[~odd], combine_parts(params.beta, hz, gz))
    out[odd, 1:] = np.multiply(omega[odd], combine_parts(params.beta, hz, -gz))
    return out


@pytest.mark.parametrize("n", [3, 5, 12, 96])
@pytest.mark.parametrize("beta", [0.3, -1.2, PI / 2, 3 * PI / 2])
def test_interval_points_on_pairs_are_the_distinct_offsets_path_bit_for_bit(n, beta):
    p = RosetteParams(n, beta)
    builders = [interval_offsets(FIGURE_PER_INTERVAL), interval_offsets(512),
                _mirror_pairs(interval_offsets(FIGURE_PER_INTERVAL) / 2),
                _mirror_pairs(interval_offsets(512) / 2),
                _mirror_pairs((np.arange(384) + 0.5) / 768), np.array([0.5]), np.array([])]
    shift = half_pi_shift(beta)  # the features' intervals: all 2n, or the n nodes'
    features = slice(None) if shift is None else slice(shift % 2, None, 2)
    for offsets in builders:
        for js in (slice(None), features, slice(0, 3)):
            want = _reference_interval_points(p, offsets, js)
            assert interval_points(p, offsets, js).tobytes() == want.tobytes()


@pytest.mark.parametrize("offsets", [
    [0.7], [0.3], [0.3, 0.7], [0.75, 0.25], [0.25, 0.75, 0.5], [0.25, 0.5, 0.5, 0.75],
    [0.25, 0.4, 0.75], [0.0, 1.0], [-0.25, 1.25], [[0.25, 0.75]], [0.25, math.nan, 0.75],
    interval_offsets(16)[::-1],
], ids=["0.7", "0.3", "inexact-mirror", "unsorted", "unsorted-middle", "repeated",
        "unpaired-middle", "ends", "outside", "2-D", "nan", "reversed-grid"])
def test_interval_points_refuse_offsets_that_are_not_exact_mirror_pairs(offsets):
    with pytest.raises(DomainError, match="interval offsets"):
        interval_points(RosetteParams(5, 0.3), offsets)


def _assert_exact_mirror_pairs(s: np.ndarray) -> None:
    # sorted offsets s whose mirrors 1 - s are exact and in the set, so that interval_points
    # runs the series once per pair: 1 - (1 - s) gives s back, bit for bit
    assert np.all(np.diff(s) > 0) and 0.0 < s[0] and s[-1] < 1.0
    assert np.array_equal(1.0 - s[::-1], s)
    assert np.array_equal(1.0 - (1.0 - s), s)


@pytest.mark.parametrize("per_interval,bands", [(96, 19), (320, 64), (512, 102), (683, 136)])
def test_interval_offsets_come_in_exact_mirror_pairs(per_interval, bands):
    s = interval_offsets(per_interval)
    assert s.size == per_interval + 2 * bands
    _assert_exact_mirror_pairs(s)


@pytest.mark.parametrize("build,params,size", [
    (rotated_copies, RosetteParams(5, 0.3), 768),
    (rotated_copies, RosetteParams(12, 3 * PI / 2), 768),
    (boundary_polyline, RosetteParams(5, PI / 2), 2 * (512 + 2 * 102)),
    (lambda p: boundary_polyline(p, FIGURE_PER_INTERVAL), RosetteParams(6, -PI / 2),
     2 * (96 + 2 * 19)),
], ids=["copies-arc", "copies-arc-3pi/2", "half-speed-512", "half-speed-96"])
def test_the_copies_arc_and_the_half_speed_grid_come_in_exact_mirror_pairs(
        build, params, size, monkeypatch):
    seen, real = [], boundary.interval_points

    def spy(params, offsets, js=slice(None)):
        seen.append(np.asarray(offsets))
        return real(params, offsets, js)

    monkeypatch.setattr(boundary, "interval_points", spy)
    build(params)
    (s,) = seen
    assert s.size == size
    _assert_exact_mirror_pairs(s)


@pytest.mark.parametrize("n", [3, 5, 96])
def test_rotated_copies_send_half_the_arc_through_the_series(series_points, n):
    # 599 radii and one point per mirror pair of the 768 arc offsets; the feature argument 1
    # takes endpoint_values' closed forms, no pass
    rotated_copies(RosetteParams(n, 0.3))
    assert sorted(series_points) == [384, 599]


def test_rotated_copies_share_the_one_fundamental_polyline():
    # n prefactors and one polyline: at n = 200 the n stored products held 8.4 MB
    p = RosetteParams(200, 0.3)
    tracemalloc.start()
    try:
        copies = rotated_copies(p)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(copies) == 200 and held < 1 << 20
    for q in (p, RosetteParams(5, -1.2), RosetteParams(12, 3 * PI / 2)):
        base = rotated_copies(q)[0].fundamental
        for copy in rotated_copies(q) if q is not p else copies:
            assert copy.polyline.tobytes() == (copy.prefactor * base).tobytes()


@pytest.mark.parametrize("n", [3, 4, 5, 12, 96])
@pytest.mark.parametrize("beta", [0.0, 0.3, -1.2, PI / 2, -PI / 2 + 5e-10, 3 * PI / 2, 7.5])
def test_builders_close_their_polylines_bit_for_bit(n, beta):
    # verify winds probes around these polylines as built, with no ensure_closed: the last
    # vertex is the first, bits and all (the fundamental polyline ended at -0+0j, not 0j)
    p = RosetteParams(n, beta)
    full = max(320, -(-4096 // (2 * n)))  # univalence_scan's default, the full level's
    polys = [boundary_polyline(p, per) for per in (FIGURE_PER_INTERVAL, full)]
    for poly in polys + [rotated_copies(p)[0].fundamental]:
        assert poly[-1].tobytes() == poly[0].tobytes()


def test_interval_offsets_are_sorted_and_inside_the_interval():
    s = interval_offsets(512)
    assert s.size == 512 + 2 * 102
    assert np.all(np.diff(s) > 0) and 0.0 < s[0] and s[-1] < 1.0

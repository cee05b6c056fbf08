import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rosette.series as series
from rosette import (
    DomainError,
    MapValue,
    RosetteError,
    RenderSpec,
    RosetteParams,
    SeriesKind,
    SeriesSpec,
    SingularPoint,
    boundary_points,
    canonical_rotation,
    central_binomials,
    classify_singular_point,
    count_self_intersections,
    curve_samples,
    dilatation,
    endpoint_values,
    extract_features,
    f,
    f_many,
    g_many,
    gamma_real,
    h_many,
    hypocycloid,
    integral_oracle,
    jacobian,
    reduce_beta,
    render_svg,
    scale_constant,
    separation_angle,
    total_curvature,
    total_curvature_numeric,
    winding_number,
    winding_numbers,
)
import rosette.maps as maps
from rosette.boundary import feature_values
from rosette.maps import (
    EPS_DOMAIN,
    combine_parts,
    derivative_parts,
    dg_many,
    dh_many,
    integer_power,
    parts_many,
)
from rosette.series import eval_families_many

PI = math.pi


def disk_points(seed=0, count=50, r_max=0.95):
    rng = np.random.default_rng(seed)
    return r_max * np.sqrt(rng.uniform(0, 1, count)) * np.exp(
        1j * rng.uniform(0, 2 * PI, count)
    )


# --- parts --------------------------------------------------------------------


def test_h_at_origin_and_one():
    p = RosetteParams(6, 0.0)
    assert h_many(p, [0.0])[0] == 0.0
    assert h_many(p, [1.0])[0].real == pytest.approx(scale_constant(6), abs=1e-12)


def test_h_ray_collinearity():
    p = RosetteParams(5, 0.0)
    for j in (1, 2, 7):
        rot = cmath.exp(1j * j * PI / 5)
        for r in (0.3, 0.8, 0.99):
            assert h_many(p, [r * rot])[0] == pytest.approx(rot * h_many(p, [r])[0], abs=1e-12)
            assert cmath.phase(h_many(p, [r * rot])[0]) == pytest.approx(
                cmath.phase(rot), abs=1e-12
            )


def test_g_values():
    p = RosetteParams(6, 0.0)
    assert g_many(p, [0.0])[0] == 0.0
    expect = math.tan(PI / 12) * scale_constant(6)
    assert g_many(p, [1.0])[0].real == pytest.approx(expect, abs=1e-12)


def test_g_rotation_law():
    p = RosetteParams(4, 0.0)
    for j in (1, 2, 3):
        rot = cmath.exp(1j * j * PI / 4)
        z = 0.7 * cmath.exp(0.3j)
        expect = (-1) ** j / rot * g_many(p, [z])[0]
        assert g_many(p, [rot * z])[0] == pytest.approx(expect, abs=1e-12)


def test_f_structure_and_magnitude_at_one():
    for n, beta in ((6, 0.0), (5, 0.7), (3, PI / 2)):
        p = RosetteParams(n, beta)
        val = f(p, 0.0)
        assert isinstance(val, MapValue)
        assert val.f == val.h + val.gbar
        assert val.f == 0.0
        tn = math.tan(PI / (2 * n))
        expect = scale_constant(n) * math.sqrt(1 / math.cos(PI / (2 * n)) ** 2 + 2 * tn * math.cos(beta))
        assert abs(f(p, 1.0).f) == pytest.approx(expect, abs=1e-12)


def test_f_reflection_pairs_with_negated_phase():
    p_pos = RosetteParams(5, 0.6)
    p_neg = RosetteParams(5, -0.6)
    for z in disk_points(seed=2, count=10):
        assert f(p_pos, np.conj(z)).f == pytest.approx(
            complex(np.conj(f(p_neg, z).f)), abs=1e-12
        )


# --- derivatives ---------------------------------------------------------------


def test_derivatives_at_origin():
    p = RosetteParams(6, 0.0)
    assert dh_many(p, [0.0])[0] == 1.0
    assert dg_many(p, [0.0])[0] == 0.0


def test_dilatation_is_exact_power():
    z = 0.3 + 0.2j
    for n in (3, 5, 8):
        p = RosetteParams(n, 0.9)
        assert dg_many(p, [z])[0] / dh_many(p, [z])[0] == pytest.approx(z ** (n - 2), rel=1e-13)
        assert dilatation(p, z) == z ** (n - 2)
    assert dilatation(RosetteParams(3, 0.0), 0.0) == 0.0
    on_circle = cmath.exp(0.83j)
    assert abs(dilatation(RosetteParams(7, 0.0), on_circle)) == pytest.approx(1.0, abs=1e-15)
    assert abs(dilatation(RosetteParams(7, 0.0), 0.99 * on_circle)) < 1.0


def test_jacobian_values_and_positivity():
    p = RosetteParams(3, 0.0)
    assert jacobian(p, 0.0) == 1.0
    direct = abs(dh_many(p, [0.5])[0]) ** 2 - abs(dg_many(p, [0.5])[0]) ** 2
    assert jacobian(p, 0.5) == pytest.approx(direct, rel=1e-13)
    for z in disk_points(seed=3, count=200, r_max=0.999):
        assert jacobian(p, complex(z)) > 0.0


def test_jacobian_vanishes_toward_circle():
    p = RosetteParams(5, 0.0)
    ray = cmath.exp(1j * 0.4)  # not a 2n-th root of unity direction
    vals = [jacobian(p, r * ray) for r in (0.9, 0.99, 0.999, 0.9999)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3


def test_derivatives_refuse_points_outside_the_disk():
    p = RosetteParams(5, 0.3)
    for z in (2.0, 1.0 + 2 * EPS_DOMAIN, 1j * (1.0 + 2 * EPS_DOMAIN)):
        for batch in (dh_many, dg_many):
            with pytest.raises(DomainError):
                batch(p, [0.5, z])
        with pytest.raises(DomainError):
            jacobian(p, z)


NAN_POINTS = (complex(math.nan, 0.0), complex(0.5, math.nan))


@pytest.mark.parametrize("z", NAN_POINTS, ids=["nan", "half-plus-nan-j"])
@pytest.mark.parametrize("evaluate", [f_many, h_many, g_many, parts_many, dh_many, dg_many,
                                      f, jacobian], ids=lambda fn: fn.__name__)
def test_a_nan_argument_is_a_domain_error(evaluate, z):
    # a NaN value would break the contract: within the tolerance, or an exception
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            evaluate(RosetteParams(5, 0.3), [0.5, z] if evaluate.__name__.endswith("_many") else z)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_a_non_finite_phase_is_a_domain_error(beta):
    # refused where it enters, before any evaluation could return NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            RosetteParams(5, beta)
        with pytest.raises(DomainError):
            reduce_beta(beta)


def test_derivatives_take_points_within_the_slack_as_they_are():
    # no projection onto the circle: the closed forms at the given point
    p = RosetteParams(5, 0.3)
    z = (1.0 + 0.5 * EPS_DOMAIN) * cmath.exp(0.4j)
    root = 1.0 / np.sqrt(1.0 - np.array([z]) ** 10)
    assert dh_many(p, [z])[0] == root[0]
    assert dg_many(p, [z])[0] == (z**3 * root)[0]
    assert jacobian(p, z) == (1.0 - abs(z) ** 6) / abs(1.0 - z**10)


def test_singular_point_guard():
    p = RosetteParams(4, 0.0)
    with pytest.raises(SingularPoint):
        dh_many(p, [1.0])
    with pytest.raises(SingularPoint):
        jacobian(p, cmath.exp(1j * PI / 4))


# --- hypocycloid ----------------------------------------------------------------


def test_hypocycloid_values():
    assert hypocycloid(5, 0.0) == 0.0
    for n in (3, 5, 8):
        for k in range(n):
            z = cmath.exp(2j * PI * k / n)
            assert hypocycloid(n, z) == pytest.approx(n / (n - 1) * z, abs=1e-14)
    assert hypocycloid(4, 0.37).imag == 0.0


# --- phase algebra ----------------------------------------------------------------


def test_reduce_beta_examples():
    assert reduce_beta(PI / 2) == (PI / 2, 0)
    beta, l = reduce_beta(PI)
    assert beta == pytest.approx(0.0, abs=1e-15) and l == 1
    beta, l = reduce_beta(-3 * PI / 4)
    assert beta == pytest.approx(PI / 4, rel=1e-15) and l == -1
    beta, l = reduce_beta(-PI / 2)
    assert beta == pytest.approx(PI / 2, rel=1e-15) and l == -1


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-50.0, max_value=50.0))
def test_reduce_beta_roundtrip(beta_tilde):
    beta, l = reduce_beta(beta_tilde)
    assert -PI / 2 < beta <= PI / 2 + 1e-15
    assert beta + l * PI == pytest.approx(beta_tilde, abs=1e-12)


@pytest.mark.parametrize("beta", [1e17, -1e17, math.nextafter(maps.BETA_LIMIT, math.inf),
                                  -math.nextafter(maps.BETA_LIMIT, math.inf)])
def test_a_phase_past_the_limit_is_a_domain_error(beta):
    # reduce_beta(1e17) was (0.0, 31830988618379068): past |beta| ~ 1e16 the reduction
    # keeps nothing.  RosetteParams(5, 1e17) itself was accepted, so f_many, parts_many and
    # f computed with it, and the boundary functions each had to refuse it on their own.
    with pytest.raises(DomainError, match="phase"):
        reduce_beta(beta)
    with pytest.raises(DomainError, match="phase"):
        RosetteParams(5, beta)
    for edge in (maps.BETA_LIMIT, -maps.BETA_LIMIT):
        assert RosetteParams(5, edge).beta == edge


@pytest.mark.parametrize("beta", [maps.BETA_LIMIT, -maps.BETA_LIMIT])
def test_the_phase_limit_itself_is_reduced(beta):
    base, shifts = reduce_beta(beta)
    assert -PI / 2 < base <= PI / 2 and base + shifts * PI == pytest.approx(beta, abs=1e-12)
    assert len(extract_features(RosetteParams(5, beta)).features) == 10


def test_canonical_rotation_examples():
    assert canonical_rotation(0.0, 0.0) == (0.0, 0.0)
    gamma, beta = canonical_rotation(0.9, 0.9)
    assert gamma == 0.0 and beta == pytest.approx(1.8)  # full relative phase
    gamma, beta = canonical_rotation(PI / 3, -PI / 6)
    assert gamma == pytest.approx(PI / 4, rel=1e-15)
    assert beta == pytest.approx(PI / 6, rel=1e-15)


def test_canonical_rotation_identity_pointwise():
    theta, theta_t = 0.8, -0.3
    gamma, beta = canonical_rotation(theta, theta_t)
    p = RosetteParams(5, beta)
    flat = RosetteParams(5, 0.0)
    for z in disk_points(seed=4, count=8):
        z = complex(z)
        combo = cmath.exp(1j * theta) * h_many(flat, [z])[0] + (
            cmath.exp(1j * theta_t) * g_many(flat, [z])[0]
        ).conjugate()
        assert combo == pytest.approx(cmath.exp(1j * gamma) * f(p, z).f, abs=1e-12)


# --- global identities -------------------------------------------------------------


def test_rotational_symmetry_pointwise():
    p = RosetteParams(6, 0.3)
    z = disk_points(seed=5, count=40)
    for k in (1, 2, 5):
        rot = cmath.exp(2j * PI * k / 6)
        assert np.abs(f_many(p, rot * z) - rot * f_many(p, z)).max() < 1e-11


def test_half_turn_image_rotation():
    n = 4
    p = RosetteParams(n, 0.25)
    shifted = RosetteParams(n, 0.25 + PI)
    pre = cmath.exp(-1j * (PI / 2 + PI / n))
    z = disk_points(seed=6, count=40)
    lhs = f_many(p, z)
    rhs = pre * f_many(shifted, cmath.exp(1j * PI / n) * z)
    assert np.abs(lhs - rhs).max() < 1e-11


def test_beta_zero_real_axis_reflection():
    p = RosetteParams(5, 0.0)
    z = disk_points(seed=7, count=40)
    assert np.abs(f_many(p, np.conj(z)) - np.conj(f_many(p, z))).max() < 1e-12


def test_order_validation():
    # an order is an integer (what operator.index accepts) of the stated minimum, checked
    # where it enters; the parent took RosetteParams(3.5, 0.3) and evaluated f for it
    bad = [lambda: RosetteParams(2, 0.0), lambda: RosetteParams(3.5, 0.3),
           lambda: RosetteParams(5.0, 0.3), lambda: RosetteParams("5", 0.3),
           lambda: hypocycloid(2, 0.5), lambda: hypocycloid(4.5, 0.5),
           lambda: endpoint_values(1), lambda: endpoint_values(2.5),
           lambda: SeriesSpec(SeriesKind.ANALYTIC, 1), lambda: SeriesSpec(SeriesKind.COANALYTIC, 6.0),
           lambda: eval_families_many([SeriesSpec(k, n) for k, n in zip(SeriesKind, (5, 6))], [0.5])]
    for build in bad:
        with pytest.raises(DomainError):
            build()
    assert issubclass(DomainError, ValueError)  # for callers that catch ValueError
    assert RosetteParams(np.int64(5), 0.3) == RosetteParams(5, 0.3)
    assert endpoint_values(np.int32(2)) == endpoint_values(2)


def test_vectorized_parts_match_scalars():
    p = RosetteParams(7, 1.1)
    z = disk_points(seed=8, count=12)
    hs = h_many(p, z)
    gs = g_many(p, z)
    for i, zi in enumerate(z):
        assert hs[i] == pytest.approx(h_many(p, [complex(zi)])[0], abs=1e-14)
        assert gs[i] == pytest.approx(g_many(p, [complex(zi)])[0], abs=1e-14)


@pytest.mark.parametrize("n", [3, 6, 96, 500])
def test_batched_map_equals_one_point_calls_bit_for_bit(n):
    # 20000 points, interior (|z| < 1) and on the circle alternately: a batch this
    # large makes numpy reuse its temporaries in place, which one-point calls never do
    rng = np.random.default_rng(n)
    r = np.where(np.arange(20000) % 2 == 0, 0.999 * np.sqrt(rng.uniform(0, 1, 20000)), 1.0)
    z = r * np.exp(1j * rng.uniform(0, 2 * PI, 20000))
    p = RosetteParams(n, 0.7)
    batch = f_many(p, z)
    picks = 2 * rng.choice(10000, 300, replace=False) + np.arange(300) % 2  # 150 of each
    singles = np.array([f_many(p, z[i : i + 1])[0] for i in picks])
    assert np.array_equal(batch[picks], singles)


def closed_disk_points(n, seed=0):
    """z in the disk, on the circle, within 1e-9 of the 2n singular parameters j pi/n,
    and exactly 1."""
    rng = np.random.default_rng(seed + n)
    t = rng.uniform(0, 2 * PI, 300)
    seams = np.arange(2 * n) * (PI / n)
    return np.concatenate([
        0.999 * np.sqrt(rng.uniform(0, 1, 300)) * np.exp(1j * t),
        np.exp(1j * t),
        np.exp(1j * (seams[:, None] + np.array([-1e-9, -1e-13, 0.0, 1e-13, 1e-9]))).ravel(),
        (1 - 1e-9) * np.exp(1j * seams),
        [1.0],
    ])


@pytest.mark.parametrize("n", [3, 4, 7, 96, 500])
# the direct sum's 64 terms, and 32, which moves its seam; the ids keep the test names stable
@pytest.mark.parametrize("direct_terms", [64, 32], ids=["policy0", "policy1"])
def test_shared_parts_match_the_separate_calls_bit_for_bit(n, direct_terms, monkeypatch):
    monkeypatch.setattr(series, "_DIRECT_TERMS", direct_terms)
    z = closed_disk_points(n)
    p = RosetteParams(n, 0.7)
    hz, gz = parts_many(p, z)
    assert hz.tobytes() == h_many(p, z).tobytes()
    assert gz.tobytes() == g_many(p, z).tobytes()
    for beta in (0.7, -0.7, 0.0, PI / 2, 0.7 + 3 * PI):
        q = RosetteParams(n, beta)
        assert f_many(q, z).tobytes() == combine_parts(beta, hz, gz).tobytes(), beta
    picks = np.random.default_rng(n).choice(z.size, 40, replace=False).tolist() + [z.size - 1]
    for i in picks:
        h1, g1 = parts_many(p, z[i : i + 1])
        assert (h1[0], g1[0]) == (hz[i], gz[i]), i


def bits(z: complex) -> tuple:
    return np.array([z.real, z.imag]).view(np.uint64).tolist()


def test_f_at_one_takes_the_closed_forms_that_the_series_pass_gives(monkeypatch):
    # h(1) = F_a(1) and g(1) = fl(fl(1/(n-1)) F_c(1)), imaginary parts +0, with no pass
    orders = [*range(3, 200), 500, 1000, 2000, 10**4, 10**5]
    at_one = {n: [complex(v[0]) for v in parts_many(RosetteParams(n, 0.0), [1.0])]
              for n in orders}
    monkeypatch.setattr(maps, "eval_families_many", None)  # a series pass would raise
    for n, (h1, g1) in at_one.items():
        ends = endpoint_values(n)
        assert bits(h1) == bits(complex(ends.analytic_at_one, 0.0)), n
        assert bits(g1) == bits(complex(1.0 / (n - 1) * ends.coanalytic_at_one, 0.0)), n
        for beta in (0.0, 0.3, -2.5):
            rot = cmath.exp(0.5j * beta)
            for z in (1.0, 1, complex(1.0, -0.0), np.float64(1.0)):
                got = f(RosetteParams(n, beta), z)
                want = [bits(rot * h1), bits(g1.conjugate() / rot)]
                assert [bits(got.h), bits(got.gbar)] == want, (n, beta, z)


def test_feature_values_make_no_series_pass(series_passes):
    for n, beta in ((3, 0.3), (5, PI / 2), (96, -1.2), (2000, 3 * PI / 2)):
        feature_values(RosetteParams(n, beta))
    assert series_passes == []


def test_f_takes_both_summands_from_one_series_pass(monkeypatch):
    passes = []
    for name in ("eval_families_many", "eval_series_many"):
        real = getattr(maps, name)
        monkeypatch.setattr(maps, name, lambda *a, real=real: passes.append(a) or real(*a))
    for z in (0.0, 1.0, 0.3 - 0.8j, cmath.exp(0.4j), *disk_points(seed=9, count=8)):
        for n, beta in ((3, 0.7), (5, -1.2), (96, PI / 2), (7, 0.3 + 2 * PI)):
            p = RosetteParams(n, beta)
            passes.clear()
            got = f(p, z)
            assert len(passes) == (0 if z == 1.0 else 1)  # at 1, endpoint_values' closed forms
            # the summands as the one-part-a-pass form gave them, bit for bit
            rot = cmath.exp(0.5j * beta)
            hz, gz = complex(h_many(p, [z])[0]), complex(g_many(p, [z])[0])
            assert (got.h, got.gbar) == (rot * hz, gz.conjugate() / rot), (n, z)


@pytest.mark.parametrize("n", [3, 5, 96, 500])
def test_derivative_parts_match_the_separate_calls_bit_for_bit(n):
    # 20000 points, interior and on the circle alternately, as for f_many above; before
    # 0.9.0, dg_many changed bits past 16384 points from n = 102 on (numpy reused its
    # root factor's temporary with the operands swapped)
    rng = np.random.default_rng(n)
    r = np.where(np.arange(20000) % 2 == 0, 0.999 * np.sqrt(rng.uniform(0, 1, 20000)), 1.0)
    z = r * np.exp(1j * rng.uniform(0, 2 * PI, 20000))
    p = RosetteParams(n, 0.7)
    dh_z, dg_z = derivative_parts(p, z)
    assert dh_z.tobytes() == dh_many(p, z).tobytes()
    assert dg_z.tobytes() == dg_many(p, z).tobytes()
    chunks = [derivative_parts(p, z[i : i + 100]) for i in range(0, z.size, 100)]
    for k, part in enumerate((dh_z, dg_z)):
        assert part.tobytes() == np.concatenate([c[k] for c in chunks]).tobytes()


@pytest.mark.parametrize("z", [2.0, 1.0 + 2 * EPS_DOMAIN, *NAN_POINTS, 1.0, cmath.exp(1j * PI / 5)],
                         ids=["outside", "past-slack", "nan", "half-plus-nan-j", "one", "root"])
def test_derivative_parts_refuse_what_dh_many_refuses(z):
    p = RosetteParams(5, 0.3)
    with pytest.raises(RosetteError) as want:
        dh_many(p, [0.5, z])
    with pytest.raises(RosetteError) as got:
        derivative_parts(p, [0.5, z])
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_endpoint_helper_matches_parts():
    ev = endpoint_values(9)
    p = RosetteParams(9, 0.0)
    assert h_many(p, [1.0])[0].real == pytest.approx(ev.analytic_at_one, abs=1e-12)
    assert g_many(p, [1.0])[0].real == pytest.approx(ev.coanalytic_at_one / 8.0, abs=1e-12)


def test_maps_domain_guard():
    import pytest as _pytest
    from rosette import DomainError
    p = RosetteParams(5, 0.0)
    with _pytest.raises(DomainError):
        h_many(p, [1.5])
    # slack absorbs boundary-point rounding
    assert abs(h_many(p, [1.0 + 5e-10])[0] - h_many(p, [1.0])[0]) < 1e-12


def test_full_map_against_arbitrary_precision_twin():
    # independent reconstruction of f through mpmath's general 2F1
    import mpmath as mp

    def reference(n, beta, z):
        with mp.workdps(30):
            w = mp.mpmathify(z) ** (2 * n)
            hv = mp.mpmathify(z) * mp.hyp2f1(0.5, 1 / (2 * n), 1 + 1 / (2 * n), w)
            gv = mp.mpmathify(z) ** (n - 1) / (n - 1) * mp.hyp2f1(
                0.5, 0.5 - 1 / (2 * n), 1.5 - 1 / (2 * n), w
            )
            val = mp.exp(0.5j * beta) * hv + mp.exp(-0.5j * beta) * mp.conj(gv)
            return complex(val)

    rng = np.random.default_rng(17)
    for n, beta in ((3, 0.4), (6, -1.2), (5, PI / 2), (4, 2.9)):
        p = RosetteParams(n, beta)
        pts = list(0.98 * np.sqrt(rng.uniform(0, 1, 6)) * np.exp(1j * rng.uniform(0, 2 * PI, 6)))
        pts += [cmath.exp(1j * 0.71), cmath.exp(1j * (PI / n + 0.02)), 1.0 + 0.0j]
        for z in pts:
            got = f(p, complex(z)).f
            assert abs(got - reference(n, beta, complex(z))) < 5e-12


def test_batched_map_and_derivatives_against_arbitrary_precision_twin():
    # 2048-point batches through the direct sum, checked at the largest |z|
    # (most terms) and at random indices; dh and dg through the contiguous
    # relation F'(w) = (ab/c) 2F1(a+1, b+1; c+1; w), independent of the closed forms
    import mpmath as mp

    def factor_and_slope(a, b, c, w):
        return mp.hyp2f1(a, b, c, w), a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, w)

    def reference(n, beta, z):
        with mp.workdps(30):
            z = mp.mpmathify(z)
            w = z ** (2 * n)
            fa, dfa = factor_and_slope(0.5, 1 / (2 * n), 1 + 1 / (2 * n), w)
            fc, dfc = factor_and_slope(0.5, 0.5 - 1 / (2 * n), 1.5 - 1 / (2 * n), w)
            hv, gv = z * fa, z ** (n - 1) / (n - 1) * fc
            val = mp.exp(0.5j * beta) * hv + mp.exp(-0.5j * beta) * mp.conj(gv)
            dhv = fa + 2 * n * w * dfa
            dgv = z ** (n - 2) * (fc + 2 * n * w / (n - 1) * dfc)
            return complex(val), complex(dhv), complex(dgv)

    rng = np.random.default_rng(23)
    for n in (3, 6, 24, 96, 500):
        p = RosetteParams(n, 0.7)
        z = 0.99 * np.sqrt(rng.uniform(0, 1, 2048)) * np.exp(1j * rng.uniform(0, 2 * PI, 2048))
        got = f_many(p, z), dh_many(p, z), dg_many(p, z)
        picks = np.concatenate([np.argsort(np.abs(z))[-4:], rng.choice(2048, 6, replace=False)])
        for i in picks:
            for value, ref in zip((part[i] for part in got), reference(n, 0.7, complex(z[i]))):
                assert abs(value - ref) < 5e-12, (n, z[i])


# --- integer powers ------------------------------------------------------------------


def power_points(seed=0):
    """z in the disk, on the circle, within 1e-12 of it and tiny, 4096 in all."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0, 2 * PI, 4096)
    r = np.concatenate([np.sqrt(rng.uniform(0, 1, 2048)), np.ones(1024),
                        1.0 - 1e-12 * rng.uniform(0, 1, 512), 1e-3 * rng.uniform(0, 1, 512)])
    return r * np.exp(1j * t)


def test_integer_power_is_numpys_power_below_100_bit_for_bit():
    z = power_points()
    for k in range(100):
        assert integer_power(z, k).tobytes() == (z**k).tobytes(), k


@pytest.mark.parametrize("k", [100, 101, 127, 128, 192, 1000, 4000, 100001])
def test_integer_power_is_numpys_power_where_its_modulus_exceeds_half(k):
    # there both are libm's cpow, which holds |w| to about an ulp next to w = 1
    z = power_points(k)
    got, want = integer_power(z, k), z**k
    far = (np.abs(got) > 0.5) | (np.abs(want) > 0.5)
    assert far.sum() >= 1024
    assert got[far].tobytes() == want[far].tobytes()


@pytest.mark.parametrize("k", [100, 192, 1000, 4000])
def test_integer_power_does_not_depend_on_the_batch(k):
    z = power_points(k)[::2]  # 2048 points of every kind
    batch = integer_power(z, k)
    singles = np.array([integer_power(z[i : i + 1], k)[0] for i in range(z.size)])
    assert batch.tobytes() == singles.tobytes()
    assert integer_power(np.asarray(z[0]), k).shape == ()


@pytest.mark.parametrize("k", [100, 192, 1000, 4000])
def test_integer_power_is_within_k_ulp_of_the_exact_power(k):
    # binary exponentiation makes about 2 log2(k) complex products, whose relative errors
    # of at most sqrt(5) 2^-53 each compound to at most (k - 1) sqrt(5) 2^-53 < 2 k eps;
    # checked where |z^k| lies between 2^-900 (no underflow on the way) and 1/2
    import mpmath as mp

    rng = np.random.default_rng(k)
    log_mod = rng.uniform(-900 * math.log(2), math.log(0.5), 200)
    z = np.exp(log_mod / k) * np.exp(1j * rng.uniform(0, 2 * PI, 200))
    got = integer_power(z, k)
    bound = 2 * k * np.finfo(float).eps
    with mp.workdps(40):
        for zi, gi in zip(z.tolist(), got.tolist()):
            exact = mp.mpc(zi) ** k
            assert abs(mp.mpc(gi) - exact) <= bound * abs(exact), (k, zi)


# --- arguments outside the domain --------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda: series.coeff(SeriesSpec(SeriesKind.ANALYTIC, 5), -1),
    lambda: series.coeff(SeriesSpec(SeriesKind.ANALYTIC, 5), 1.5),
    lambda: series.tail_bound(SeriesSpec(SeriesKind.ANALYTIC, 5), 3, math.nan),
    lambda: series.tail_bound(SeriesSpec(SeriesKind.ANALYTIC, 5), 3, -0.5),
    lambda: dilatation(RosetteParams(5, 0.3), math.nan),
    lambda: dilatation(RosetteParams(5, 0.3), complex(0.5, math.nan)),
    lambda: hypocycloid(5, math.nan),
    lambda: hypocycloid(5, np.array([0.5, complex(math.nan, 0.0)])),
    lambda: RosetteParams(5, "0.3"),
    lambda: RosetteParams(5, 0.3j),
    lambda: reduce_beta("0.3"),
    lambda: series.tail_bound(SeriesSpec(SeriesKind.ANALYTIC, 5), 3, "0.5"),
    lambda: h_many(RosetteParams(5, 0.3), ["a"]),
    lambda: dh_many(RosetteParams(5, 0.3), ["a"]),
    lambda: series.eval_series_many(SeriesSpec(SeriesKind.ANALYTIC, 5), ["a"]),
    lambda: curve_samples(RosetteParams(5, 0.3), ["a"]),
    lambda: SeriesSpec("analytic", 5),
    lambda: hypocycloid(5, ["a"]),
    lambda: total_curvature(RosetteParams(5, 0.3), "a", 1.0),
    lambda: total_curvature_numeric(RosetteParams(5, 0.3), "a", 1.0),
    lambda: dilatation(RosetteParams(5, 0.3), "a"),
    lambda: jacobian(RosetteParams(5, 0.3), "a"),
    lambda: winding_number([0, 1, 1j, 0], "a"),
    lambda: separation_angle(RosetteParams(5, 0.3), "x"),
    lambda: winding_numbers([0, 1, 1j, 0], [0.2 + 0.2j], "a"),
    lambda: winding_number([0, 1, 1j, 0], 0.2 + 0.2j, "a"),
    lambda: winding_number([[0, 1], [1j, 0]], 0.2),
    lambda: winding_number("abc", 0.2),
    lambda: count_self_intersections("abc"),
    lambda: integral_oracle(RosetteParams(5, 0.3), "a"),
    lambda: integral_oracle(RosetteParams(5, 0.3), 0.5, "x"),
    lambda: gamma_real("a"),
    lambda: gamma_real(1j),
    lambda: central_binomials(2.5),
    lambda: canonical_rotation("a", 1.0),
    lambda: canonical_rotation(math.nan, 1.0),
    lambda: RenderSpec("x"),
    lambda: render_svg("x"),
    lambda: classify_singular_point(lambda t: "x", 0.0),
    # text where a number goes
    lambda: h_many(RosetteParams(5, 0.3), ["0.5"]),
    lambda: curve_samples(RosetteParams(5, 0.3), ["0.1"]),
    lambda: dilatation(RosetteParams(5, 0.3), "0.5"),
    lambda: winding_number(["0", "1", "1+1j", "1j", "0"], 0.5 + 0.5j),
    lambda: series.tail_bound(SeriesSpec(SeriesKind.ANALYTIC, 5), "3", 0.5),
    # a complex value where a real goes
    lambda: curve_samples(RosetteParams(5, 0.3), np.array([0.1 + 1j])),
    lambda: boundary_points(RosetteParams(5, 0.3), np.array([0.1 + 1j])),
    lambda: total_curvature(RosetteParams(5, 0.3), np.complex128(0.1 + 1j), 0.2),
    lambda: winding_numbers([0, 1, 1j, 0], [0.2 + 0.2j], np.complex128(1e-3 + 1j)),
    # None and other objects
    lambda: RosetteParams(5, Fraction(1, 3)),
    lambda: gamma_real(Fraction(1, 2)),
    # a list where one number goes
    lambda: winding_number([0, 1, 1j, 0], [0.2 + 0.2j, 0.3]),
    lambda: winding_numbers([0, 1, 1j, 0], [0.2 + 0.2j], [1e-3, 1e-3]),
    lambda: integral_oracle(RosetteParams(5, 0.3), [0.1, 0.2]),
    lambda: dilatation(RosetteParams(5, 0.3), [0.1, 0.2]),
    lambda: jacobian(RosetteParams(5, 0.3), [0.1, 0.2]),
    lambda: f(RosetteParams(5, 0.3), [0.1, 0.2]),
    # a curve function that does not give one finite value per parameter, a location
    # that is no finite point
    lambda: classify_singular_point(lambda t: 1.0, 0.0),
    lambda: classify_singular_point(lambda t: np.full(np.shape(t), np.nan), 0.0),
    lambda: classify_singular_point(lambda t: np.exp(1j * t), 0.0, math.nan),
    # a real that is not finite, or a result that overflows
    lambda: winding_numbers([0, 1, 1j, 0], [0.2 + 0.2j], math.inf),
    lambda: series.tail_bound(SeriesSpec(SeriesKind.ANALYTIC, 5), 3, math.inf),
    lambda: gamma_real(171.7),
    lambda: gamma_real(1e308),
    lambda: canonical_rotation(1e308, 1e308),
    # a point off the closed disk
    lambda: dilatation(RosetteParams(5, 0.3), 2.0),
    lambda: hypocycloid(5, 2.0),
    # a spec that is no SeriesSpec, a curve function that is not callable
    lambda: series.coeff("0.5", 1),
    lambda: series.tail_bound("0.5", 1, 0.5),
    lambda: series.eval_series_many("0.5", [0.1]),
    lambda: classify_singular_point("x", 0.0),
], ids=["coeff-negative", "coeff-float", "tail-nan", "tail-negative", "dilatation-nan",
        "dilatation-complex-nan", "hypocycloid-nan", "hypocycloid-array-nan", "phase-string",
        "phase-complex", "reduce-string", "tail-string", "h-string", "dh-string",
        "series-string", "curve-samples-string", "spec-kind-string",
        "hypocycloid-string", "curvature-string", "curvature-numeric-string",
        "dilatation-string", "jacobian-string", "winding-string", "separation-side-string",
        "windings-exclusion-string", "winding-exclusion-string", "winding-2d-curve",
        "winding-curve-string", "crossings-curve-string", "oracle-point-string",
        "oracle-kind-string", "gamma-string", "gamma-complex", "binomials-float",
        "rotation-string", "rotation-nan", "render-spec-params-string", "render-string",
        "classify-curve-string", "h-text", "curve-samples-text", "dilatation-text",
        "winding-curve-text", "tail-index-text", "curve-samples-complex",
        "boundary-points-complex", "curvature-complex", "windings-exclusion-complex",
        "phase-fraction", "gamma-fraction", "winding-probe-list", "windings-exclusion-list",
        "oracle-point-list", "dilatation-list", "jacobian-list", "f-list",
        "classify-scalar-curve", "classify-nan-curve", "classify-nan-location",
        "windings-exclusion-inf", "tail-inf", "gamma-overflow", "gamma-1e308",
        "rotation-overflow", "dilatation-off-disk", "hypocycloid-off-disk", "coeff-spec-string",
        "tail-spec-string", "series-spec-string", "classify-curve-not-callable"])
def test_an_argument_outside_the_domain_is_a_domain_error(call):
    # coeff raised a plain ValueError or a TypeError, the others returned NaN silently; the
    # wrong types raised TypeError (the phases, tail_bound, the kind, the curvature ends,
    # dilatation), ValueError (jacobian), numpy's ValueError (the arrays) or UFuncTypeError
    # (the winding probe); separation_angle gave the cusp-after-node gap for any side
    # that is not NODE_AFTER_CUSP.  Before 0.17.0 an exclusion radius "a" raised
    # UFuncTypeError, a 2-D curve ValueError ("truth value ... ambiguous"), a string curve,
    # oracle point or classified curve ValueError from complex(), gamma_real ValueError or
    # TypeError, central_binomials(2.5) and canonical_rotation("a", 1.0) TypeError,
    # render_svg("x") AttributeError; canonical_rotation(nan, 1.0) returned NaNs, RenderSpec
    # took any params, and integral_oracle took any kind but ANALYTIC as COANALYTIC.  Before
    # 0.18.0 the rows from "h-text" on were taken as numbers or escaped: numpy's TypeError
    # for a list, IndexError for a scalar curve function, OverflowError from gamma_real.
    # Before 0.20.0 a spec that is no SeriesSpec raised AttributeError and a curve function
    # that is not callable TypeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call()

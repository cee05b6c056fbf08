import cmath
import logging
import math
import re
import tracemalloc
import warnings
from math import comb

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anchored_oracle
import rosette.series as series
from rosette.series import eval_families_many
from rosette import (
    DomainError,
    NoConvergence,
    SeriesKind,
    SeriesSpec,
    central_binomials,
    coeff,
    endpoint_values,
    eval_series_many,
    tail_bound,
)

A = SeriesKind.ANALYTIC
C = SeriesKind.COANALYTIC


spec = SeriesSpec


def mp_reference(kind, n, z):
    """Independent oracle: mpmath's general hypergeometric evaluator."""
    with mp.workdps(30):
        if kind is A:
            val = mp.hyp2f1(0.5, 1.0 / (2 * n), 1.0 + 1.0 / (2 * n), mp.mpmathify(z))
        else:
            val = mp.hyp2f1(
                0.5, 0.5 - 1.0 / (2 * n), 1.5 - 1.0 / (2 * n), mp.mpmathify(z)
            )
        return complex(val)


# --- coefficients -------------------------------------------------------------


def test_binomial_factor_recurrence_matches_closed_form():
    a = central_binomials(25)
    for m in range(25):
        assert a[m] == pytest.approx(comb(2 * m, m) / 4.0**m, rel=1e-15)


def test_central_binomials_do_not_depend_on_earlier_calls():
    # a table grown in steps must hold the same values as one built at once
    for count in (3, 7, 30, 100):
        central_binomials(count)
    m = np.arange(1, 200, dtype=float)
    at_once = np.concatenate([[1.0], np.cumprod((2.0 * m - 1.0) / (2.0 * m))])
    assert np.array_equal(central_binomials(200), at_once)


def test_coefficient_examples():
    assert coeff(spec(A, 7), 0) == 1.0
    assert coeff(spec(A, 6), 1) == pytest.approx(1.0 / 26.0, rel=1e-15)
    assert coeff(spec(C, 6), 1) == pytest.approx(5.0 / 34.0, rel=1e-15)


def test_equality_case_n3():
    # c_1 + d_2 = d_1 holds exactly at n = 3
    c1 = coeff(spec(A, 3), 1)
    d1 = coeff(spec(C, 3), 1)
    d2 = coeff(spec(C, 3), 2)
    assert c1 + d2 == pytest.approx(d1, rel=1e-15)


def test_coefficients_positive_and_dominated():
    for n in (3, 5, 10):
        for m in (0, 1, 2, 7, 100, 5000):
            ca = coeff(spec(A, n), m)
            cc = coeff(spec(C, n), m)
            assert ca > 0 and cc > 0
            if m >= 1:
                assert cc > ca  # strict domination for n > 2


def test_coefficients_coincide_at_n2():
    for m in range(40):
        assert coeff(spec(A, 2), m) == pytest.approx(coeff(spec(C, 2), m), rel=1e-15)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SeriesSpec(A, 1)
    with pytest.raises(ValueError):
        coeff(spec(A, 4), -1)


# --- tail bound ----------------------------------------------------------------


def test_tail_bound_dominates_true_tail():
    # the geometric truncation bound must dominate the measured partial tails
    rng = np.random.default_rng(5)
    for kind in (A, C):
        for n in (3, 6, 11):
            s = spec(kind, n)
            for absz in (0.3, 0.8, 0.95, 0.995):
                for m_stop in (10, 200, 3000):
                    ms = np.arange(m_stop + 1, m_stop + 1001)
                    cofs = np.array([coeff(s, int(m)) for m in ms])
                    true_tail = float(np.sum(cofs * absz**ms))
                    assert tail_bound(s, m_stop, absz) >= true_tail
    _ = rng


def test_tail_bound_infinite_on_circle():
    assert math.isinf(tail_bound(spec(A, 5), 100, 1.0))


# --- evaluation ----------------------------------------------------------------


def test_value_at_zero_is_one():
    assert eval_series_many(spec(A, 6), [0.0])[0] == 1.0 + 0.0j
    assert eval_series_many(spec(C, 4), [0.0])[0] == 1.0 + 0.0j


def test_endpoint_matches_gamma_closed_form():
    for n in range(3, 13):
        ev = endpoint_values(n)
        got_a = eval_series_many(spec(A, n), [1.0])[0]
        got_c = eval_series_many(spec(C, n), [1.0])[0]
        assert got_a.real == pytest.approx(ev.analytic_at_one, abs=5e-13)
        assert got_c.real == pytest.approx(ev.coanalytic_at_one, abs=5e-13)
        assert abs(got_a.imag) < 1e-15 and abs(got_c.imag) < 1e-15


def test_value_at_minus_one_bounds():
    got = eval_series_many(spec(C, 5), [-1.0])[0].real
    upper = eval_series_many(spec(A, 5), [-1.0])[0].real
    assert 5.0 / 6.0 < got < upper < 1.0


def test_bounds_chain():
    for n in (3, 7, 20):
        g_minus = eval_series_many(spec(C, n), [-1.0])[0].real
        h_minus = eval_series_many(spec(A, n), [-1.0])[0].real
        h_plus = eval_series_many(spec(A, n), [1.0])[0].real
        g_plus = eval_series_many(spec(C, n), [1.0])[0].real
        assert 5.0 / 6.0 < g_minus < h_minus < 1.0 < h_plus < g_plus < 2.0


def test_ratio_identity():
    for n in (3, 6, 12):
        ra = eval_series_many(spec(C, n), [1.0])[0].real / eval_series_many(spec(A, n), [1.0])[0].real
        assert ra == pytest.approx((n - 1) * math.tan(math.pi / (2 * n)), rel=1e-12)


def test_endpoint_values_pair_consistent():
    for n in range(2, 30):
        ev = endpoint_values(n)
        expect = (n - 1) * math.tan(math.pi / (2 * n)) * ev.analytic_at_one
        # 4 units of combined evaluation error at ~1e-15 each
        assert abs(ev.coanalytic_at_one - expect) <= 4e-15 * expect


def test_endpoint_values_match_mpmath_gamma():
    # math.gamma reaches 1.0e-15 relative here; the Lanczos kernel it replaced
    # missed by 1.73e-15 (n = 208)
    worst = 0.0
    with mp.workdps(40):
        for n in [*range(2, 401), *(10**k for k in range(3, 9))]:
            x = mp.mpf(1) / (2 * n)
            want = (
                mp.sqrt(mp.pi) * mp.gamma(1 + x) / mp.gamma(mp.mpf(1) / 2 + x),
                mp.sqrt(mp.pi) * mp.gamma(mp.mpf(3) / 2 - x) / mp.gamma(1 - x),
            )
            for got, ref in zip(endpoint_values(n), want):
                worst = max(worst, float(abs((got - ref) / ref)))
    assert worst <= 1.5e-15


def test_endpoint_values_are_computed_once_per_order(monkeypatch):
    # each call made four math.gamma calls: 283 calls in one boundary-render pass
    real, calls = math.gamma, []
    monkeypatch.setattr(math, "gamma", lambda x: calls.append(x) or real(x))
    series._endpoint_values.cache_clear()
    first = endpoint_values(7)
    assert endpoint_values(np.int64(7)) is first and len(calls) == 4
    x, root_pi = 1.0 / 14.0, math.sqrt(math.pi)
    assert first == (root_pi * real(1.0 + x) / real(0.5 + x),
                     root_pi * real(1.5 - x) / real(1.0 - x))
    for bad in ([5], 7.0, 1, "7"):  # refused before the cache sees them
        with pytest.raises(DomainError):
            endpoint_values(bad)


@settings(max_examples=120, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.999),
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.sampled_from([3, 4, 6, 9]),
)
def test_reflection_symmetry(r, th, n):
    z = r * complex(math.cos(th), math.sin(th))
    for kind in (A, C):
        s = spec(kind, n)
        assert eval_series_many(s, [z.conjugate()])[0] == pytest.approx(
            eval_series_many(s, [z])[0].conjugate(), abs=1e-12
        )


def test_real_monotonicity():
    xs = np.linspace(0.0, 1.0, 64)
    for kind in (A, C):
        vals = eval_series_many(spec(kind, 5), xs).real
        assert (np.diff(vals) > 0).all()


def test_half_plane_image():
    rng = np.random.default_rng(11)
    z = 0.999 * np.sqrt(rng.uniform(0, 1, 200)) * np.exp(
        1j * rng.uniform(0, 2 * math.pi, 200)
    )
    for kind in (A, C):
        s = spec(kind, 4)
        lo = eval_series_many(s, [-1.0])[0].real
        hi = eval_series_many(s, [1.0])[0].real
        vals = eval_series_many(s, z)
        assert (vals.real > lo).all() and (vals.real < hi).all()


def test_matches_arbitrary_precision_oracle():
    rng = np.random.default_rng(3)
    pts = [
        1.0,
        -1.0,
        0.5,
        -0.97,
        complex(np.exp(1j * 2.0)),
        complex(np.exp(1j * 0.02)),
        complex(np.exp(-1j * 0.004)),
        0.9995 * complex(np.exp(1j * 0.6)),
        complex(np.exp(1j * (math.pi - 0.01))),
    ]
    pts += list(0.99 * np.sqrt(rng.uniform(0, 1, 8)) * np.exp(1j * rng.uniform(0, 2 * math.pi, 8)))
    pts += list(0.9 * np.exp(1j * np.random.default_rng(9).uniform(0, 2 * math.pi, 3)))
    for n in (3, 6, 12):
        for kind in (A, C):
            s = spec(kind, n)
            for z in pts:
                got = eval_series_many(s, [z])[0]
                ref = mp_reference(kind, n, z)
                assert abs(got - ref) < 1e-12, (kind, n, z)


def test_extreme_sliver_falls_back_to_arbitrary_precision():
    z = complex(np.exp(1j * 3e-7))  # (M+1)*|1-z| stays below the expansion threshold
    got = eval_series_many(spec(A, 5), [z])[0]
    assert abs(got - mp_reference(A, 5, z)) < 1e-12


def test_vector_scalar_consistency():
    rng = np.random.default_rng(1)
    z = np.concatenate(
        [
            0.9 * np.sqrt(rng.uniform(0, 1, 16)) * np.exp(1j * rng.uniform(0, 2 * math.pi, 16)),
            np.exp(1j * rng.uniform(0.01, 2 * math.pi - 0.01, 8)),
            np.array([1.0 + 0.0j]),
        ]
    )
    s = spec(C, 7)
    batch = eval_series_many(s, z)
    singles = np.array([eval_series_many(s, [za])[0] for za in z])
    assert np.abs(batch - singles).max() < 1e-13


def test_domain_error_outside_disk():
    with pytest.raises(DomainError):
        eval_series_many(spec(A, 5), [1.2])


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.5, math.nan)],
                         ids=["nan", "half-plus-nan-j"])
def test_a_nan_argument_is_a_domain_error(z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in (A, C):
            with pytest.raises(DomainError):
                eval_series_many(spec(kind, 5), [z])
            with pytest.raises(DomainError):
                eval_series_many(spec(kind, 5), [0.5, z])
        with pytest.raises(DomainError):
            eval_families_many((spec(A, 5), spec(C, 5)), [z, 0.5])


def test_a_nan_error_estimate_does_not_pass_the_gate(monkeypatch):
    # a NaN endpoint error makes the anchored estimate NaN; "worst > ABS_TOL" let it through
    monkeypatch.setattr(series, "_ENDPOINT_REL_ERR", math.nan)
    # the direct sum has no endpoint term
    assert np.isfinite(eval_series_many(spec(A, 5), [0.1])[0])
    for z in (0.9, 1.0):
        with pytest.raises(NoConvergence):
            eval_series_many(spec(A, 5), [z])


def test_boundary_rounding_slack_accepted():
    val = eval_series_many(spec(A, 5), [1.0 + 1e-9])[0]
    assert abs(val - eval_series_many(spec(A, 5), [1.0])[0]) < 1e-3  # projected onto the circle


def test_no_convergence_when_capped(monkeypatch):
    # past the direct sum, a tolerance the quadrature pair cannot reach
    monkeypatch.setattr(series, "ABS_TOL", 1e-19)
    for z in (0.99999, complex(np.exp(1j * 0.37)), 1.0):
        with pytest.raises(NoConvergence):
            eval_series_many(spec(A, 5), [z])


# --- the direct sum: term caps, memory, batch independence ----------------------


def test_capped_direct_sums_match_the_oracle(monkeypatch):
    # caps below the 64 direct terms move the direct/anchored seam from |w| ~ 0.64
    # down to ~0.63 (63 terms), ~0.18 (16) and w = 0 (1 term); 1 - |w| spreads
    # geometrically down to 0.03, so evenly spaced picks land on both sides of each
    rng = np.random.default_rng(7)
    w = (1.0 - np.geomspace(1.0, 0.03, 2048)) * np.exp(1j * rng.uniform(0, 2 * math.pi, 2048))
    picks = np.linspace(0, w.size - 1, 16).astype(int)
    uncapped = {kind: eval_series_many(spec(kind, 5), w) for kind in (A, C)}
    for k in (1, 16, 63):
        monkeypatch.setattr(series, "_DIRECT_TERMS", k)
        for kind in (A, C):
            got = eval_series_many(spec(kind, 5), w)
            assert np.abs(got - uncapped[kind]).max() <= 5e-13, (kind, k)
            for i in picks:
                assert abs(got[i] - mp_reference(kind, 5, w[i])) < 1e-12, (kind, k, w[i])


def test_direct_sum_memory_follows_the_terms_it_sums():
    # 2048 points at |w| = 0.5 need a 65-term table (2 MB); a fixed 512-wide one is 16 MB
    w = 0.5 * np.exp(1j * np.linspace(0.0, 2 * math.pi, 2048, endpoint=False))
    s = spec(A, 6)
    eval_series_many(s, w)  # coefficient cache filled outside the measurement
    tracemalloc.start()
    try:
        eval_series_many(s, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_values_do_not_depend_on_the_batch():
    # 4096 points, half of them direct (|w| < 0.6) and half anchored (|w| >= 0.7):
    # large enough that numpy reuses the (points, nodes) temporaries of the anchored
    # integral in place, which one-point calls never do
    rng = np.random.default_rng(13)
    r = np.concatenate([rng.uniform(0.0, 0.6, 2048), rng.uniform(0.7, 1.0, 2048)])
    w = r * np.exp(1j * rng.uniform(0, 2 * math.pi, r.size))
    picks = np.concatenate([rng.choice(2048, 50, replace=False), 2048 + rng.choice(2048, 50, replace=False)])
    for kind in (A, C):
        for n in (3, 6, 96, 500):
            s = spec(kind, n)
            batch = eval_series_many(s, w)
            singles = np.array([eval_series_many(s, w[i : i + 1])[0] for i in picks])
            assert np.array_equal(batch[picks], singles), (kind, n)


@pytest.mark.parametrize("terms", [1, 8, 32, 64])
def test_direct_radius_certifies_exactly_the_points_the_tail_test_does(terms):
    # the per-point test |w|^M <= ABS_TOL (1 - |w|) that the radius replaces, at the
    # radius, the next double above it, 2000 doubles around it and 10^6 random |w|
    def tail_test(aw):
        return aw**terms <= series.ABS_TOL * (1.0 - aw)

    radius = series._direct_radius(terms, series.ABS_TOL)
    above = np.nextafter(radius, 1.0)
    assert tail_test(np.array([radius]))[0] and not tail_test(np.array([above]))[0]
    near = radius + np.arange(-1000, 1000) * (above - radius)
    aw = np.concatenate([near, np.random.default_rng(terms).uniform(0.0, 1.0, 10**6), [0.0, 1.0]])
    assert np.array_equal(aw <= radius, tail_test(aw))
    if terms == 64:
        assert radius == 0.6391219844991737


def test_the_split_at_the_direct_radius_follows_the_live_terms_and_tolerance(monkeypatch, caplog):
    # tests move the seam through series._DIRECT_TERMS and series.ABS_TOL; the radius is
    # cached per (terms, tolerance), so a patched value takes effect at the next call
    w = np.linspace(0.0, 0.99, 1000)

    def direct_count():
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="rosette"):
            eval_series_many(spec(A, 5), w)
        (record,) = [r for r in caplog.records if r.name == "rosette.series"]
        return int(re.search(r"(\d+) direct", record.getMessage()).group(1))

    for terms, tol in ((64, 1e-12), (8, 1e-12), (64, 1e-13)):
        monkeypatch.setattr(series, "_DIRECT_TERMS", terms)
        monkeypatch.setattr(series, "ABS_TOL", tol)
        assert direct_count() == int((w**terms <= tol * (1.0 - w)).sum()), (terms, tol)


@pytest.mark.parametrize("kind", [A, C])
def test_direct_sum_is_the_plain_horner_loop_bit_for_bit(kind):
    # the reference: the loop with fresh arrays and the coefficients computed afresh
    rng = np.random.default_rng(3)
    for size in (1, 2, 3, 7, 8, 9, 16, 17, 100, 1000, 4099, 5000):
        r = 0.639 * np.sqrt(rng.uniform(0, 1, size))  # all inside the direct radius
        w = r * np.exp(1j * rng.uniform(0, 2 * math.pi, size))
        cofs = series.coeff_values(spec(kind, 7), 64)
        acc = np.zeros(size, dtype=complex)
        for c in cofs[::-1].tolist():
            acc = acc * w + c
        assert eval_series_many(spec(kind, 7), w).tobytes() == acc.tobytes(), size


def shared_core_points(n, seed=0):
    """z in the disk, on the circle, within 1e-9 of the 2n singular parameters j pi/n,
    and exactly 1 (w = 1)."""
    rng = np.random.default_rng(seed + n)
    t = rng.uniform(0, 2 * math.pi, 300)
    seams = np.arange(2 * n) * (math.pi / n)
    return np.concatenate([
        0.999 * np.sqrt(rng.uniform(0, 1, 300)) * np.exp(1j * t),
        np.exp(1j * t),
        np.exp(1j * (seams[:, None] + np.array([-1e-9, -1e-13, 0.0, 1e-13, 1e-9]))).ravel(),
        (1 - 1e-9) * np.exp(1j * seams),
        [1.0],
    ])


@pytest.mark.parametrize("n", [3, 4, 7, 96, 500])
# the direct sum's 64 terms, and 8, which moves its seam; the ids keep the test names stable
@pytest.mark.parametrize("direct_terms", [64, 8], ids=["policy0", "policy1"])
def test_one_pass_for_both_families_matches_the_one_kind_calls_bit_for_bit(
    n, direct_terms, monkeypatch
):
    monkeypatch.setattr(series, "_DIRECT_TERMS", direct_terms)
    w = shared_core_points(n) ** (2 * n)
    specs = (SeriesSpec(A, n), SeriesSpec(C, n))
    pair = eval_families_many(specs, w)
    for s, values in zip(specs, pair):
        assert values.tobytes() == eval_series_many(s, w).tobytes(), s.kind
    swapped = eval_families_many(specs[::-1], w)
    assert [v.tobytes() for v in swapped] == [v.tobytes() for v in pair[::-1]]
    # and the pair's values do not depend on the batch: one-point calls, and two halves
    rng = np.random.default_rng(n)
    for i in rng.choice(w.size, 40, replace=False).tolist() + [w.size - 1]:
        one = eval_families_many(specs, w[i : i + 1])
        assert [v[0] for v in one] == [v[i] for v in pair], i
    half = w.size // 2
    for k in range(2):
        joined = np.concatenate([eval_families_many(specs, w[:half])[k],
                                 eval_families_many(specs, w[half:])[k]])
        assert joined.tobytes() == pair[k].tobytes()


def test_families_evaluated_together_share_order():
    with pytest.raises(ValueError):
        eval_families_many((spec(A, 5), spec(C, 6)), [0.5])


def test_one_pass_raises_as_its_first_failing_family(monkeypatch):
    # at w = 1 both estimates exceed 1e-19; the one-kind message of the first family
    monkeypatch.setattr(series, "ABS_TOL", 1e-19)
    for first, second in ((A, C), (C, A)):
        with pytest.raises(NoConvergence) as one:
            eval_series_many(spec(first, 5), [1.0])
        with pytest.raises(NoConvergence) as both:
            eval_families_many((spec(first, 5), spec(second, 5)), [1.0])
        assert str(both.value) == str(one.value)


# --- the anchored integral: oracle property, handover, observability -------------


def _on_closed_disk(w):
    # the evaluator projects rounding overshoot onto the circle; so does the oracle point
    return w / abs(w) if abs(w) > 1.0 else w


circle_points = st.floats(min_value=-math.pi, max_value=math.pi).map(cmath.exp)
cusp_points = st.tuples(
    st.integers(min_value=0, max_value=10**6), st.floats(min_value=-1e-9, max_value=1e-9)
)  # (j, delta): w = e^{2 i n t} at t = j pi/n + delta, drawn with n below
near_one_points = st.tuples(
    st.sampled_from([-1.0, 1.0]),
    st.floats(min_value=0.0, max_value=16.0),  # |arg w| = 10^-x
    st.one_of(st.just(math.inf), st.floats(min_value=3.0, max_value=16.0)),  # 1 - |w| = 10^-y
).map(lambda p: (1.0 - 10.0 ** -p[2]) * cmath.exp(1j * p[0] * 10.0 ** -p[1]))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([A, C]),
    st.integers(min_value=3, max_value=1000),
    st.one_of(circle_points, near_one_points, cusp_points),
)
def test_matches_oracle_on_and_just_inside_the_circle(kind, n, point):
    if isinstance(point, tuple):
        j, delta = point
        point = cmath.exp(2j * n * ((j % (2 * n)) * math.pi / n + delta))
    w = _on_closed_disk(point)
    got = eval_series_many(spec(kind, n), [w])[0]
    assert abs(got - mp_reference(kind, n, w)) <= 1e-12, (kind, n, w)


def test_every_anchored_value_lies_within_its_reported_bound():
    # a 504-point subset of tests/anchored_oracle.py (CI runs 10^4): w = -1, |1 - w| down
    # to 1e-15, the circle and rings in (0.64, 1) at n = 2..10^5, against mpmath's hyp2f1
    failures, worst, checked = anchored_oracle.check(points=500, seed=1)
    assert failures == [] and checked >= 500
    assert worst > 1e-3  # the bound is no looser than a thousand times the worst error


@pytest.mark.parametrize("pole", [1.05, 1.2])
def test_the_gauss_rule_meets_its_ellipse_bound_beside_a_pole(pole):
    # f(u) = 1 / (pole - u) on [0, 1]: on E_rho, rho below the pole's, |f| is largest at the
    # ellipse's vertex (1 + a) / 2, a = (rho + 1/rho) / 2; the best rho's bound holds and
    # is within 1000 times the error (174 and 363 times here)
    u, weights = np.sqrt(series._GAUSS_15.u2), series._GAUSS_15.weights[0]
    error = abs((weights / (pole - u)).sum() - math.log(pole / (pole - 1.0)))
    x = 2.0 * pole - 1.0
    rhos = np.linspace(1.01, x + math.sqrt(x * x - 1.0), 2000)[:-1]
    bound = min(series._gauss_factor(rho) / (pole - (1.0 + (rho + 1.0 / rho) / 2.0) / 2.0)
                for rho in rhos)
    assert error <= bound <= 1000 * error


def _anchored_integrands_squared(n, u, reach):
    """d |phi|^2 of both families at the nodes u, over a grid of the z with |w| >= 0.639 and
    |z - 1| <= reach, through the evaluator's accurate log1p and expm1."""
    t0 = series._PROVEN_FROM ** (1 / (2 * n))
    angles = np.linspace(-math.pi / (2 * n), math.pi / (2 * n), 41)
    z = (np.linspace(t0, 1.0, 5)[:, None] * np.exp(1j * angles)).ravel()
    z_minus_1 = z[(np.abs(z - 1.0) > 0.0) & (np.abs(z - 1.0) <= reach)] - 1.0
    log_zeta = series._log1p(u[None, :] ** 2 * z_minus_1[:, None])
    analytic = np.abs(z_minus_1)[:, None] * 4 * np.abs(u) ** 2 / np.abs(series._expm1(2 * n * log_zeta))
    return analytic, analytic * np.exp((2 * n - 4) * log_zeta.real)


@pytest.mark.parametrize("n", [2, 3, 5, 12, 96, 2000, 10**5])
def test_the_lemma_bounds_the_integrands_on_each_ellipse_of_the_menu(n):
    # the module docstring's lemma: d |phi|^2 <= S^2 on the Bernstein ellipse (the maximum
    # is on its boundary) for every z in reach, and S^2 is within 64 times the largest
    # value found; S_1 bounds the integrands on the segment [0, 1] itself
    reach, smooth, _ = series._anchored_bound(n)
    theta = np.linspace(0.0, 2 * math.pi, 720, endpoint=False)
    for rho in series._ELLIPSES:
        u = (1.0 + (rho * np.exp(1j * theta) + np.exp(-1j * theta) / rho) / 2.0) / 2.0
        for band in series._BANDS:
            scale = series._lemma_scale(n, reach, rho, band)
            if math.isfinite(scale):
                found = max(values.max() for values in _anchored_integrands_squared(n, u, reach))
                assert found <= scale**2 <= 64 * found, (rho, band)
    segment = np.linspace(0.0, 1.0, 201)[1:].astype(complex)
    found = max(values.max() for values in _anchored_integrands_squared(n, segment, reach))
    assert found <= smooth**2 <= 64 * found


def _plain_anchored(kind, n, w):
    """The 15-node anchored value as plain expressions, each step a fresh array."""
    x = np.array(series._XGK[1::2])
    u = 0.5 * (1.0 + np.concatenate([-x, x[-2::-1]]))
    weights = 0.5 * np.concatenate([np.array(series._WG), np.array(series._WG)[-2::-1]])
    log_z = series._log1p(w - 1.0) / (2 * n)
    z_minus_1 = series._expm1(log_z)
    log_zeta = series._log1p(z_minus_1[:, None] * (u * u))
    root = (2.0 * u) / np.sqrt(-series._expm1(2 * n * log_zeta))
    ends = endpoint_values(n)
    if kind is A:
        integrand, pre, start = root, np.exp(-log_z), ends.analytic_at_one
    else:
        integrand = np.multiply(root, np.exp((n - 2) * log_zeta))
        pre, start = (n - 1) * np.exp((1 - n) * log_z), ends.coanalytic_at_one / (n - 1)
    return np.multiply(pre, start + (integrand * weights).sum(axis=1) * z_minus_1)


@pytest.mark.parametrize("n", [2, 3, 6, 96, 500])
def test_the_buffered_anchored_pass_is_the_plain_15_node_rule_bit_for_bit(n):
    # every (points, nodes) step writes into buffers allocated once per call; sizes
    # from one point to past the 4096-point block
    rng = np.random.default_rng(n)
    for size in (1, 7, 2048, 5000):
        w = rng.uniform(0.64, 1.0, size) * np.exp(1j * rng.uniform(-math.pi, math.pi, size))
        w[0] = -1.0
        for kind in (A, C):
            got = eval_series_many(spec(kind, n), w)
            assert got.tobytes() == _plain_anchored(kind, n, w).tobytes(), (kind, size)


def test_points_within_underflow_of_one_take_the_endpoint_value():
    # the nodes of the anchored integral would underflow to zeta = 1 here
    ev = endpoint_values(6)
    for z in (1 + 1e-320j, 1 - 1e-250j):
        assert eval_series_many(spec(A, 6), [z])[0] == ev.analytic_at_one
        assert eval_series_many(spec(C, 6), [z])[0] == ev.coanalytic_at_one


def test_direct_sum_hands_over_to_the_anchored_integral_seamlessly(monkeypatch):
    # |w| straddles the direct-sum seam of 32 terms (near 0.415) and of the
    # default 64 terms (near 0.639); 1 term sends every point here to the
    # anchored integral
    radii = np.array([0.40, 0.41, 0.415, 0.42, 0.43, 0.62, 0.635, 0.638, 0.64, 0.645, 0.66])
    w = (radii[:, None] * np.exp(1j * np.array([0.0, 0.4, 2.0, math.pi]))).ravel()
    for kind in (A, C):
        for n in (4, 9):
            hi = eval_series_many(SeriesSpec(kind, n), w)
            for cap in (1, 32):
                monkeypatch.setattr(series, "_DIRECT_TERMS", cap)
                lo = eval_series_many(SeriesSpec(kind, n), w)
                monkeypatch.undo()
                assert np.abs(lo - hi).max() <= 5e-13, (kind, n, cap)


def test_each_evaluation_logs_its_regimes(caplog):
    assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("rosette").handlers)
    w = np.array([0.5, 0.99999, complex(np.exp(1j * 0.37)), 1.0])
    with caplog.at_level(logging.DEBUG, logger="rosette"):
        eval_series_many(spec(C, 5), w)
    (record,) = [r for r in caplog.records if r.name == "rosette.series"]
    msg = record.getMessage()
    assert record.levelno == logging.DEBUG
    assert "1 direct (<= 64 terms)" in msg and "2 anchored (15 Gauss nodes each)" in msg
    assert "1 at w = 1" in msg
    worst = float(re.search(r"max error estimate (\S+)", msg).group(1))
    assert 0.0 < worst <= 1e-12


def test_one_pass_logs_one_record_naming_both_families(caplog):
    w = np.array([0.5, 0.99999, complex(np.exp(1j * 0.37)), 1.0])
    with caplog.at_level(logging.DEBUG, logger="rosette"):
        eval_series_many(spec(A, 5), w)
        eval_series_many(spec(C, 5), w)
        eval_families_many((spec(A, 5), spec(C, 5)), w)
    records = [r.getMessage() for r in caplog.records if r.name == "rosette.series"]
    assert len(records) == 3
    single_a, single_c, pair = records
    assert pair.startswith("series analytic+coanalytic n=5: ")
    assert "1 direct (<= 64 terms), 2 anchored (15 Gauss nodes each), 1 at w = 1" in pair
    worst = [float(re.search(r"max error estimate (\S+)", m).group(1)) for m in records]
    assert worst[2] == max(worst[:2])

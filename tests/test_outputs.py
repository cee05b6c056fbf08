"""The feature reports and the dumps are written from columns, byte for byte as the
reference writers (tests/large_outputs.py: ``json.dumps(payload, indent=2)`` and a CSV
written one cell at a time) print the records that 0.23.0 built one at a time."""

import cmath
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import large_outputs as ref
from rosette import FeatureKind, RosetteParams, boundary, cli, curve_samples, extract_features
from rosette.boundary import (BoundaryFeature, CurveSample, FeatureRecords, FeatureReport,
                              feature_values, half_pi_shift)
from rosette.maps import half_turn_rotation, reduce_beta

PI = math.pi
TWO_PI = 2.0 * PI


def _scalar_reduce_t(t: float) -> float:
    """t in [0, 2pi) by the bits of np.mod (+0.0 at -2pi), with the 2pi that x + 2pi rounds
    to for x just below 0 read as 0 (0.23.0 reported -0.0 and 2pi there)."""
    t %= TWO_PI
    return 0.0 if t == TWO_PI else t


def reference_report(params: RosetteParams) -> FeatureReport:
    """The report of extract_features(params) as 0.23.0 built it: one BoundaryFeature per
    feature by scalar arithmetic, then one replace per feature for the half turns."""
    canonical, shifts = params.canonical()
    n, lag, turn = params.n, shifts * PI / params.n, half_turn_rotation(params.n, shifts)
    shift = half_pi_shift(canonical.beta)  # all 2n multiples of pi/n, or the n nodes'
    nodes = shift is not None
    js = np.arange(shift % 2, 2 * n, 2) if nodes else np.arange(2 * n)
    ts, locations = js * PI / n, feature_values(canonical)[js]
    features = []
    for j, (t, loc) in enumerate(zip(ts.tolist(), locations.tolist())):
        if nodes:
            kind, axis, angle = FeatureKind.NODE, None, PI / 2 - PI / n
        elif j % 2 == 0:
            kind, axis, angle = FeatureKind.CUSP, _scalar_reduce_t(t), None
        else:
            kind, axis, angle = FeatureKind.REMOVABLE_NODE, _scalar_reduce_t(PI / 2 + t), PI
        features.append(BoundaryFeature(kind, t, loc, abs(loc),
                                        _scalar_reduce_t(cmath.phase(loc)),
                                        axis, angle))
    if lag:
        spin = cmath.phase(turn)
        features = [replace(ft, t=_scalar_reduce_t(ft.t + lag), location=turn * ft.location,
                            argument=_scalar_reduce_t(ft.argument + spin),
                            axis_arg=None if ft.axis_arg is None
                            else _scalar_reduce_t(ft.axis_arg + spin)) for ft in features]
    args = [ft.argument for ft in features]
    seps = tuple((args[(i + 1) % len(args)] - args[i]) % TWO_PI for i in range(len(args)))
    return FeatureReport(params, tuple(features), seps, PI - TWO_PI / n)


def reference_samples(params: RosetteParams, ts) -> list:
    """The records of curve_samples(params, ts) as 0.23.0 built them, one per sample."""
    ts = np.ravel(np.asarray(ts, dtype=float))
    values = boundary._boundary_values(params, ts).tolist()
    red = np.mod(ts, TWO_PI)
    ok = boundary.distance_to_singular(params.n, red) >= boundary.T_SINGULAR_TOL
    d_value = np.full(ts.shape, np.nan, dtype=complex)
    d_arg = np.full(ts.shape, np.nan)
    d_mag = np.zeros(ts.shape)
    d_value[ok] = boundary._derivative_values(params, red[ok])
    d_arg[ok], d_mag[ok] = boundary._derivative_fields(params, red[ok])
    return [CurveSample(t, v, None, None, 0.0) if not good
            else CurveSample(t, v, dv, None if math.isnan(da) else da, dm)
            for t, v, good, dv, da, dm in zip(ts.tolist(), values, ok.tolist(),
                                              d_value.tolist(), d_arg.tolist(), d_mag.tolist())]


def run(tmp_path, argv: list[str]) -> str:
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_bytes().decode("utf-8")


# --- the writers over any floats ----------------------------------------------------------

_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-4, -1e-4, 1e308, 0.1 + 0.2, 1.0 / 3.0, PI,
            *(float(np.nextafter(x, d)) for x in (1e16, 1e-4, -1e16) for d in (-math.inf,
                                                                                  math.inf)))
FLOATS = st.sampled_from(_SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)


def _column(data, size: int, label: str) -> np.ndarray:
    """``size`` floats, drawn one by one or from a pool of up to 3, as the features' orbit
    columns repeat theirs."""
    if data.draw(st.booleans(), label=f"{label} repeats"):
        pool = data.draw(st.lists(FLOATS, min_size=1, max_size=3), label=f"{label} pool")
        picks = data.draw(st.lists(st.sampled_from(range(len(pool))), min_size=size,
                                   max_size=size), label=label)
        return np.array([pool[k] for k in picks], dtype=float)
    return np.array(data.draw(st.lists(FLOATS, min_size=size, max_size=size), label=label),
                    dtype=float)


def _with_none(data, column: np.ndarray, label: str) -> np.ndarray:
    """The column with NaN, the views' None, where a drawn mask says."""
    mask = data.draw(st.lists(st.booleans(), min_size=column.size, max_size=column.size),
                     label=f"{label} none")
    return np.where(mask, np.nan, column)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_the_column_writers_print_what_the_reference_writers_print(data):
    size = data.draw(st.integers(1, 70), label="rows")
    chunk = data.draw(st.sampled_from((1, 2, 3, 64, 4096)), label="rows per piece")
    kind = np.empty(size, dtype=object)
    kind[:] = data.draw(st.lists(st.sampled_from(list(FeatureKind)), min_size=size,
                                 max_size=size), label="kinds")
    t, re, im, magnitude, argument, axis, angle = (
        _column(data, size, label) for label in ("t", "re", "im", "magnitude", "argument",
                                                  "axis_arg", "interior_angle"))
    location = np.empty(size, dtype=complex)
    location.real, location.imag = re, im
    axis = _with_none(data, axis, "axis_arg")
    view = FeatureRecords(kind, t, location, magnitude, argument, axis,
                          _with_none(data, angle, "interior_angle"))
    report = FeatureReport(RosetteParams(5, 0.3), view,
                           tuple(_column(data, size, "separations").tolist()),
                           data.draw(FLOATS, label="total curvature"))
    beta_input = data.draw(st.sampled_from((0.3, -0.0, 1e-300, -1.2, 1.9, 5000.0)),
                           label="beta")
    with mock.patch.object(cli, "_CHUNK", chunk):
        text = "".join(cli._feature_json(size, beta_input, *reduce_beta(beta_input), report))
        assert text == ref.reference_features(size, beta_input, "json", report)
        columns = cli._feature_columns(view, cli._quote)
        text = "".join(cli._csv(cli._FEATURE_COLUMNS, columns))
        assert text == ref.reference_features(size, beta_input, "csv", report)
        # a table of text, floats and empty cells, as verify writes one
        names = [f"a,{k}" if k % 3 else f'"{k}"' for k in range(size)]
        rows = [[name, x, None if math.isnan(y) else y]
                for name, x, y in zip(names, t.tolist(), axis.tolist())]
        cells = np.array([cli._quote(name) for name in names], dtype=object)
        text = "".join(cli._csv(["name", "t", "x"], [cells, t, axis]))
        assert text == ref.reference_csv(["name", "t", "x"], rows)


# --- the commands ------------------------------------------------------------------

BETAS = (0.0, PI / 2, -1.2, 3 * PI / 2 + 0.3, -PI / 2 + 5e-10)


@pytest.mark.parametrize("beta", BETAS, ids=["0", "pi/2", "-1.2", "3pi/2+0.3", "-pi/2+5e-10"])
@pytest.mark.parametrize("n", [3, 4, 5, 12, 1001, 2000])
def test_feature_reports_are_the_reference_writers_bytes(n, beta, tmp_path):
    report = reference_report(RosetteParams(n, reduce_beta(beta)[0]))
    for fmt in ("json", "csv"):
        text = run(tmp_path, ["features", "--n", str(n), "--beta", repr(beta), "--format", fmt])
        assert text == ref.reference_features(n, beta, fmt, report)


DUMPS = [(5, 0.3), (6, PI / 2), (4, 3 * PI / 2 + 0.3)]


@pytest.mark.parametrize("n,beta", DUMPS, ids=["5-0.3", "6-pi/2", "4-3pi/2+0.3"])
@pytest.mark.parametrize("count", [1, 64, 2048])
def test_dumps_are_the_reference_writers_bytes(n, beta, count, tmp_path):
    common = ["dump", "--n", str(n), "--beta", repr(beta), "--count", str(count)]
    samples = reference_samples(RosetteParams(n, beta), ref.boundary_ts(count))
    text = run(tmp_path, common)
    assert text == ref.reference_dump(samples)
    # the empty d_arg cells: t = pi at count 1 is singular, and at pi/2 the curve is
    # constant on every other basic interval
    empty = sum(s.d_arg is None for s in samples)
    assert (empty > 0) == (count == 1 or beta == PI / 2) and text.count(",,") == empty
    assert run(tmp_path, [*common, "--what", "radial"]) == ref.reference_radial(n, beta, count)


def test_the_verify_table_is_the_reference_writers_bytes(tmp_path):
    import json

    argv = ["verify", "--n", "5", "--beta", "0.3", "--level", "quick"]
    checks = json.loads(run(tmp_path, argv))["checks"]
    header = ["name", "passed", "max_residual", "samples_used"]
    expect = ref.reference_csv(header, [list(c.values()) for c in checks])
    assert run(tmp_path, [*argv, "--format", "csv"]) == expect


@pytest.mark.parametrize("residual", [2.5e-7, math.nan], ids=["number", "nan"])
def test_a_failing_verify_table_is_the_reference_writers_bytes(residual, tmp_path, monkeypatch):
    import json

    from rosette import verify

    failing = verify.CheckResult("integral_identities", False, residual, 22)
    monkeypatch.setattr(verify, "integral_identities", lambda *args: failing)
    out = tmp_path / "out"
    argv = ["verify", "--n", "5", "--beta", "0.3", "--level", "quick", "--out", str(out)]
    assert cli.main(argv) == 1
    checks = json.loads(out.read_bytes())["checks"]
    assert [c["passed"] for c in checks].count(False) == 1
    header = ["name", "passed", "max_residual", "samples_used"]
    expect = ref.reference_csv(header, [list(c.values()) for c in checks])
    assert cli.main([*argv, "--format", "csv"]) == 1
    assert out.read_bytes().decode("utf-8") == expect


# --- the fast path stays ---------------------------------------------------------------


def test_a_dump_builds_no_sample_record_and_no_derivative(monkeypatch, tmp_path):
    expect = ref.reference_dump(reference_samples(RosetteParams(6, 0.3), ref.boundary_ts(2048)))
    calls = []

    def no_record(*args):
        raise AssertionError("a CurveSample was built")

    def derivative_parts(*args):
        calls.append(args)
        return real(*args)

    real = boundary.derivative_parts
    monkeypatch.setattr(boundary, "CurveSample", no_record)
    monkeypatch.setattr(boundary, "derivative_parts", derivative_parts)
    assert run(tmp_path, ["dump", "--n", "6", "--beta", "0.3", "--count", "2048"]) == expect
    assert calls == []


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_feature_report_builds_no_feature_record(fmt, monkeypatch, tmp_path):
    expect = ref.reference_features(1001, 0.3, fmt, reference_report(RosetteParams(1001, 0.3)))

    def no_record(*args):
        raise AssertionError("a BoundaryFeature was built")

    monkeypatch.setattr(boundary, "BoundaryFeature", no_record)
    argv = ["features", "--n", "1001", "--beta", "0.3", "--format", fmt]
    assert run(tmp_path, argv) == expect


@pytest.mark.parametrize("beta", BETAS, ids=["0", "pi/2", "-1.2", "3pi/2+0.3", "-pi/2+5e-10"])
@pytest.mark.parametrize("n", [5, 12])
def test_the_views_read_as_the_records_built_one_at_a_time(n, beta):
    params = RosetteParams(n, beta)
    report, expect = extract_features(params), reference_report(params)
    features, records = report.features, expect.features
    assert report == expect and report.separations == expect.separations
    assert features == records and records == features and tuple(features) == records
    assert len(features) == len(records) and hash(features) == hash(records)
    assert [features[k] for k in range(-len(records), len(records))] == [*records, *records]
    for part in (slice(1, 4), slice(None, None, -3), slice(7, 2, -2), slice(50, 60)):
        assert features[part] == records[part] and isinstance(features[part], tuple)
    with pytest.raises(IndexError):
        features[len(records)]
    assert features != list(records)  # a tuple of records equals no list
    assert repr(features) == repr(records)

    ts = np.concatenate([ref.boundary_ts(64), [0.0, PI / n, 1.5 * PI / n, -3.0, 7.0]])
    samples, expect = curve_samples(params, ts), reference_samples(params, ts)
    assert samples == expect and expect == samples and list(samples) == expect
    assert [samples[k] for k in (0, 5, -1, -5)] == [expect[k] for k in (0, 5, -1, -5)]
    assert samples[::-7] == expect[::-7] and isinstance(samples[2:9], list)
    assert samples != tuple(expect)  # a list of records equals no tuple
    with pytest.raises(TypeError):
        hash(samples)
    assert [s.d_value for s in samples] == [s.d_value for s in expect]
    for column in (features.kind, features.t, features.axis_arg, samples.value, samples.d_value):
        with pytest.raises(ValueError, match="read-only"):  # the records read stay the columns
            column[0] = column[1]


@pytest.mark.parametrize("beta", [0.3, PI / 2], ids=["0.3", "pi/2"])
def test_a_view_reads_each_record_as_one_object(beta):
    # the first read builds every record once, as a tuple or a list does hold them
    params = RosetteParams(5, beta)
    features = extract_features(params).features
    samples = curve_samples(params, ref.boundary_ts(16))
    for view in (features, samples):
        records = list(view)
        for k in (0, 3, -1):
            assert view[k] is view[k] is records[k] is next(iter(view[k:]))
        assert all(a is b for a, b in zip(view, records))

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rosette.cli import BETA_LIMIT, main, parse_beta
from rosette.maps import RosetteParams, combine_parts, parts_many
from rosette.render import Overlay

PI = math.pi


def run_cli(args):
    return main(args)


# --- angle parsing ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expect",
    [
        ("0.3", 0.3),
        ("1.9", 1.9),
        ("-0.25", -0.25),
        ("pi", PI),
        ("pi/4", PI / 4),
        ("-2pi/5", -2 * PI / 5),
        ("3pi/7", 3 * PI / 7),
        ("2pi", 2 * PI),
        ("PI/2", PI / 2),
        ("+pi/3", PI / 3),
    ],
)
def test_parse_beta(text, expect):
    assert parse_beta(text) == pytest.approx(expect, rel=1e-15)


@pytest.mark.parametrize("bad", ["pie", "pi/", "2x", "", "pi/4/2"])
def test_parse_beta_rejects(bad):
    with pytest.raises(argparse.ArgumentTypeError):
        parse_beta(bad)


# a multiplier or a denominator as _BETA_RE takes them: digits, maybe a decimal part
_DECIMAL = st.sampled_from(["0", "0.0", "000", "1", "2.5"]) | st.from_regex(
    r"\d{1,400}(\.\d{1,20})?", fullmatch=True)


@given(sign=st.sampled_from(["", "+", "-"]), mult=st.none() | _DECIMAL,
       pi=st.sampled_from(["pi", "PI", "Pi"]), den=st.none() | _DECIMAL,
       gap=st.sampled_from(["", " "]))
def test_parse_beta_gives_a_bounded_angle_or_a_usage_error(sign, mult, pi, den, gap):
    text = sign + (mult or "") + gap + pi + ("" if den is None else f"{gap}/{gap}{den}")
    try:
        value = parse_beta(text)
    except argparse.ArgumentTypeError:
        return
    assert math.isfinite(value) and abs(value) <= BETA_LIMIT


def test_rejects_small_order(capsys, usage_error_modules):
    with pytest.raises(SystemExit) as exc:
        run_cli(["features", "--n", "2", "--beta", "0"])
    assert exc.value.code == 2
    assert "n >= 3" in capsys.readouterr().err
    assert usage_error_modules["small-order"] == [2, []]


# --- features ----------------------------------------------------------------------


def test_features_json_structure(tmp_path):
    out = tmp_path / "features.json"
    assert run_cli(["features", "--n", "5", "--beta", "pi/4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["n"] == 5
    assert payload["half_turn_shifts"] == 0
    assert len(payload["features"]) == 10
    kinds = [ft["kind"] for ft in payload["features"]]
    assert kinds[0::2] == ["cusp"] * 5
    assert kinds[1::2] == ["removable_node"] * 5
    expect = PI / 5 + math.atan(math.sqrt(5 / 2 - math.sqrt(5)))
    assert payload["separations"][0] == pytest.approx(expect, abs=1e-12)


def test_features_reports_phase_reduction(tmp_path):
    out = tmp_path / "f.json"
    run_cli(["features", "--n", "4", "--beta", "1.9", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["half_turn_shifts"] == 1
    assert payload["beta_canonical"] == pytest.approx(1.9 - PI)


def test_features_half_pi_nodes(tmp_path):
    out = tmp_path / "nodes.json"
    run_cli(["features", "--n", "5", "--beta", "pi/2", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert len(payload["features"]) == 5
    for ft in payload["features"]:
        assert ft["kind"] == "node"
        assert ft["interior_angle"] == pytest.approx(3 * PI / 10)


def test_features_just_above_minus_half_pi_are_nodes(tmp_path):
    out = tmp_path / "nodes.json"
    assert run_cli(["features", "--n", "5", "--beta", "-1.5707963266", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["half_turn_shifts"] == 0
    assert [ft["kind"] for ft in payload["features"]] == ["node"] * 5
    assert payload["features"][0]["t"] == pytest.approx(PI / 5)


def test_features_csv_rfc4180(tmp_path):
    out = tmp_path / "features.csv"
    run_cli(["features", "--n", "6", "--beta", "0", "--format", "csv", "--out", str(out)])
    raw = out.read_bytes()
    assert b"\r\n" in raw
    rows = list(csv.reader(io.StringIO(raw.decode("utf-8"))))
    assert rows[0] == [
        "kind",
        "t",
        "re",
        "im",
        "magnitude",
        "argument",
        "axis_arg",
        "interior_angle",
    ]
    assert len(rows) == 13  # header + 12 features
    spacing = [float(r[1]) for r in rows[1:]]
    assert spacing == pytest.approx([j * PI / 6 for j in range(12)])


# --- verify -------------------------------------------------------------------------


def test_verify_quick_passes(tmp_path):
    out = tmp_path / "verify.json"
    code = run_cli(
        [
            "verify",
            "--n",
            "6",
            "--beta",
            "0.3",
            "--level",
            "quick",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "rotational_symmetry" in names
    assert "boundary_simple" in names
    assert "integral_identities" in names
    assert "fundamental_tiling" not in names  # full level only


def test_verify_full_includes_tiling(tmp_path):
    out = tmp_path / "verify_full.json"
    code = run_cli(
        [
            "verify",
            "--n",
            "3",
            "--beta",
            "pi/2",
            "--level",
            "full",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert any(c["name"] == "fundamental_tiling" for c in payload["checks"])


@pytest.mark.parametrize("n", [200, 500])
@pytest.mark.parametrize("beta", ["0.3", "pi/2", "-1.2"])
def test_verify_full_passes_at_large_order(n, beta, tmp_path):
    # dilatation_quotient was NaN here: z^(n-2) underflowed to 0 in its 0/0
    out = tmp_path / "verify.json"
    assert run_cli(["verify", "--n", str(n), "--beta", beta, "--level", "full",
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    check = next(c for c in payload["checks"] if c["name"] == "dilatation_quotient")
    assert 900 < check["samples_used"] <= 1000 and check["max_residual"] <= 1e-12


def test_verify_integral_identities_witness_stays_out_of_the_report(tmp_path, monkeypatch):
    from rosette import cli

    seen = {}
    payload_of = cli._checks_payload

    def capture(checks):
        seen.update((c.name, c) for c in checks)
        return payload_of(checks)

    monkeypatch.setattr(cli, "_checks_payload", capture)
    out = tmp_path / "verify.json"
    assert run_cli(["verify", "--n", "5", "--beta", "pi/2", "--level", "quick",
                    "--out", str(out)]) == 0
    check = seen["integral_identities"]
    witness = check.details["worst_point"]
    assert witness["kind"] in ("analytic", "coanalytic")
    assert abs(complex(*witness["point"])) <= 1.0
    lhs, rhs = complex(*witness["lhs"]), complex(*witness["rhs"])
    assert abs(lhs - rhs) == check.max_residual
    reported = next(c for c in json.loads(out.read_text())["checks"]
                    if c["name"] == "integral_identities")
    assert set(reported) == {"name", "passed", "max_residual", "samples_used"}


def test_verify_hands_every_stage_one_params_at_the_phase_given(tmp_path, monkeypatch):
    from rosette import verify
    from rosette.maps import RosetteParams, reduce_beta
    from rosette.verify import CheckResult, VerificationReport

    seen = {}
    ok = CheckResult("stub", True, 0.0, 1)

    def recorder(name, report):
        def stage(params, *args, **kwargs):
            seen[name] = params
            return VerificationReport(params, [ok]) if report else ok
        return stage

    stages = {"symmetry_suite": True, "univalence_scan": True,
              "integral_identities": False, "fundamental_tiling": False}
    for name, report in stages.items():
        monkeypatch.setattr(verify, name, recorder(name, report))
    out = tmp_path / "verify.json"
    for beta in ("3pi/2", "-2.9", "7.5", "0.3", "pi/2"):
        seen.clear()
        assert run_cli(["verify", "--n", "5", "--beta", beta, "--level", "full",
                        "--out", str(out)]) == 0
        assert set(seen) == set(stages) and len({id(p) for p in seen.values()}) == 1
        assert seen["symmetry_suite"] == RosetteParams(5, parse_beta(beta))
        payload = json.loads(out.read_text())
        assert (payload["beta_canonical"], payload["half_turn_shifts"]) == reduce_beta(
            parse_beta(beta))


def test_verify_phase_reduction_reads_the_half_turns_of_the_phase_given(tmp_path, monkeypatch):
    # at 3pi/2 the suite compares f at 3pi/2 with its canonical twin carried by the law,
    # not f at pi/2 with itself
    from rosette import cli

    seen = {}
    payload_of = cli._checks_payload

    def capture(checks):
        seen.update((c.name, c) for c in checks)
        return payload_of(checks)

    monkeypatch.setattr(cli, "_checks_payload", capture)
    out = tmp_path / "verify.json"
    for beta, shifts in (("3pi/2", 1), ("-2.9", -1), ("0.3", 0)):
        assert run_cli(["verify", "--n", "5", "--beta", beta, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["half_turn_shifts"] == shifts
        check = seen["phase_reduction"]
        assert check.passed and check.details == {"shifts": shifts}


# --- dump ----------------------------------------------------------------------------


def test_dump_boundary(tmp_path):
    out = tmp_path / "boundary.csv"
    run_cli(
        ["dump", "--n", "6", "--beta", "0", "--what", "boundary", "--count", "64", "--out", str(out)]
    )
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["t", "re", "im", "d_arg", "d_mag"]
    assert len(rows) == 65
    for r in rows[1:]:
        t = float(r[0])
        d_mag = float(r[4])
        expect = math.sqrt(2.0) / abs((1.0 - complex(math.cos(12 * t), math.sin(12 * t))) ** 0.5)
        assert d_mag == pytest.approx(expect, rel=1e-10)


def test_dump_radial_straight_ray(tmp_path):
    out = tmp_path / "radial.csv"
    run_cli(
        ["dump", "--n", "6", "--beta", "0", "--what", "radial", "--count", "12", "--out", str(out)]
    )
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["ray_arg", "r", "re", "im"]
    first_ray = [r for r in rows[1:] if float(r[0]) == 0.0]
    assert len(first_ray) == 12
    for r in first_ray:
        assert abs(float(r[3])) < 1e-13  # argument identically zero on the ray


def test_dump_radial_magnitude_increases_at_half_pi(tmp_path):
    out = tmp_path / "radial2.csv"
    run_cli(
        ["dump", "--n", "5", "--beta", "pi/2", "--what", "radial", "--count", "24", "--out", str(out)]
    )
    rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
    mags = [math.hypot(float(r[2]), float(r[3])) for r in rows if float(r[0]) == 0.0]
    assert all(b > a for a, b in zip(mags, mags[1:]))


@pytest.mark.parametrize("n,beta", [(5, "0.3"), (12, "-pi/2"), (96, "3pi/2")])
def test_dump_radial_makes_one_series_pass_and_writes_the_per_ray_rows(series_passes, tmp_path,
                                                                       n, beta):
    out = tmp_path / "radial.csv"
    argv = ["dump", "--n", str(n), "--beta", beta, "--what", "radial", "--count", "40"]
    assert run_cli(argv + ["--out", str(out)]) == 0
    assert series_passes == [2]  # h and g on all three rays at once
    params, rs, want = RosetteParams(n, parse_beta(beta)), (np.arange(40) + 0.5) / 40, []
    for ray_arg in (0.0, PI / n, 2.0 * PI / n):  # the oracle: one pass per ray
        vals = combine_parts(params.beta, *parts_many(params, rs * np.exp(1j * ray_arg)))
        want += [[ray_arg, r, v.real, v.imag] for r, v in zip(rs, vals)]
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["ray_arg", "r", "re", "im"]
    assert [[float(cell) for cell in row] for row in rows[1:]] == want


# --- render / decompose ----------------------------------------------------------------


def test_render_deterministic_and_valid(tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    args = ["render", "--n", "5", "--beta", "pi/3", "--samples", "64", "--grid", "12x8"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    root = ET.fromstring(a.read_text())
    assert root.tag.endswith("svg")
    assert len(list(root)) > 20


def test_render_with_overlays(tmp_path):
    out = tmp_path / "overlay.svg"
    code = run_cli(
        [
            "render",
            "--n",
            "6",
            "--beta",
            "0",
            "--samples",
            "64",
            "--grid",
            "8x4",
            "--overlay",
            "features,axes,hypocycloid",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert "<circle" in text  # feature dots present


def test_decompose(tmp_path):
    svg = tmp_path / "dec.svg"
    rep = tmp_path / "dec.json"
    code = run_cli(
        [
            "decompose",
            "--n",
            "5",
            "--beta",
            "pi/5",
            "--samples",
            "64",
            "--grid",
            "8x4",
            "--probe-grid",
            "25",
            "--out",
            str(svg),
            "--report",
            str(rep),
        ]
    )
    assert code == 0
    payload = json.loads(rep.read_text())
    assert payload["passed"] is True
    assert payload["violations"] == 0
    assert payload["vertex_angle"] == pytest.approx(2 * PI / 5, abs=1e-9)


def test_negative_beta_value_on_command_line(tmp_path):
    out = tmp_path / "neg.json"
    assert run_cli(["features", "--n", "5", "--beta", "-pi/3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["beta_input"] == pytest.approx(-PI / 3)


# --- input validation --------------------------------------------------------------


BAD_INPUT = [
    (["dump", "--n", "5", "--beta", "0", "--count", "0"], "--count"),
    (["dump", "--n", "5", "--beta", "0", "--count", "-3"], "--count"),
    (["render", "--n", "5", "--beta", "0", "--width", "0"], "--width"),
    (["decompose", "--n", "5", "--beta", "0", "--width", "0"], "--width"),
    (["render", "--n", "5", "--beta", "0", "--samples", "4"], "--samples"),
    (["features", "--n", "5", "--beta", "nan"], "--beta"),
    (["features", "--n", "5", "--beta", "inf"], "--beta"),
    (["features", "--n", "5", "--beta", "-inf"], "--beta"),
    (["verify", "--n", "5", "--beta", "1e300", "--level", "quick"], "--beta"),
    (["features", "--n", "5", "--beta", "-1e5"], "--beta"),
    (["dump", "--n", "5", "--beta", "40000pi"], "--beta"),
    (["render", "--n", "5", "--beta", "0", "--margin", "-1"], "--margin"),
    (["render", "--n", "5", "--beta", "0", "--margin", "nan"], "--margin"),
    (["render", "--n", "5", "--beta", "0", "--margin", "inf"], "--margin"),
    (["decompose", "--n", "5", "--beta", "0", "--margin", "-1"], "--margin"),
    (["decompose", "--n", "5", "--beta", "0", "--margin", "nan"], "--margin"),
    (["decompose", "--n", "5", "--beta", "0", "--margin", "inf"], "--margin"),
    (["verify", "--n", "5", "--beta", "0", "--seed", "-1"], "--seed"),
    (["decompose", "--n", "5", "--beta", "0", "--report", "."], "--report"),
    (["decompose", "--n", "5", "--beta", "0", "--report", "no-such-dir/r.json"], "--report"),
    (["decompose", "--n", "5", "--beta", "0", "--report", ""], "--report"),
    (["features", "--n", "3", "--beta", "pi/0"], "--beta"),
    (["features", "--n", "3", "--beta", "0pi/0"], "--beta"),
    (["features", "--n", "3", "--beta", "-pi/0"], "--beta"),
    (["features", "--n", "3", "--beta", "pi/0.0"], "--beta"),
]

BAD_INPUT_IDS = [
    "count-0", "count-neg", "render-width-0", "decompose-width-0", "samples-4",
    "beta-nan", "beta-inf", "beta-neg-inf", "beta-1e300", "beta-neg-1e5", "beta-40000pi",
    "render-margin-neg", "render-margin-nan", "render-margin-inf", "decompose-margin-neg",
    "decompose-margin-nan", "decompose-margin-inf", "seed-neg", "report-directory",
    "report-missing-directory", "report-empty", "beta-pi-over-0", "beta-0pi-over-0",
    "beta-neg-pi-over-0", "beta-pi-over-0.0",
]


OUT_PATH_COMMANDS = ["features", "verify", "dump", "render", "decompose"]
UNUSABLE_OUT_PATHS = ["directory", "missing-directory", "empty"]

# decompose's SVG and report both on stdout: --out - with --report absent or -
SHARED_STDOUT = {"report-absent": ["--out", "-"], "report-dash": ["--out", "-", "--report", "-"]}


def unusable_out(root: Path, where: str) -> str:
    return {"directory": str(root), "missing-directory": str(root / "missing" / "x.out"),
            "empty": ""}[where]


@pytest.fixture(scope="module")
def usage_error_modules(tmp_path_factory):
    """For each usage error of this section, by test id: its exit code and which of verify
    and render it loaded, from one fresh interpreter that runs them all in turn."""
    root = tmp_path_factory.mktemp("usage")
    cases = {"small-order": ["features", "--n", "2", "--beta", "0"],
             "render-without-out": ["render", "--n", "5", "--beta", "0", "--samples", "16",
                                    "--grid", "2x2"]}
    cases.update((key, argv + ["--out", str(root / "out")])
                 for key, (argv, _) in zip(BAD_INPUT_IDS, BAD_INPUT))
    for command in OUT_PATH_COMMANDS:
        for where in UNUSABLE_OUT_PATHS:
            cases[f"{command}-{where}"] = [command, "--n", "5", "--beta", "0", "--out",
                                           unusable_out(root, where)]
    cases.update((f"shared-stdout-{key}", ["decompose", "--n", "5", "--beta", "0", *extra])
                 for key, extra in SHARED_STDOUT.items())
    code = (
        "import contextlib, io, json, sys\n"
        "from rosette.cli import main\n"
        "found = {}\n"
        "for key, argv in json.load(sys.stdin).items():\n"
        "    try:\n"
        "        with contextlib.redirect_stderr(io.StringIO()):\n"
        "            main(argv)\n"
        "    except SystemExit as exc:\n"
        "        found[key] = [exc.code, sorted(m for m in ('rosette.verify', 'rosette.render')\n"
        "                                       if m in sys.modules)]\n"
        "print(json.dumps(found))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], input=json.dumps(cases),
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    return json.loads(out.stdout)


@pytest.mark.parametrize("argv,option", BAD_INPUT, ids=BAD_INPUT_IDS)
def test_bad_input_is_a_one_line_usage_error(argv, option, tmp_path, capsys, request,
                                             usage_error_modules):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert err[-1].startswith(f"rosette {argv[0]}: error: argument {option}:")
    assert not any("Traceback" in line for line in err)
    assert usage_error_modules[request.node.callspec.id] == [2, []]


@pytest.mark.parametrize("command", OUT_PATH_COMMANDS)
@pytest.mark.parametrize("where", UNUSABLE_OUT_PATHS)
def test_an_unusable_out_path_is_a_one_line_usage_error_before_any_work(
    command, where, tmp_path, monkeypatch, capsys, usage_error_modules
):
    from rosette import boundary, render, verify

    def fail(*args, **kwargs):
        raise AssertionError("work ran before the output path was checked")

    for module, name in ((boundary, "extract_features"), (verify, "symmetry_suite"),
                         (boundary, "curve_samples"), (render, "render_svg")):
        monkeypatch.setattr(module, name, fail)
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--n", "5", "--beta", "0", "--out", unusable_out(tmp_path, where)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert err[-1].startswith(f"rosette {command}: error: argument --out: cannot write")
    assert not any("Traceback" in line for line in err)
    assert usage_error_modules[f"{command}-{where}"] == [2, []]


@pytest.mark.parametrize("key", SHARED_STDOUT)
def test_decompose_with_both_outputs_on_stdout_is_a_usage_error_before_any_work(
    key, monkeypatch, capsys, usage_error_modules
):
    # before, the SVG and then the JSON report went to stdout, so neither could be parsed
    from rosette import render, verify

    def fail(*args, **kwargs):
        raise AssertionError("work ran before the outputs were checked")

    monkeypatch.setattr(verify, "fundamental_decomposition", fail)
    monkeypatch.setattr(render, "render_svg", fail)
    with pytest.raises(SystemExit) as exc:
        run_cli(["decompose", "--n", "5", "--beta", "0", *SHARED_STDOUT[key]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert err[-1].startswith("rosette decompose: error: argument --report: must name a file")
    assert not any("Traceback" in line for line in err)
    assert usage_error_modules[f"shared-stdout-{key}"] == [2, []]


def test_out_dash_writes_to_stdout(capsys):
    assert run_cli(["features", "--n", "5", "--beta", "0", "--out", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 5


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
def test_parse_beta_rejects_non_finite(bad):
    with pytest.raises(argparse.ArgumentTypeError, match="not a finite number"):
        parse_beta(bad)


def test_parse_beta_accepts_phases_up_to_1e4():
    assert parse_beta("1e4") == 1e4
    assert parse_beta("-3183pi") == pytest.approx(-3183 * PI)
    with pytest.raises(argparse.ArgumentTypeError, match="outside"):
        parse_beta("10000.001")


def test_render_without_out_is_a_usage_error_before_any_work(monkeypatch, capsys,
                                                            usage_error_modules):
    from rosette import render

    def fail(spec):
        raise AssertionError("render_svg ran before the arguments were checked")

    monkeypatch.setattr(render, "render_svg", fail)
    with pytest.raises(SystemExit) as exc:
        run_cli(["render", "--n", "5", "--beta", "0", "--samples", "16", "--grid", "2x2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err[-1] == "rosette render: error: the following arguments are required: --out"
    assert usage_error_modules["render-without-out"] == [2, []]


def test_decompose_out_stays_optional():
    from rosette.cli import build_parser

    args = build_parser().parse_args(["decompose", "--n", "5", "--beta", "0"])
    assert args.out is None


def test_decompose_renders_only_for_out(tmp_path, monkeypatch):
    from rosette import render

    calls = []
    real = render.render_svg
    monkeypatch.setattr(render, "render_svg", lambda spec, **kw: calls.append(spec) or real(spec, **kw))
    argv = ["decompose", "--n", "5", "--beta", "0.3", "--probe-grid", "12"]
    reports = []
    for extra, renders in (([], 0), (["--out", str(tmp_path / "dec.svg")], 1)):
        report = tmp_path / f"report-{renders}.json"
        assert run_cli(argv + extra + ["--report", str(report)]) == 0
        reports.append(report.read_bytes())
        assert len(calls) == renders
    assert reports[0] == reports[1]


@pytest.mark.parametrize("beta", ["0.3", "3pi/2"])
def test_decompose_draws_the_copies_it_tiled_from_one_fundamental_set(beta, tmp_path, monkeypatch):
    from rosette import boundary, cli, render, verify

    built, tiled, drawn = [], [], []
    real_copies, real_tiling, real_render = (
        boundary.rotated_copies, verify.fundamental_decomposition, render.render_svg)
    for module in (boundary, render, verify):  # every binding that could build the copies
        monkeypatch.setattr(module, "rotated_copies", lambda p: built.append(p) or real_copies(p))
    monkeypatch.setattr(verify, "fundamental_decomposition",
                        lambda *a, **kw: tiled.append(real_tiling(*a, **kw)) or tiled[-1])
    monkeypatch.setattr(render, "render_svg",
                        lambda spec, **kw: drawn.append(kw["copies"]) or real_render(spec, **kw))
    out = tmp_path / "dec.svg"
    argv = ["decompose", "--n", "5", "--beta", beta, "--probe-grid", "12", "--out", str(out)]
    assert run_cli(argv + ["--report", str(tmp_path / "report.json")]) == 0
    assert len(built) == 1 and len(tiled) == len(drawn) == 1 and drawn[0] is tiled[0][0]
    # the overlay is the same figure that render_svg draws from copies it builds itself
    spec = cli._render_spec(cli.build_parser().parse_args(argv), frozenset({Overlay.FUNDAMENTAL_SET}))
    assert out.read_text(encoding="utf-8") == real_render(spec)


SUCCESSIVE_CALLS = [
    ["features", "--n", "5", "--beta", "pi/4"],
    ["dump", "--n", "6", "--beta", "-pi/3", "--what", "boundary", "--count", "16"],
    ["render", "--n", "5", "--beta", "pi/2", "--samples", "32", "--grid", "4x3",
     "--overlay", "features"],
    ["features", "--n", "7", "--beta", "-0.7", "--format", "csv"],
    ["dump", "--n", "5", "--beta", "0", "--what", "radial", "--count", "8"],
    ["decompose", "--n", "4", "--beta", "2.5", "--samples", "32", "--grid", "4x3",
     "--probe-grid", "12"],
]


def test_successive_main_calls_give_the_outputs_of_fresh_parsers(tmp_path):
    from rosette.cli import _merge_negative_angles, build_parser

    for i, argv in enumerate(SUCCESSIVE_CALLS):
        outs = []
        for how in ("main", "fresh"):
            out = tmp_path / f"{i}-{how}.out"
            full = argv + ["--out", str(out)]
            if argv[0] == "decompose":
                full += ["--report", str(tmp_path / f"{i}-{how}.json")]
            if how == "main":
                assert main(full) == 0
            else:
                args = build_parser().parse_args(_merge_negative_angles(full))
                assert args.func(args) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], argv
        if argv[0] == "decompose":
            assert (tmp_path / f"{i}-main.json").read_bytes() == (
                tmp_path / f"{i}-fresh.json"
            ).read_bytes()


def test_bad_input_after_a_good_call_is_still_a_one_line_usage_error(tmp_path, capsys):
    good = ["features", "--n", "5", "--beta", "0", "--out", str(tmp_path / "good.json")]
    assert main(good) == 0
    with pytest.raises(SystemExit) as exc:
        main(["dump", "--n", "5", "--beta", "0", "--count", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert err[-1].startswith("rosette dump: error: argument --count:")
    assert not any("Traceback" in line for line in err)
    # the failed parse left nothing behind for the next call
    assert main(good) == 0
    assert json.loads((tmp_path / "good.json").read_text())["n"] == 5

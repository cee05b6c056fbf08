"""Byte check of the large feature reports and boundary dump against the reference writers.

Runs ``features --n 100000 --beta 0.3`` as JSON and as CSV and ``dump --n 2000 --beta 0.3
--count 200000`` through ``rosette.cli.main``, and compares their bytes with what the
reference writers print for the same records, read from the library in this process:
``json.dumps(payload, indent=2)`` and a CSV written one cell at a time, the writers of
rosette 0.23.0.  The tier-1 tests (tests/test_outputs.py) take the writers from here.
Exits 1 naming each output that differs.  Needs only the runtime dependencies:

    python tests/large_outputs.py
"""

import json
import math
import os
import sys
import tempfile

import numpy as np

from rosette import RosetteParams, curve_samples, extract_features, reduce_beta
from rosette.cli import main
from rosette.maps import combine_parts, parts_many

FEATURE_COLUMNS = ("kind", "t", "re", "im", "magnitude", "argument", "axis_arg",
                   "interior_angle")


def quote(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def reference_csv(header, rows) -> str:
    """CSV text written one cell at a time: None empty, a float by repr, else str quoted."""
    lines = (["" if v is None else repr(float(v)) if isinstance(v, float) else quote(str(v))
              for v in row] for row in [header, *rows])
    return "".join([",".join(cells) + "\r\n" for cells in lines])


def feature_payload(n: int, beta_input: float, report) -> dict:
    """The JSON payload of ``features`` from the records of ``report``."""
    beta, shifts = reduce_beta(beta_input)
    features = [dict(zip(FEATURE_COLUMNS, (
        ft.kind.value, ft.t, ft.location.real, ft.location.imag, ft.magnitude, ft.argument,
        ft.axis_arg, ft.interior_angle))) for ft in report.features]
    return {"schema_version": 1, "kind": "feature_report", "n": n, "beta_input": beta_input,
            "beta_canonical": beta, "half_turn_shifts": shifts, "features": features,
            "separations": list(report.separations),
            "total_curvature_per_petal": report.total_curvature_per_petal}


def reference_features(n: int, beta_input: float, fmt: str, report) -> str:
    """What ``features --format fmt`` writes for ``report``, the features at the canonical
    phase of ``beta_input``."""
    payload = feature_payload(n, beta_input, report)
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    return reference_csv(FEATURE_COLUMNS, [list(ft.values()) for ft in payload["features"]])


def reference_dump(samples) -> str:
    """What ``dump --what boundary`` writes for the records ``samples``."""
    return reference_csv(["t", "re", "im", "d_arg", "d_mag"],
                         [[s.t, s.value.real, s.value.imag, s.d_arg, s.d_mag] for s in samples])


def reference_radial(n: int, beta: float, count: int) -> str:
    """What ``dump --what radial`` writes."""
    params = RosetteParams(n, beta)
    rs = (np.arange(count) + 0.5) / count
    angles = (0.0, math.pi / n, 2.0 * math.pi / n)
    rays = np.concatenate([rs * np.exp(1j * a) for a in angles])
    vals = combine_parts(params.beta, *parts_many(params, rays)).reshape(len(angles), -1)
    rows = [[a, r, v.real, v.imag] for a, ray in zip(angles, vals) for r, v in zip(rs, ray)]
    return reference_csv(["ray_arg", "r", "re", "im"], rows)


def boundary_ts(count: int) -> np.ndarray:
    """The parameters of ``dump --what boundary --count count``."""
    return (np.arange(count) + 0.5) * 2.0 * math.pi / count


def written(argv: list[str]) -> bytes:
    """The bytes that ``rosette argv --out FILE`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        if main([*argv, "--out", path]) != 0:
            raise SystemExit(f"rosette {' '.join(argv)} failed")
        with open(path, "rb") as fh:
            return fh.read()


def failures() -> list[str]:
    found = []
    n, beta = 100000, 0.3
    report = extract_features(RosetteParams(n, reduce_beta(beta)[0]))
    for fmt in ("json", "csv"):
        argv = ["features", "--n", str(n), "--beta", repr(beta), "--format", fmt]
        if written(argv) != reference_features(n, beta, fmt, report).encode("utf-8"):
            found.append(" ".join(argv))
    del report
    n, count = 2000, 200000
    argv = ["dump", "--n", str(n), "--beta", repr(beta), "--count", str(count)]
    expect = reference_dump(curve_samples(RosetteParams(n, beta), boundary_ts(count)))
    if written(argv) != expect.encode("utf-8"):
        found.append(" ".join(argv))
    return found


if __name__ == "__main__":
    problems = failures()
    print("\n".join(f"differs from the reference writer: rosette {p}" for p in problems) or "ok")
    sys.exit(1 if problems else 0)

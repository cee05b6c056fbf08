"""Smoke check that the library runs without mpmath or scipy installed or imported.

Imports rosette, evaluates the boundary on the cusp and node directions
(series arguments that round to w = 1), extracts the features, evaluates
f, h' and g' on a 2048-point interior batch at n = 96 (the direct sum), builds
the boundary polylines at n = 96 for beta = 0.3 and pi/2 (the half-speed
curve), runs a univalence scan at n = 96 (the pruned nearest-segment query
gates its winding probes), and runs a small `render`, a 64-row boundary
`dump`, a 2048-row boundary `dump` at n = 6, a quick `verify` (whose integral
check uses the tanh-sinh rule), a full `verify` at n = 5 (all four stages, the
fundamental tiling included) and at n = 200 (whose dilatation check skips the
samples where z^(n-2) underflows), CSV `features` reports at beta = 0.3 and
pi/2 (whose nodes are confirmed on the half-speed curve) and a `decompose`
with a coverage report (the tiling of the image by fundamental-set copies)
through the command line; exits non-zero if a value is not finite, a polyline
is not closed or crosses itself, a univalence check fails, a command fails, a
report does not say it passed, a CSV report does not parse back, the large
dump's values differ from `boundary_points` at its parameters, or mpmath or
scipy ended up in sys.modules.
Needs only the runtime dependencies:

    python tests/smoke.py
"""

import csv
import json
import math
import os
import sys
import tempfile

import numpy as np

import rosette
from rosette.cli import main
from rosette.maps import dg_many, dh_many
from rosette.verify import boundary_polyline, count_self_intersections, univalence_scan

params = rosette.RosetteParams(5, 0.3)
rosette.f_many(params, np.exp(1j * np.pi / params.n * np.arange(2 * params.n)))
rosette.extract_features(params)
inner = rosette.RosetteParams(96, 0.3)
rng = np.random.default_rng(0)
z = 0.99 * np.sqrt(rng.uniform(0, 1, 2048)) * np.exp(2j * np.pi * rng.uniform(0, 1, 2048))
for values in (rosette.f_many(inner, z), dh_many(inner, z), dg_many(inner, z)):
    if not np.isfinite(values).all():
        sys.exit("an interior value is not finite")
for beta in (0.3, np.pi / 2):
    poly = boundary_polyline(rosette.RosetteParams(96, beta))
    if not (np.isfinite(poly).all() and poly[0] == poly[-1]):
        sys.exit(f"the boundary polyline at beta = {beta} is not finite and closed")
    if count_self_intersections(poly) != 0:
        sys.exit(f"the boundary polyline at beta = {beta} crosses itself")
report = univalence_scan(rosette.RosetteParams(96, 0.3), grid_resolution=12, per_interval=96)
failed = [c.name for c in report.checks if not c.passed]
if failed:
    sys.exit(f"the univalence scan at n = 96 failed {failed}")
with tempfile.TemporaryDirectory() as tmp:
    svg, table = os.path.join(tmp, "r.svg"), os.path.join(tmp, "b.csv")
    if main(["render", "--n", "6", "--beta", "pi/2", "--samples", "64", "--grid", "6x4",
             "--out", svg]) != 0:
        sys.exit("render failed")
    if main(["dump", "--n", "5", "--beta", "0.3", "--count", "64", "--out", table]) != 0:
        sys.exit("dump failed")
    if main(["verify", "--n", "5", "--beta", "pi/2", "--level", "quick",
             "--out", os.path.join(tmp, "v.json")]) != 0:
        sys.exit("verify failed")
    full = os.path.join(tmp, "v5.json")
    if main(["verify", "--n", "5", "--beta", "0.3", "--level", "full", "--out", full]) != 0:
        sys.exit("full verify at n = 5 failed")
    with open(full, encoding="utf-8") as fh:
        if json.load(fh)["passed"] is not True:
            sys.exit("the full verify report at n = 5 did not pass")
    features = os.path.join(tmp, "f.csv")
    for beta, count in (("0.3", 10), ("pi/2", 5)):  # cusps and removable nodes, or nodes
        if main(["features", "--n", "5", "--beta", beta, "--format", "csv",
                 "--out", features]) != 0:
            sys.exit(f"features at beta = {beta} failed")
        with open(features, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != count or not all(math.isfinite(float(row["magnitude"])) for row in rows):
            sys.exit(f"the features CSV at beta = {beta} did not parse back to {count} finite rows")
    large = os.path.join(tmp, "b6.csv")
    if main(["dump", "--n", "6", "--beta", "0.3", "--count", "2048", "--out", large]) != 0:
        sys.exit("dump at n = 6 failed")
    with open(large, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ts = np.array([float(row["t"]) for row in rows])
    values = [complex(float(row["re"]), float(row["im"])) for row in rows]
    if len(rows) != 2048 or values != rosette.boundary_points(rosette.RosetteParams(6, 0.3),
                                                              ts).tolist():
        sys.exit("the 2048-row dump did not parse back to boundary_points")
    if main(["verify", "--n", "200", "--beta", "0.3", "--level", "full",
             "--out", os.path.join(tmp, "v200.json")]) != 0:
        sys.exit("verify at n = 200 failed")
    report_path = os.path.join(tmp, "coverage.json")
    if main(["decompose", "--n", "5", "--beta", "-0.7", "--probe-grid", "24",
             "--report", report_path]) != 0:
        sys.exit("decompose failed")
    with open(report_path, encoding="utf-8") as fh:
        if json.load(fh)["passed"] is not True:
            sys.exit("the coverage report did not pass")
    with open(svg, encoding="utf-8") as fh:
        if fh.read().count("<path") != 6 + 3 + 1:  # rays, inner circles, boundary
            sys.exit("render drew the wrong number of curves")
    with open(table, encoding="utf-8") as fh:
        if len(fh.read().splitlines()) != 65:
            sys.exit("dump wrote the wrong number of rows")
for name in ("mpmath", "scipy"):
    if name in sys.modules:
        sys.exit(f"{name} was imported")
print("ok")

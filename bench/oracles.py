"""Independent checks of every job's output.

The references come from mpmath, never from rosette itself: ``hyp2f1`` for
values of h, g and f (the oracle the test suite uses), and the gamma closed
forms behind ``endpoint_values`` combined with the rotation law

    a(j pi/n) = e^{ij pi/n} (e^{i beta/2} h(1) + (-1)^j e^{-i beta/2} g(1))

for the feature points.  Each ``check_*`` returns a list of problems; an
empty list means the job passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET

import mpmath as mp

ABS_TOL = 1e-12  # the library's default TruncationPolicy.abs_tol
DPS = 30

# SVG coordinates are printed with three decimals.
PX_TOL = 0.0005 + 1e-9
# Defaults of the render/decompose CLI that fix the pixel transform.
RENDER_WIDTH = 900
RENDER_MARGIN = 0.08


def reduce_beta(beta: float) -> tuple[float, int]:
    """(beta_c, l) with beta = beta_c + l*pi and beta_c in (-pi/2, pi/2]."""
    shifts = math.ceil((beta - math.pi / 2) / math.pi)
    canon = beta - shifts * math.pi
    if canon <= -math.pi / 2:
        canon, shifts = canon + math.pi, shifts - 1
    elif canon > math.pi / 2:
        canon, shifts = canon - math.pi, shifts + 1
    return canon, shifts


def is_half_pi(beta_c: float) -> bool:
    return abs(beta_c - math.pi / 2) <= 1e-9


def mp_f(n: int, beta: float, z: complex) -> complex:
    """f_beta(z) from mpmath hyp2f1."""
    with mp.workdps(DPS):
        zz = mp.mpc(z)
        w = zz ** (2 * n)
        x = mp.mpf(1) / (2 * n)
        h = zz * mp.hyp2f1(0.5, x, 1 + x, w)
        g = zz ** (n - 1) / (n - 1) * mp.hyp2f1(0.5, 0.5 - x, 1.5 - x, w)
        rot = mp.expj(mp.mpf(beta) / 2)
        return complex(rot * h + mp.conj(g) / rot)


def mp_derivatives(n: int, z: complex) -> tuple[complex, complex]:
    """(h'(z), g'(z)) = (1, z^{n-2}) / sqrt(1 - z^{2n}), principal branch."""
    with mp.workdps(DPS):
        zz = mp.mpc(z)
        root = mp.sqrt(1 - zz ** (2 * n))
        return complex(1 / root), complex(zz ** (n - 2) / root)


def endpoint_closed_forms(n: int) -> tuple[float, float]:
    """(h(1), g(1)) from the gamma closed forms of the two families at 1."""
    with mp.workdps(DPS):
        x = mp.mpf(1) / (2 * n)
        fa = mp.sqrt(mp.pi) * mp.gamma(1 + x) / mp.gamma(0.5 + x)
        fc = mp.sqrt(mp.pi) * mp.gamma(1.5 - x) / mp.gamma(1 - x)
        return float(fa), float(fc / (n - 1))


def feature_points(n: int, beta: float) -> list[complex]:
    """a_beta(j pi/n) for j = 0..2n-1 by the rotation law."""
    h1, g1 = endpoint_closed_forms(n)
    with mp.workdps(DPS):
        rot = mp.expj(mp.mpf(beta) / 2)
        out = []
        for j in range(2 * n):
            base = rot * h1 + (-1) ** j * g1 / rot
            out.append(complex(mp.expj(j * mp.pi / n) * base))
        return out


def bounding_radius(n: int) -> float:
    h1, _ = endpoint_closed_forms(n)
    return h1 * (1.0 + math.tan(math.pi / (2 * n)))


def _near(got: complex, want: complex, tol: float = ABS_TOL) -> bool:
    return abs(got - want) <= tol


# --- CLI outputs -------------------------------------------------------------


def check_verify(job, rc: int, texts: dict) -> list[str]:
    problems = [] if rc == 0 else [f"exit code {rc}"]
    doc = json.loads(texts["out"])
    if doc.get("kind") != "verification_report" or doc.get("n") != job.n:
        problems.append("report kind or n does not match the request")
    if doc.get("level") != job.level:
        problems.append("report level does not match the request")
    checks = doc.get("checks", [])
    names = {c["name"] for c in checks}
    if job.level == "full" and "fundamental_tiling" not in names:
        problems.append("full verification lacks the fundamental_tiling check")
    problems += [f"check {c['name']} not passed" for c in checks if c["passed"] is not True]
    if doc.get("passed") is not True or not checks:
        problems.append("report not passed")
    return problems


def check_decompose(job, rc: int, texts: dict) -> list[str]:
    problems = [] if rc == 0 else [f"exit code {rc}"]
    doc = json.loads(texts["report"])
    if doc.get("passed") is not True or doc.get("violations") != 0:
        problems.append("coverage report not passed")
    if doc.get("probes") != job.probe_grid**2:
        problems.append(f"coverage used {doc.get('probes')} probes")
    ET.fromstring(texts["out"])
    return problems


def _expected_features(n: int, beta: float) -> list[tuple[str, float, complex]]:
    beta_c, _ = reduce_beta(beta)
    pts = feature_points(n, beta_c)
    if is_half_pi(beta_c):
        return [("node", 2 * k * math.pi / n, pts[2 * k]) for k in range(n)]
    return [
        ("cusp" if j % 2 == 0 else "removable_node", j * math.pi / n, pts[j])
        for j in range(2 * n)
    ]


def check_features(job, rc: int, texts: dict) -> list[str]:
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if job.fmt == "json":
        doc = json.loads(texts["out"])
        beta_c, shifts = reduce_beta(job.beta)
        if doc.get("half_turn_shifts") != shifts or abs(doc["beta_canonical"] - beta_c) > 1e-12:
            problems.append("canonical beta or shift count is wrong")
        rows = [(f["kind"], f["t"], complex(f["re"], f["im"])) for f in doc["features"]]
    else:
        reader = csv.DictReader(io.StringIO(texts["out"]))
        rows = [(r["kind"], float(r["t"]), complex(float(r["re"]), float(r["im"])))
                for r in reader]
    expected = _expected_features(job.n, job.beta)
    if len(rows) != len(expected):
        return problems + [f"{len(rows)} features, expected {len(expected)}"]
    for (kind, t, loc), (want_kind, want_t, want_loc) in zip(rows, expected):
        if kind != want_kind or abs(t - want_t) > 1e-12:
            problems.append(f"feature at t={t} is {kind}, expected {want_kind} at {want_t}")
        elif not _near(loc, want_loc):
            problems.append(f"feature at t={t} off by {abs(loc - want_loc):.3e}")
    return problems


def check_dump(job, rc: int, texts: dict) -> list[str]:
    problems = [] if rc == 0 else [f"exit code {rc}"]
    rows = list(csv.DictReader(io.StringIO(texts["out"])))
    if len(rows) != job.count:
        return problems + [f"{len(rows)} rows, expected {job.count}"]
    for k in job.sample_rows:
        t = float(rows[k]["t"])
        if abs(t - (k + 0.5) * 2.0 * math.pi / job.count) > 1e-12:
            problems.append(f"row {k} has t={t}")
            continue
        got = complex(float(rows[k]["re"]), float(rows[k]["im"]))
        want = mp_f(job.n, job.beta, complex(mp.expj(mp.mpf(t))))
        if not _near(got, want):
            problems.append(f"row {k} (t={t}) off by {abs(got - want):.3e}")
    return problems


def _svg_dots(text: str) -> list[tuple[float, float]]:
    root = ET.fromstring(text)
    return [
        (float(el.get("cx")), float(el.get("cy")))
        for el in root.iter()
        if el.tag.rsplit("}", 1)[-1] == "circle"
    ]


def check_render(job, rc: int, texts: dict) -> list[str]:
    """The feature dots of the SVG sit at the oracle feature points, in pixels."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    n = job.n
    beta_c, shifts = reduce_beta(job.beta)
    pts = feature_points(n, job.beta)
    if is_half_pi(beta_c):  # nodes only, carried along by the half-turn shifts
        pts = [pts[j] for j in range(2 * n) if (j - shifts) % 2 == 0]
    half = bounding_radius(n) * (1.0 + RENDER_MARGIN)
    scale = RENDER_WIDTH / (2.0 * half)
    want = [((p.real + half) * scale, (half - p.imag) * scale) for p in pts]
    dots = _svg_dots(texts["out"])
    if len(dots) != len(want):
        return problems + [f"{len(dots)} feature dots, expected {len(want)}"]
    for x, y in want:
        err = min(max(abs(x - dx), abs(y - dy)) for dx, dy in dots)
        if err > PX_TOL:
            problems.append(f"no feature dot within {PX_TOL} px of ({x:.4f}, {y:.4f})")
    return problems


# --- library outputs ---------------------------------------------------------


def check_interior(job, output) -> list[str]:
    problems = []
    for z, f, dh, dg in output:
        want_f = mp_f(job.n, job.beta, z)
        want_dh, want_dg = mp_derivatives(job.n, z)
        for name, got, want in (("f", f, want_f), ("dh", dh, want_dh), ("dg", dg, want_dg)):
            if not _near(got, want):
                problems.append(f"{name}({z}) off by {abs(got - want):.3e}")
    return problems

"""Self-tests of the benchmark: tiny workloads pass, wrong values fail, spans cover the layers.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, series_bands  # noqa: E402


def tiny_deck(workload: str) -> list:
    """A few cheap jobs of the kinds each workload sends."""
    rng = np.random.default_rng(7)
    if workload == "verify-sweep":
        return [
            wl.verify_job(rng, 6, "shifted", "quick"),
            wl.verify_job(rng, 3, "half_pi", "full"),
            wl.decompose_job(rng, 5, "negative", probe_grid=12),
        ]
    if workload == "boundary-render":
        return [
            wl.render_job(rng, 6, "zero", ["--grid", "6x2", "--samples", "32"]),
            wl.render_job(rng, 5, "half_pi", ["--grid", "5x2", "--samples", "32"]),
            wl.features_job(rng, 4, "shifted", "csv"),
            wl.features_job(rng, 5, "half_pi", "json"),
            wl.dump_job(rng, 5, "negative", count=64),
        ]
    return [wl.interior_job(rng, n, "shifted", count=64) for n in (3, 96)]


def run_and_check(workload, tmp_path, tracer=None):
    records = wl.run_pass(tiny_deck(workload), str(tmp_path), "t", tracer)
    return records, wl.check_records(records)


@pytest.mark.parametrize("workload", [w for w, _ in spec.WORKLOADS])
def test_tiny_workload_has_no_failures(workload, tmp_path):
    records, failures = run_and_check(workload, tmp_path)
    assert failures == []
    assert all(r.latency > 0 for r in records)


def test_perturbed_interior_oracle_counts_as_failure(tmp_path, monkeypatch):
    real = oracles.mp_f
    monkeypatch.setattr(oracles, "mp_f", lambda n, b, z: real(n, b, z) + 1e-9)
    records, failures = run_and_check("interior-eval", tmp_path)
    assert len(failures) == len(records)


def test_perturbed_feature_oracle_counts_as_failure(tmp_path, monkeypatch):
    real = oracles.endpoint_closed_forms
    monkeypatch.setattr(oracles, "endpoint_closed_forms",
                        lambda n: (real(n)[0] * (1 + 1e-11), real(n)[1]))
    _, failures = run_and_check("boundary-render", tmp_path)
    # the two feature reports; render dots move by far less than a printed pixel digit
    assert len(failures) == 2 and all(f.startswith("features") for f in failures)


def test_failing_cli_job_is_counted(tmp_path):
    bad = wl.Job("features", 2, "0", 0.0, fmt="json")  # n < 3: argparse exits 2
    failures = wl.check_records(wl.run_pass([bad], str(tmp_path), "bad"))
    assert len(failures) == 1


# Layers the traced run must reach on each workload (the table in bench/README.md).
LAYERS = {
    "interior-eval": ["series.eval", "maps.f_many", "maps.h_many", "maps.g_many",
                      "maps.dh_many", "maps.dg_many"],
    "boundary-render": ["series.eval", "mpmath.lerchphi", "boundary.boundary_points",
                        "boundary.halfspeed_points", "boundary.extract_features",
                        "boundary.curve_samples", "boundary.feature_values",
                        "render.render_svg", "svgout.flatten_curve", "cli.main"],
    "verify-sweep": ["verify.count_self_intersections", "verify.winding_numbers",
                     "verify.fundamental_decomposition", "verify.boundary_polyline",
                     "verify.symmetry_suite", "verify.univalence_scan",
                     "verify.integral_oracle", "scipy.integrate.quad", "cli.main"],
}


@pytest.mark.parametrize("workload", list(LAYERS))
def test_traced_run_reaches_every_layer(workload, tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        _, failures = run_and_check(workload, tmp_path, tracer)
    finally:
        tracer.uninstall()
    assert failures == [] and tracer.absent == [] and tracer.counter_errors == 0
    names = {s.name for s in tracer.spans}
    assert set(LAYERS[workload]) <= names
    metrics = tracer.layer_metrics()
    assert set(metrics) == {n for n, _ in spec.PER_LAYER} - {"trace.overhead"}
    lerch = metrics["mpmath.lerchphi.calls"]["value"]
    if workload == "boundary-render":
        assert lerch > 0
    if workload == "interior-eval":
        assert lerch == 0


def test_uninstall_restores_every_binding():
    from rosette import boundary, maps

    original = maps.f_many
    tracer = Tracer()
    tracer.install()
    assert boundary.f_many is maps.f_many is not original
    tracer.uninstall()
    assert boundary.f_many is maps.f_many is original


def test_self_time_excludes_children():
    tracer = Tracer()
    outer = tracer._open("maps.f_many")
    inner = tracer._open("maps.h_many")
    tracer._close(inner)
    tracer._close(outer)
    outer.start, outer.end, inner.start, inner.end = 0.0, 3.0, 1.0, 2.0
    m = tracer.layer_metrics()
    assert inner.parent == outer.sid
    assert m["maps.f_many.busy_s"]["value"] == 3.0
    assert m["maps.f_many.self_s"]["value"] == 2.0
    assert m["maps.h_many.busy_s"]["value"] == 1.0


def test_series_bands():
    w = np.array([0.5, 0.95j, 1 - 1e-4, 1 - 1e-10, 1.0, np.exp(1e-2j)])
    assert series_bands(w) == {"inner": 1, "rim": 2, "near_one": 1, "sliver": 1, "at_one": 1}


def test_tail_latency_keeps_ten_jobs_beyond():
    lat = [float(i) for i in range(1, 43)]
    pct, value = run.tail_latency(lat)
    assert value == 32.0 and sum(x > value for x in lat) == 10
    assert pct == 100.0 * 32 / 42


def test_times_are_rescaled_to_the_reference_host_speed():
    ref = speed.REFERENCE_PROBE_S["arrays"]
    result = {"latencies": [0.1 * i for i in range(1, 21)], "probes": [2 * ref] * 5,
              "probe_kind": "arrays", "failed": 0, "peak_rss_mb": 100.0, "passes": 1}
    metrics, notes = run.end_to_end(result, [(1.0, 2.0), (3.0, 0.5), (0.8, 1.0)])
    assert notes["host_factor"] == 2.0
    assert metrics["job_p50_s"]["value"] == pytest.approx(notes["wall"]["job_p50_s"] / 2)
    assert metrics["jobs_per_s"]["value"] == pytest.approx(2 * notes["wall"]["jobs_per_s"])
    assert metrics["job_tail_s"]["value"] == pytest.approx(0.5)  # 10 of 20 jobs beyond
    assert metrics["setup_s"]["value"] == pytest.approx(0.8)  # median of 0.5, 6.0, 0.8


def test_pass_mix_is_fixed_across_seeds():
    def mix(seed):
        return sorted((j.kind, j.level, j.fmt, j.n) for j in wl.build_pass("verify-sweep", seed, 0))

    assert mix(1) == mix(2) == mix(3)
    labels = [j.label for j in wl.build_pass("boundary-render", 5, 0)]
    assert labels == [j.label for j in wl.build_pass("boundary-render", 5, 0)]
    assert labels != [j.label for j in wl.build_pass("boundary-render", 6, 0)]


def test_oracle_reduction_matches_rotation_law():
    beta = 0.4 + 2 * math.pi
    canon, shifts = oracles.reduce_beta(beta)
    assert shifts == 2 and abs(canon - 0.4) < 1e-12
    pts = oracles.feature_points(5, canon)
    assert abs(pts[2] - pts[0] * complex(math.cos(2 * math.pi / 5), math.sin(2 * math.pi / 5))) < 1e-12

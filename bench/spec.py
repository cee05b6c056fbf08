"""What the benchmark measures: workloads, metrics, units and regression bounds.

``BENCHMARK.json`` at the repository root is written from this module by
``python3 bench/run.py --write-spec``; the runner prints exactly the metrics
listed here.  See ``bench/README.md`` for why each workload and metric exists.
"""

from __future__ import annotations

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 15

WORKLOADS = [
    (
        "verify-sweep",
        "CLI verify --level full over n=3..12 plus the quick n-sweep 6..48 and "
        "one decompose: stresses the verify geometry kernels, whose cost grows with n",
    ),
    (
        "boundary-render",
        "CLI render, features with confirmation and a 2048-row boundary dump: "
        "stresses the series on |w| = 1 near the cusps and the Lerch/mpmath tail",
    ),
    (
        "interior-eval",
        "library f_many, dh_many, dg_many on 2048-point batches with |z| <= 0.99: "
        "only maps and the direct series regime, the bypass workload",
    ),
]

# (name, unit, better, bound).  Times are rescaled to a reference host speed
# (bench/speed.py).  Bounds are the largest allowed: the normalised spreads
# measured on a shared 2-vCPU machine are 0.03-0.08, but its speed drifts by
# 10-30 % and the probe cancels only the drift it shares with the jobs (see
# bench/README.md, "Run-to-run spread"); pass_ratio reads 1 when all is well.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.25),
    ("job_p50_s", "s", "lower", 0.25),
    ("job_tail_s", "s", "lower", 0.25),
    ("pass_ratio", "ratio", "higher", 0.001),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

SERIES_BANDS = ("inner", "rim", "near_one", "sliver", "at_one")

# (name, unit); all come from the traced run and have no bound.  Less work
# or time in a layer is better for every one of them.
PER_LAYER = (
    [("series.eval.calls", "count")]
    + [(f"series.points.{b}", "count") for b in SERIES_BANDS]
    + [(f"series.busy_s.{b}", "s") for b in SERIES_BANDS]
    + [
        ("mpmath.lerchphi.calls", "count"),
        ("mpmath.lerchphi.busy_s", "s"),
        ("maps.f_many.points", "count"),
        ("maps.f_many.busy_s", "s"),
        ("maps.f_many.self_s", "s"),
        ("maps.h_many.busy_s", "s"),
        ("maps.g_many.busy_s", "s"),
        ("maps.deriv.busy_s", "s"),
        ("boundary.boundary_points.points", "count"),
        ("boundary.boundary_points.busy_s", "s"),
        ("boundary.halfspeed_points.points", "count"),
        ("boundary.halfspeed_points.busy_s", "s"),
        ("boundary.extract_features.calls", "count"),
        ("boundary.extract_features.self_s", "s"),
        ("boundary.curve_samples.self_s", "s"),
        ("boundary.feature_values.calls", "count"),
        ("verify.count_self_intersections.segments", "count"),
        ("verify.count_self_intersections.busy_s", "s"),
        ("verify.winding_numbers.probes", "count"),
        ("verify.winding_numbers.busy_s", "s"),
        ("verify.winding_number.calls", "count"),
        ("verify.fundamental_decomposition.probes", "count"),
        ("verify.fundamental_decomposition.self_s", "s"),
        ("verify.boundary_polyline.vertices", "count"),
        ("verify.boundary_polyline.busy_s", "s"),
        ("verify.symmetry_suite.self_s", "s"),
        ("verify.univalence_scan.self_s", "s"),
        ("verify.integral_oracle.calls", "count"),
        ("scipy.integrate.quad.calls", "count"),
        ("scipy.integrate.quad.busy_s", "s"),
        ("render.render_svg.calls", "count"),
        ("render.render_svg.self_s", "s"),
        ("render.render_svg.bytes", "bytes"),
        ("svgout.flatten_curve.calls", "count"),
        ("svgout.flatten_curve.vertices", "count"),
        ("svgout.flatten_curve.busy_s", "s"),
        ("cli.main.calls", "count"),
        ("cli.main.self_s", "s"),
        ("trace.overhead", "ratio"),
    ]
)


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER
        ],
    }

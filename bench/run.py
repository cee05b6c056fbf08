"""rosette benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload interior-eval --seed 1 --seconds 15 --trace 1
    python3 bench/run.py --write-spec        # regenerate BENCHMARK.json

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass; the last line of standard output is
always one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Times are rescaled to a reference host speed that ``speed.py`` measures
during the run; the wall-clock values are kept in the record.
Every metric is also printed by name with its unit, and the whole record
(machine, versions, source line count, latencies) is written to
``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
import speed

# Set-up samples per untraced run: the workload's own process plus probes.
SETUP_SAMPLES = 3
# A run must end well inside 180 s; the worker is killed past this point.
RUN_LIMIT_S = 170.0
# Fixed, and at most nproc, so every run sees the same BLAS.
BLAS_THREADS = "1"
BENCH_DIR = Path(__file__).resolve().parent


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(args, root: Path, deadline: float, probe: bool) -> dict:
    """Start one worker interpreter and return its JSON line."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--root", str(root), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.monotonic()),
    ]
    if probe:
        cmd.append("--probe")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker exceeded the run time limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(percentile, latency): the highest percentile with >= 10 jobs beyond it."""
    k = len(latencies)
    if k <= 10:
        raise ValueError("a tail latency needs more than 10 jobs")
    q = (k - 10) / k
    return 100.0 * q, sorted(latencies)[k - 11]


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The metrics, with every time rescaled to the reference host speed (bench/speed.py).

    ``setups`` holds (set-up seconds, host factor of that process) pairs.
    """
    factor = speed.host_factor(result["probes"], result["probe_kind"])
    wall = result["latencies"]
    lat = [t / factor for t in wall]
    pct, tail = tail_latency(lat)
    values = {
        "setup_s": statistics.median(t / f for t, f in setups),
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail,
        "pass_ratio": 1.0 - result["failed"] / len(lat),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "job_tail_percentile": pct,
        "jobs": len(lat),
        "passes": result["passes"],
        "host_factor": factor,
        "probe_kind": result["probe_kind"],
        "wall": {
            "setup_s": statistics.median(t for t, _ in setups),
            "jobs_per_s": len(wall) / sum(wall),
            "job_p50_s": statistics.median(wall),
            "job_tail_s": tail_latency(wall)[1],
        },
        "fail_ratio": result["failed"] / len(lat),
        "setup_samples_s": [t for t, _ in setups],
        "setup_host_factors": [f for _, f in setups],
    }
    units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w for w, _ in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = ap.parse_args()
    root = Path.cwd()

    if args.write_spec:
        (root / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (root / "src" / "rosette" / "__init__.py").is_file():
        print("run from a rosette checkout: src/rosette is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                samples.append(spawn(args, root, deadline, probe=True))
        result = spawn(args, root, deadline, probe=False)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    samples.append(result)
    setups = [(s["setup_s"], speed.host_factor(s["setup_probes"], s["probe_kind"]))
              for s in samples]

    if args.trace:
        metrics, notes = result["layer_metrics"], {"absent": result["absent"]}
    else:
        metrics, notes = end_to_end(result, setups)
    attempted = len(result["latencies"])
    summary = {
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": metrics,
    }

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": result["env"], "notes": notes,
              "jobs": list(zip(result["labels"], result["latencies"])),
              "probes": result.get("probes"), **summary}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(result['env'])}")
    print(f"# {json.dumps(notes)}")
    for key, m in metrics.items():
        print(f"{key} {m['value']} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

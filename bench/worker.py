"""One benchmark process: set up, run the closed loop, check outputs, print a JSON line.

Started by bench/run.py, never by hand.  ``--spawned-at`` is the monotonic
clock reading taken just before the parent started this interpreter, so the
reported ``setup_s`` covers interpreter start, ``import rosette`` and the
warm-up job.  With ``--probe`` the process stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

SETUP_PROBES = 20  # speed probes after each set-up, about 0.1 s


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))

    import rosette

    if Path(rosette.__file__).resolve().parent != (root / "src" / "rosette").resolve():
        print(f"imported rosette from {rosette.__file__}, not the checkout", file=sys.stderr)
        return 2
    import speed
    import workloads

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="jobs-", dir=out_dir)
    try:
        warm = workloads.run_job(workloads.warmup_job(args.workload), os.path.join(workdir, "warm"))
        setup_s = time.monotonic() - args.spawned_at
        warm_problems = workloads.check_record(warm)
        if warm_problems:
            print(f"warm-up job failed: {warm_problems}", file=sys.stderr)
            return 1
        # The host's speed right after set-up, to normalise this set-up sample.
        probe_kind = workloads.PROBES[args.workload][1]
        setup_probes = [speed.probe(probe_kind) for _ in range(SETUP_PROBES)]
        if args.probe:
            print(json.dumps({"setup_s": setup_s, "setup_probes": setup_probes,
                              "probe_kind": probe_kind}))
            return 0
        if args.trace:
            result = traced_run(args, workdir, out_dir)
        else:
            result = timed_run(args, workdir)
        result["setup_s"] = setup_s
        result["setup_probes"] = setup_probes
        result["probe_kind"] = probe_kind
        result["env"] = environment(root)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_run(args, workdir: str) -> dict:
    """A fixed number of whole passes, nominally ``--seconds`` of job time (``PASS_SECONDS``)."""
    import workloads

    records = []
    passes = workloads.pass_count(args.workload, args.seconds)
    for index in range(passes):
        jobs = workloads.build_pass(args.workload, args.seed, index)
        records += workloads.run_pass(jobs, workdir, f"p{index}",
                                      probes=workloads.PROBES[args.workload])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = workloads.check_records(records)
    return {
        "latencies": [r.latency for r in records],
        "labels": [r.job.label for r in records],
        "probes": [p for r in records for p in r.probes],
        "passes": passes,
        "failed": len(failures),
        "peak_rss_mb": peak_rss_mb,
    }


def traced_run(args, workdir: str, out_dir: Path) -> dict:
    """Pass 0 untraced, then the same pass traced: exact counts and the tracing overhead."""
    import workloads
    from tracer import Tracer

    jobs = workloads.build_pass(args.workload, args.seed, 0)
    plain = workloads.run_pass(jobs, workdir, "plain")
    tracer = Tracer()
    tracer.install()
    try:
        traced = workloads.run_pass(jobs, workdir, "traced", tracer)
    finally:
        tracer.uninstall()
    failures = workloads.check_records(plain + traced)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead"] = {
        "value": sum(r.latency for r in traced) / sum(r.latency for r in plain),
        "unit": "ratio",
    }
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    if tracer.absent or tracer.counter_errors:
        print(f"absent: {tracer.absent}; counter errors: {tracer.counter_errors}",
              file=sys.stderr)
    return {
        "latencies": [r.latency for r in plain + traced],
        "labels": [r.job.label for r in plain + traced],
        "failed": len(failures),
        "layer_metrics": metrics,
        "absent": tracer.absent,
    }


def environment(root: Path) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    loc = sum(len(p.read_text(encoding="utf-8").splitlines())
              for p in sorted((root / "src" / "rosette").glob("*.py")))
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "source_loc": loc,
    }


if __name__ == "__main__":
    sys.exit(main())

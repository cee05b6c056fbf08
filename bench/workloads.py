"""The three workloads: seeded job decks, the closed loop that runs them, and checks.

A workload run executes a fixed number of *passes*, so every run measures
the same job mix whatever the machine speed.  Every pass of a workload
holds the same multiset of job types (subcommand, level, n, class of beta)
for every seed; the seed and the pass index pick the order, the phases
within their class, the verify seeds and the points.  See bench/README.md
for why each workload exists.
"""

from __future__ import annotations

import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from rosette import cli, maps

CLASSES = ("zero", "half_pi", "negative", "shifted")

INTERIOR_ORDERS = (3, 6, 24, 96)
INTERIOR_POINTS = 2048
INTERIOR_JOBS_PER_ORDER = 15  # 60 jobs a pass, about 2.2 s; a run holds eight
INTERIOR_R_MAX = 0.99
INTERIOR_SAMPLES = 4  # points per batch checked against mpmath
DUMP_COUNT = 2048
DUMP_SAMPLES = 16  # rows per dump checked against mpmath

# Nominal seconds of job time per pass: a run of S seconds holds
# ceil(S / PASS_SECONDS) passes, fixed so that every build does the same work.
PASS_SECONDS = {"verify-sweep": 60.0, "boundary-render": 30.0, "interior-eval": 1.875}
# Speed probes (bench/speed.py) before each untraced job, and their kernel:
# about 2 % of a verify job, 3 % of a boundary-render job, 10 % of an
# interior job.
PROBES = {
    "verify-sweep": (10, "arrays+stream"),
    "boundary-render": (2, "arrays+stream"),
    "interior-eval": (1, "arrays"),
}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds / PASS_SECONDS[workload] - 1e-9))


def draw_beta(rng: np.random.Generator, cls: str) -> tuple[str, float]:
    """A phase of the given class, as CLI text and as the value it denotes."""
    if cls == "zero":
        return "0", 0.0
    if cls == "half_pi":
        return "pi/2", math.pi / 2
    if cls == "negative":
        value = -float(rng.uniform(0.05, 1.45))
    else:  # a canonical phase moved by l half turns, so |beta| > pi/2
        value = float(rng.uniform(-1.45, 1.45)) + int(rng.choice([-2, -1, 1, 2, 3])) * math.pi
    return repr(value), value


@dataclass
class Job:
    kind: str  # verify | decompose | features | dump | render | interior
    n: int
    beta_text: str
    beta: float
    level: str = ""
    fmt: str = ""
    seed: int = 0
    count: int = 0
    probe_grid: int = 60
    extra: list = field(default_factory=list)
    sample_rows: list = field(default_factory=list)

    @property
    def label(self) -> str:
        detail = self.level or self.fmt
        return f"{self.kind}{'-' + detail if detail else ''} n={self.n} beta={self.beta_text}"

    def argv(self, prefix: str) -> tuple[list[str], dict]:
        """CLI arguments and the output files they name."""
        common = ["--n", str(self.n), "--beta", self.beta_text]
        files = {"out": prefix + ".out"}
        if self.kind == "verify":
            args = ["verify", *common, "--level", self.level, "--seed", str(self.seed)]
        elif self.kind == "decompose":
            files["report"] = prefix + ".report.json"
            args = ["decompose", *common, "--probe-grid", str(self.probe_grid),
                    "--report", files["report"]]
        elif self.kind == "features":
            args = ["features", *common, "--format", self.fmt]
        elif self.kind == "dump":
            args = ["dump", *common, "--what", "boundary", "--count", str(self.count)]
        else:
            args = ["render", *common, "--overlay", "features,axes", *self.extra]
        return args + ["--out", files["out"]], files


def verify_job(rng, n, cls, level) -> Job:
    text, beta = draw_beta(rng, cls)
    return Job("verify", n, text, beta, level=level, seed=int(rng.integers(0, 2**31)))


def decompose_job(rng, n, cls, probe_grid=60) -> Job:
    text, beta = draw_beta(rng, cls)
    return Job("decompose", n, text, beta, probe_grid=probe_grid)


def features_job(rng, n, cls, fmt) -> Job:
    text, beta = draw_beta(rng, cls)
    return Job("features", n, text, beta, fmt=fmt)


def dump_job(rng, n, cls, count=DUMP_COUNT) -> Job:
    text, beta = draw_beta(rng, cls)
    rows = sorted(rng.choice(count, size=min(DUMP_SAMPLES, count), replace=False).tolist())
    return Job("dump", n, text, beta, count=count, sample_rows=rows)


def render_job(rng, n, cls, extra=()) -> Job:
    text, beta = draw_beta(rng, cls)
    return Job("render", n, text, beta, extra=list(extra))


def interior_job(rng, n, cls, count=INTERIOR_POINTS) -> Job:
    text, beta = draw_beta(rng, cls)
    return Job("interior", n, text, beta, count=count, seed=int(rng.integers(0, 2**31)))


# --- decks ---------------------------------------------------------------------


def build_pass(workload: str, seed: int, index: int) -> list[Job]:
    """The jobs of one pass, in the order the client sends them."""
    rng = np.random.default_rng([seed, index])
    # The beta classes rotate over n from pass to pass but not with the seed:
    # a class changes a job's cost, and every seed must measure the same mix.
    jobs = []
    if workload == "verify-sweep":
        for n in range(3, 13):
            jobs.append(verify_job(rng, n, CLASSES[(n + index) % 4], "full"))
        for i, n in enumerate((6, 12, 24, 48)):
            jobs.append(verify_job(rng, n, CLASSES[(i + index) % 4], "quick"))
        jobs.append(decompose_job(rng, 5, CLASSES[(index + 2) % 4]))
    elif workload == "boundary-render":
        # Four rounds, so that the tail rank (the 11th slowest job) falls
        # among the twelve renders rather than among a few short dumps.
        not_half = ("zero", "negative", "shifted")
        for r in range(4):
            for i, n in enumerate((5, 6, 8)):  # one half-speed render per round
                cls = "half_pi" if i == r % 3 else not_half[(i + r + index) % 3]
                jobs.append(render_job(rng, n, cls))
            for n in range(3, 13):
                fmt = "json" if (n + r) % 2 == 0 else "csv"
                jobs.append(features_job(rng, n, CLASSES[(n + r + index) % 4], fmt))
            jobs.append(dump_job(rng, (6, 5, 8, 6)[r], CLASSES[(r + index) % 4]))
    elif workload == "interior-eval":
        for n in INTERIOR_ORDERS:
            for j in range(INTERIOR_JOBS_PER_ORDER):
                jobs.append(interior_job(rng, n, CLASSES[(j + index) % 4]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def warmup_job(workload: str) -> Job:
    """The untimed first job of every run; fixed, so every run pays the same set-up.

    Each one grows the lazily filled coefficient cache (``series``) as far as
    the workload's jobs need it, so the growth lands in set-up and not on
    whichever timed job happens to come first.
    """
    rng = np.random.default_rng(0)
    if workload == "verify-sweep":
        return decompose_job(rng, 5, "negative", probe_grid=12)
    if workload == "boundary-render":
        return render_job(rng, 5, "half_pi")
    return interior_job(rng, 3, "negative")


# --- running and checking ------------------------------------------------------


@dataclass
class Record:
    job: Job
    latency: float
    rc: int = 0
    files: dict = field(default_factory=dict)
    output: object = None
    error: Optional[str] = None
    probes: list = field(default_factory=list)  # speed.probe() times just before the job


def interior_points(job: Job) -> tuple[np.ndarray, np.ndarray]:
    """The batch of a library job (|z| <= 0.99, uniform on the disk) and its checked indices."""
    rng = np.random.default_rng(job.seed)
    r = INTERIOR_R_MAX * np.sqrt(rng.uniform(0.0, 1.0, job.count))
    z = r * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, job.count))
    idx = rng.choice(job.count, size=min(INTERIOR_SAMPLES, job.count), replace=False)
    return z, idx


def run_job(job: Job, prefix: str) -> Record:
    """Run one job; only the call into rosette is inside the latency."""
    if job.kind == "interior":
        params = maps.RosetteParams(job.n, job.beta)
        z, idx = interior_points(job)
        t0 = time.perf_counter()
        try:
            f = maps.f_many(params, z)
            dh = maps.dh_many(params, z)
            dg = maps.dg_many(params, z)
        except Exception:  # a failed job is counted, the loop goes on
            return Record(job, time.perf_counter() - t0, error=traceback.format_exc())
        latency = time.perf_counter() - t0
        samples = [(complex(z[i]), complex(f[i]), complex(dh[i]), complex(dg[i])) for i in idx]
        return Record(job, latency, output=samples)

    argv, files = job.argv(prefix)
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse errors and explicit exits
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:
        return Record(job, time.perf_counter() - t0, error=traceback.format_exc())
    return Record(job, time.perf_counter() - t0, rc=rc, files=files)


def check_record(rec: Record) -> list[str]:
    """Problems with one job's output; an empty list means it passed."""
    import oracles  # imports mpmath, which must not count as rosette set-up

    if rec.error is not None:
        return [rec.error.strip().splitlines()[-1]]
    if rec.job.kind == "interior":
        return oracles.check_interior(rec.job, rec.output)
    try:
        texts = {}
        for key, path in rec.files.items():
            with open(path, encoding="utf-8") as fh:
                texts[key] = fh.read()
        check = getattr(oracles, f"check_{rec.job.kind}")
        return check(rec.job, rec.rc, texts)
    except Exception as exc:  # unreadable or malformed output is a failure
        return [f"output not checkable: {exc!r}"]


def run_pass(jobs: list[Job], workdir: str, tag: str, tracer=None,
             probes: tuple[int, str] = (0, "arrays")) -> list[Record]:
    """Run the jobs in order; ``probes`` = (count, kind) speed probes before each untraced job."""
    import speed

    records = []
    for i, job in enumerate(jobs):
        prefix = os.path.join(workdir, f"{tag}-{i}")
        if tracer is None:
            before = [speed.probe(probes[1]) for _ in range(probes[0])]
            records.append(run_job(job, prefix))
            records[-1].probes = before
        else:
            with tracer.job(i, job.label):
                records.append(run_job(job, prefix))
    return records


def check_records(records: list[Record]) -> list[str]:
    """One line per failed job, also printed to stderr; outputs are removed once checked."""
    failures = []
    for rec in records:
        problems = check_record(rec)
        if problems:
            failures.append(f"{rec.job.label}: {'; '.join(problems[:3])}")
            print(f"FAILED {failures[-1]}", file=sys.stderr)
        for path in rec.files.values():
            if os.path.exists(path):
                os.remove(path)
    return failures

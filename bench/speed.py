"""Fixed reference kernels that measure how fast the host computes right now.

The benchmark runs on shared machines whose compute speed drifts by 10-30 %
over tens of seconds, with other tenants' load.  Job latencies drift with
it, so every run also times a kernel between jobs and reports its times
rescaled to a host on which the kernel takes ``REFERENCE_PROBE_S`` (see
bench/README.md, "Speed normalisation").  The kernels use no rosette code;
their time changes with the host, never with the program under test.  They
mirror the kinds of work rosette's jobs are made of: numpy element-wise
complex work on cache-sized arrays and a complex BLAS product (every
workload), and a pass over a multi-megabyte array (the CLI workloads, whose
near-cusp series run over up to 2M terms).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe times on the machine the bounds were set on (2-vCPU Xeon,
# OpenBLAS with one thread); normalised times read as seconds on that host.
REFERENCE_PROBE_S = {"arrays": 0.0035, "arrays+stream": 0.006}

_RNG = np.random.default_rng(12345)
_Z = 0.99 * np.sqrt(_RNG.uniform(0.0, 1.0, 2048)) * np.exp(2j * np.pi * _RNG.uniform(0.0, 1.0, 2048))
_A = _RNG.standard_normal((96, 96)) + 1j * _RNG.standard_normal((96, 96))
_B = _RNG.standard_normal((96, 1024)) / 96 + 0j
_STREAM_LEN = 1 << 20  # 8 MB of float64, more than a core's caches hold
_stream_buf: list = []


def _arrays() -> complex:
    w = _Z * _Z
    term = np.ones_like(w)
    total = np.zeros_like(w)
    for k in range(60):
        term = term * w * ((k + 0.5) / (k + 1))
        total += term / (k + 1)
    return complex(np.sum(np.exp(1j * np.angle(total)) * np.abs(total))) + complex((_A @ _B).sum())


def _stream() -> float:
    if not _stream_buf:  # allocated on first use, so other workloads do not carry it
        _stream_buf.append(np.ones(_STREAM_LEN))
    buf = _stream_buf[0]
    for _ in range(2):  # values grow slowly and stay finite and normal
        np.multiply(buf, 1.0001, out=buf)
        buf += 0.5
    return float(buf.sum())


def probe(kind: str) -> float:
    """Seconds the reference kernel ``kind`` takes now (a few milliseconds)."""
    t0 = time.perf_counter()
    _arrays()
    if kind == "arrays+stream":
        _stream()
    return time.perf_counter() - t0


def host_factor(probes: list[float], kind: str) -> float:
    """How much slower than the reference host this host ran: median probe / reference."""
    return statistics.median(probes) / REFERENCE_PROBE_S[kind]

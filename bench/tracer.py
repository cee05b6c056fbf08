"""Spans around the public functions of each rosette layer, from outside the library.

``Tracer.install()`` replaces each traced function with a wrapper in its
defining module *and* in every module that bound the same object (through
``from .x import name`` or the package re-exports), so calls made inside the
package pass through the spans too.  A traced name that no longer exists is
reported in ``Tracer.absent`` instead of failing the run.

Spans are kept in memory with parent ids and written out by ``write``; self
time is the span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

from spec import PER_LAYER

# Band order from easiest to hardest; a call is charged to its hardest band.
_BAND_RANK = {"inner": 0, "at_one": 1, "rim": 2, "near_one": 3, "sliver": 4}


def series_bands(w) -> dict:
    """Points of ``w`` in each series band (see bench/README.md)."""
    w = np.asarray(w, dtype=complex).ravel()
    aw = np.abs(w)
    d1 = np.abs(1.0 - w)
    at_one = w == 1.0
    sliver = (d1 < 1e-8) & ~at_one
    near_one = (d1 >= 1e-8) & (d1 < 1e-3)
    inner = (aw <= 0.9) & ~(at_one | sliver | near_one)
    rim = ~(inner | at_one | sliver | near_one)
    return {
        "inner": int(inner.sum()),
        "rim": int(rim.sum()),
        "near_one": int(near_one.sum()),
        "sliver": int(sliver.sum()),
        "at_one": int(at_one.sum()),
    }


def _size(x) -> int:
    return int(np.asarray(x).size)


def _series_counts(args, out) -> dict:
    bands = series_bands(args["z"])
    counts = {f"series.points.{b}": c for b, c in bands.items()}
    counts["band"] = max((b for b, c in bands.items() if c), key=_BAND_RANK.get, default="inner")
    return counts


# (module, attribute, span name, counter(bound arguments, result) -> dict).
# A counter's keys are metric names relative to the span name, except the
# series counts, which are named in full, and "band" (see _series_counts).
TRACED: list[tuple[str, str, str, Optional[Callable]]] = [
    ("rosette.series", "eval_series_many", "series.eval", _series_counts),
    ("mpmath", "lerchphi", "mpmath.lerchphi", None),
    ("scipy.integrate", "quad", "scipy.integrate.quad", None),
    ("rosette.maps", "f_many", "maps.f_many", lambda a, r: {"points": _size(a["z"])}),
    ("rosette.maps", "h_many", "maps.h_many", None),
    ("rosette.maps", "g_many", "maps.g_many", None),
    ("rosette.maps", "dh_many", "maps.dh_many", None),
    ("rosette.maps", "dg_many", "maps.dg_many", None),
    ("rosette.boundary", "boundary_points", "boundary.boundary_points",
     lambda a, r: {"points": _size(a["ts"])}),
    ("rosette.boundary", "halfspeed_points", "boundary.halfspeed_points",
     lambda a, r: {"points": _size(a["ts"])}),
    ("rosette.boundary", "extract_features", "boundary.extract_features", None),
    ("rosette.boundary", "curve_samples", "boundary.curve_samples", None),
    ("rosette.boundary", "feature_values", "boundary.feature_values", None),
    ("rosette.verify", "count_self_intersections", "verify.count_self_intersections",
     lambda a, r: {"segments": _size(a["pts"]) - 1}),
    ("rosette.verify", "winding_numbers", "verify.winding_numbers",
     lambda a, r: {"probes": _size(a["points"])}),
    ("rosette.verify", "winding_number", "verify.winding_number", None),
    ("rosette.verify", "fundamental_decomposition", "verify.fundamental_decomposition",
     lambda a, r: {"probes": int(r[1].probes)}),
    ("rosette.verify", "boundary_polyline", "verify.boundary_polyline",
     lambda a, r: {"vertices": _size(r)}),
    ("rosette.verify", "symmetry_suite", "verify.symmetry_suite", None),
    ("rosette.verify", "univalence_scan", "verify.univalence_scan", None),
    ("rosette.verify", "integral_oracle", "verify.integral_oracle", None),
    ("rosette.render", "render_svg", "render.render_svg", lambda a, r: {"bytes": len(r.encode())}),
    ("rosette.svgout", "flatten_curve", "svgout.flatten_curve",
     lambda a, r: {"vertices": _size(r)}),
    ("rosette.cli", "main", "cli.main", None),
]


class Span:
    __slots__ = ("sid", "parent", "job", "name", "start", "end", "counts")

    def __init__(self, sid, parent, job, name, start):
        self.sid, self.parent, self.job, self.name = sid, parent, job, name
        self.start, self.end, self.counts = start, start, {}


class Tracer:
    """In-memory span recorder that patches the traced functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.counter_errors = 0
        self._stack: list[int] = []
        self._job = -1
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self._job, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def job(self, index: int, label: str):
        """A root span for one benchmark job; spans opened inside carry its index."""
        self._job = index
        span = self._open("job")
        span.counts["label"] = label
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, name: str, counter: Optional[Callable]):
        tracer = self
        try:
            sig = inspect.signature(fn) if counter else None
        except (TypeError, ValueError):
            sig = None

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                try:
                    bound = sig.bind(*args, **kwargs).arguments if sig else {}
                    span.counts.update(counter(bound, out))
                except (TypeError, KeyError, AttributeError, IndexError, ValueError):
                    tracer.counter_errors += 1
            return out

        traced.__wrapped__ = fn
        return traced

    # --- patching ---------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, counter in TRACED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, counter)
            for holder in [module, *_rosette_modules()]:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # --- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every PER_LAYER metric except trace.overhead; absent layers read 0."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        stats: dict = defaultdict(float)
        for s in self.spans:
            if s.name == "job":
                continue
            busy = s.end - s.start
            stats[f"{s.name}.calls"] += 1
            stats[f"{s.name}.busy_s"] += busy
            stats[f"{s.name}.self_s"] += busy - child_time[s.sid]
            for key, value in s.counts.items():
                if key == "band":
                    stats[f"series.busy_s.{value}"] += busy
                elif key.startswith("series."):
                    stats[key] += value
                else:
                    stats[f"{s.name}.{key}"] += value
        stats["maps.deriv.busy_s"] = (
            stats["maps.dh_many.busy_s"] + stats["maps.dg_many.busy_s"]
        )
        out = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead":
                continue
            value = stats.get(name, 0.0)
            out[name] = {"value": int(value) if unit in ("count", "bytes") else value,
                         "unit": unit}
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "parent": s.parent, "job": s.job, "name": s.name,
                    "start": s.start, "end": s.end, **s.counts,
                }) + "\n")


def _rosette_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "rosette" or k.startswith("rosette."))]


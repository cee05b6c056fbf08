"""Minimal deterministic SVG output.

Pure string assembly with fixed 3-decimal pixel coordinates, so identical
inputs produce byte-identical documents.

Every coordinate prints as ``'%.3f'`` prints it.  Path text is written by
vectorised passes over many paths at once (``path_data``), and this is why it
equals ``'%.3f'``.  Let y = 1000 x be exact, Y = fl(1000 x) the rounded
product and k = rint(Y).  Round to nearest gives |Y - y| <= 2^-53 |y|.  The
writer takes x when

    |Y - k| < 1/2 - 2^-20    and    |k| < 10^7.

Then |y| < 2^24, so |Y - y| < 2^-29 < 2^-20, and y lies strictly inside
(k - 1/2, k + 1/2): x is nearer to k/1000 than to any other multiple of
1/1000.  Python's ``'%.3f'`` rounds the exact binary value correctly, so it
prints |k|/1000, with a minus sign exactly when x's sign bit is set (-0.0 and
-0.0004 print ``-0.000``).  The writer prints the digits of |k| from two digit
tables and takes the sign from ``signbit(x)``.

The writer's range, |k| < 10^7 (|x| below about 10^4 px), is what one row of
its 10^4-row table of integer parts holds; it covers any canvas up to 10^4 px
wide.  Any other coordinate (a near tie, a value out of range, NaN or inf) is
written by ``'%.3f'`` itself, in one ``%`` call over the path's text.  That
fallback keeps the output exact; no setting chooses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# |Y - k| below this slack, with |k| below the limit, proves the printed digits (module docstring)
_TIE_SLACK = 0.5 - 2.0**-20
_K_LIMIT = 10**7
# Coordinates written per vectorised step, and the most that drawn paths hold before their
# text is written: they bound what the writer holds beside its text to a few MB.
_CHUNK = 1 << 15
_BACKLOG = 1 << 17


def _digit_table(count: int, digits: int, point: bool) -> np.ndarray:
    """One uint32 per value 0..count-1: its ASCII digits, zero-padded to ``digits`` after a
    '.' if ``point``, otherwise with each leading zero but the last a 0 byte."""
    q = np.arange(count)
    powers = 10 ** np.arange(digits - 1, -1, -1)
    chars = (q[:, None] // powers % 10 + ord("0")).astype(np.uint8)
    if point:
        chars = np.concatenate([np.full((count, 1), ord("."), np.uint8), chars], axis=1)
    else:
        chars[q[:, None] < powers * (powers > 1)] = 0
    return chars.view(np.uint32).ravel()


_INT_DIGITS = _digit_table(10**4, 4, point=False)
_FRACTION = _digit_table(10**3, 3, point=True)
# the separator before a coordinate ("L", " ", "M") and its sign, index separator + 3 * signbit;
# from index 6 on, the separator and the "%.3f" that a coordinate out of range leaves
_HEADS = np.frombuffer(b"L\0\0\0 \0\0\0M\0\0\0L-\0\0 -\0\0M-\0\0L%.3 %.3M%.3", np.uint32)
_FALLBACK = np.frombuffer(b"f\0\0\0\0\0\0\0", np.uint32)


def _coordinate_text(v: np.ndarray, head: np.ndarray, exact: np.ndarray) -> str:
    """The text of the coordinates v, each after its separator (``head``: 0 "L", 1 " ",
    2 "M"); ``exact`` receives whether each one is in the writer's range (module
    docstring), and one out of range is written as "%.3f"."""
    with np.errstate(invalid="ignore", over="ignore"):  # NaN, inf and overflow fall back
        scaled = v * 1000.0
        k = np.rint(scaled)
        np.logical_and(np.abs(scaled - k) < _TIE_SLACK, np.abs(k) < _K_LIMIT, out=exact)
    np.abs(k, out=k)
    k[~exact] = 0.0
    a = k.astype(np.int64)
    whole = a // 1000
    record = np.empty((v.size, 3), np.uint32)
    record[:, 0] = _HEADS[head + np.where(exact, 3 * np.signbit(v), 6)]
    record[:, 1] = _INT_DIGITS[whole]
    record[:, 2] = _FRACTION[a - 1000 * whole]
    record[~exact, 1:] = _FALLBACK
    return record.tobytes().translate(None, b"\0").decode("ascii")


def path_data(paths: list[np.ndarray]) -> list[str]:
    """The ``d`` text "Mx0 y0Lx1 y1..." of each path, given as its interleaved pixel
    coordinates x0, y0, x1, y1, ... (at least one pair); every coordinate as ``'%.3f'``
    prints it."""
    if not paths:
        return []
    v = np.concatenate(paths)
    starts = np.cumsum([0] + [xy.size for xy in paths[:-1]])
    head = np.zeros(v.size, dtype=np.uint8)
    head[1::2] = 1  # y after " "; x after "L", or "M" at a path's start
    head[starts] = 2
    exact = np.empty(v.size, dtype=bool)
    parts = [slice(lo, lo + _CHUNK) for lo in range(0, v.size, _CHUNK)]
    # "M" begins each path and nothing else
    texts = "".join(_coordinate_text(v[p], head[p], exact[p]) for p in parts).split("M")[1:]
    written = np.logical_and.reduceat(exact, starts).tolist()
    return ["M" + d if ok else ("M" + d) % tuple(xy[~exact[i : i + xy.size]].tolist())
            for d, ok, i, xy in zip(texts, written, starts.tolist(), paths)]


@dataclass
class SvgCanvas:
    """Square canvas mapping the world square [-half, half]^2 to pixels.

    Path text is written in one ``path_data`` pass over every path drawn since the last
    one, when ``elements`` (or ``document``) is read or the unwritten paths reach
    _BACKLOG coordinates.
    """

    width_px: int
    world_half: float
    # SVG text, or the (points, tail) of a path whose text is not written yet
    _items: list = field(default_factory=list, init=False, repr=False, compare=False)
    _backlog: int = field(default=0, init=False, repr=False, compare=False)

    def to_px(self, z):
        """Pixel coordinates (x, y) of a point, or of each point of an array."""
        # (w/2)/half is w/(2 half) wherever 2 half is finite, and 2 half overflows past 9e307
        s = (0.5 * self.width_px) / self.world_half
        return (
            (z.real + self.world_half) * s,
            (self.world_half - z.imag) * s,  # y axis points down in SVG
        )

    def _fmt(self, v: float) -> str:
        return f"{v:.3f}"

    def polyline(self, points, stroke: str = "#000000", width: float = 1.0) -> None:
        pts = np.array(points, dtype=complex).ravel()  # a copy: the text is written later
        if pts.size < 2:
            return
        tail = f'" fill="none" stroke="{stroke}" stroke-width="{self._fmt(width)}"/>'
        self._items.append((pts, tail))
        self._backlog += 2 * pts.size
        if self._backlog >= _BACKLOG:
            self._write_paths()

    def dot(self, z: complex, radius_px: float = 3.0, fill: str = "#000000") -> None:
        x, y = self.to_px(z)
        self._items.append(
            f'<circle cx="{self._fmt(x)}" cy="{self._fmt(y)}" '
            f'r="{self._fmt(radius_px)}" fill="{fill}"/>'
        )

    def line(
        self, a: complex, b: complex, stroke: str = "#888888", width: float = 0.75
    ) -> None:
        x1, y1 = self.to_px(a)
        x2, y2 = self.to_px(b)
        self._items.append(
            f'<line x1="{self._fmt(x1)}" y1="{self._fmt(y1)}" '
            f'x2="{self._fmt(x2)}" y2="{self._fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{self._fmt(width)}"/>'
        )

    def _write_paths(self) -> None:
        unwritten = [i for i, item in enumerate(self._items) if not isinstance(item, str)]
        if unwritten:
            pts = [self._items[i][0] for i in unwritten]
            x, y = self.to_px(np.concatenate(pts))
            xy = np.empty(2 * x.size)
            xy[0::2], xy[1::2] = x, y
            cuts = 2 * np.cumsum([p.size for p in pts[:-1]])
            for i, d in zip(unwritten, path_data(np.split(xy, cuts))):
                self._items[i] = f'<path d="{d}{self._items[i][1]}'
        self._backlog = 0

    @property
    def elements(self) -> list[str]:
        """The drawn elements, in drawing order, as SVG text."""
        self._write_paths()
        return self._items

    def document(self) -> str:
        w = self.width_px
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{w}" '
            f'viewBox="0 0 {w} {w}">\n'
            f'<rect width="{w}" height="{w}" fill="#ffffff"/>'
        )
        # one join, so the text is not copied again; an empty canvas keeps its empty line
        return "\n".join([head, *(self.elements or [""]), "</svg>\n"])


def _merged(old: np.ndarray, inserted: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``old`` with ``inserted`` placed where the mask ``at`` is set, in order."""
    out = np.empty(at.size, dtype=old.dtype)
    out[~at] = old
    out[at] = inserted
    return out


def flatten_curves(curve_fn, spans, tol_world: float, max_rounds: int = 12) -> list[np.ndarray]:
    """Adaptively sample several curves until their chords deviate < tol_world.

    Curve i of ``spans``, whose entry i is ``(t0, t1, initial)``, is
    ``curve_fn(ts, path)`` for t in [t0, t1] with ``path`` = i, started on
    ``initial`` equally spaced parameters.  ``curve_fn`` takes an array of
    parameters and the equally long array of their path indices, and evaluates
    elementwise.  A chord is split at its parameter midpoint when the curve
    midpoint is farther than tol_world from the chord midpoint; only the two
    halves of a split chord are tested again, for at most ``max_rounds``
    rounds.  One ``curve_fn`` call covers the initial parameters of every path,
    and one per round the midpoints of every path, in path order.  Returns the
    values of each path, in parameter order.
    """
    grids = {span: np.linspace(span[0], span[1], max(int(span[2]), 2))
             for span in dict.fromkeys(spans)}  # equal spans share one linspace
    ts = [grids[span] for span in spans]
    owner = np.repeat(np.arange(len(spans)), [t.size for t in ts])
    ts = np.concatenate(ts)
    vals = curve_fn(ts, owner)
    pending = np.flatnonzero(owner[:-1] == owner[1:])  # left ends of the chords to test
    for _ in range(max_rounds):
        mid_ts = 0.5 * (ts[pending] + ts[pending + 1])
        mid_vals = curve_fn(mid_ts, owner[pending])
        chord_mid = 0.5 * (vals[pending] + vals[pending + 1])
        bad = np.abs(mid_vals - chord_mid) > tol_world
        if not bad.any():
            break
        idx = pending[bad]
        left = idx + np.arange(idx.size)  # where the split chords' left ends moved
        mid = np.zeros(ts.size + idx.size, dtype=bool)
        mid[left + 1] = True
        ts = _merged(ts, mid_ts[bad], mid)
        vals = _merged(vals, mid_vals[bad], mid)
        owner = _merged(owner, owner[idx], mid)
        pending = np.stack([left, left + 1], axis=1).ravel()
    # owner is non-decreasing: the values come grouped by path
    return np.split(vals, np.searchsorted(owner, np.arange(1, len(spans))))


def flatten_curve(curve_fn, t0: float, t1: float, initial: int, tol_world: float) -> np.ndarray:
    """flatten_curves for one curve given directly as ``curve_fn(t)``."""
    return flatten_curves(lambda ts, _: curve_fn(ts), [(t0, t1, initial)], tol_world)[0]


def axis_segment(center: complex, direction_arg: float, half_length: float) -> tuple[complex, complex]:
    d = half_length * complex(math.cos(direction_arg), math.sin(direction_arg))
    return center - d, center + d

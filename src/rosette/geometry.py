"""Planar kernels on polylines: winding numbers, segment distances, self-crossings.

One predicate decides every side-of-a-line verdict: ``_orientation``, the sign of
a 2x2 determinant, exact in sign (a float filter with a static error bound, and
rational arithmetic for the few signs it cannot certify).  The winding numbers and
the crossing count take their verdicts from it alone; ``curve_distances`` measures
in floats and decides nothing by itself.

Two queries answer with one number what the brute force answers with many, bit for
bit: ``min_curve_distance(curve, points)`` is ``np.min(curve_distances(curve,
points))``, from one branch-and-bound over the chunk discs for all points at once, and
``min_pairwise_distance(points)`` is the least of all |p_i - p_j|, i != j, from a sweep
over the points sorted by x.  Each measures its pairs by the brute force's own formula
and prunes only pairs that a float-safe bound shows to be no nearer than a pair it has
measured, so its result is one of the brute force's numbers.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DomainError, OpenCurve, as_array

# |det - exact| <= _ORIENT_ERR * (|left| + |right|) for the float determinant below
# (Shewchuk, "Adaptive precision floating-point arithmetic and fast robust geometric
# predicates", 1997); inside that bound the sign is decided in exact arithmetic.
_ORIENT_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_BLOCK = 1 << 18  # element budget of one vectorised block of pairs

# Element budget of one block of curve_distances: probes x chunks for the disc
# bounds, (probe, chunk) pairs x chunk size for the exact distances, so that no
# complex temporary exceeds 1 MiB.  glibc serves a block above its dynamic mmap
# threshold (the largest mapped block freed so far, 2 MiB once the series' anchored
# integral has run on 4096 points) with a fresh mmap that page-faults on every touch: with
# 4 MiB temporaries the brute-force query at n = 12 (10777 vertices, 441 probes)
# took twice as long.
_DISTANCE_BLOCK = 1 << 16
_CHUNK = 64  # consecutive segments per bounding disc of curve_distances
_LEADS = 16  # points whose nearest chunk min_curve_distance measures first, for its bound
# Relative slack of the chunk-disc lower bounds.  The float bound |p - c| - r and
# the float segment distances each err by a few ulps of |p - c| + r + |c|; taking
# 1e-12 of that off the bound keeps it below every computed distance in the
# chunk, so rounding never prunes the chunk that holds the minimum.
_DISC_SLACK = 1e-12
# curve_distances measures in place where the largest coordinate lies in this band:
# there |ab|^2 and Re((p - a) conj(ab)) neither overflow nor underflow for the
# segments that decide a distance.  Outside it the input is scaled by a power of two.
_PLAIN_SCALES = (2.0**-500, 2.0**500)


def _orientation(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Exact sign of cross(a - p, b - p): +1 when p lies left of a -> b, 0 on the line."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves the sign unsure
        u, v = a - p, b - p
        left, right = u.real * v.imag, u.imag * v.real
        det = left - right
        sign = np.sign(det).astype(int)
        unsure = ~(np.abs(det) > _ORIENT_ERR * (np.abs(left) + np.abs(right)) + np.finfo(float).tiny)
    for k in np.flatnonzero(unsure):
        from fractions import Fraction  # imported at the first unsure sign; most runs meet none

        corners = (a[k], b[k], p[k])
        (ax, ay), (bx, by), (px, py) = ((Fraction(w.real), Fraction(w.imag)) for w in corners)
        exact = (ax - px) * (by - py) - (ay - py) * (bx - px)
        sign[k] = (exact > 0) - (exact < 0)
    return sign


def _ranges(starts: np.ndarray, stops: np.ndarray):
    """Yield (k, position) arrays over all positions in [starts[k], stops[k]), ~_BLOCK at once."""
    counts = np.maximum(stops - starts, 0)
    cum = np.concatenate([[0], np.cumsum(counts)])
    k0 = 0
    while k0 < counts.size:
        k1 = int(np.searchsorted(cum, cum[k0] + _BLOCK, "right")) - 1
        k1 = min(max(k1, k0 + 1), counts.size)
        c = counts[k0:k1]
        owner = np.repeat(np.arange(k0, k1), c)
        pos = np.arange(cum[k0], cum[k1]) - np.repeat(cum[k0:k1] - starts[k0:k1], c)
        yield owner, pos
        k0 = k1


def ensure_closed(pts) -> np.ndarray:
    """``pts`` as a complex copy whose last vertex is exactly the first; OpenCurve if apart.

    Raises DomainError for anything but a 1-D array of 2 or more finite complex vertices,
    which no verdict on the polyline could account for.
    """
    pts = np.array(as_array(pts, complex, "polyline vertices"))
    if pts.ndim != 1 or pts.size < 2:
        raise DomainError(f"a closed polyline needs a 1-D array of at least 2 vertices, "
                          f"got shape {pts.shape}")
    bad = np.flatnonzero(~np.isfinite(pts))
    if bad.size:
        raise DomainError(f"polyline vertex {bad[0]} is {pts[bad[0]]}, not finite")
    scale = float(np.abs(pts).max()) or 1.0
    if abs(pts[0] - pts[-1]) > 1e-9 * scale:
        raise OpenCurve("curve endpoints do not coincide")
    pts[-1] = pts[0]
    return pts


def windings(pts: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Winding number of the closed polyline ``pts`` around each probe, exact off the curve.

    Signed crossing-number rule (Hormann & Agathos, Comput. Geom. 2001): an edge
    whose half-open y-range [min, max) holds the probe's y adds +1 when it runs up
    with the probe on its left, -1 when it runs down with the probe on its right.
    With the probes sorted by y, each edge meets only the slice inside its y-range:
    O((V + P) log P + K) for K such pairs, about P times the edges a line crosses.
    """
    a, b = pts[:-1], pts[1:]
    order = np.argsort(probes.imag, kind="stable")
    ys = probes.imag[order]
    lo = np.searchsorted(ys, np.minimum(a.imag, b.imag), "left")
    hi = np.searchsorted(ys, np.maximum(a.imag, b.imag), "left")
    up = a.imag < b.imag
    total = np.zeros(probes.size)
    for edge, slot in _ranges(lo, hi):
        probe = order[slot]
        side = _orientation(a[edge], b[edge], probes[probe])
        step = np.where(up[edge], np.maximum(side, 0), np.minimum(side, 0))
        total += np.bincount(probe, weights=step, minlength=probes.size)
    return total.astype(int)


def curve_distances(curve, points) -> np.ndarray:
    """Distance from each point to the nearest segment of the polyline ``curve``.

    The segments are cut into consecutive chunks of ``_CHUNK`` (the last one
    padded with copies of the final segment), each inside a disc about the
    centre c of its vertices' bounding box with radius r, the largest vertex
    distance from c.  For each probe p, |p - c| - r bounds a chunk's distances
    from below; the exact minimum over the chunk with the smallest bound is an
    upper bound, and only the chunks whose lower bound does not exceed it are
    evaluated exactly.  Every segment distance is |p - (a + t ab)| with
    t = clip(Re((p - a) conj(ab)) / |ab|^2, 0, 1), so the result is the
    brute-force minimum bit for bit, at the cost of P x chunks bounds plus the
    segments of the chunks that survive.

    When the largest coordinate of the curve and the probes lies outside
    ``_PLAIN_SCALES``, both are scaled by the power of two that brings it to
    [1/2, 1) and the distances are scaled back, both steps exact; so the result
    is 2^k times that of the input scaled by 2^-k, bit for bit.
    """
    pts = np.ascontiguousarray(curve, dtype=complex)
    probes = np.asarray(points, dtype=complex).ravel()
    top = max(np.abs(x.view(float)).max(initial=0.0) for x in (pts, probes))
    if 0.0 < top < _PLAIN_SCALES[0] or _PLAIN_SCALES[1] < top < math.inf:
        k = math.frexp(top)[1]
        scaled = (np.ldexp(x.view(float), -k).view(complex) for x in (pts, probes))
        return np.ldexp(_distances(*scaled), k)
    return _distances(pts, probes)


def _chunks(pts: np.ndarray):
    """The segments of ``pts`` in chunks of k = min(``_CHUNK``, segments) (the last padded
    with copies of the final segment): k, each chunk's disc as its centre and its reach (the
    radius with the ``_DISC_SLACK`` taken on), and ``nearest(w, c)``, the exact distance
    from each probe w[i] to chunk c[i]."""
    k = max(1, min(_CHUNK, pts.size - 1))
    a, ab = _rows(pts[:-1], k), _rows(pts[1:] - pts[:-1], k)
    denom = np.abs(ab) ** 2
    denom[denom == 0.0] = np.inf  # a zero-length segment's nearest point is its start
    conj_ab = np.conj(ab)
    centre, reach = _discs(np.concatenate([a, a[:, -1:] + ab[:, -1:]], axis=1))

    def nearest(w: np.ndarray, c: np.ndarray) -> np.ndarray:
        w0 = w[:, None]
        t = np.clip(((w0 - a[c]) * conj_ab[c]).real / denom[c], 0.0, 1.0)
        return np.abs(w0 - (a[c] + t * ab[c])).min(axis=1)

    return k, centre, reach, nearest


def _rows(x: np.ndarray, k: int) -> np.ndarray:
    """``x`` in rows of k, the last row padded with copies of the last element."""
    return np.append(x, np.repeat(x[-1:], -x.size % k)).reshape(-1, k)


def _discs(rows: np.ndarray, reach: Optional[np.ndarray] = None):
    """A disc about each row of points (of discs with the given reach, if any): the centre
    of the row's bounding box, and its reach, the largest distance from it to a point (or
    to a disc's far side) of the row, with the ``_DISC_SLACK`` taken on."""
    centre = (0.5 * (rows.real.min(axis=1) + rows.real.max(axis=1))
              + 0.5j * (rows.imag.min(axis=1) + rows.imag.max(axis=1)))
    radius = np.abs(rows - centre[:, None])
    radius = (radius if reach is None else radius + reach).max(axis=1)
    return centre, radius * (1.0 + _DISC_SLACK) + _DISC_SLACK * np.abs(centre)


def _lower(w: np.ndarray, centre: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """Lower bounds on the distance from each probe w to anything in its disc (broadcast)."""
    return np.abs(w - centre) * (1.0 - _DISC_SLACK) - reach


def _distances(pts: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """curve_distances on a curve and probes whose coordinates need no scaling."""
    k, centre, reach, nearest = _chunks(pts)
    rows = max(1, _DISTANCE_BLOCK // max(centre.size, k))
    pairs = max(1, _DISTANCE_BLOCK // k)
    out = np.empty(probes.size)
    for i0 in range(0, probes.size, rows):
        w = probes[i0 : i0 + rows]
        lower = _lower(w[:, None], centre, reach)
        best = lower.argmin(axis=1)
        upper = nearest(w, best)
        lower[np.arange(w.size), best] = np.inf
        i, c = np.nonzero(lower <= upper[:, None])
        for j in range(0, i.size, pairs):
            part = slice(j, j + pairs)
            np.minimum.at(upper, i[part], nearest(w[i[part]], c[part]))
        out[i0 : i0 + rows] = upper
    return out


def min_curve_distance(curve, points) -> float:
    """The least distance from any of the points to the polyline ``curve``:
    ``np.min(curve_distances(curve, points))`` bit for bit, inf for no points and NaN when
    a point is not finite (without the warning that an infinite one gives there).

    One branch-and-bound over the chunk discs of ``curve_distances`` for all points at
    once.  The chunks are grouped, ``_CHUNK`` groups or more, each group inside the disc
    about its chunk centres that reaches past their discs.  The ``_LEADS`` points nearest
    a group disc, each measured to the chunk of least bound in that group, give an upper
    bound U on the minimum.  Only the chunks of the (point, group) pairs whose bound does
    not exceed U, and of those only the chunks whose own bound does not exceed U, are
    measured, by the formula of ``curve_distances``.  So the result is one of the
    distances that ``curve_distances`` returns, and no pruned segment is nearer; where
    ``curve_distances`` measures every point, this measures only the points that can hold
    the minimum.  A vertex that is not finite, or coordinates outside ``_PLAIN_SCALES``,
    take ``curve_distances`` itself.
    """
    pts = np.ascontiguousarray(curve, dtype=complex)
    probes = np.asarray(points, dtype=complex).ravel()
    if not np.isfinite(probes).all():
        return math.nan
    top = max(np.abs(x.view(float)).max(initial=0.0) for x in (pts, probes))
    plain = top == 0.0 or _PLAIN_SCALES[0] <= top <= _PLAIN_SCALES[1]
    if not (plain and np.isfinite(pts).all()) or probes.size == 0:
        return float(np.min(curve_distances(pts, probes), initial=math.inf))
    k, centre, reach, nearest = _chunks(pts)
    size = min(_CHUNK, max(1, centre.size // _CHUNK))  # chunks per group: _CHUNK groups or more
    group, spread = _discs(_rows(centre, size), _rows(reach, size))
    step = max(1, _DISTANCE_BLOCK // group.size)
    starts = range(0, probes.size, step)

    def bounds(i0: int) -> np.ndarray:
        return _lower(probes[i0 : i0 + step, None], group, spread)

    first = bounds(0)  # kept: most calls have one block
    least = np.concatenate([first.min(axis=1)] + [bounds(i0).min(axis=1) for i0 in starts[1:]])
    leads = probes[np.argsort(least, kind="stable")[:_LEADS], None]
    own = _lower(leads, group, spread).argmin(axis=1)[:, None] * size + np.arange(size)
    own = np.minimum(own, centre.size - 1)
    pick = own[np.arange(own.shape[0]), _lower(leads, centre[own], reach[own]).argmin(axis=1)]
    upper = float(nearest(leads[:, 0], pick).min())
    found = []
    for i0 in starts:
        i, g = np.nonzero((first if i0 == 0 else bounds(i0)) <= upper)
        c = (g[:, None] * size + np.arange(size)).ravel()
        i = np.repeat(i0 + i, size)[c < centre.size]
        c = c[c < centre.size]
        keep = _lower(probes[i], centre[c], reach[c]) <= upper
        found.append((i[keep], c[keep]))
    i, c = (np.concatenate(x) for x in zip(*found))
    pairs = max(1, _DISTANCE_BLOCK // k)
    for j in range(0, i.size, pairs):
        upper = min(upper, float(nearest(probes[i[j : j + pairs]], c[j : j + pairs]).min()))
    return upper


# --- polyline simplicity ------------------------------------------------------


def _crossing_pairs(pts: np.ndarray) -> np.ndarray:
    """Index pairs (i, j), i < j, of properly crossing non-adjacent segments, sorted.

    An x-sorted sweep (after Shamos & Hoey, 1976): with the segments sorted by
    left end, those whose x-ranges overlap a segment's are a contiguous run after
    it, so only pairs with overlapping bounding boxes are built, ``_BLOCK`` at a time.
    It keeps a pair when, by ``_orientation``, each straddles the other's line strictly.
    """
    a, b = pts[:-1], pts[1:]
    n = a.size
    lo_x, hi_x = np.minimum(a.real, b.real), np.maximum(a.real, b.real)
    lo_y, hi_y = np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag)
    order = np.argsort(lo_x, kind="stable")
    stop = np.searchsorted(lo_x[order], hi_x[order], "right")
    found = [np.empty((0, 2), dtype=int)]
    for p, q in _ranges(np.arange(1, n + 1), stop):
        i = np.minimum(order[p], order[q])
        j = np.maximum(order[p], order[q])
        keep = (j > i + 1) & ~((i == 0) & (j == n - 1))  # wrap adjacency
        keep &= (lo_y[i] <= hi_y[j]) & (lo_y[j] <= hi_y[i])
        i, j = i[keep], j[keep]
        keep = _orientation(a[i], b[i], a[j]) * _orientation(a[i], b[i], b[j]) < 0
        i, j = i[keep], j[keep]
        keep = _orientation(a[j], b[j], a[i]) * _orientation(a[j], b[j], b[i]) < 0
        found.append(np.stack([i[keep], j[keep]], axis=1))
    pairs = np.concatenate(found)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def count_self_intersections(pts: np.ndarray) -> int:
    """Number of properly crossing non-adjacent segment pairs of a closed polyline."""
    return len(_crossing_pairs(ensure_closed(pts)))


def crossing_witness(pts: np.ndarray) -> dict:
    """The first crossing segment pair of a closed polyline and its crossing point."""
    i, j = (int(k) for k in _crossing_pairs(pts)[0])
    u, v = pts[i + 1] - pts[i], pts[j + 1] - pts[j]
    point = pts[i] + u * (_cross(pts[j] - pts[i], v) / _cross(u, v))
    return {"segments": [i, j], "point": [float(point.real), float(point.imag)]}


def _cross(u: complex, v: complex) -> float:
    return u.real * v.imag - u.imag * v.real


def dedupe(pts: np.ndarray, tol: float) -> np.ndarray:
    keep = np.ones(pts.size, dtype=bool)
    keep[1:] = np.abs(np.diff(pts)) > tol
    return pts[keep]


def min_pairwise_distance(pts: np.ndarray) -> float:
    """The least distance |p_i - p_j|, i != j, between the points (inf for fewer than two),
    bit for bit the brute-force minimum.

    A sweep over the points sorted by x, then y: the least distance d between neighbours in
    that order bounds the minimum, and only the pairs whose x-gap is at most d are measured,
    ``_BLOCK`` at a time.  A pair further apart in x is no nearer than d: the computed
    |p_j - p_i| is never below its computed x-gap, which is at least d when x_j lies beyond
    the float x_i + d.
    """
    pts = np.asarray(pts, dtype=complex).ravel()
    if pts.size < 2:
        return math.inf
    p = pts[np.lexsort((pts.imag, pts.real))]
    best = float(np.abs(np.diff(p)).min())
    stop = np.searchsorted(p.real, p.real + best, "right")
    for i, j in _ranges(np.arange(2, p.size + 2), stop):
        best = min(best, float(np.abs(p[j] - p[i]).min(initial=math.inf)))
    return best

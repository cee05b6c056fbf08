"""Boundary-curve geometry: derivatives, cusps, nodes, curvature, image polylines.

The boundary curve of a rosette map is a(t) = f(e^{it}).  Its derivative
exists and is continuous except at the 2n multiples of pi/n, where the
radical 1/sqrt(1 - e^{2int}) blows up.  On each basic interval
((j-1)pi/n, jpi/n) the two summand derivatives have equal magnitude and a
constant angle between them of beta + (-1)^j pi/2, which gives

    |a'(t)| = sqrt(2) sqrt(1 + (-1)^(j+1) sin beta) / |sqrt(1 - e^{2int})|,

i.e. the sine term is *added* on the first half of each inter-cusp interval
(odd j) and *subtracted* on the second half (even j); for beta = pi/2 the
summands cancel on the even intervals and the boundary is constant there.
Where the derivative is non-zero its argument follows the linear law

    arg a'(t) = k pi - (n/2 - 1) t     on ((2k-2)pi/n, 2kpi/n),

so the boundary turns at the constant rate n/2 - 1 and the total curvature
between consecutive cusps is pi - 2pi/n.

These closed forms hold for beta in (-pi/2, pi/2].  Each call decides once, by
``half_pi_shift``, whether beta is in the class of pi/2 + l pi: ``_reduce`` from beta as given,
writing beta = base + l pi, and ``extract_features``, which lays out and confirms the features,
from the canonical phase as its base.  The features, the derivative fields of ``curve_samples``,
``separation_angle``, ``total_curvature``'s petal check, ``halfspeed_points``,
``rotated_copies`` and, in that class, ``boundary_polyline`` compute at that base and carry the
result by the half-turn law: t moves by l pi/n, and every point and direction turns by
``half_turn_rotation(n, l)``.  The values of ``boundary_points``, ``curve_samples``,
``feature_values``, ``interval_points``, ``detect_arg_nonmonotonicity`` and, outside that
class, ``boundary_polyline`` are the series' at beta as given.

The image polylines (``boundary_polyline``, the fundamental polyline of ``rotated_copies``)
are rows of ``interval_points``, which alone puts the exact feature values in; each builder
closes its polyline, bit for bit, and the n copies share the fundamental one.  One boundary
polyline, ``boundary_polyline(params, FIGURE_PER_INTERVAL)``, is both the
figure that ``render`` draws and the curve that ``verify --level quick`` certifies.

h and g have real coefficients, so besides the rotation laws they obey the reflection law
h(w_1 conj(z)) = w_1 conj(h(z)), g(w_1 conj(z)) = -conj(w_1) conj(g(z)), w_1 = e^{i pi/n}:
the offset 1 - s of a basic interval is the mirror of s, and the first half of one interval
fixes the whole boundary.  Every offset builder (``interval_offsets``, the copies' arc, the
half-speed grid) emits exact pairs s, 1 - s, with s on the 2^-53 grid where 1 - s is exact,
and ``interval_points`` takes only such pairs and sends one series point per pair.

Every sample set of the curve (``curve_samples``, the feature confirmation,
``halfspeed_points``) takes h and g from one two-family series pass.
``boundary_points`` alone keeps the two passes of ``maps.f_many``, one for h and one
for g, until ROADMAP item 1: the benchmark's self-tests read ``boundary.f_many`` and
want the ``boundary_points`` span, which render's ray ends now reach alone.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (DomainError, FeatureMismatch, IntervalCrossesCusp, NonCanonicalBeta, WrongBeta,
                     as_array, as_number, require_integer, require_order)
from .geometry import dedupe
from .maps import (
    RosetteParams,
    combine_parts,
    derivative_parts,
    f,
    f_many,
    half_turn_rotation,
    parts_many,
    reduce_beta,
    require_params,
)
from .series import scale_constant

TWO_PI = 2.0 * math.pi

# Distance (in t) to a multiple of pi/n below which the derivative is Undefined.
T_SINGULAR_TOL = 1e-10

# Tolerance for recognizing beta = pi/2 (the nodes-instead-of-cusps case).
BETA_HALF_PI_TOL = 1e-9

# Offsets used for the one-sided Richardson secant confirmation of features;
# feature confirmation shrinks them with pi/n past n = 1000 (see _confirm_offsets).
CONFIRM_OFFSETS = (1e-3, 1e-4, 1e-5)
CONFIRM_TOL = 5e-3

# Offsets per basic interval of the boundary polyline that a figure draws and the quick
# verification certifies.  At the default 900 px figure width its chords stay within
# 0.0055 px of the curve (n from 3 to 48), far inside the grid curves' 0.1 px tolerance.
FIGURE_PER_INTERVAL = 96


class FeatureKind(Enum):
    CUSP = "cusp"
    REMOVABLE_NODE = "removable_node"
    NODE = "node"


@dataclass(frozen=True)
class CurveSample:
    t: float
    value: complex
    d_value: Optional[complex]
    d_arg: Optional[float]
    d_mag: float


@dataclass(frozen=True)
class BoundaryFeature:
    kind: FeatureKind
    t: float
    location: complex
    magnitude: float
    argument: float
    axis_arg: Optional[float]       # cusp axis / removable-node tangent direction
    interior_angle: Optional[float]


def _read_only(column: np.ndarray) -> np.ndarray:
    """A view of ``column`` that cannot be written."""
    view = column.view()
    view.flags.writeable = False
    return view


class _Records(Sequence):
    """A read-only sequence of ``record``s, kept as columns.  The first read of a record
    builds them all, once, as ``container`` (tuple or list), which then answers every index,
    slice, iteration and comparison.  Each column is a read-only array in row order, named
    after the field it holds, NaN where a record holds None."""

    record: type
    container: type = tuple

    @functools.cached_property
    def _records(self):
        columns = ([None if x != x else x for x in getattr(self, field.name).tolist()]
                   for field in fields(self.record))
        return self.container(map(self.record, *columns))

    def __len__(self) -> int:
        return self.t.size

    def __getitem__(self, index):
        return self._records[index]

    def __iter__(self):
        return iter(self._records)

    def __eq__(self, other):
        other = other._records if isinstance(other, type(self)) else other
        return self._records == other if isinstance(other, self.container) else NotImplemented

    def __hash__(self):
        return hash(self._records)

    def __repr__(self) -> str:
        return repr(self._records)


class FeatureRecords(_Records):
    """``FeatureReport.features``: the columns of the features, read as a tuple of
    BoundaryFeature.  ``kind`` is an object array of FeatureKind, ``location`` is complex,
    and ``axis_arg`` and ``interior_angle`` are NaN where a feature has none."""

    record = BoundaryFeature

    def __init__(self, kind, t, location, magnitude, argument, axis_arg, interior_angle):
        columns = kind, t, location, magnitude, argument, axis_arg, interior_angle
        (self.kind, self.t, self.location, self.magnitude, self.argument, self.axis_arg,
         self.interior_angle) = map(_read_only, columns)


class CurveSamples(_Records):
    """What ``curve_samples`` returns: the columns of the samples, read as a list of
    CurveSample.  ``value`` and ``d_value`` are complex, and ``d_value`` and ``d_arg`` are NaN
    at the samples that have none; ``d_value`` is computed when it is first read."""

    record, container = CurveSample, list
    __hash__ = None  # as a list's

    def __init__(self, params: RosetteParams, t, value, reduced, defined, d_arg, d_mag):
        self.t, self.value, self.d_arg, self.d_mag = map(_read_only, (t, value, d_arg, d_mag))
        self._params, self._reduced, self._defined = params, reduced, defined

    @functools.cached_property
    def d_value(self) -> np.ndarray:
        out = np.full(self.t.shape, np.nan, dtype=complex)
        out[self._defined] = _derivative_values(self._params, self._reduced[self._defined])
        return _read_only(out)


@dataclass(frozen=True)
class FeatureReport:
    params: RosetteParams
    features: FeatureRecords
    separations: tuple[float, ...]  # consecutive angular gaps of the feature arguments
    total_curvature_per_petal: float


def wrap_angle(x):
    """Reduce an angle, or each angle of an array, to (-pi, pi]: a number by math.fmod."""
    if not isinstance(x, np.ndarray):
        y = math.fmod(x, TWO_PI)
        return y - TWO_PI if y > math.pi else y + TWO_PI if y <= -math.pi else y
    y = np.fmod(x, TWO_PI)
    return np.where(y > math.pi, y - TWO_PI, np.where(y <= -math.pi, y + TWO_PI, y))


def distance_to_singular(n: int, t):
    """Distance from t (a number or an array) to the nearest multiple of pi/n."""
    step = math.pi / n
    r = np.mod(t, step)
    return np.minimum(r, step - r)


def _boundary_values(params: RosetteParams, ts: np.ndarray) -> np.ndarray:
    """a(t) = f(e^{it}) at finite parameters from one two-family series pass, bit for bit
    the values of ``boundary_points``."""
    return combine_parts(require_params(params).beta, *parts_many(params, np.exp(1j * ts)))


def boundary_points(params: RosetteParams, ts) -> np.ndarray:
    """Boundary values f(e^{it}) for an array of parameters; a non-finite t raises DomainError."""
    # f_many's two series passes, not _boundary_values, for two benchmark pins until ROADMAP
    # item 1: bench/test_bench.py reads boundary.f_many and wants this function's span on
    # boundary-render, where render's ray ends are now its only caller
    return f_many(params, np.exp(1j * as_array(ts, float, "boundary parameter t")))


def _derivative_values(params: RosetteParams, ts: np.ndarray) -> np.ndarray:
    """a'(t) from the closed-form part derivatives (no series needed): dz/dt = iz."""
    z = np.exp(1j * ts)
    return combine_parts(params.beta, *(1j * z * d for d in derivative_parts(params, z)))


def half_pi_shift(beta: float) -> Optional[int]:
    """The l with beta = pi/2 + l pi within BETA_HALF_PI_TOL, or None for any other beta.

    These are the nodes-instead-of-cusps phases; l half turns carry pi/2 to them.  The
    phase is reduced by ``reduce_beta``, so past BETA_LIMIT it raises DomainError.
    """
    base, shifts = reduce_beta(beta)
    if math.pi / 2 - base <= BETA_HALF_PI_TOL:
        return shifts
    return shifts - 1 if base + math.pi / 2 <= BETA_HALF_PI_TOL else None


def _reduce(params: RosetteParams) -> tuple[RosetteParams, float, complex, bool]:
    """(base, l pi/n, half_turn_rotation(n, l), nodes) for beta = base + l pi, where ``nodes``
    is the class of pi/2 by ``half_pi_shift`` of beta as given, the closed forms' one decision;
    the base is beta - l pi there (it may round past pi/2's band) and canonical elsewhere."""
    shifts = half_pi_shift(require_params(params).beta)
    nodes = shifts is not None
    if nodes:
        base = RosetteParams(params.n, params.beta - shifts * math.pi)
    else:
        base, shifts = params.canonical()
    return base, shifts * math.pi / params.n, half_turn_rotation(params.n, shifts), nodes


def _derivative_fields(params: RosetteParams, ts: np.ndarray):
    """d_arg (NaN where undefined) and d_mag at parameters already 2pi-reduced."""
    base, lag, turn, nodes = _reduce(params)
    n, beta = base.n, base.beta
    if lag:
        ts = np.mod(ts - lag, TWO_PI)
    x = 1.0 / np.abs(np.sqrt(1.0 - np.exp(1j * (2 * n * ts))))
    first_half = np.minimum(np.floor(ts * n / math.pi) + 1, 2 * n) % 2 == 1
    sin_term = np.where(first_half, math.sin(beta), -math.sin(beta))
    d_mag = math.sqrt(2.0) * np.sqrt(np.maximum(1.0 + sin_term, 0.0)) * x
    d_arg = np.ceil(ts * n / TWO_PI) * math.pi - (n / 2.0 - 1.0) * ts
    d_arg += cmath.phase(turn)
    if nodes:
        d_arg[~first_half] = np.nan
        d_mag[~first_half] = 0.0
    return d_arg, d_mag


def curve_samples(params: RosetteParams, ts: Sequence[float]) -> CurveSamples:
    """Boundary samples for dumping, in the order of ts raveled, as the columns of a
    CurveSamples, which reads as a list of CurveSample; derivative fields are None at
    singular t, and a non-finite t raises DomainError."""
    ts = as_array(ts, float, "boundary parameter t").flatten()  # a copy: the view keeps it
    values = _boundary_values(params, ts)
    red = np.mod(ts, TWO_PI)
    ok = distance_to_singular(params.n, red) >= T_SINGULAR_TOL
    d_arg = np.full(ts.shape, np.nan)
    d_mag = np.zeros(ts.shape)
    d_arg[ok], d_mag[ok] = _derivative_fields(params, red[ok])
    return CurveSamples(params, ts, values, red, ok, d_arg, d_mag)


# --- features ----------------------------------------------------------------


def feature_values(params: RosetteParams) -> np.ndarray:
    """a(j pi/n) for j = 0..2n-1 (the array's index), through the exact rotation laws.

    a(j pi/n) = e^{ij pi/n} (e^{i beta/2} h(1) + (-1)^j e^{-i beta/2} g(1)),
    so only the two series values at argument exactly 1, the gamma closed
    forms, are needed.  Arguments that merely round to 1 would give the curve
    at a parameter off by rounding, about 1e-8 away in value, because the
    curve is only Hoelder-1/2 there.
    """
    n = require_params(params).n
    at_one = f(params, 1.0)
    base = np.array([at_one.h + at_one.gbar, at_one.h - at_one.gbar])
    js = np.arange(2 * n)
    # Python's complex product, in real parts: numpy's complex loop may fuse multiply-adds,
    # which round otherwise
    turn, pick = np.exp(1j * (js * math.pi / n)), base[js % 2]
    return (turn.real * pick.real - turn.imag * pick.imag) + 1j * (
        turn.real * pick.imag + turn.imag * pick.real)


def extract_features(params: RosetteParams, confirm: bool = True) -> FeatureReport:
    """Locate and classify every boundary feature of a rosette.

    For canonical |beta| < pi/2: n cusps at t = 2k pi/n with axis argument 2k pi/n,
    interleaved with n removable nodes at odd multiples of pi/n whose common tangent direction
    is pi/2 + (2k-1)pi/n.  For beta = pi/2: n nodes at t = 2k pi/n with interior angle
    pi/2 - pi/n (within BETA_HALF_PI_TOL above -pi/2, the same nodes carried to the odd
    multiples), a class that ``half_pi_shift`` of the canonical phase decides once for the
    layout and the confirmation alike.  Feature locations come from the series evaluated
    exactly at argument 1 plus the rotation laws.  With ``confirm`` the one-sided tangent
    directions at every feature are re-estimated from Richardson-extrapolated secants of the
    curve itself and checked against the closed forms; only one orbit's secant points go
    through the series, and the n-fold rotation law carries them to the other features
    (``_confirm_features``), so that work does not grow with n.  Any other beta gets the
    features of its canonical phase, in the same order, carried by the law; not those of
    ``_reduce``'s base, which at beta = -pi/2 + 5e-10 and n = 5 would put the first feature
    at t = 2pi - pi/n = 5.655, not pi/n = 0.628, and turn every location by the half turn.
    """
    (canonical, shifts), n = require_params(params).canonical(), params.n
    lag, turn = shifts * math.pi / n, half_turn_rotation(n, shifts)
    node_shift = half_pi_shift(canonical.beta)  # 0 at pi/2, -1 within the band above -pi/2
    nodes = node_shift is not None
    js = np.arange(node_shift % 2, 2 * n, 2) if nodes else np.arange(2 * n)
    ts, location = js * math.pi / n, feature_values(canonical)[js]
    kind = np.empty(ts.size, dtype=object)
    if nodes:  # beta = pi/2: n nodes replace the cusps
        kind[:] = FeatureKind.NODE
        axis, angle = np.full(n, np.nan), np.full(n, math.pi / 2 - math.pi / n)
    else:  # cusps on their axes t, removable nodes with the tangent direction pi/2 + t
        kind[0::2], kind[1::2] = FeatureKind.CUSP, FeatureKind.REMOVABLE_NODE
        axis, angle = ts.copy(), np.full(2 * n, np.nan)
        axis[1::2] += math.pi / 2
        axis = np.mod(axis, TWO_PI)
        angle[1::2] = math.pi
    locs = location.tolist()  # |a| and arg a by the scalar abs and cmath.phase of each value
    magnitude = np.array(list(map(abs, locs)))
    argument = np.mod(np.array(list(map(cmath.phase, locs))), TWO_PI)
    if confirm:
        _confirm_features(canonical, nodes, kind, ts, location, axis, angle)
    if lag:
        spin = cmath.phase(turn)
        carried = np.mod((ts + lag, argument + spin, axis + spin), TWO_PI)
        ts, argument, axis = np.where(carried == TWO_PI, 0.0, carried)  # np.mod(-1e-17, 2pi) is 2pi
        location = np.array(list(map(turn.__mul__, locs)))
    return FeatureReport(
        params=params,
        features=FeatureRecords(kind, ts, location, magnitude, argument, axis, angle),
        separations=tuple(np.mod(np.concatenate((argument[1:], argument[:1])) - argument,
                                 TWO_PI).tolist()),
        total_curvature_per_petal=math.pi - TWO_PI / n,
    )


def _confirm_offsets(n: int) -> tuple[float, ...]:
    """CONFIRM_OFFSETS scaled by min(1, 1000/n), so that they stay well below pi/n."""
    scale = min(1.0, 1000.0 / n)
    return tuple(d * scale for d in CONFIRM_OFFSETS)


def _confirm_features(params: RosetteParams, nodes: bool, kind, t, location, axis_arg,
                      interior_angle) -> None:
    """Check the measured one-sided tangent directions at every feature against the closed forms.

    The features are ``extract_features``' columns at the canonical phase ``params``, and
    ``nodes`` its class of pi/2, whose nodes are measured on the half-speed curve, which skips
    the constancy arcs.  Only one orbit's secant points go through the curve: those of features
    0 and 1 (node 0 alone in the class of pi/2), 12 points (6) at any n.  Feature k = r m + q,
    r features per orbit, lies 2pi m/n past feature q, and the curve obeys a(t + 2pi/n) =
    e^{2i pi/n} a(t), so its points are q's turned by e^{2i pi m/n}.  Each secant still starts
    at the feature's own location from ``feature_values``, so a wrong location at any feature
    fails the check.  A failure names the first feature that fails, and of its checks the first.
    """
    part, orbit = (halfspeed_points, 1) if nodes else (_boundary_values, 2)
    spin = np.exp(1j * (TWO_PI / params.n) * np.arange(t.size // orbit))[:, None]

    def carried(ts: np.ndarray) -> np.ndarray:  # one_sided_tangents' feature-major grid
        return np.multiply(spin, part(params, ts[: ts.size // spin.size])).ravel()

    lo, hi = one_sided_tangents(carried, t, location, _confirm_offsets(params.n))
    if nodes:  # beta = pi/2 node: the tangent jumps by the exterior angle
        got, want = wrap_angle(hi - lo)[None], (math.pi - interior_angle)[None]
    else:  # a cusp turns back along its axis t, a removable node keeps its tangent
        got = np.stack((lo, hi))
        want = np.where(kind == FeatureKind.CUSP, np.stack((t, math.pi + t)), axis_arg)
    bad = np.abs(wrap_angle(got - want)) > CONFIRM_TOL  # (check, feature)
    if bad.any():
        k = np.flatnonzero(bad.any(axis=0))[0]
        c = np.flatnonzero(bad[:, k])[0]
        raise FeatureMismatch(kind[k], float(t[k]), float(got[c, k]), float(want[c, k]))


class SeparationSide(Enum):
    NODE_AFTER_CUSP = "node_after_cusp"
    CUSP_AFTER_NODE = "cusp_after_node"


def separation_angle(params: RosetteParams, side: SeparationSide) -> float:
    """Angular gap between a cusp and a neighboring removable node.

    pi/n + arctan(2 tan(pi/2n) sin beta / (1 - tan^2(pi/2n))) when the node
    has the larger argument, the minus-branch otherwise; the two branches
    sum to 2pi/n.  beta is the base phase, since the half-turn law keeps every
    separation; the class of pi/2, which has no cusps, raises NonCanonicalBeta.
    """
    if not isinstance(side, SeparationSide):
        raise DomainError(f"side must be a SeparationSide, got {side!r}")
    base, _, _, nodes = _reduce(params)
    if nodes:
        raise NonCanonicalBeta("separation angles require beta off pi/2 + l pi")
    n = params.n
    tn = math.tan(math.pi / (2 * n))
    delta = math.atan(2.0 * tn * math.sin(base.beta) / (1.0 - tn * tn))
    if side is SeparationSide.NODE_AFTER_CUSP:
        return math.pi / n + delta
    return math.pi / n - delta


def _check_within_petal(params: RosetteParams, t0: float, t1: float) -> tuple[float, float]:
    """(t0, t1) as floats, after raising unless they are real, finite and within one petal."""
    n = require_params(params).n
    t0, t1 = as_number(t0, float, "interval end t0"), as_number(t1, float, "interval end t1")
    if t1 < t0:
        raise IntervalCrossesCusp("need t0 <= t1")
    _, lag, _, nodes = _reduce(params)
    s0, s1 = t0 - lag, t1 - lag  # at the base phase
    petal = TWO_PI / n
    k0 = np.floor((s0 + 1e-12) / petal)  # a float: near |t| = 1e308 the quotient is infinite
    k1 = np.ceil((s1 - 1e-12) / petal) - 1
    if k1 > k0:
        raise IntervalCrossesCusp(
            f"[{t0}, {t1}] crosses a cusp parameter ({lag} + a multiple of 2pi/{n})"
        )
    if nodes and s1 - k0 * petal > math.pi / n + 1e-12:
        # only the first half of each inter-cusp interval carries the curve
        raise IntervalCrossesCusp(
            "for beta = pi/2 + l pi the interval must lie in an active half "
            "[(2k-2+l)pi/n, (2k-1+l)pi/n]"
        )
    return t0, t1


def total_curvature(params: RosetteParams, t0: float, t1: float) -> float:
    """Total turning of the boundary over [t0, t1] within one inter-cusp interval.

    Equal to (n/2 - 1)(t1 - t0) because the tangent argument is linear in t;
    left turns count positive.
    """
    t0, t1 = _check_within_petal(params, t0, t1)
    return (params.n / 2.0 - 1.0) * (t1 - t0)


def total_curvature_numeric(params: RosetteParams, t0: float, t1: float) -> float:
    """Accumulated turning of 4096 sampled tangent directions (wrap-aware diffs).

    Independent of the linear-argument law: uses only the complex derivative
    values.  Endpoints are nudged off singular parameters by 1e-9.
    """
    t0, t1 = _check_within_petal(params, t0, t1)
    eps = 1e-9
    a = t0 + eps if distance_to_singular(params.n, t0) < eps else t0
    b = t1 - eps if distance_to_singular(params.n, t1) < eps else t1
    ts = np.linspace(a, b, 4096)
    ts = ts[distance_to_singular(params.n, ts) > T_SINGULAR_TOL]
    d = _derivative_values(params, ts)
    args = np.angle(d)
    diffs = np.diff(args)
    diffs = wrap_angle(diffs)
    # reported as a magnitude, consistent with the analytic formula
    return float(abs(np.sum(diffs)))


def halfspeed_points(params: RosetteParams, ts) -> np.ndarray:
    """The continuous half-speed reparametrization of the boundary for beta = pi/2 + l pi.

    At beta = pi/2, on [(2k-2)pi/n, 2k pi/n) the curve equals a((k-1)pi/n + t/2): it
    traverses each active half-interval at half speed and skips the constancy arcs,
    visiting the node exactly at t = 2k pi/n.  At l != 0 it is that curve of pi/2
    carried by the half-turn law.  Any other beta raises WrongBeta, a non-finite t DomainError.
    """
    base, lag, turn, nodes = _reduce(params)
    if not nodes:
        raise WrongBeta("half-speed reparametrization requires beta = pi/2 + l pi")
    n = base.n
    ts = as_array(ts, float, "boundary parameter t")
    red = np.mod(ts - lag, TWO_PI)
    k = np.floor(red * n / TWO_PI)  # zero-based inter-cusp interval counter
    mapped = k * math.pi / n + red / 2.0
    out = _boundary_values(base, mapped)
    # a node's t maps to j pi/n up to the rounding of t, the lag and j pi/n (5e-324 at j = 0) and
    # takes the exact feature value; any other t keeps its own: the curve is Hoelder-1/2 there
    step = math.pi / n
    j_near = np.rint(mapped / step).astype(int)
    window = 4 * (np.spacing(np.abs(ts)) + np.spacing(abs(lag)) + np.spacing(j_near * step))
    snap = np.abs(mapped - j_near * step) <= window
    if snap.any():  # np.where, not item assignment: a scalar t gives a numpy scalar
        out = np.where(snap, feature_values(base)[j_near % (2 * n)], out)
    return turn * out if lag else out


def interval_offsets(per_interval: int) -> np.ndarray:
    """Sorted sampling offsets s in (0, 1) of one basic interval: midpoint-uniform,
    with twice denser coverage in a band of width 0.1 at either end (the features),
    in exact mirror pairs s, 1 - s (``_mirror_pairs``).  ``per_interval`` is bounded like an
    order: past ORDER_LIMIT the float offsets could not tell the counts apart."""
    require_order(per_interval, 1, "per_interval")
    base = (np.arange((per_interval + 1) // 2) + 0.5) / per_interval
    band_count = max(1, int(0.2 * per_interval))
    band = 0.1 * (np.arange(band_count) + 0.5) / band_count
    return _mirror_pairs(np.concatenate([base, band]))


def _mirror_pairs(lower: np.ndarray) -> np.ndarray:
    """Sorted offsets in exact mirror pairs: the distinct ``lower`` (in (0, 1/2]) moved to
    the nearest multiple of 2^-53, the ulp on [1/2, 1), where 1 - s is exact, then the
    mirror 1 - s of each one below 1/2.  So ``interval_points`` evaluates the series once
    per pair."""
    s = np.sort(np.rint(lower * 2.0**53) * 2.0**-53)
    # np.unique's values, without the import of numpy.ma that its first call makes
    s = s[np.append(True, s[1:] != s[:-1])]
    return np.concatenate([s, 1.0 - s[s < 0.5][::-1]])


def _interval_indices(js, n: int) -> np.ndarray:
    """The basic intervals ``js`` names: a slice of 0..2n-1, or indices in it; any other
    ``js`` (an index out of range, text, a number that is no integer) raises DomainError."""
    if isinstance(js, slice):
        return np.arange(2 * n)[js]
    try:
        for k in js:
            require_integer(k, 0, "interval index j")
            if k >= 2 * n:
                raise DomainError(f"interval index j must be below 2n = {2 * n}, got {k}")
    except TypeError:  # not iterable
        raise DomainError(f"js must be a slice or a sequence of indices, got {js!r}") from None
    return np.array(js, dtype=int)


def interval_points(params: RosetteParams, offsets, js=slice(None)) -> np.ndarray:
    """Rows a(j pi/n), a((j + s) pi/n) at the offsets s, for the basic intervals j in ``js``
    (a slice or index array into 0..2n-1), a(j pi/n) being ``feature_values``' exact value.

    The offsets are exact mirror pairs as ``_mirror_pairs`` lays them out (sorted, in (0, 1),
    with 1 - s in the set bit for bit for each s); any others raise DomainError.  h and g are
    evaluated once per pair, at z = e^{i s pi/n} for s <= 1/2, and carried onto every
    interval by the summand rotation laws h(w_j z) = w_j h(z) and
    g(w_j z) = (-1)^j conj(w_j) g(z), w_j = e^{ij pi/n}:

        a((j + s) pi/n) = w_j (e^{i beta/2} h(z) + (-1)^j e^{-i beta/2} conj(g(z))),

    and onto the mirror 1 - s, at w_1 conj(z), by the reflection law of real coefficients:

        h(w_1 conj(z)) = w_1 conj(h(z)),    g(w_1 conj(z)) = -conj(w_1) conj(g(z)).

    A pair's columns equal the two-offset call's, and each row the full array's row j, bit
    for bit.  The image polylines take their feature values from here alone.
    """
    n = require_params(params).n
    s = as_array(offsets, float, "interval offsets")
    if not (s.ndim == 1 and np.all(np.diff(s, prepend=0.0) > 0) and np.array_equal(1 - s[::-1], s)):
        raise DomainError(f"interval offsets must be sorted exact mirror pairs s, 1 - s in (0, 1), "
                          f"got {s}")
    j = _interval_indices(js, n)
    hz, gz = parts_many(params, np.exp(1j * (s[: (s.size + 1) // 2] * (math.pi / n))))
    below = slice(s.size // 2)  # the s < 1/2, whose mirrors follow in reverse order
    w1 = cmath.exp(1j * math.pi / n)
    hz = np.append(hz, np.multiply(w1, np.conj(hz[below][::-1])))
    gz = np.append(gz, np.multiply(-w1.conjugate(), np.conj(gz[below][::-1])))
    omega = np.exp(1j * (j * math.pi / n))[:, None]
    odd = j % 2 == 1
    out = np.empty((j.size, s.size + 1), dtype=complex)
    out[:, 0] = feature_values(params)[j]
    out[~odd, 1:] = np.multiply(omega[~odd], combine_parts(params.beta, hz, gz))
    out[odd, 1:] = np.multiply(omega[odd], combine_parts(params.beta, hz, -gz))  # negation is exact
    return out


def detect_arg_nonmonotonicity(params: RosetteParams) -> tuple[bool, Optional[float]]:
    """Scan arg a(t) on a fine grid (512 offsets per basic interval and the features) for
    strict decrease.

    Returns (found, witness_t) with the witness at the midpoint of a grid
    step on which the unwrapped argument decreases by more than 1e-6 rad.
    """
    n, offsets = require_params(params).n, interval_offsets(512)
    ts = ((np.arange(2 * n)[:, None] + np.append(0.0, offsets)) * (math.pi / n)).ravel()
    vals = interval_points(params, offsets).ravel()
    args = np.unwrap(np.angle(vals))
    diffs = np.diff(args)
    dec = np.flatnonzero(diffs < -1e-6)
    if dec.size == 0:
        return False, None
    i = int(dec[np.argmin(diffs[dec])])
    return True, float(0.5 * (ts[i] + ts[i + 1]))


# --- image polylines -----------------------------------------------------------


@dataclass(frozen=True)
class RotatedCopy:
    """``fundamental``, the fundamental set's polyline that one call's copies share, turned."""

    prefactor: complex
    fundamental: np.ndarray

    @property
    def polyline(self) -> np.ndarray:
        return self.prefactor * self.fundamental


def boundary_polyline(params: RosetteParams, per_interval: int = 512) -> np.ndarray:
    """Closed polyline through the boundary curve (half-speed at beta = pi/2 + l pi).

    The rows of ``interval_points`` raveled and closed: every basic interval at the offsets
    of ``interval_offsets``, each after its exact feature value, so cusps and nodes are
    vertices of the polyline, their values taken from the rotation laws (series evaluated at
    argument exactly 1), never from near-singular parameters.  At beta = pi/2 the half-speed
    curve visits the grid parameters (j + s) pi/n at a((2k + s/2) pi/n) for j = 2k and at
    a((2k + (1 + s)/2) pi/n) for j = 2k + 1, as ``halfspeed_points`` maps them: the even
    intervals, the nodes', at the offsets s/2 and their mirrors 1 - s/2, which are the
    (1 + s)/2 of the mirror offsets, in exact pairs.  At beta = pi/2 + l pi it is that
    polyline of ``_reduce``'s base turned by the half-turn law, so every l has the vertices
    of l = 0.
    """
    offsets = interval_offsets(per_interval)
    base, lag, turn, nodes = _reduce(params)
    if nodes:  # the nodes' intervals, the even ones at the base
        offsets, js = _mirror_pairs(offsets / 2), slice(0, None, 2)
    else:
        base, lag, js = params, 0.0, slice(None)
    poly = interval_points(base, offsets, js=js).ravel()
    poly = dedupe(np.append(poly, poly[0]), 1e-13 * scale_constant(base.n))
    return turn * poly if lag else poly


def rotated_copies(params: RosetteParams) -> list[RotatedCopy]:
    """The n rotated copies of the fundamental set, whose union reconstructs the full image.

    The fundamental set is the image of the closed sector arg z in [0, 2pi/n) at the base
    phase of ``_reduce``.  Its boundary polyline, which every copy shares as ``fundamental``,
    has three sides: the radial image f(r) at 600 radii, the boundary arc over [0, 2pi/n]
    at 768 offsets per basic interval in 384 exact mirror pairs (its endpoints and midpoint
    taken exactly from the rotation laws), and the rotated radial image f(r e^{2 pi i/n})
    traversed back to the origin, where it closes on its first vertex f(0) = 0, bit for
    bit.  Copy k turns it by
    e^{2ik pi/n}, k = 1..n, and then by the image rotation of the half-turn law,
    ``half_turn_rotation(n, l)`` for beta = base + l*pi.
    """
    base, _, turn, _ = _reduce(params)
    r = np.sin(0.5 * math.pi * np.linspace(0.0, 1.0, 600)) ** 2  # clustered toward r = 1
    side1 = combine_parts(base.beta, *parts_many(base, r[:-1]))  # a(0) appended below
    rows = interval_points(base, _mirror_pairs((np.arange(384) + 0.5) / 768), js=slice(0, 3))
    arc = np.append(rows[:2], rows[2, 0])
    side2 = (np.append(side1, rows[0, 0]) * cmath.exp(2j * math.pi / base.n))[::-1]
    poly = np.concatenate([side1, arc, side2[1:-1], side1[:1]])  # at n = 3 side2 ends on -0+0j
    poly = dedupe(poly, 1e-13 * scale_constant(base.n))
    return [RotatedCopy(turn * cmath.exp(2j * k * math.pi / params.n), poly)
            for k in range(1, params.n + 1)]


# --- generic singular-point classification -----------------------------------


class SingularPointEstimate(NamedTuple):
    t: float
    location: complex
    left_arg: float
    right_arg: float
    kind: FeatureKind


def one_sided_tangents(
    curve_fn: Callable[[np.ndarray], np.ndarray],
    ts: Sequence[float],
    locations: Sequence[complex],
    offsets: Sequence[float] = CONFIRM_OFFSETS,
) -> tuple[np.ndarray, np.ndarray]:
    """Left and right tangent directions of a curve at each parameter in ``ts``.

    The secant directions arg(s (a(t0 + s d) - a(t0))), s = -1 and +1, are
    unwrapped around the one at the first offset, to within [-pi, pi) of it, and
    Richardson-extrapolated to d -> 0 for an O(d) error model; the offsets must form a
    geometric sequence.  One call of ``curve_fn`` covers every parameter and both sides: it gets
    the t0 + s d raveled in the order (t0, s, d).  A secant no longer than 1e-14 (|a(t0 + s d)|
    + |a(t0)|) is rounding and raises DomainError: on beta = pi/2's arcs of constancy one of
    the three secants is at most 1.4e-15 of that sum (n 3-1000), while the true secants that
    confirm a feature measure 1.5e-13 or more (cusps 1e-9 off pi/2 at n = 200), and 5e-11 on
    hypocycloid cusps.
    """
    t0 = np.asarray(ts, dtype=float)
    d = np.asarray(offsets, dtype=float)
    side = np.array([-1.0, 1.0])[:, None]
    vals = _curve_values(curve_fn, (t0[:, None, None] + side * d).ravel()).reshape(-1, 2, d.size)
    locs = as_array(locations, complex, "locations")[:, None, None]
    short = np.argwhere(np.abs(vals - locs) <= 1e-14 * (np.abs(vals) + np.abs(locs)))
    if short.size:
        i, s = short[0, :2]
        raise DomainError(f"the {('left', 'right')[s]} secant at t0 = {float(t0[i])!r} is rounding")
    raw = np.angle(side * (vals - locs))
    est = raw[..., :1] - wrap_angle(raw[..., :1] - raw)
    ratio = d[0] / d[1]
    while est.shape[-1] > 1:
        est = (ratio * est[..., 1:] - est[..., :-1]) / (ratio - 1.0)
    return est[:, 0, 0], est[:, 1, 0]


def _curve_values(curve_fn: Callable[[np.ndarray], np.ndarray], ts: np.ndarray) -> np.ndarray:
    """curve_fn(ts) as a complex array; DomainError unless it is one finite number per t."""
    if not callable(curve_fn):
        raise DomainError(f"curve function must be callable, got {curve_fn!r}")
    vals = as_array(curve_fn(ts), complex, "curve values")
    if vals.shape != ts.shape or not np.isfinite(vals).all():
        raise DomainError(f"curve function gave {vals} for the {ts.size} parameters {ts}")
    return vals


def classify_singular_point(
    curve_fn: Callable[[np.ndarray], np.ndarray],
    t0: float,
    location: Optional[complex] = None,
) -> SingularPointEstimate:
    """Classify an isolated singular point of any closed curve numerically.

    The one-sided tangent directions come from ``one_sided_tangents``; the
    point is a cusp when they differ by pi (mod 2pi), a removable node when
    they agree, and a node otherwise.
    """
    t0 = as_number(t0, float, "t0")
    if location is None:
        (location,) = _curve_values(curve_fn, np.array([t0])).tolist()
    location = as_number(location, complex, "location")
    if not cmath.isfinite(location):
        raise DomainError(f"location {location} is not finite")
    left, right = (float(x[0]) for x in one_sided_tangents(curve_fn, [t0], [location]))
    jump = abs(wrap_angle(right - left))
    if abs(jump - math.pi) < CONFIRM_TOL:
        kind = FeatureKind.CUSP
    elif jump < CONFIRM_TOL:
        kind = FeatureKind.REMOVABLE_NODE
    else:
        kind = FeatureKind.NODE
    return SingularPointEstimate(t0, location, left, right, kind)


def bounding_radius(n: int) -> float:
    """Radius of the circle that always encloses the order-n rosette image."""
    return scale_constant(n) * (1.0 + math.tan(math.pi / (2 * n)))

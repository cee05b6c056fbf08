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

These closed forms hold for beta in (-pi/2, pi/2].  Every function here takes
any beta = base + l pi (see ``_reduce``) and carries them by the half-turn law: t
moves by l pi/n, and every point and direction turns by ``half_turn_rotation(n, l)``.

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
and ``interval_points`` sends one series point per pair.

Every sample set of the curve (``curve_samples``, the feature confirmation,
``halfspeed_points``) takes h and g from one two-family series pass.
``boundary_points`` alone keeps the two passes of ``maps.f_many``, one for h and one
for g, until ROADMAP item 1: the benchmark's self-tests read ``boundary.f_many`` and
want the ``boundary_points`` span, which render's ray ends now reach alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (DomainError, FeatureMismatch, IntervalCrossesCusp, NonCanonicalBeta, WrongBeta,
                     as_array, as_number, require_integer)
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


@dataclass(frozen=True)
class FeatureReport:
    params: RosetteParams
    features: tuple[BoundaryFeature, ...]
    separations: tuple[float, ...]  # consecutive angular gaps of the feature arguments
    total_curvature_per_petal: float


def wrap_angle(x: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    y = math.fmod(x, TWO_PI)
    if y > math.pi:
        y -= TWO_PI
    elif y <= -math.pi:
        y += TWO_PI
    return y


def _reduce_t(t: float) -> float:
    """A finite angle reduced to [0, 2pi)."""
    t = math.fmod(t, TWO_PI)
    return t + TWO_PI if t < 0.0 else t


def distance_to_singular(n: int, t):
    """Distance from t (a number or an array) to the nearest multiple of pi/n."""
    step = math.pi / n
    r = np.mod(t, step)
    return np.minimum(r, step - r)


def _boundary_values(params: RosetteParams, ts: np.ndarray) -> np.ndarray:
    """a(t) = f(e^{it}) at finite parameters from one two-family series pass, bit for bit
    the values of ``boundary_points``."""
    return combine_parts(params.beta, *parts_many(params, np.exp(1j * ts)))


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


def is_half_pi(beta: float) -> bool:
    """Whether beta is pi/2 itself (not another phase of its class) within BETA_HALF_PI_TOL."""
    return half_pi_shift(beta) == 0


def _carry(base: RosetteParams, shifts: int) -> tuple[RosetteParams, float, complex]:
    return base, shifts * math.pi / base.n, half_turn_rotation(base.n, shifts)


def _reduce(params: RosetteParams) -> tuple[RosetteParams, float, complex]:
    """(base, l pi/n, half_turn_rotation(n, l)) for beta = base + l pi, where the base is
    pi/2 within BETA_HALF_PI_TOL in the class of pi/2 (l = half_pi_shift), so that the
    closed forms see its constancy arcs, and the canonical phase otherwise."""
    shifts = half_pi_shift(params.beta)
    if shifts is None:
        return _carry(*params.canonical())
    return _carry(RosetteParams(params.n, params.beta - shifts * math.pi), shifts)


def _derivative_fields(params: RosetteParams, ts: np.ndarray):
    """d_value, d_arg (NaN where undefined) and d_mag at parameters already 2pi-reduced."""
    d_value = _derivative_values(params, ts)
    base, lag, turn = _reduce(params)
    n, beta = base.n, base.beta
    if lag:
        ts = np.mod(ts - lag, TWO_PI)
    x = 1.0 / np.abs(np.sqrt(1.0 - np.exp(1j * (2 * n * ts))))
    first_half = np.minimum(np.floor(ts * n / math.pi) + 1, 2 * n) % 2 == 1
    sin_term = np.where(first_half, math.sin(beta), -math.sin(beta))
    d_mag = math.sqrt(2.0) * np.sqrt(np.maximum(1.0 + sin_term, 0.0)) * x
    d_arg = np.ceil(ts * n / TWO_PI) * math.pi - (n / 2.0 - 1.0) * ts
    d_arg += cmath.phase(turn)
    if is_half_pi(beta):
        d_arg[~first_half] = np.nan
        d_mag[~first_half] = 0.0
    return d_value, d_arg, d_mag


def curve_samples(params: RosetteParams, ts: Sequence[float]) -> list[CurveSample]:
    """Boundary samples for dumping, in the order of ts raveled; derivative fields are None
    at singular t, and a non-finite t raises DomainError."""
    ts = np.ravel(as_array(ts, float, "boundary parameter t"))
    values = _boundary_values(params, ts).tolist()
    red = np.mod(ts, TWO_PI)
    ok = distance_to_singular(params.n, red) >= T_SINGULAR_TOL
    d_value = np.full(ts.shape, np.nan, dtype=complex)
    d_arg = np.full(ts.shape, np.nan)
    d_mag = np.zeros(ts.shape)
    d_value[ok], d_arg[ok], d_mag[ok] = _derivative_fields(params, red[ok])
    return [
        CurveSample(t, v, None, None, 0.0) if not good
        else CurveSample(t, v, dv, None if math.isnan(da) else da, dm)
        for t, v, good, dv, da, dm in zip(
            ts.tolist(), values, ok.tolist(), d_value.tolist(), d_arg.tolist(), d_mag.tolist()
        )
    ]


# --- features ----------------------------------------------------------------


def feature_values(params: RosetteParams) -> np.ndarray:
    """a(j pi/n) for j = 0..2n-1 (the array's index), through the exact rotation laws.

    a(j pi/n) = e^{ij pi/n} (e^{i beta/2} h(1) + (-1)^j e^{-i beta/2} g(1)),
    so only the two series values at argument exactly 1, the gamma closed
    forms, are needed.  Arguments that merely round to 1 would give the curve
    at a parameter off by rounding, about 1e-8 away in value, because the
    curve is only Hoelder-1/2 there.
    """
    n = params.n
    at_one = f(params, 1.0)
    base_even, base_odd = at_one.h + at_one.gbar, at_one.h - at_one.gbar
    return np.array([cmath.exp(1j * j * math.pi / n) * (base_even if j % 2 == 0 else base_odd)
                     for j in range(2 * n)])


def _feature_js(params: RosetteParams) -> slice:
    """The j in 0..2n-1 (a slice) of the features t = j pi/n: all 2n, or at beta = pi/2 + l pi
    the n nodes j = l (mod 2); the other multiples only end arcs of constancy there."""
    shifts = half_pi_shift(params.beta)
    return slice(None) if shifts is None else slice(shifts % 2, None, 2)


def feature_vertices(params: RosetteParams) -> tuple[np.ndarray, np.ndarray]:
    """Parameters t = j pi/n in [0, 2pi) of the boundary features (``_feature_js``) and
    their values a(t) from feature_values."""
    js = np.arange(2 * params.n)[_feature_js(params)]
    return js * math.pi / params.n, feature_values(params)[js]


def extract_features(params: RosetteParams, confirm: bool = True) -> FeatureReport:
    """Locate and classify every boundary feature of a rosette.

    For canonical |beta| < pi/2: n cusps at t = 2k pi/n with axis argument 2k pi/n,
    interleaved with n removable nodes at odd multiples of pi/n whose common
    tangent direction is pi/2 + (2k-1)pi/n.  For beta = pi/2: n nodes at
    t = 2k pi/n with interior angle pi/2 - pi/n (within BETA_HALF_PI_TOL
    above -pi/2, the same nodes carried to the odd multiples).  Feature
    locations come from the series evaluated exactly at argument 1 plus the
    rotation laws.  With ``confirm`` the one-sided tangent directions at every
    feature are re-estimated from Richardson-extrapolated secants of the curve
    itself and checked against the closed forms; only one orbit's secant points
    go through the series, and the n-fold rotation law carries them to the other
    features (``_confirm_features``), so that work does not grow with n.  Any
    other beta gets the features of its canonical phase, in the same order, carried
    by the law; not those of ``_reduce``'s base, which at beta = -pi/2 + 5e-10 and
    n = 5 would put the first feature at t = 2pi - pi/n = 5.655, not pi/n = 0.628,
    and turn every location by the half turn.
    """
    canonical, lag, turn = _carry(*params.canonical())
    n = params.n
    ts, locations = feature_vertices(canonical)
    nodes = ts.size == n  # beta = pi/2: n nodes replace the cusps
    features: list[BoundaryFeature] = []
    for j, (t, loc) in enumerate(zip(ts.tolist(), locations.tolist())):
        if nodes:
            kind, axis, angle = FeatureKind.NODE, None, math.pi / 2 - math.pi / n
        elif j % 2 == 0:
            kind, axis, angle = FeatureKind.CUSP, _reduce_t(t), None
        else:
            kind, axis, angle = FeatureKind.REMOVABLE_NODE, _reduce_t(math.pi / 2 + t), math.pi
        features.append(
            BoundaryFeature(kind, t, loc, abs(loc), _reduce_t(cmath.phase(loc)), axis, angle)
        )
    if confirm:
        _confirm_features(canonical, features)
    if lag:
        spin = cmath.phase(turn)
        features = [replace(ft, t=_reduce_t(ft.t + lag), location=turn * ft.location,
                            argument=_reduce_t(ft.argument + spin),
                            axis_arg=None if ft.axis_arg is None else _reduce_t(ft.axis_arg + spin))
                    for ft in features]
    args = [ft.argument for ft in features]
    seps = tuple(
        (args[(i + 1) % len(args)] - args[i]) % TWO_PI for i in range(len(args))
    )
    return FeatureReport(
        params=params,
        features=tuple(features),
        separations=seps,
        total_curvature_per_petal=math.pi - TWO_PI / n,
    )


def _confirm_offsets(n: int) -> tuple[float, ...]:
    """CONFIRM_OFFSETS scaled by min(1, 1000/n), so that they stay well below pi/n."""
    scale = min(1.0, 1000.0 / n)
    return tuple(d * scale for d in CONFIRM_OFFSETS)


def _confirm_features(params: RosetteParams, features: list[BoundaryFeature]) -> None:
    """Check the measured one-sided tangent directions at every feature against the closed forms.

    The nodes of beta = pi/2 + l pi are measured on the half-speed curve, which skips
    the constancy arcs.  Only one orbit's secant points go through the curve: those of
    features 0 and 1 (node 0 alone in the class of pi/2), 12 points (6) at any n.  Feature
    k = r m + q, r features per orbit, lies 2pi m/n past feature q, and the curve obeys
    a(t + 2pi/n) = e^{2i pi/n} a(t), so its points are q's turned by e^{2i pi m/n}.  Each
    secant still starts at the feature's own location from ``feature_values``, so a wrong
    location at any feature fails the check.
    """
    nodes = half_pi_shift(params.beta) is not None
    part, orbit = (halfspeed_points, 1) if nodes else (_boundary_values, 2)
    spin = np.exp(1j * (TWO_PI / params.n) * np.arange(len(features) // orbit))[:, None]

    def carried(ts: np.ndarray) -> np.ndarray:  # one_sided_tangents' feature-major grid
        return np.multiply(spin, part(params, ts[: ts.size // spin.size])).ravel()

    left, right = one_sided_tangents(
        carried,
        [ft.t for ft in features],
        [ft.location for ft in features],
        _confirm_offsets(params.n),
    )
    for ft, lo, hi in zip(features, left.tolist(), right.tolist()):
        if ft.kind is FeatureKind.CUSP:
            checks = [(lo, ft.t), (hi, math.pi + ft.t)]
        elif ft.kind is FeatureKind.REMOVABLE_NODE:
            checks = [(lo, ft.axis_arg), (hi, ft.axis_arg)]
        else:  # beta = pi/2 node: the tangent jumps by the exterior angle
            checks = [(wrap_angle(hi - lo), math.pi - ft.interior_angle)]
        for got, want in checks:
            if abs(wrap_angle(got - want)) > CONFIRM_TOL:
                raise FeatureMismatch(ft.kind, ft.t, got, want)


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
    base = _reduce(params)[0]
    if is_half_pi(base.beta):
        raise NonCanonicalBeta("separation angles require beta off pi/2 + l pi")
    n = params.n
    tn = math.tan(math.pi / (2 * n))
    delta = math.atan(2.0 * tn * math.sin(base.beta) / (1.0 - tn * tn))
    if side is SeparationSide.NODE_AFTER_CUSP:
        return math.pi / n + delta
    return math.pi / n - delta


def _check_within_petal(params: RosetteParams, t0: float, t1: float) -> tuple[float, float]:
    """(t0, t1) as floats, after raising unless they are real, finite and within one petal."""
    n = params.n
    t0, t1 = as_number(t0, float, "interval end t0"), as_number(t1, float, "interval end t1")
    if t1 < t0:
        raise IntervalCrossesCusp("need t0 <= t1")
    base, lag, _ = _reduce(params)
    s0, s1 = t0 - lag, t1 - lag  # at the base phase
    petal = TWO_PI / n
    k0 = math.floor((s0 + 1e-12) / petal)
    k1 = math.ceil((s1 - 1e-12) / petal) - 1
    if k1 > k0:
        raise IntervalCrossesCusp(
            f"[{t0}, {t1}] crosses a cusp parameter ({lag} + a multiple of 2pi/{n})"
        )
    if is_half_pi(base.beta) and s1 - k0 * petal > math.pi / n + 1e-12:
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
    diffs = (diffs + math.pi) % TWO_PI - math.pi
    # reported as a magnitude, consistent with the analytic formula
    return float(abs(np.sum(diffs)))


def halfspeed_points(params: RosetteParams, ts) -> np.ndarray:
    """The continuous half-speed reparametrization of the boundary for beta = pi/2 + l pi.

    At beta = pi/2, on [(2k-2)pi/n, 2k pi/n) the curve equals a((k-1)pi/n + t/2): it
    traverses each active half-interval at half speed and skips the constancy arcs,
    visiting the node exactly at t = 2k pi/n.  At l != 0 it is that curve of pi/2
    carried by the half-turn law.  Any other beta raises WrongBeta, a non-finite t DomainError.
    """
    if half_pi_shift(params.beta) is None:
        raise WrongBeta("half-speed reparametrization requires beta = pi/2 + l pi")
    base, lag, turn = _reduce(params)
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
    in exact mirror pairs s, 1 - s (``_mirror_pairs``)."""
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


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(keys, inverse) with keys[inverse] == x bit for bit, one key per distinct bit
    pattern (so -0.0 and 0.0 stay apart), without np.unique."""
    bits = x.view(np.int64)
    order = np.argsort(bits, kind="stable")
    first = np.ones(x.size, dtype=bool)
    first[1:] = bits[order[1:]] != bits[order[:-1]]
    inverse = np.empty(x.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return x[order[first]], inverse


def interval_points(params: RosetteParams, offsets, js=slice(None)) -> np.ndarray:
    """Rows a(j pi/n), a((j + s) pi/n) at the offsets s, for the basic intervals j in ``js``
    (a slice or index array into 0..2n-1), a(j pi/n) being ``feature_values``' exact value.

    h and g are evaluated once, at z = e^{i s pi/n}, and carried onto every
    interval by the summand rotation laws h(w_j z) = w_j h(z) and
    g(w_j z) = (-1)^j conj(w_j) g(z), w_j = e^{ij pi/n}:

        a((j + s) pi/n) = w_j (e^{i beta/2} h(z) + (-1)^j e^{-i beta/2} conj(g(z))).

    An offset s in (1/2, 1] is carried from u = 1 - s, exact there, by the reflection law:
    e^{i s pi/n} = w_1 conj(e^{i u pi/n}), and the real coefficients give

        h(w_1 conj(z)) = w_1 conj(h(z)),    g(w_1 conj(z)) = -conj(w_1) conj(g(z)).

    So the series runs once per distinct min(s, 1 - s) (any other s is evaluated as it is),
    and an offset builder that emits exact pairs s, 1 - s (``_mirror_pairs``) pays one
    series point per pair.  A value depends on its own offset alone: column k + 1 equals
    the one-offset call's column 1 at offsets[k], and each row the full array's row j, bit
    for bit.  The image polylines take their feature values from here alone.
    """
    n = params.n
    s = np.ravel(np.asarray(offsets, dtype=float))
    upper = (s > 0.5) & (s <= 1.0)
    keys, inverse = _distinct(np.where(upper, 1.0 - s, s))
    hz, gz = (part[inverse] for part in parts_many(params, np.exp(1j * (keys * (math.pi / n)))))
    w1 = cmath.exp(1j * math.pi / n)
    hz[upper] = np.multiply(w1, np.conj(hz[upper]))
    gz[upper] = np.multiply(-w1.conjugate(), np.conj(gz[upper]))
    j = np.arange(2 * n)[js]
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
    n, offsets = params.n, interval_offsets(512)
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
    require_integer(per_interval, 1, "per_interval")
    offsets = interval_offsets(per_interval)
    if half_pi_shift(params.beta) is None:
        base, lag, turn = params, 0.0, 1.0
    else:
        base, lag, turn = _reduce(params)
        offsets = _mirror_pairs(offsets / 2)
    poly = interval_points(base, offsets, js=_feature_js(base)).ravel()
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
    base, _, turn = _reduce(params)
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
    unwrapped around the one at the first offset and Richardson-extrapolated
    to d -> 0 for an O(d) error model; the offsets must form a geometric
    sequence.  One call of ``curve_fn`` covers every parameter and both sides: it gets
    the t0 + s d raveled in the order (t0, s, d).
    """
    t0 = np.asarray(ts, dtype=float)
    d = np.asarray(offsets, dtype=float)
    side = np.array([-1.0, 1.0])[:, None]
    vals = _curve_values(curve_fn, (t0[:, None, None] + side * d).ravel())
    locs = as_array(locations, complex, "locations")[:, None, None]
    raw = np.angle(side * (vals.reshape(t0.size, 2, d.size) - locs))
    est = raw[..., :1] + (raw - raw[..., :1] + math.pi) % TWO_PI - math.pi
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

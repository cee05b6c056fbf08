"""The rosette harmonic mappings and their constituent parts.

A rosette map of order n >= 3 and phase beta is the harmonic function

    f(z) = e^{i beta/2} h(z) + e^{-i beta/2} conj(g(z)),        |z| <= 1,

whose analytic and co-analytic parts

    h(z) = z * F_a(z^{2n}),    g(z) = z^{n-1}/(n-1) * F_c(z^{2n})

carry the hypergeometric factors of ``series`` (kinds ANALYTIC and
COANALYTIC).  Their derivatives have the closed forms

    h'(z) = 1/sqrt(1 - z^{2n}),    g'(z) = z^{n-2}/sqrt(1 - z^{2n})

with the principal square root, so the dilatation g'/h' is exactly z^{n-2}
and the Jacobian |h'|^2 - |g'|^2 simplifies to (1 - |z|^{2(n-2)})/|1 - z^{2n}|.

This module alone forms the phase split e^{+-i beta/2}: ``combine_parts`` (arrays)
and ``f`` (one point, as Python scalars) build f of any phase from its parts.
``parts_many`` gives h and g from one series pass over their shared argument z^{2n},
and ``derivative_parts`` gives h' and g' from one root factor 1/sqrt(1 - z^{2n}).

h and g do not depend on beta, so the phases of a sweep share one (h, g) per order
and point set.  ``parts_many`` keeps them in a memo: an LRU keyed by n and the clipped
points' shape and exact bytes (a hit compares the points themselves, not a digest),
under a budget of 2 MiB, each entry counted as its key's and its two arrays' bytes plus
512 bytes for its Python objects.  A set whose entry would count more than a quarter of
the budget (about 10^4 points) bypasses the memo before any key is built; a call that
raises stores nothing; one lock guards lookup, insert and evict, and the pass itself
runs outside it.  A hit returns copies that the caller owns, logs one DEBUG record (n
and the point count) and makes no series pass.  It is bit for bit what a fresh pass
gives, because a series value depends neither on its batch nor on earlier calls.  Code
that patches the evaluator (``series`` constants, or ``eval_families_many`` as looked
up here) must call ``clear_parts_memo`` first, or it may read values of the unpatched
one.  ``f_many``, ``h_many`` and ``g_many`` take no memo.

Every power of z whose exponent grows with n comes from ``integer_power``: numpy's own
z ** k below k = 100, and above it binary exponentiation, with libm's cpow kept for
the results of modulus above 1/2, next to the singular points.
"""

from __future__ import annotations

import cmath
import logging
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularPoint, as_array, as_number, require_order
from .series import (SeriesKind, SeriesSpec, clip_to_disk, endpoint_values, eval_families_many,
                     eval_series_many)

# Proximity of 1 - z^{2n} to zero below which derivative closed forms are refused.
SINGULAR_TOL = 1e-12

# Slack on |z| <= 1 absorbing rounding of boundary points.
EPS_DOMAIN = 1e-9

# Largest |beta| that RosetteParams and reduce_beta take: reducing a float beta modulo pi loses
# about |beta| * 1e-16 (1e-13 at 1e4, 2e-12 at 1e5), and past |beta| ~ 1e16 it keeps nothing.
BETA_LIMIT = 1e4

_log = logging.getLogger(__name__)

# numpy computes z ** k by binary exponentiation below this exponent and by libm's cpow
# (about 0.25 us a point) from it on.
_BINARY_POWER_LIMIT = 100


@dataclass(frozen=True)
class RosetteParams:
    """Order n >= 3 and phase beta (radians) of one rosette mapping."""

    n: int
    beta: float

    def __post_init__(self):
        require_order(self.n, 3, "rosette order n")
        as_number(self.beta, float, "rosette phase beta")
        reduce_beta(self.beta)  # DomainError past BETA_LIMIT, for every function of params

    def canonical(self) -> tuple["RosetteParams", int]:
        """Equivalent parameters with beta in (-pi/2, pi/2] and the shift count l."""
        beta, shifts = reduce_beta(self.beta)
        return RosetteParams(self.n, beta), shifts

    def _spec(self, kind: SeriesKind) -> SeriesSpec:
        return SeriesSpec(kind, self.n)


def require_params(params) -> RosetteParams:
    """``params`` itself; DomainError unless it is a RosetteParams, whose fields are checked."""
    if not isinstance(params, RosetteParams):
        raise DomainError(f"params must be RosetteParams, got {params!r}")
    return params


@dataclass(frozen=True)
class MapValue:
    """One evaluation of a rosette map, split into its two summands.

    ``h`` is the rotated analytic part e^{i beta/2} h(z); ``gbar`` is the
    rotated, conjugated co-analytic part e^{-i beta/2} conj(g(z)).
    """

    h: complex
    gbar: complex

    @property
    def f(self) -> complex:
        return self.h + self.gbar


def integer_power(z: np.ndarray, k: int) -> np.ndarray:
    """z ** k for a complex array z and an integer k >= 0, the same bit for bit in any batch.

    Below k = 100 this is numpy's z ** k itself, whose scalar-loop binary exponentiation
    no sequence of np.multiply calls reproduces bit for bit.  From k = 100 on, numpy calls
    cpow per point; here binary exponentiation by out-of-place products does the work, to
    within a relative error of about k ulp, and the results of modulus above 1/2 are
    recomputed by cpow (z ** k again).  Near w = 1 cpow holds |w| to about an ulp, which
    the anchored integral and 1/sqrt(1 - w) need; binary exponentiation would amplify
    its O(k ulp) error there.
    """
    if k < _BINARY_POWER_LIMIT:
        return z ** k
    flat = np.ravel(z)
    out, base, rest = None, flat, k
    while True:
        if rest & 1:
            out = base if out is None else np.multiply(out, base)
        rest >>= 1
        if not rest:
            break
        base = np.multiply(base, base)
    far = np.flatnonzero(np.abs(out) > 0.5)  # out never aliases z: k >= 100 takes a product
    out[far] = flat[far] ** k
    return out.reshape(np.shape(z))


def h_many(params: RosetteParams, z) -> np.ndarray:
    """Analytic part h(z) = z * F_a(z^{2n}), vectorized."""
    z = clip_to_disk(as_array(z, complex, "points"), EPS_DOMAIN)[0]
    w = integer_power(z, 2 * require_params(params).n)
    factor = eval_series_many(params._spec(SeriesKind.ANALYTIC), w)
    return z * factor


def g_many(params: RosetteParams, z) -> np.ndarray:
    """Co-analytic part g(z) = z^{n-1}/(n-1) * F_c(z^{2n}), vectorized."""
    z = clip_to_disk(as_array(z, complex, "points"), EPS_DOMAIN)[0]
    w = integer_power(z, 2 * require_params(params).n)
    factor = eval_series_many(params._spec(SeriesKind.COANALYTIC), w)
    return integer_power(z, params.n - 1) / (params.n - 1) * factor


class _PartsMemo:
    """The LRU of ``parts_many`` (module docstring): (n, shape, bytes) -> (h, g, cost)."""

    BUDGET = 2 * 2**20
    ENTRY_OVERHEAD = 512  # the key tuple, the bytes and array headers, the LRU's link

    def __init__(self):
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self.size = 0  # the accounted bytes of the entries

    def key(self, n: int, z: np.ndarray):
        """The key of the set z at order n, and its entry's cost; None past the cap."""
        cost = 3 * z.nbytes + self.ENTRY_OVERHEAD  # the key's bytes, h and g
        if 4 * cost > self.BUDGET:
            return None
        return (n, z.shape, z.tobytes()), cost

    def get(self, key):
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                self._entries.move_to_end(key)
        # the stored arrays are never written, so they are copied outside the lock
        return None if found is None else (found[0].copy(), found[1].copy())

    def put(self, key, cost: int, hz: np.ndarray, gz: np.ndarray) -> None:
        entry = (hz.copy(), gz.copy(), cost)
        with self._lock:
            if key in self._entries:  # another thread stored the same pass
                return
            self._entries[key] = entry
            self.size += cost
            while self.size > self.BUDGET:
                self.size -= self._entries.popitem(last=False)[1][2]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.size = 0


_PARTS_MEMO = _PartsMemo()


def clear_parts_memo() -> None:
    """Empty the memo of ``parts_many``; needed after patching the evaluator (module docstring)."""
    _PARTS_MEMO.clear()


def parts_many(params: RosetteParams, z) -> tuple[np.ndarray, np.ndarray]:
    """h(z) and g(z) from one series pass, each bit for bit as h_many/g_many give it.

    The pair comes from the memo (module docstring) when the same order and points were
    evaluated before; the arrays returned are the caller's either way.
    """
    z = clip_to_disk(as_array(z, complex, "points"), EPS_DOMAIN)[0]
    n = require_params(params).n
    keyed = _PARTS_MEMO.key(n, z)
    if keyed is not None:
        found = _PARTS_MEMO.get(keyed[0])
        if found is not None:
            _log.debug("parts memo n=%d: %d points served without a series pass", n, z.size)
            return found
    w = integer_power(z, 2 * n)
    fa, fc = eval_families_many([params._spec(k) for k in SeriesKind], w)
    hz, gz = z * fa, integer_power(z, n - 1) / (n - 1) * fc
    if keyed is not None:
        _PARTS_MEMO.put(*keyed, hz, gz)
    return hz, gz


def combine_parts(beta: float, hz, gz) -> np.ndarray:
    """e^{i beta/2} h + e^{-i beta/2} conj(g): the map of phase beta from its parts."""
    rot = cmath.exp(0.5j * beta)
    # np.multiply keeps the operand order that ``rot * temporary`` loses on large
    # batches (see series.eval_families_many), so a value does not depend on its batch
    return np.multiply(rot, hz) + np.conj(gz) / rot


def f_many(params: RosetteParams, z) -> np.ndarray:
    """Values f(z) of the rosette map, vectorized."""
    # Not parts_many, for two benchmark pins until ROADMAP item 1: bench/test_bench.py
    # LAYERS requires the maps.h_many and maps.g_many spans on interior-eval, and its
    # test_uninstall_restores_every_binding reads boundary.f_many.  So the two passes
    # remain for interior-eval's library calls and for boundary.boundary_points (render's
    # ray ends, the one CLI caller left); every other caller makes one parts_many pass.
    return combine_parts(require_params(params).beta, h_many(params, z), g_many(params, z))


def f(params: RosetteParams, z: complex) -> MapValue:
    """The rosette map at z, as the pair of its summands, from one series pass.

    At z = 1 the series pass would return the gamma closed forms of ``endpoint_values``,
    so they are taken directly, bit for bit the same: h(1) = F_a(1) and
    g(1) = fl(fl(1/(n-1)) F_c(1)), with imaginary parts +0.
    """
    z = as_number(z, complex, "point")
    rot = cmath.exp(0.5j * require_params(params).beta)
    if z == 1.0:
        ends = endpoint_values(params.n)
        hz = complex(ends.analytic_at_one, 0.0)
        gz = complex(1.0 / (params.n - 1) * ends.coanalytic_at_one, 0.0)
    else:
        hz, gz = (complex(v[0]) for v in parts_many(params, [z]))
    return MapValue(h=rot * hz, gbar=gz.conjugate() / rot)


# --- derivatives -------------------------------------------------------------


def _root_factor(params: RosetteParams, z: np.ndarray) -> np.ndarray:
    """Principal-branch 1/sqrt(1 - z^{2n}) with domain and singularity guards.

    Points within EPS_DOMAIN outside the disk are accepted as they are, not
    projected onto the circle.
    """
    clip_to_disk(z, EPS_DOMAIN)
    rad = 1.0 - integer_power(z, 2 * require_params(params).n)
    if (np.abs(rad) < SINGULAR_TOL).any():
        raise SingularPoint(
            "derivative evaluated within singular_tol of a 2n-th root of unity"
        )
    return 1.0 / np.sqrt(rad)


def dh_many(params: RosetteParams, z) -> np.ndarray:
    return _root_factor(params, as_array(z, complex, "points"))


def derivative_parts(params: RosetteParams, z) -> tuple[np.ndarray, np.ndarray]:
    """h'(z) and g'(z) = z^{n-2} h'(z) from one root factor; dh_many and dg_many are its halves."""
    z = as_array(z, complex, "points")
    dh_z = _root_factor(params, z)
    return dh_z, integer_power(z, params.n - 2) * dh_z


def dg_many(params: RosetteParams, z) -> np.ndarray:
    return derivative_parts(params, z)[1]


def dilatation(params: RosetteParams, z: complex) -> complex:
    """g'/h' computed directly as z^{n-2}; independent of beta, total on the closed disk."""
    z = as_number(z, complex, "point")
    clip_to_disk(np.asarray(z), EPS_DOMAIN)
    return z ** (require_params(params).n - 2)


def jacobian(params: RosetteParams, z: complex) -> float:
    """|h'|^2 - |g'|^2 in the simplified form (1 - |z|^{2(n-2)})/|1 - z^{2n}|."""
    z = as_number(z, complex, "point")
    clip_to_disk(np.asarray(z), EPS_DOMAIN)
    rad = 1.0 - z ** (2 * require_params(params).n)
    if abs(rad) < SINGULAR_TOL:
        raise SingularPoint(
            "jacobian evaluated within singular_tol of a 2n-th root of unity"
        )
    return (1.0 - abs(z) ** (2 * (params.n - 2))) / abs(rad)


def hypocycloid(n: int, z) -> np.ndarray | complex:
    """The n-cusped hypocycloid map z + conj(z)^{n-1}/(n-1) on the closed disk, the rosettes'
    baseline."""
    require_order(n, 3, "hypocycloid order n")
    arr = as_array(z, complex, "points")
    clip_to_disk(arr, EPS_DOMAIN)
    out = arr + np.conj(arr) ** (n - 1) / (n - 1)
    return complex(out) if np.isscalar(z) or arr.shape == () else out


# --- phase algebra -----------------------------------------------------------


def reduce_beta(beta_tilde: float) -> tuple[float, int]:
    """Write beta_tilde = beta + l*pi with beta in the canonical (-pi/2, pi/2].

    The interval is half open at -pi/2: an input of exactly -pi/2 maps to
    (pi/2, -1).  A non-finite or non-real beta_tilde, or one of modulus above
    BETA_LIMIT, raises DomainError.
    """
    beta_tilde = as_number(beta_tilde, float, "phase")
    if abs(beta_tilde) > BETA_LIMIT:
        raise DomainError(f"phase {beta_tilde!r} is outside [-{BETA_LIMIT:g}, {BETA_LIMIT:g}]")
    shifts = math.ceil((beta_tilde - math.pi / 2) / math.pi)
    beta = beta_tilde - shifts * math.pi
    if beta <= -math.pi / 2:  # float rounding at the open endpoint
        beta += math.pi
        shifts -= 1
    elif beta > math.pi / 2:
        beta -= math.pi
        shifts += 1
    return beta, shifts


def canonical_rotation(theta: float, theta_tilde: float) -> tuple[float, float]:
    """Reduce e^{i theta} h + conj(e^{i theta_tilde} g) to a rotation of a rosette map.

    Returns (gamma, beta) with the combination equal to e^{i gamma} f_beta
    pointwise.  Since f_beta splits the relative phase as e^{+-i beta/2},
    matching coefficients forces gamma = (theta - theta_tilde)/2 and
    beta = theta + theta_tilde (the full relative phase of the two parts).
    """
    theta = as_number(theta, float, "theta")
    theta_tilde = as_number(theta_tilde, float, "theta_tilde")
    # halves first, so that gamma stays finite; a beta that overflows is refused
    return 0.5 * theta - 0.5 * theta_tilde, as_number(theta + theta_tilde, float, "beta")


def half_turn_rotation(n: int, shifts: int) -> complex:
    """Image rotation e^{i l (pi/2 + pi/n)} of the half-turn law for l = ``shifts``.

    f_{beta + l pi}(z) = e^{i l (pi/2 + pi/n)} f_beta(e^{-i l pi/n} z): moving the
    phase by l half turns rotates the image and shifts the parameter by l pi/n.
    """
    return cmath.exp(1j * shifts * (math.pi / 2 + math.pi / n))

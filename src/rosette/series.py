"""The two specialized Gauss hypergeometric series underlying the rosette maps.

For an integer order n >= 2 the package needs the hypergeometric functions

    2F1(1/2, 1/(2n);     1 + 1/(2n);     w)   -- ``SeriesKind.ANALYTIC``
    2F1(1/2, 1/2-1/(2n); 3/2 - 1/(2n);   w)   -- ``SeriesKind.COANALYTIC``

on the closed unit disk.  Their Taylor coefficients are

    analytic:    A_m / (2mn + 1)
    coanalytic:  A_m (n-1) / (n(2m+1) - 1)

where A_0 = 1 and A_m = A_{m-1}(2m-1)/(2m) is the normalized central
binomial coefficient binom(2m, m)/4^m.  Both series have positive,
decreasing coefficients of size O(m^{-3/2}), so they converge absolutely on
|w| <= 1 but only at rate O(M^{-1/2}) on the circle itself.  The evaluator
therefore works in two regimes:

* a direct sum of the first M = 64 terms by Horner's rule,
  wherever the geometric tail bound certifies the tolerance: the coefficients
  are at most 1 and decrease, so the tail after M terms is at most
  coeff(M) |w|^M / (1 - |w|) <= |w|^M / (1 - |w|), and the latter is at most
  the tolerance ABS_TOL = 1e-12 for |w| up to the direct radius, the largest
  double that passes |w|^M <= ABS_TOL (1 - |w|) (0.6391219844991737 at M = 64).
  Both sides of that test are monotone in |w|, so the radius is found once, by
  bisection over the doubles, and each point only compares |w| with it;
* everywhere else, the circle and w = 1 included, an integral anchored at
  w = 1.  With z = w^{1/(2n)} (principal root) the families are h(z)/z and
  (n-1) z^{1-n} g(z) for the incomplete-beta integrals (DLMF 8.17)

      h(z) = int_0^z (1 - s^{2n})^{-1/2} ds,   g(z) = int_0^z s^{n-2} (1 - s^{2n})^{-1/2} ds,

  whose values at z = 1 are the gamma closed forms of ``endpoint_values``.
  Integrating from 1 along s = 1 + u^2 (z - 1), u in [0, 1], removes the
  inverse square root at s = 1; a 15/31-point Gauss-Kronrod pair does the
  rest, and the difference of its two rules is the error estimate.  On the
  circle the integrand's nearest singularity in u stays at |u| >= ~sqrt(2)
  (reached at w = -1, for every n), where the 15-point rule is still within ~4e-16.

One core, ``eval_families_many``, evaluates several families of one order
in one pass: they share the domain check, the split at the direct radius, and
the anchored nodes, log z, z - 1, log zeta and root 2u/sqrt(1 - zeta^{2n}), on
which the co-analytic family multiplies in zeta^{n-2}.  The direct sum's
coefficient tables are cached per (family, n, M).  ``eval_series_many`` is its
one-family case.

The achieved absolute accuracy is a few 1e-15 everywhere on the closed disk
(against mpmath's hyp2f1 for n = 3..1000, down to |1 - w| = 1e-16); the
evaluator raises ``NoConvergence`` whenever its own error estimate exceeds
ABS_TOL instead of returning a silently degraded value.  The
value at a point is the same bit for bit whatever batch it is evaluated in.  Each
call logs one DEBUG record on the package logger: the families evaluated, the
points in each regime, the direct-sum terms and quadrature nodes used, and the
largest error estimate.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (DomainError, NoConvergence, as_array, as_number, require_integer,
                     require_order)

_log = logging.getLogger(__name__)

# Slack on |w| <= 1 absorbing rounding of boundary points exp(i t).
DOMAIN_SLACK = 1e-7

# Absolute error every value is certified to; NoConvergence where it cannot be.
ABS_TOL = 1e-12

# Terms of the direct sum.  It takes the points with |w|^64 / (1 - |w|) <= ABS_TOL
# (|w| up to _direct_radius), so the tail it drops, at most coeff(64) < 6e-4 times
# that, stays at the rounding level of the anchored integral, which takes the others.
_DIRECT_TERMS = 64

# Gauss-Kronrod pair on [-1, 1] (Kronrod 1965; the 31-point table of QUADPACK's
# qk31): the 16 non-negative Kronrod abscissae, descending, with the 15-point
# Gauss abscissae at the odd positions, and the weights of both rules.
_XGK = (
    0.99800229869339706029, 0.98799251802048542849, 0.96773907567913913426,
    0.93727339240070590431, 0.89726453234408190088, 0.84820658341042721620,
    0.79041850144246593297, 0.72441773136017004742, 0.65099674129741697053,
    0.57097217260853884754, 0.48508186364023968069, 0.39415134707756336990,
    0.29918000715316881217, 0.20119409399743452230, 0.10114206691871749903,
    0.0,
)
_WGK = (
    0.0053774798729233489878, 0.015007947329316122538, 0.025460847326715320187,
    0.035346360791375846222, 0.044589751324764876608, 0.053481524690928087265,
    0.062009567800670640285, 0.069854121318728258710, 0.076849680757720378894,
    0.083080502823133021038, 0.088564443056211770647, 0.093126598170825321225,
    0.096642726983623678505, 0.099173598721791959332, 0.10076984552387559504,
    0.10133000701479154902,
)
_WG = (
    0.030753241996117268355, 0.070366047488108124709, 0.10715922046717193501,
    0.13957067792615431445, 0.16626920581699393355, 0.18616100001556221103,
    0.19843148532711157646, 0.20257824192556127288,
)


def _rule_on_unit_interval() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes u in (0, 1) and the Kronrod and Gauss weights there."""
    x = np.array(_XGK)
    x = np.concatenate([-x, x[-2::-1]])
    wk = np.array(_WGK)
    wg = np.zeros(16)
    wg[1::2] = _WG
    kronrod, gauss = (0.5 * np.concatenate([v, v[-2::-1]]) for v in (wk, wg))
    return 0.5 * (1.0 + x), kronrod, gauss


_U, _KRONROD, _GAUSS = _rule_on_unit_interval()
_NODES = _U.size
_U2, _TWO_U = _U * _U, 2.0 * _U

# Points per block of the anchored integral, so that its (points, nodes) arrays stay small.
_ANCHOR_BLOCK = 4096

# Points this close to w = 1 take the value at 1: the integral from 1, at most
# 2 sqrt(|w - 1|) in size, is added to their error estimate instead of computed
# (its nodes would underflow to zeta = 1).
_AT_ONE_RADIUS = 1e-200

# Relative error allowed for the gamma closed forms of endpoint_values: each endpoint
# value is a ratio of two math.gamma values (1.0e-15 measured against 40-digit mpmath
# for n = 2..400 and 10^3..10^8).
_ENDPOINT_REL_ERR = 5e-15


class SeriesKind(Enum):
    """Which of the two hypergeometric families to evaluate."""

    ANALYTIC = "analytic"      # factor multiplying z in the analytic part
    COANALYTIC = "coanalytic"  # factor multiplying z^(n-1)/(n-1) in the co-analytic part


@dataclass(frozen=True)
class SeriesSpec:
    """One hypergeometric family: kind and order n."""

    kind: SeriesKind
    n: int

    def __post_init__(self):
        require_order(self.n, 2, "series order n")
        if not isinstance(self.kind, SeriesKind):
            raise DomainError(f"kind must be a SeriesKind, got {self.kind!r}")


class EndpointValues(NamedTuple):
    """Values of the two families at argument 1, from the gamma closed forms."""

    analytic_at_one: float    # the scale constant of the order-n rosette
    coanalytic_at_one: float


# --- coefficients -------------------------------------------------------------


def central_binomials(count: int) -> np.ndarray:
    """A_0 .. A_{count-1} by the stable multiplicative recurrence.

    The cumprod multiplies in sequence, so a prefix does not depend on the count.
    """
    require_integer(count, 0, "count")
    m = np.arange(1, count, dtype=float)
    return np.concatenate([[1.0], np.cumprod((2.0 * m - 1.0) / (2.0 * m))])[:count]


def _require_spec(spec) -> SeriesSpec:
    """``spec`` itself; DomainError unless it is a SeriesSpec, whose fields are checked."""
    if not isinstance(spec, SeriesSpec):
        raise DomainError(f"spec must be a SeriesSpec, got {spec!r}")
    return spec


def coeff_values(spec: SeriesSpec, count: int) -> np.ndarray:
    """The first ``count`` Taylor coefficients of the family."""
    spec = _require_spec(spec)
    a = central_binomials(count)
    m = np.arange(count, dtype=float)
    if spec.kind is SeriesKind.ANALYTIC:
        return a / (2.0 * m * spec.n + 1.0)
    return a * (spec.n - 1.0) / (spec.n * (2.0 * m + 1.0) - 1.0)


@functools.lru_cache(maxsize=256)
def _direct_table(kind: SeriesKind, n: int, terms: int) -> tuple[tuple[float, ...], float]:
    """The direct sum's Horner table, coefficients terms-1 down to 0 as Python floats,
    and coefficient ``terms``, which scales its tail bound."""
    cofs = coeff_values(SeriesSpec(kind, n), terms + 1)
    return tuple(cofs[terms - 1 :: -1].tolist()), float(cofs[terms])


@functools.cache
def _direct_radius(terms: int, tol: float) -> float:
    """The largest double a in [0, 1) with a**terms <= tol * (1 - a), for terms >= 1.

    The direct sum takes exactly the points with |w| <= this radius (0.6391219844991737
    for 64 terms and tol 1e-12).  Both sides of the predicate are monotone in a, so a
    bisection over the doubles of [0, 1], ordered as their bit patterns, finds the last
    one that passes; each probe is the same numpy expression as a per-point test.
    """

    def passes(bits: int) -> bool:
        a = np.array([bits], dtype=np.int64).view(float)
        return bool((a**terms <= tol * (1.0 - a))[0])

    lo, hi = 0, int(np.array(1.0).view(np.int64))  # 0.0 passes, 1.0 fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return float(np.array(lo, dtype=np.int64).view(float))


def coeff(spec: SeriesSpec, m: int) -> float:
    """Taylor coefficient of index m (m >= 0)."""
    require_integer(m, 0, "coefficient index m")
    return coeff_values(spec, m + 1)[m]


def tail_bound(spec: SeriesSpec, m: int, abs_z: float) -> float:
    """Rigorous bound on |sum_{k>m} coeff(k) z^k| for |z| = abs_z < 1.

    Valid because the coefficients are positive and decreasing.  Returns
    inf for abs_z >= 1 where no geometric bound exists.
    """
    require_integer(m, 0, "tail index m")
    abs_z = as_number(abs_z, float, "tail_bound abs_z")
    if abs_z < 0.0:
        raise DomainError(f"tail_bound needs abs_z >= 0, got {abs_z!r}")
    if abs_z >= 1.0:
        return math.inf
    return coeff(spec, m + 1) * abs_z ** (m + 1) / (1.0 - abs_z)


# --- evaluation --------------------------------------------------------------


def _log1p(x: np.ndarray) -> np.ndarray:
    """Complex log(1 + x), accurate in both parts when x is tiny.

    numpy's complex log1p drops the real part of tiny arguments
    (np.log1p(1e-20+1e-20j) is 1e-20j), which costs accuracy next to w = 1.
    """
    a, b = x.real, x.imag
    return 0.5 * np.log1p(a * (2.0 + a) + b * b) + 1j * np.arctan2(b, 1.0 + a)


def _expm1(y: np.ndarray) -> np.ndarray:
    """Complex exp(y) - 1, accurate in both parts when y is tiny (unlike numpy's)."""
    a, b = y.real, y.imag
    s = np.sin(0.5 * b)
    return (np.expm1(a) * np.cos(b) - 2.0 * s * s) + 1j * (np.exp(a) * np.sin(b))


def clip_to_disk(z: np.ndarray, slack: float) -> tuple[np.ndarray, np.ndarray]:
    """z and |z| with the points up to ``slack`` outside the closed unit disk projected onto
    the circle (in a copy); DomainError for a point farther out or NaN."""
    az = np.abs(z)
    if not (az <= 1.0 + slack).all():  # also true for a NaN
        worst = z.ravel()[int(np.argmax(az))]  # np.argmax picks a NaN first
        raise DomainError(f"point {worst} is not in the closed unit disk")
    over = az > 1.0
    if over.any():
        z = np.array(z, copy=True)
        z[over] /= az[over]
        az = np.where(over, 1.0, az)
    return z, az


def eval_families_many(specs: Sequence[SeriesSpec], z) -> list[np.ndarray]:
    """Evaluate families of one order at every point of ``z`` (any array-like).

    Returns one array per spec, each the same bit for bit as in a call of its own.
    Result error is at most ABS_TOL in absolute value everywhere on the closed unit
    disk; NoConvergence is raised, for the first family that misses it, if that
    cannot be certified.  A point off the disk, NaN included, raises DomainError.
    """
    specs = [_require_spec(s) for s in specs]
    require_integer(len(specs), 1, "number of series families")
    n = specs[0].n
    if any(s.n != n for s in specs):
        raise DomainError("families evaluated together must share n")
    w = as_array(z, complex, "series arguments")
    shape = w.shape
    w, aw = clip_to_disk(w.ravel(), DOMAIN_SLACK)

    terms = _DIRECT_TERMS
    certified = aw <= _direct_radius(terms, ABS_TOL)
    direct, rest = np.flatnonzero(certified), np.flatnonzero(~certified)

    out = np.empty((len(specs), w.size), dtype=complex)
    err = np.zeros((len(specs), w.size))
    direct_err = [0.0] * len(specs)
    if direct.size:
        wd = w[direct]
        # the tail bound grows with |w|, so the largest direct |w| has the largest estimate
        top = float(aw[direct].max())
        acc, tmp = np.empty(direct.size, dtype=complex), np.empty(direct.size, dtype=complex)
        for k, spec in enumerate(specs):
            table, next_coeff = _direct_table(spec.kind, n, terms)
            acc.fill(0.0)
            for c in table:
                # acc = acc * wd + c, out of place: numpy's in-place complex product
                # (acc *= wd) rounds a one-point array differently from a long one
                np.multiply(acc, wd, out=tmp)
                np.add(tmp, c, out=acc)
            out[k, direct] = acc
            direct_err[k] = next_coeff * top**terms / (1.0 - top)

    dist_one = np.abs(w[rest] - 1.0)
    near = dist_one <= _AT_ONE_RADIUS
    at_one, anchored = rest[near], rest[~near]
    if rest.size:
        ends = endpoint_values(n)
        anchors = np.array([getattr(ends, f"{s.kind.value}_at_one") for s in specs])
        out[:, at_one] = anchors[:, None]
        err[:, at_one] = anchors[:, None] * _ENDPOINT_REL_ERR + 2.0 * np.sqrt(dist_one[near])
    # The integral anchored at w = 1 (module docstring).  z - 1 and 1 - zeta^{2n} come from
    # log1p/expm1 so that they keep their relative accuracy however close w is to 1.
    for i in range(0, anchored.size, _ANCHOR_BLOCK):
        part = anchored[i : i + _ANCHOR_BLOCK]
        log_z = _log1p(w[part] - 1.0) / (2 * n)  # z = w^{1/(2n)}
        z_minus_1 = _expm1(log_z)
        log_zeta = _log1p(z_minus_1[:, None] * _U2)  # zeta = 1 + u^2 (z - 1) at each node
        root = _TWO_U / np.sqrt(-_expm1(2 * n * log_zeta))
        for k, (spec, anchor) in enumerate(zip(specs, anchors)):
            # No value may depend on the batch it sits in.  So np.multiply, not ``*``:
            # numpy evaluates ``x * temporary`` as ``temporary * x`` in place once the
            # temporary exceeds 256 KiB, and a complex product rounds differently with
            # its operands swapped.  And row sums, not a BLAS product, whose order of
            # addition depends on the batch shape.
            if spec.kind is SeriesKind.ANALYTIC:
                integrand, pre, start = root, np.exp(-log_z), anchor
            else:
                integrand = np.multiply(root, np.exp((n - 2) * log_zeta))
                pre, start = (n - 1) * np.exp((1 - n) * log_z), anchor / (n - 1)
            kronrod = (integrand * _KRONROD).sum(axis=1) * z_minus_1
            gauss = (integrand * _GAUSS).sum(axis=1) * z_minus_1
            out[k, part] = np.multiply(pre, start + kronrod)
            err[k, part] = np.abs(pre) * (start * _ENDPOINT_REL_ERR + np.abs(kronrod - gauss))

    worsts = np.maximum(err.max(axis=1, initial=0.0), direct_err).tolist()  # keeps a NaN
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "series %s n=%d: %d direct (<= %d terms), %d anchored (%d nodes each), "
            "%d at w = 1, max error estimate %.3e",
            "+".join(s.kind.value for s in specs), n, direct.size, terms,
            anchored.size, _NODES, at_one.size, max(worsts),
        )
    for worst in worsts:
        if not worst <= ABS_TOL:  # also true for a NaN estimate
            raise NoConvergence(f"series error estimate {worst:.3e} exceeds ABS_TOL {ABS_TOL:.3e}")
    return [row.reshape(shape) for row in out]


def eval_series_many(spec: SeriesSpec, z) -> np.ndarray:
    """The series at every point of ``z``: the one-family case of ``eval_families_many``."""
    return eval_families_many((spec,), z)[0]


def gamma_real(x: float) -> float:
    """Gamma(x) by math.gamma; DomainError unless x > 0 and Gamma(x) is a finite double."""
    x = as_number(x, float, "gamma_real x")
    try:
        if x > 0.0:
            return math.gamma(x)
    except OverflowError:
        pass
    raise DomainError(f"gamma_real takes x from about 5.6e-309 to 171.62, got {x!r}")


def endpoint_values(n: int) -> EndpointValues:
    """Values of both families at argument 1 via the gamma closed forms.

    analytic_at_one   = sqrt(pi) Gamma(1 + 1/(2n)) / Gamma(1/2 + 1/(2n))
    coanalytic_at_one = sqrt(pi) Gamma(3/2 - 1/(2n)) / Gamma(1 - 1/(2n))

    and the pair satisfies coanalytic/analytic = (n-1) tan(pi/(2n)), cached per valid order.
    """
    require_order(n, 2, "series order n")
    return _endpoint_values(int(n))


@functools.lru_cache(maxsize=256)
def _endpoint_values(n: int) -> EndpointValues:
    x = 1.0 / (2.0 * n)
    root_pi = math.sqrt(math.pi)
    analytic = root_pi * gamma_real(1.0 + x) / gamma_real(0.5 + x)
    coanalytic = root_pi * gamma_real(1.5 - x) / gamma_real(1.0 - x)
    return EndpointValues(analytic, coanalytic)


def scale_constant(n: int) -> float:
    """The analytic family's value at 1; sets the overall size of the rosette."""
    return endpoint_values(n).analytic_at_one

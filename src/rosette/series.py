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
  Integrating from 1 along s = zeta = 1 + u^2 (z - 1), u in [0, 1], removes the
  inverse square root at s = 1: h(z) = h(1) + (z - 1) int_0^1 phi(u) du with
  phi(u) = 2u / sqrt(1 - zeta^{2n}), and g the same with zeta^{n-2} phi(u).
  The 15-point Gauss-Legendre rule takes the integral, and the bound below, proven
  for it, is the error reported.

The bound.  Gauss-Legendre with m = 15 nodes on [0, 1] integrates polynomials of
degree 2m - 1 exactly, is symmetric and has positive weights summing to 1.  If f is
analytic inside the Bernstein ellipse E_rho of [0, 1] (foci 0 and 1, semi-axes sum
rho/2) with |f| <= M there, the Chebyshev coefficients of f obey |a_k| <= 2M rho^-k,
only the even k >= 2m are integrated wrongly, each by at most 2/(k^2 - 1) + 2 <= 32/15
times the interval's length 1/2, and so (Trefethen, "Is Gauss quadrature better than
Clenshaw-Curtis?", SIAM Review 50 (2008), Thm 4.5)

    |int_0^1 f - G_15(f)| <= Q(rho) M,   Q(rho) = (32/15) rho^-30 / (1 - rho^-2).

Lemma.  Let |z - 1| = d <= D and u in E_rho, so |u| <= U = (1 + (rho + 1/rho)/2)/2
and delta = zeta - 1 = u^2 (z - 1) has |delta| <= r = U^2 D.  Write
L = 2n log zeta = a + ib, so that zeta^{2n} = e^L.  Let the band be |a| <= alpha and
Phi the largest |arg zeta| on the band: asin(r) if r^2 <= 1 - e^{-alpha/n}, where the
disk |delta| <= r touches the ray of largest argument inside the band, and otherwise
2 asin(sqrt((r^2 - e^2) / (4 (1 - e)))), e = 1 - e^{-alpha/(2n)}, on the band's inner
circle.  If n Phi < pi, then both integrands obey

    d |phi|^2 <= S^2 = max(2 e^{alpha/2} / (n sigma), 4 r / (1 - e^{-alpha})),
    sigma = sin(n Phi) / (n Phi).

Proof.  |phi|^2 = 4 |u|^2 / |e^L - 1|, and the co-analytic integrand has the further
factor |zeta|^{2n-4} = e^{a (1 - 2/n)}.
(i) Since delta = e^{L/(2n)} - 1, |u|^2 d = |delta| <= e^{max(a, 0)/(2n)} |L| / (2n).
(ii) e^L - 1 = e^{L/2} L prod_k (1 + (L / (2 pi k))^2), and each factor's real part is
at least 1 - (b / (2 pi k))^2.  On the band |b| <= 2n Phi < 2 pi, so by Euler's
product for the sine |e^L - 1| >= e^{a/2} |L| sigma.  With (i), on the band d |phi|^2
is at most 2 e^{max(a, 0)/(2n) - a/2 + c a} / (n sigma), c = 0 (analytic) or 1 - 2/n
(co-analytic), which is at most 2 e^{alpha/2} / (n sigma) for |a| <= alpha, n >= 2.
(iii) Off the band (a = -inf at zeta = 0), |e^L - 1| >= |e^a - 1| >= 1 - e^{-alpha};
for a > alpha the co-analytic factor e^{a (1 - 2/n)} / (e^a - 1) is at most
1 / (1 - e^{-alpha}) too, and |u|^2 d <= U^2 D = r.
The integrand has no zero of 1 - zeta^{2n} in the ellipse but the removable one at
u = 0, so it is analytic there; and on [0, 1] the square root taken is that branch,
for zeta stays in the closed unit disk, where Re(1 - zeta^{2n}) >= 0.

So the 15-node error in h(z) - h(1), or in g(z) - g(1), is at most
Q(rho) d sup|phi| <= Q(rho) S sqrt(d): per point a constant times sqrt|z - 1|, and
|pre| times that in the family's value, pre = 1/z or (n - 1) z^{1-n}.
``_anchored_bound`` takes D as the largest |z - 1| with |w| in [split, 1], split being
the live direct radius, and |arg z| <= pi/(2n): every anchored point.  It takes rho and
alpha from a small menu, whichever gives the smallest S Q(rho); that is O(1) per order
and split and valid up to ORDER_LIMIT.  S and the bound are inf where n Phi >= pi for
every choice: only for a split moved below |w| = 0.018 (n = 2), 0.10 (n = 5) or 0.198
(n >= 500), whose disk holds roots of zeta^{2n} = 1.  The reported error adds the
endpoint values' relative error and a rounding allowance relative to |pre|
(h(1) + S_1 sqrt(d)), S_1 being the lemma's S for rho = 1, the segment [0, 1] itself.
The proven part is largest at w = -1: 7.7e-14 at n = 2, 2.0e-14 at n = 3 and about
1.7e-14 from n = 5 to 10^5, against true errors of a few 1e-16; the lemma's S was
checked against the brute-force maximum of d |phi|^2 over the ellipse at n = 2..500,
which it exceeds by a factor 1.6 to 5.

One core, ``eval_families_many``, evaluates several families of one order
in one pass: they share the domain check, the split at the direct radius, and
the anchored nodes, log z, z - 1, log zeta and root 2u/sqrt(1 - zeta^{2n}), on
which the co-analytic family multiplies in zeta^{n-2}; its (points, nodes) arrays
are buffers allocated once per call (``_node_sums``).  The direct sum's coefficient
tables are cached per (family, n, M).  ``eval_series_many`` is its one-family case.

The achieved absolute accuracy is a few 1e-15 everywhere on the closed disk (against
mpmath's hyp2f1 for n = 3..1000, down to |1 - w| = 1e-16, and by
tests/anchored_oracle.py, which also holds every anchored value to its bound).  The
evaluator raises ``NoConvergence`` whenever its error estimate exceeds ABS_TOL instead
of returning a silently degraded value.  With the module's constants that happens
nowhere on the disk: the direct tail bound stays below 1e-12 and the anchored bound
below 1.1e-13 (n = 2, w = -1).  It can happen where a constant is changed: a smaller
ABS_TOL, or a split moved so low that the lemma fails (an infinite bound); and for a
NaN estimate.  The value at a point is the same bit for bit whatever batch it is
evaluated in.  Each call logs one DEBUG record on the package logger: the families
evaluated, the points in each regime, the direct-sum terms and quadrature nodes used,
the largest proven bound and the largest error estimate.
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

# 15-point Gauss-Legendre on [-1, 1] (the Gauss half of QUADPACK's qk31 table): the 8
# non-negative abscissae, descending, and their weights.
_XG = (
    0.98799251802048542849, 0.93727339240070590431, 0.84820658341042721620,
    0.72441773136017004742, 0.57097217260853884754, 0.39415134707756336990,
    0.20119409399743452230, 0.0,
)
_WG = (
    0.030753241996117268355, 0.070366047488108124709, 0.10715922046717193501,
    0.13957067792615431445, 0.16626920581699393355, 0.18616100001556221103,
    0.19843148532711157646, 0.20257824192556127288,
)


class _Rule(NamedTuple):
    """A symmetric rule on [0, 1]: squared and doubled nodes, and weights."""

    u2: np.ndarray
    two_u: np.ndarray
    weights: np.ndarray


def _rule(abscissae, weights) -> _Rule:
    """The rule of the non-negative abscissae on [-1, 1], descending, and their weights."""
    x, v = np.array(abscissae), np.array(weights)
    u = 0.5 * (1.0 + np.concatenate([-x, x[-2::-1]]))
    return _Rule(u * u, 2.0 * u, 0.5 * np.concatenate([v, v[-2::-1]]))


# The anchored integral's rule.
_GAUSS_15 = _rule(_XG, _WG)

# Points per block of the anchored integral, so that its (points, nodes) arrays stay small.
_ANCHOR_BLOCK = 4096

# The anchored integral's error bound (module docstring) takes the Bernstein ellipse and
# band of these menus that give the smallest bound for the order and split.
_ELLIPSES = (3.0, 3.2)
_BANDS = (0.1, 0.2)

# Relative rounding allowed for an anchored value, on the scale |pre| (start + S_1 sqrt|z - 1|)
# of its terms, start = h(1) or g(1): 16 ulp, four times the largest whole error that
# tests/anchored_oracle.py has measured on that scale for the 15-node values (3.8 ulp).
_ROUND_REL_ERR = 2.0**-48

# Points this close to w = 1 take the value at 1: the integral from 1, at most
# 2 sqrt(|w - 1|) in size, is added to their error estimate instead of computed
# (its nodes would underflow to zeta = 1).
_AT_ONE_RADIUS = 1e-200

# Relative error allowed for the gamma closed forms of endpoint_values: each endpoint
# value is a ratio of two math.gamma values (1.0e-15 measured against 40-digit mpmath
# for n = 2..400 and 10^3..10^8).
_ENDPOINT_REL_ERR = 5e-15


def _gauss_factor(rho: float) -> float:
    """Q(rho) of the module docstring: the 15-point rule's error on [0, 1] is at most Q(rho)
    times the largest |f| on the Bernstein ellipse E_rho."""
    return (32.0 / 15.0) * rho**-30 / (1.0 - rho**-2)


def _lemma_scale(n: int, reach: float, rho: float, band: float) -> float:
    """S of the module docstring's lemma for |z - 1| <= reach, or inf where it fails."""
    big_u = (1.0 + (rho + 1.0 / rho) / 2.0) / 2.0
    r = big_u * big_u * reach
    if r * r <= -math.expm1(-band / n):
        phi = math.asin(r)  # the disk's ray of largest argument touches it inside the band
    else:
        e = -math.expm1(-band / (2 * n))  # 1 - the band's inner radius
        q = (r - e) * (r + e) / (4.0 * (1.0 - e))
        phi = 2.0 * math.asin(math.sqrt(q)) if q < 1.0 else math.inf
    if not n * phi < math.pi:
        return math.inf
    sigma = math.sin(n * phi) / (n * phi)
    return math.sqrt(max(2.0 * math.exp(band / 2.0) / (n * sigma),
                         4.0 * r / -math.expm1(-band)))


@functools.lru_cache(maxsize=256)
def _anchored_bound(n: int, split: float) -> tuple[float, float, float]:
    """(D, S_1, S Q(rho)) of the module docstring's lemma for order n and the direct radius
    ``split``: the proof covers |z - 1| <= D, every anchored point, where the 15-node error
    of the anchored integral is at most S Q(rho) sqrt|z - 1| and the integrand on [0, 1]
    (rho = 1) at most S_1 / sqrt|z - 1|; S and S_1 are inf where the lemma fails."""
    s = math.sin(math.pi / (4 * n))
    e = -math.expm1(math.log(split) / (2 * n))  # 1 - |z| at |w| = split
    # the largest |z - 1| over |z| in [1 - e, 1], |arg z| <= pi/(2n); widened by 2^-20
    # so that the rounded |z - 1| of the farthest points, w = -1 and just past -split,
    # stays inside
    reach = math.sqrt(max(e * e + 4.0 * (1.0 - e) * s * s, 4.0 * s * s)) * (1.0 + 2.0**-20)
    quad = min(_lemma_scale(n, reach, rho, band) * _gauss_factor(rho)
               for rho in _ELLIPSES for band in _BANDS)
    return reach, min(_lemma_scale(n, reach, 1.0, band) for band in _BANDS), quad


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
def _direct_table(kind: SeriesKind, n: int,
                  terms: int) -> tuple[tuple[np.complex128, ...], float]:
    """The direct sum's Horner table, coefficients terms-1 down to 0, and coefficient
    ``terms``, which scales its tail bound.  The table holds np.complex128 scalars, so that
    np.add converts no Python float at each term; c + 0j adds +0.0 to the imaginary part,
    as the float c does, so no bit changes."""
    cofs = coeff_values(SeriesSpec(kind, n), terms + 1)
    return tuple(cofs[terms - 1 :: -1].astype(complex)), float(cofs[terms])


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


def _node_sums(n: int, z_minus_1: np.ndarray, kinds, work) -> dict:
    """For each kind, the 15-point rule's weighted sum of the anchored integrand over u in
    (0, 1) at every z - 1 (module docstring): 2u / sqrt(1 - zeta^{2n}), times
    zeta^{n-2} for the co-analytic family, zeta = 1 + u^2 (z - 1).

    ``work`` holds three complex and three real (points, nodes) buffers of at least
    ``z_minus_1.size`` rows, allocated once per call, so that a block allocates none of its
    (points, nodes) arrays.
    No value may depend on the batch it sits in: every complex product keeps the operand
    order of the plain expressions (numpy rounds a complex product differently with its
    operands swapped, or in place), and the sums are row sums, not a BLAS product, whose
    order of addition depends on the batch shape.
    """
    rule = _GAUSS_15
    p = z_minus_1.size
    x, y, root = (buf[:p] for buf in work[0])
    ra, rb, rc = (buf[:p] for buf in work[1])
    # log zeta = log1p(u^2 (z - 1)) into x, both parts accurate when zeta is near 1 (_log1p)
    np.multiply(z_minus_1[:, None], rule.u2, out=x)
    a, b = x.real, x.imag
    np.multiply(a, np.add(a, 2.0, out=ra), out=ra)
    np.add(ra, np.multiply(b, b, out=rb), out=ra)
    np.multiply(0.5, np.log1p(ra, out=ra), out=ra)
    np.arctan2(b, np.add(a, 1.0, out=rb), out=rb)
    a[...], b[...] = ra, rb
    # 1 - zeta^{2n} = -expm1(2n log zeta) into y (_expm1), then root = 2u / sqrt of it
    np.multiply(2 * n, x, out=y)
    a, b = y.real, y.imag
    np.sin(np.multiply(0.5, b, out=rc), out=rc)
    np.multiply(np.expm1(a, out=ra), np.cos(b, out=rb), out=ra)
    np.subtract(ra, np.multiply(np.multiply(2.0, rc, out=rb), rc, out=rb), out=ra)
    np.multiply(np.exp(a, out=rb), np.sin(b, out=rc), out=rb)
    np.negative(ra, out=a)
    np.negative(rb, out=b)
    np.divide(rule.two_u, np.sqrt(y, out=y), out=root)
    integrands = {SeriesKind.ANALYTIC: root}
    if SeriesKind.COANALYTIC in kinds:  # root zeta^{n-2} into x, over log zeta
        integrands[SeriesKind.COANALYTIC] = np.multiply(
            root, np.exp(np.multiply(n - 2, x, out=y), out=y), out=x)
    return {kind: np.multiply(integrands[kind], rule.weights, out=y).sum(axis=1)
            for kind in kinds}


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
    specs, out, err, shape, counts = _evaluate(specs, z)
    worsts = err.max(axis=1, initial=0.0).tolist()  # keeps a NaN
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "series %s n=%d: %d direct (<= %d terms), %d anchored (15 Gauss nodes each), "
            "%d at w = 1, largest proven bound %.3e, max error estimate %.3e",
            "+".join(s.kind.value for s in specs), specs[0].n, *counts, max(worsts),
        )
    for worst in worsts:
        if not worst <= ABS_TOL:  # also true for a NaN estimate
            raise NoConvergence(f"series error estimate {worst:.3e} exceeds ABS_TOL {ABS_TOL:.3e}")
    return [row.reshape(shape) for row in out]


def _evaluate(specs, z) -> tuple[list[SeriesSpec], np.ndarray, np.ndarray, tuple, tuple]:
    """The checked specs, the values (a row per family) and each one's error bound at every
    point of ``z`` raveled, the shape of ``z``, and the regime counts of the log record."""
    try:
        specs = [_require_spec(s) for s in specs]
    except TypeError:  # not iterable
        raise DomainError(f"specs must be a sequence of SeriesSpec, got {specs!r}") from None
    require_integer(len(specs), 1, "number of series families")
    n = specs[0].n
    if any(s.n != n for s in specs):
        raise DomainError("families evaluated together must share n")
    w = as_array(z, complex, "series arguments")
    shape = w.shape
    w, aw = clip_to_disk(w.ravel(), DOMAIN_SLACK)

    terms = _DIRECT_TERMS
    split = _direct_radius(terms, ABS_TOL)
    certified = aw <= split
    direct, rest = np.flatnonzero(certified), np.flatnonzero(~certified)

    out = np.empty((len(specs), w.size), dtype=complex)
    err = np.zeros((len(specs), w.size))
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
            err[k, direct] = next_coeff * top**terms / (1.0 - top)

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
    proven_bound = 0.0
    if anchored.size:
        _, smooth, quad = _anchored_bound(n, split)
        log_z = _log1p(w[anchored] - 1.0) / (2 * n)  # z = w^{1/(2n)}
        z_minus_1 = _expm1(log_z)
        kinds = {s.kind for s in specs}
        sums = {kind: np.empty(anchored.size, dtype=complex) for kind in kinds}
        dims = (min(anchored.size, _ANCHOR_BLOCK), _GAUSS_15.u2.size)
        work = ([np.empty(dims, dtype=complex) for _ in range(3)],
                [np.empty(dims) for _ in range(3)])
        for i in range(0, anchored.size, _ANCHOR_BLOCK):
            block = slice(i, i + _ANCHOR_BLOCK)
            for kind, found in _node_sums(n, z_minus_1[block], kinds, work).items():
                sums[kind][block] = found
        root_dist = np.sqrt(np.abs(z_minus_1))
        for k, (spec, anchor) in enumerate(zip(specs, anchors)):
            if spec.kind is SeriesKind.ANALYTIC:
                pre, start = np.exp(-log_z), anchor
            else:
                pre, start = (n - 1) * np.exp((1 - n) * log_z), anchor / (n - 1)
            out[k, anchored] = np.multiply(pre, start + sums[spec.kind] * z_minus_1)
            size = np.abs(pre)
            truncation = size * root_dist * quad
            bound = truncation + size * _ROUND_REL_ERR * (start + root_dist * smooth)
            proven_bound = max(proven_bound, float(truncation.max()))
            err[k, anchored] = bound + size * start * _ENDPOINT_REL_ERR

    counts = (direct.size, terms, anchored.size, at_one.size, proven_bound)
    return specs, out, err, shape, counts


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

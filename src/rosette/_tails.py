"""Tail sums sum_{m>M} m^(-sigma) w^m for the slowly convergent boundary regime.

Three evaluators cover the closed unit disk:

* ``zeta_tail``   -- w == 1 exactly: Hurwitz-zeta tail by Euler-Maclaurin.
* ``lerch_tail_vec`` -- |1 - w| not too small relative to 1/a: large-order
  expansion of the Lerch sum in negative-order polylogarithms (Eulerian
  polynomials).  Divergent-asymptotic: terms are monitored and summation
  stops at the smallest term.
* ``lerch_tail_mp`` -- arbitrary-precision fallback (mpmath) for the sliver
  where neither of the above applies.

All three take the tail *start index* a = M + 1 and return the full sum over
m = a, a+1, ...
"""

import math

import numpy as np

# Bernoulli numbers B_2, B_4, B_6, B_8 for the Euler-Maclaurin correction.
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0)

# Smallest tail-start index for which the asymptotic evaluators are trusted.
A_MIN = 1000

# Required size of a*|1-w| before the Lerch expansion bottoms out below ~1e-15.
LERCH_THRESHOLD = 25.0

_EULERIAN_MAX = 40


def _eulerian_rows(kmax: int) -> list[np.ndarray]:
    rows = [np.array([1.0])]
    for k in range(1, kmax + 1):
        prev = rows[-1]
        row = np.zeros(k)
        for i in range(k):
            left = prev[i] if i < prev.size else 0.0
            right = prev[i - 1] if i >= 1 else 0.0
            row[i] = (i + 1) * left + (k - i) * right
        rows.append(row)
    return rows


_EULERIAN = _eulerian_rows(_EULERIAN_MAX)


def zeta_tail(sigma: float, a: int) -> float:
    """sum_{m>=a} m^(-sigma) for sigma > 1 and large integer a (>= A_MIN)."""
    af = float(a)
    val = af ** (1.0 - sigma) / (sigma - 1.0) + 0.5 * af ** (-sigma)
    poch = sigma
    apow = af ** (-sigma - 1.0)
    for r, b in enumerate(_BERNOULLI, start=1):
        val += b / math.factorial(2 * r) * poch * apow
        poch *= (sigma + 2 * r - 1.0) * (sigma + 2 * r)
        apow /= af * af
    return val


def _li_neg(k: int, w: np.ndarray) -> np.ndarray:
    """Polylogarithm of negative integer order: sum_{j>=0} j^k w^j, |w| <= 1, w != 1.

    For k >= 1 this is w * A_k(w) / (1-w)^(k+1) with A_k the k-th Eulerian
    polynomial, evaluated by Horner.
    """
    if k == 0:
        return 1.0 / (1.0 - w)
    acc = np.zeros(np.shape(w), dtype=complex)
    for c in _EULERIAN[k][::-1]:
        acc = acc * w + c
    return w * acc / (1.0 - w) ** (k + 1)


def lerch_tail_vec(sigma: float, a: int, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_{m>=a} m^(-sigma) w^m for arrays with |w| <= 1, w != 1.

    Requires a*|1-w| >= LERCH_THRESHOLD for full accuracy.  The expansion in
    1/a is asymptotic: per element, terms are accumulated while they keep
    decreasing and the last accepted magnitude is the error estimate.
    """
    w = np.asarray(w, dtype=complex)
    af = float(a)
    pref = w ** a * af ** (-sigma)
    acc = np.zeros(w.shape, dtype=complex)
    last = np.full(w.shape, np.inf)
    err = np.zeros(w.shape)
    active = np.abs(pref) > 0.0
    binom = 1.0  # C(-sigma, k)
    for k in range(_EULERIAN_MAX):
        if not active.any():
            break
        term = binom * af ** (-float(k)) * _li_neg(k, w)
        mag = np.abs(term)
        diverging = active & (mag > last)
        err[diverging] = last[diverging]
        active &= ~diverging
        acc[active] += term[active]
        last = np.where(active, mag, last)
        settled = active & (mag * np.abs(pref) < 1e-18)
        err[settled] = mag[settled]
        active &= ~settled
        binom *= (-sigma - k) / (k + 1.0)
    err[active] = last[active]
    return pref * acc, np.abs(pref) * err


def lerch_tail_mp(sigma: float, a: int, w: complex) -> complex:
    """Arbitrary-precision tail for the remaining sliver (w very close to 1)."""
    import mpmath as mp

    with mp.workdps(30):
        phi = mp.lerchphi(mp.mpc(w.real, w.imag), sigma, a)
        val = mp.mpc(w.real, w.imag) ** a * phi
        return complex(val)

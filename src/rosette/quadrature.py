"""The integral oracle: a vectorised tanh-sinh rule for the antiderivatives of h' and g'.

    tanh_sinh(n, z, p) = z^{p+1} int_0^1 tau^p (1 - (z tau)^{2n})^{-1/2} dtau,

which is h(z) for p = 0 and g(z) for p = n - 2, integrated along the segment
from 0, where both maps vanish, to z.  The module imports nothing from the
package but its errors, so the check it serves borrows nothing from the series
or the maps it checks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureFailure

# Tanh-sinh rule on [0, 1] (Takahasi & Mori, Publ. RIMS 9, 1974): the nodes
# tau = 1/(1 + e^{-pi sinh t}) with complement c = 1 - tau = 1/(1 + e^{pi sinh t})
# and weight dtau/dt = pi cosh t tau c, summed on the grid t = j h, |t| <= 4.
# At |t| = 4 even the c^{-1/2} end of the integrand at z = 1 adds less than
# 1e-16; a window of 3.2 cut that end short by about 3e-9.
_TS_WINDOW = 4.0
_TS_STEP = 0.5  # step of level 0; every level halves it
_TS_MIN_LEVEL = 3
_TS_MAX_LEVEL = 10
_TS_TOL = 1e-10  # largest accepted level-halving error estimate
# Points per block of the rule: level 4 adds 128 nodes, so each complex
# temporary of a block stays at 512 KiB (see geometry._DISTANCE_BLOCK).
_TS_BLOCK = 256


def _tanh_sinh_nodes(level: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Step, weights and log(tau) of the nodes that ``level`` adds to the levels below it."""
    step = _TS_STEP / 2**level
    half = int(round(_TS_WINDOW / step))
    j = np.arange(-half, half + 1) if level == 0 else np.arange(1 - half, half, 2)
    t = j * step
    s = math.pi * np.sinh(t)
    tau, c = 1.0 / (1.0 + np.exp(-s)), 1.0 / (1.0 + np.exp(s))
    # log(tau) = log1p(-c), taken as -log1p(e^{-s}), which stays finite where c rounds to 1
    return step, math.pi * np.cosh(t) * tau * c, -np.log1p(np.exp(-s))


def tanh_sinh(n: int, z: np.ndarray, power: int) -> np.ndarray:
    """z^{p+1} int_0^1 tau^p (1 - (z tau)^{2n})^{-1/2} dtau, p = ``power``, at every point of ``z``.

    1 - (z tau)^{2n} is formed as (1 - z^{2n}) + z^{2n} (1 - tau^{2n}) with
    1 - tau^{2n} = -expm1(2n log tau), so that the end tau = 1 keeps its relative
    accuracy however close z^{2n} is to 1.  Each point stops at the first
    level >= _TS_MIN_LEVEL whose change from the level below is at most _TS_TOL;
    a point that reaches _TS_MAX_LEVEL without that raises QuadratureFailure.
    Every operation acts on one point's row, so a value does not depend on the
    batch it is computed in.
    """
    if z.size > _TS_BLOCK:
        return np.concatenate([tanh_sinh(n, z[i : i + _TS_BLOCK], power)
                               for i in range(0, z.size, _TS_BLOCK)])
    w = z ** (2 * n)
    lead = z ** (power + 1)
    out = np.empty(z.size, dtype=complex)
    active = np.arange(z.size)
    sums = np.zeros(z.size, dtype=complex)
    previous = np.zeros(z.size, dtype=complex)
    estimate = np.full(z.size, math.inf)
    for level in range(_TS_MAX_LEVEL + 1):
        step, weight, log_tau = _tanh_sinh_nodes(level)
        weight = weight * np.exp(power * log_tau)
        rad = (1.0 - w[active])[:, None] + np.multiply(w[active, None], -np.expm1(2 * n * log_tau))
        sums = sums + (weight / np.sqrt(rad)).sum(axis=1)
        value = np.multiply(lead[active], step * sums)
        if level >= _TS_MIN_LEVEL:
            estimate = np.abs(value - previous)
            done = estimate <= _TS_TOL  # False for a NaN estimate
            out[active[done]] = value[done]
            active, sums, value, estimate = (a[~done] for a in (active, sums, value, estimate))
            if not active.size:
                return out
        previous = value
    raise QuadratureFailure(
        f"tanh-sinh estimate {estimate.max():.3e} above {_TS_TOL:.0e} at level {_TS_MAX_LEVEL} "
        f"for {active.size} point(s), e.g. z = {complex(z[active[0]])}"
    )

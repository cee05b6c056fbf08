"""Exception types shared across the package, and the one rule for numeric arguments: a
number is what numpy reads as bool, int or float, or complex where a complex value goes, and
every real is finite.  ``as_array``, ``as_number`` (exactly one number) and ``require_integer``
(an order or a count; ``require_order`` bounds an order by ORDER_LIMIT) apply it to every
public argument; anything else raises DomainError.
"""

import operator

import numpy as np


class RosetteError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RosetteError, ValueError):
    """Argument outside its domain: no number by this module's rule (text, None, an object,
    ragged nesting, a complex where a real goes, a real that is not finite, a list where one
    number goes), a point off the closed unit disk, an order below its minimum, a polyline
    without 2 finite vertices.

    Also a ValueError, so that ``except ValueError`` callers keep catching bad orders.
    """


class NoConvergence(RosetteError):
    """The series evaluator could not certify the requested absolute tolerance."""


class SingularPoint(RosetteError):
    """Derivative requested too close to a 2n-th root of unity."""


class NonCanonicalBeta(RosetteError):
    """Operation undefined in the class beta = pi/2 + l pi (separation angles: no cusps)."""


class WrongBeta(RosetteError):
    """Operation is only defined in the class beta = pi/2 + l pi."""


class IntervalCrossesCusp(RosetteError):
    """Parameter interval is not contained in a single inter-cusp interval."""


class TooCloseToCurve(RosetteError):
    """Winding-number probe lies within the exclusion radius of the curve."""


class OpenCurve(RosetteError):
    """Winding number requested for a polyline whose endpoints do not coincide."""


class QuadratureFailure(RosetteError):
    """Adaptive quadrature did not reach the requested accuracy."""


class FeatureMismatch(RosetteError):
    """A boundary feature's measured tangent direction disagrees with its closed form.

    Carries the witness: the feature ``kind``, its parameter ``t`` and the
    ``measured`` and ``expected`` directions (for a node, the tangent jump).
    """

    def __init__(self, kind, t: float, measured: float, expected: float):
        super().__init__(kind, t, measured, expected)
        self.kind, self.t, self.measured, self.expected = kind, t, measured, expected

    def __str__(self) -> str:
        return (f"{self.kind.value} at t={self.t}: tangent direction {self.measured} "
                f"does not match expected {self.expected}")


def require_integer(value, minimum: int, what: str) -> None:
    """Raise DomainError unless ``value`` is an integer (for operator.index) >= ``minimum``."""
    try:
        small = operator.index(value) < minimum
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if small:
        raise DomainError(f"{what} must be >= {minimum}, got {value}")


# The largest order: past 2**53 consecutive integers round to one float, so the float
# arithmetic of an order (pi/n, 2n t, ...) could not tell them apart, and far past it 2n and
# the series' 2mn overflow.
ORDER_LIMIT = 2**53


def require_order(n, minimum: int, what: str) -> None:
    """``require_integer`` for an order n, which float arithmetic also meets: DomainError
    past ORDER_LIMIT too."""
    require_integer(n, minimum, what)
    if n > ORDER_LIMIT:
        raise DomainError(f"{what} must be at most 2**53 = {ORDER_LIMIT}")


def as_array(values, dtype: type, what: str) -> np.ndarray:
    """``values`` as a float or complex (``dtype``) array, or DomainError naming ``what``."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in ("biufc" if dtype is complex else "biuf"):
        raise DomainError(f"{what} must be {dtype.__name__} numbers, got {values!r}")
    arr = arr.astype(dtype, copy=False)
    if dtype is float and not np.isfinite(arr).all():
        raise DomainError(f"{what}={arr[~np.isfinite(arr)][0]} is not finite")
    return arr


def as_number(value, dtype: type, what: str) -> float | complex:
    """Exactly one number, as a Python ``dtype`` (float or complex), by the rule of ``as_array``."""
    arr = as_array(value, dtype, what)
    if arr.ndim:
        raise DomainError(f"{what} must be one number, got {value!r}")
    return dtype(arr)

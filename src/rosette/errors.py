"""Exception types shared across the package."""


class RosetteError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RosetteError, ValueError):
    """Argument outside its domain: the closed unit disk, x > 0 for gamma, finite beta and t,
    an integer order of the stated minimum, a closed polyline of 2 or more finite vertices.

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

"""Rosette harmonic mappings of the unit disk.

A library for the family of univalent harmonic maps whose images are
n-fold rotationally symmetric rosettes with n cusps (or, at the extreme
phase, n nodes joined by arcs of constancy): specialized hypergeometric
series evaluation, exact boundary geometry, and numerical verification of
the family's symmetry, univalence and tiling properties.

Each public name is imported from its home module on first use, so
``import rosette`` loads none of the submodules and ``import rosette.maps``
loads only ``errors``, ``series`` and ``maps``.

Diagnostics (for instance the regime counts of every series evaluation) go
to the ``rosette`` logger at DEBUG level; it has a ``NullHandler`` and emits
nothing unless the application configures logging.
"""

import logging
import sys

__version__ = "0.27.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

# The public names, under the module that defines them.
_HOMES = {
    "errors": "DomainError FeatureMismatch IntervalCrossesCusp NoConvergence NonCanonicalBeta"
              " OpenCurve QuadratureFailure RosetteError SingularPoint TooCloseToCurve WrongBeta",
    "series": "EndpointValues SeriesKind SeriesSpec central_binomials coeff endpoint_values"
              " eval_series_many gamma_real scale_constant tail_bound",
    "maps": "MapValue RosetteParams canonical_rotation dilatation f f_many g_many h_many"
            " hypocycloid jacobian reduce_beta",
    "boundary": "BoundaryFeature CurveSample FeatureKind FeatureReport RotatedCopy"
                " SeparationSide boundary_points boundary_polyline bounding_radius"
                " classify_singular_point curve_samples detect_arg_nonmonotonicity"
                " extract_features halfspeed_points rotated_copies separation_angle"
                " total_curvature total_curvature_numeric",
    "geometry": "count_self_intersections",
    "verify": "CheckResult CoverageReport IntegralCheck VerificationReport WindingResult"
              " fundamental_decomposition fundamental_tiling integral_identities"
              " integral_oracle symmetry_suite univalence_scan winding_number winding_numbers",
    "render": "Overlay RenderSpec render_svg",
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names.split()}
_SUBMODULES = {*_HOMES, "cli", "quadrature", "svgout"}

__all__ = sorted(_HOME_OF)


def _submodule(name: str):
    # __import__ is the import statement's own path, which -X importtime reports;
    # importlib.import_module is not
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name in _HOME_OF:
        return getattr(_submodule(_HOME_OF[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

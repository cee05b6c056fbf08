"""Numerical certification: winding numbers, univalence, integral identities,
symmetry identities, and fundamental-set tiling.

Univalence is certified through the argument principle for harmonic
functions: the boundary polyline must be a simple positively oriented closed
curve, every interior image point must be wound exactly once, and every
probe outside the bounding circle exactly zero times.  The fundamental-set
check reconstructs the whole image as n rotated copies of the image of the
sector arg z in [0, 2pi/n) and verifies disjoint interiors plus full
coverage.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .boundary import RotatedCopy, boundary_polyline, bounding_radius, rotated_copies, wrap_angle
from .errors import TooCloseToCurve
from .geometry import (
    count_self_intersections,
    crossing_witness,
    curve_distances,
    ensure_closed,
    min_pairwise_distance,
    windings,
)
from .maps import (
    RosetteParams,
    combine_parts,
    derivative_parts,
    g_many,
    h_many,
    half_turn_rotation,
    integer_power,
    parts_many,
    transit_identity,
)
from .quadrature import tanh_sinh
from .series import SeriesKind, require_integer, scale_constant

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class WindingResult:
    point: complex
    winding: int
    min_distance_to_curve: float


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_residual: float
    samples_used: int
    details: Optional[dict] = None


@dataclass
class VerificationReport:
    params: RosetteParams
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


class IntegralCheck(NamedTuple):
    lhs: complex
    rhs: complex
    residual: float


# --- winding numbers ------------------------------------------------------------


def winding_number(
    curve, w0: complex, exclusion_radius: Optional[float] = None
) -> WindingResult:
    """Integer winding of a closed polyline around w0 (exact crossing-number rule).

    Raises TooCloseToCurve when w0 is within the exclusion radius of a
    segment, and OpenCurve when the polyline is not closed.
    """
    pts = ensure_closed(np.asarray(curve, dtype=complex))
    if exclusion_radius is None:
        exclusion_radius = 1e-9 * float(np.abs(pts - w0).max())
    return winding_numbers(pts, [w0], exclusion_radius)[0]


def winding_numbers(curve, points, exclusion_radius: float) -> list[WindingResult]:
    """Batch winding numbers for many probes against one closed polyline."""
    pts = ensure_closed(np.asarray(curve, dtype=complex))
    probes = np.asarray(points, dtype=complex).ravel()
    dist = curve_distances(pts, probes)
    close = np.flatnonzero(~(dist > exclusion_radius))  # a NaN probe is too close, too
    if close.size:
        k = close[0]
        raise TooCloseToCurve(
            f"probe {probes[k]} at distance {dist[k]:.3e} <= exclusion {exclusion_radius:.3e}"
        )
    wind = windings(pts, probes)
    return [WindingResult(complex(p), int(w), float(d)) for p, w, d in zip(probes, wind, dist)]


def _parts_at(params: RosetteParams, *sets) -> list[tuple[np.ndarray, np.ndarray]]:
    """h and g at each 1-D point set from one series pass; a series value does not depend on
    its batch, so each pair (and f of any phase from it) is what the set alone would give."""
    hz, gz = parts_many(params, np.concatenate(sets))
    cuts = np.cumsum([np.size(s) for s in sets[:-1]])
    return list(zip(np.split(hz, cuts), np.split(gz, cuts)))


# --- univalence ----------------------------------------------------------------


def _interior_grid(resolution: int, r_max: float = 0.95) -> np.ndarray:
    i = (np.arange(resolution) + 0.5) / resolution
    r = r_max * np.sqrt(i)
    th = TWO_PI * (np.arange(resolution) + 0.5) / resolution
    return (r[:, None] * np.exp(1j * th)[None, :]).ravel()


def univalence_scan(
    params: RosetteParams, grid_resolution: int = 24, per_interval: Optional[int] = None
) -> VerificationReport:
    """Certify injectivity numerically for one rosette, at any beta.

    (a) the sampled boundary polyline has no self-intersections; (b) images
    of an interior z-grid have winding number 1 and 64 probes a quarter of the
    scale beyond the bounding circle have winding 0; (c) the grid images are
    pairwise distinct (pigeonhole injectivity), with the minimum separation reported.
    """
    require_integer(grid_resolution, 1, "grid_resolution")
    n = params.n
    if per_interval is None:
        per_interval = max(320, -(-4096 // (2 * n)))
    poly = boundary_polyline(params, per_interval)
    checks: list[CheckResult] = []

    crossings = count_self_intersections(poly)
    simple = {"segments": poly.size - 1}
    if crossings:
        simple["first_crossing"] = crossing_witness(poly)
    checks.append(
        CheckResult("boundary_simple", crossings == 0, float(crossings), poly.size - 1, simple)
    )

    scale = scale_constant(n)
    exclusion = 1e-6 * scale
    probes = combine_parts(params.beta, *_parts_at(params, _interior_grid(grid_resolution))[0])
    res = winding_numbers(poly, probes, exclusion)
    worst, witness = _worst_probe(res, 1)
    details = {"min_curve_distance": min(r.min_distance_to_curve for r in res)}
    if witness:
        details["worst_probe"] = witness
    checks.append(
        CheckResult("interior_winding_one", worst == 0, float(worst), len(res), details)
    )

    radius = bounding_radius(n) + 0.25 * scale
    ring = radius * np.exp(1j * TWO_PI * (np.arange(64) + 0.37) / 64)
    res_out = winding_numbers(poly, ring, exclusion)
    worst_out, witness = _worst_probe(res_out, 0)
    details = {"worst_probe": witness} if witness else None
    checks.append(CheckResult("exterior_winding_zero", worst_out == 0, float(worst_out),
                              len(res_out), details))

    min_sep = min_pairwise_distance(probes)
    checks.append(CheckResult("grid_images_distinct", min_sep > 0.0, 0.0 if min_sep > 0.0 else 1.0,
                              probes.size, {"min_separation": min_sep}))
    return VerificationReport(params=params, checks=checks)


def _worst_probe(res: list[WindingResult], target: int) -> tuple[int, Optional[dict]]:
    """Largest |winding - target| over the probes, and the first probe reaching it if nonzero."""
    errors = [abs(r.winding - target) for r in res]
    k = int(np.argmax(errors))
    p, w = res[k].point, res[k].winding
    return errors[k], {"index": k, "point": [p.real, p.imag], "winding": w} if errors[k] else None


# --- integral identities --------------------------------------------------------


def integral_oracle(
    params: RosetteParams, z: complex, kind: SeriesKind = SeriesKind.ANALYTIC
) -> IntegralCheck:
    """The antiderivative integral and the series closed form at z, and their residual.

    lhs integrates h' = (1 - zeta^{2n})^{-1/2} (analytic) or
    g' = zeta^{n-2}(1 - zeta^{2n})^{-1/2} (co-analytic) along the straight segment
    from 0 to z with the tanh-sinh rule of ``quadrature``, refined by halving its
    step until two levels agree to 1e-10; rhs is h(z) or g(z) from the series.  The
    check is independent of the series it checks: the series integrates from w = 1
    with a 15/31-point Gauss-Kronrod pair and adds the gamma closed forms at 1, while
    the oracle integrates from 0, where both maps vanish, with another rule.  Raises
    DomainError for a point outside the closed disk (before any quadrature) and
    QuadratureFailure if the rule does not converge.
    """
    z = np.array([z], dtype=complex)
    analytic = kind is SeriesKind.ANALYTIC
    rhs = complex((h_many if analytic else g_many)(params, z)[0])
    lhs = complex(tanh_sinh(params.n, z, 0 if analytic else params.n - 2)[0])
    return IntegralCheck(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs))


def integral_identities(params: RosetteParams, count: int, seed: int) -> CheckResult:
    """The identities of integral_oracle for both kinds, at ``count`` seeded points of
    |z| <= 0.95 and at z = 1, both right-hand sides from one series pass.

    Passes when every residual is below 1e-9; the details name the worst point.
    """
    require_integer(count, 0, "count")
    require_integer(seed, 0, "seed")
    z = np.append(_disk_samples(np.random.default_rng(seed), count, 0.95), 1.0)
    kinds = (SeriesKind.ANALYTIC, SeriesKind.COANALYTIC)
    powers = (0, params.n - 2)  # h' and g' = z^(n-2) h'
    sides = [(tanh_sinh(params.n, z, p), rhs) for p, rhs in zip(powers, parts_many(params, z))]
    residual = np.array([np.abs(lhs - rhs) for lhs, rhs in sides])
    i, k = np.unravel_index(np.argmax(residual), residual.shape)  # a NaN wins, and fails
    worst = float(residual[i, k])
    p, lhs, rhs = complex(z[k]), complex(sides[i][0][k]), complex(sides[i][1][k])
    worst_point = {"point": [p.real, p.imag], "kind": kinds[i].value,
                   "lhs": [lhs.real, lhs.imag], "rhs": [rhs.real, rhs.imag]}
    return CheckResult("integral_identities", worst < 1e-9, worst, 2 * z.size,
                       {"worst_point": worst_point})


# --- symmetry and pointwise identities ------------------------------------------


def _disk_samples(rng: np.random.Generator, count: int, r_max: float = 0.97) -> np.ndarray:
    r = r_max * np.sqrt(rng.uniform(0.0, 1.0, count))
    th = rng.uniform(0.0, TWO_PI, count)
    return r * np.exp(1j * th)


def symmetry_suite(
    params: RosetteParams, sample_count: int = 1000, seed: int = 42
) -> VerificationReport:
    """Evaluate every pointwise identity of the mapping layer at seeded samples."""
    require_integer(sample_count, 1, "sample_count")
    require_integer(seed, 0, "seed")
    n = params.n
    beta = params.beta
    rng = np.random.default_rng(seed)
    z = _disk_samples(rng, sample_count)
    checks: list[CheckResult] = []

    def add(name: str, residual: float, samples: int, threshold: float, details=None):
        checks.append(CheckResult(name, residual <= threshold, residual, samples, details))

    # every set's values at this n, from one series pass, drawing the rng as each check did
    k = rng.integers(1, n, sample_count)
    rot = np.exp(2j * math.pi * k / n)
    j = rng.integers(1, 2 * n, sample_count)
    rot_j = np.exp(1j * math.pi * j / n)
    gam = cmath.exp(-1j * math.pi / (2 * n))
    sub = z[: min(100, z.size)] * 0.9
    delta = 1e-5
    r = np.linspace(1e-3, 0.999, 400)
    ray = cmath.exp(1j * math.pi / n)
    (hz, gz), at_rot, (hj, gj), at_conj, at_turn, at_gam_conj, at_gam, *at_offsets, at_r, at_ray = (
        _parts_at(params, z, rot * z, rot_j * z, np.conj(z), np.exp(1j * math.pi / n) * z,
                  gam * np.conj(z), gam * z, sub + delta, sub - delta, sub + 1j * delta,
                  sub - 1j * delta, r, r * ray))
    fz = combine_parts(beta, hz, gz)

    # n-fold rotational symmetry with random k
    res = np.abs(combine_parts(beta, *at_rot) - rot * fz).max()
    add("rotational_symmetry", float(res), sample_count, 1e-10)

    # 2n-fold summand rotation laws with random j
    res_h = np.abs(hj - rot_j * hz).max()
    sign = (-1.0) ** j
    res_g = np.abs(gj - sign / rot_j * gz).max()
    add("summand_rotation", float(max(res_h, res_g)), sample_count, 1e-10)

    # reflection: f_beta(conj z) = conj(f_{-beta}(z))
    res = np.abs(combine_parts(beta, *at_conj) - np.conj(combine_parts(-beta, hz, gz))).max()
    add("reflection_conjugation", float(res), sample_count, 1e-10)

    # half-turn law with l = -1, read from beta + pi back to beta
    pre = half_turn_rotation(n, -1)
    res = np.abs(fz - pre * combine_parts(beta + math.pi, *at_turn)).max()
    add("half_turn_shift", float(res), sample_count, 1e-10)

    # beta = pi/2 reflection axis law
    eta = math.pi / (2 * n) - math.pi / 4
    lhs = cmath.exp(1j * eta) * combine_parts(math.pi / 2, *at_gam_conj)
    rhs = np.conj(cmath.exp(1j * eta) * combine_parts(math.pi / 2, *at_gam))
    add("half_pi_reflection", float(np.abs(lhs - rhs).max()), sample_count, 1e-10)

    # reduction to canonical beta through the phase-shift law
    canonical, shifts = params.canonical()
    res = np.abs(fz - transit_identity(canonical, z, shifts)).max()
    add("phase_reduction", float(res), sample_count, 1e-10, {"shifts": shifts})

    # dilatation is exactly z^(n-2), compared where |z|^(n-2) >= 2^-969, 2^53 above the least
    # normal float: there z^(n-2) and dg = z^(n-2)/sqrt(1 - z^(2n)) lose no bits to underflow
    zs = z[np.abs(1.0 - integer_power(z, 2 * n)) > 1e-6]
    zd = zs[np.abs(zs) ** (n - 2) >= 2.0**-969]
    dh_zd, dg_zd = derivative_parts(params, zd)
    quot = dg_zd / dh_zd
    res = np.abs(quot / integer_power(zd, n - 2) - 1.0).max() if zd.size else 0.0
    add("dilatation_quotient", float(res), zd.size, 1e-12, {"dropped": zs.size - zd.size})

    # Jacobian positivity on every sample away from the singular points
    jac = (1.0 - np.abs(zs) ** (2 * (n - 2))) / np.abs(1.0 - integer_power(zs, 2 * n))
    worst = float(-(jac.min())) if jac.size else -1.0
    add("jacobian_positive", max(worst, 0.0), zs.size, 0.0)

    # Wirtinger reconstruction vs symmetric finite differences
    east, west, north, south = (combine_parts(beta, *p) for p in at_offsets)
    fx, fy = (east - west) / (2 * delta), (north - south) / (2 * delta)
    dh_sub, dg_sub = derivative_parts(params, sub)  # f_x = f_z + f_zbar, f_y = i (f_z - f_zbar)
    res = max(np.abs(fx - combine_parts(beta, dh_sub, dg_sub)).max(),
              np.abs(fy - 1j * combine_parts(beta, dh_sub, -dg_sub)).max())
    add("wirtinger_consistency", float(res), sub.size, 1e-6)

    # radial behavior along the two distinguished rays
    canon_beta = canonical.beta
    if 0.0 < canon_beta <= math.pi / 2:
        worst = 0.0
        for ray_k, at_k, arg_increases in ((1.0, at_r, False), (ray, at_ray, True)):
            mono = np.diff(np.abs(combine_parts(canon_beta, *at_k)))
            worst = max(worst, float(max(0.0, -(mono.min()))))
            dr = combine_parts(canon_beta,
                               *(ray_k * d for d in derivative_parts(canonical, r * ray_k)))
            dargs = np.diff(np.unwrap(np.angle(dr)))
            # the tangent argument falls along ray 1 and rises along ray e^{i pi/n}
            violation = max(0.0, dargs.max() if not arg_increases else -dargs.min())
            worst = max(worst, float(violation))
        add("radial_monotonicity", worst, r.size, 1e-12)

    # straight rays of the beta = 0 mapping
    v0, v1 = combine_parts(0.0, *at_r), combine_parts(0.0, *at_ray)
    res = max(
        np.abs(np.angle(v0)).max(),
        np.abs(np.angle(v1 * cmath.exp(-1j * math.pi / n))).max(),
    )
    add("ray_straightness", float(res), 2 * r.size, 1e-10)

    return VerificationReport(params=params, checks=checks)


# --- fundamental sets -----------------------------------------------------------


@dataclass(frozen=True)
class CoverageReport:
    passed: bool
    probes: int
    violations: int
    tolerance: float
    count_histogram: dict
    vertex_angle: float
    half_sector_angles: tuple[float, float]
    first_violation: Optional[dict] = None  # probe index, z, image point, copies containing it


def fundamental_decomposition(
    params: RosetteParams, probe_grid: int = 100
) -> tuple[list[RotatedCopy], CoverageReport]:
    """Tile the image of the full map by the n rotated fundamental-set copies.

    Every image of a dense polar z-grid must lie in exactly one rotated copy;
    probes within 1e-6 * scale of some copy boundary are exempt (shared
    boundary arcs).  Also reports the angle subtended at the origin by the
    set (2pi/n) and by its two half-sector pieces (pi/n each).
    """
    require_integer(probe_grid, 1, "probe_grid")
    copies = rotated_copies(params)
    n = params.n
    scale = scale_constant(n)
    tol = 1e-6 * scale

    # the probe images and the vertex secants of the origin (below) from one series pass
    r0 = 1e-6
    zgrid = _interior_grid(probe_grid, 0.98)
    at_grid, at_side = _parts_at(params, zgrid, np.array(
        [r0, r0 * cmath.exp(1j * math.pi / n), r0 * cmath.exp(2j * math.pi / n)]))
    probes = combine_parts(params.beta, *at_grid)

    counts = np.zeros(probes.size, dtype=int)
    for copy in copies:
        counts += windings(ensure_closed(copy.polyline), probes) != 0

    suspect = np.flatnonzero(counts != 1)
    dist = np.min([curve_distances(c.polyline, probes[suspect]) for c in copies], axis=0)
    violating = suspect[dist > tol]
    violations = int(violating.size)
    witness = None
    if violations:
        k = int(violating[0])
        z, w = complex(zgrid[k]), complex(probes[k])
        witness = {"index": k, "z": [z.real, z.imag], "point": [w.real, w.imag],
                   "copies_containing": int(counts[k])}

    hist = {c: int(m) for c, m in enumerate(np.bincount(counts)) if m}

    # vertex geometry at the origin from tiny-radius secants, at the canonical phase
    canonical_beta = params.canonical()[0].beta
    a0, a1, a2 = (cmath.phase(complex(v)) for v in combine_parts(canonical_beta, *at_side))
    vertex_angle = (a2 - a0) % TWO_PI
    half_angles = ((a1 - a0) % TWO_PI, (a2 - a1) % TWO_PI)

    report = CoverageReport(
        passed=violations == 0
        and abs(wrap_angle(vertex_angle - TWO_PI / n)) < 1e-6
        and all(abs(wrap_angle(h - math.pi / n)) < 1e-6 for h in half_angles),
        probes=probes.size,
        violations=violations,
        tolerance=tol,
        count_histogram=hist,
        vertex_angle=float(vertex_angle),
        half_sector_angles=(float(half_angles[0]), float(half_angles[1])),
        first_violation=witness,
    )
    return copies, report


def fundamental_tiling(params: RosetteParams, probe_grid: int) -> CheckResult:
    """fundamental_decomposition as a check: its residual is the violation count, and the
    details name the first violating probe."""
    _, coverage = fundamental_decomposition(params, probe_grid=probe_grid)
    witness = coverage.first_violation
    return CheckResult("fundamental_tiling", coverage.passed, float(coverage.violations),
                       coverage.probes, {"first_violation": witness} if witness else None)

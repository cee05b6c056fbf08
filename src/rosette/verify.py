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

from .boundary import (TWO_PI, RotatedCopy, boundary_polyline, bounding_radius, rotated_copies,
                       wrap_angle)
from .errors import DomainError, TooCloseToCurve, as_array, as_number, require_integer
from .geometry import (
    count_self_intersections,
    crossing_witness,
    curve_distances,
    ensure_closed,
    min_curve_distance,
    min_pairwise_distance,
    windings,
)
from .maps import (
    RosetteParams,
    combine_parts,
    derivative_parts,
    half_turn_rotation,
    integer_power,
    parts_many,
    require_params,
)
from .quadrature import tanh_sinh
from .series import SeriesKind, scale_constant

# Clearance, times scale_constant(n), within which a probe is taken to lie on a polyline: the
# scan refuses it, the tiling exempts it.  Far above rounding (ulps of the scale, ABS_TOL 1e-12),
# far below the >= 1.2e-3 * scale that the scan's grid images kept from the curve (n 3 to 2000).
_CLEARANCE = 1e-6


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
    pts = ensure_closed(curve)
    w0 = as_number(w0, complex, "probe")
    if exclusion_radius is None:  # 0 for a NaN probe, which is then too close
        exclusion_radius = 1e-9 * float(np.nan_to_num(np.abs(pts - w0).max()))
    return winding_numbers(pts, [w0], exclusion_radius)[0]


def winding_numbers(curve, points, exclusion_radius: float) -> list[WindingResult]:
    """Batch winding numbers for many probes against one closed polyline."""
    pts = ensure_closed(curve)
    probes = as_array(points, complex, "probes").ravel()
    exclusion_radius = as_number(exclusion_radius, float, "exclusion radius")
    dist = curve_distances(pts, np.where(np.isfinite(probes), probes, np.nan))
    close = np.flatnonzero(~(dist > exclusion_radius))  # a NaN or inf probe is too close
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

    (a) the sampled boundary polyline has no self-intersections; (b) images of an interior
    z-grid have winding 1 and 64 probes a quarter of the scale beyond the bounding circle
    winding 0, in one crossing pass; the grid's clearance is one nearest-segment query, the
    ring's min |p| - max |v| (each segment lies in the disc of its larger vertex), and one not
    above the exclusion takes winding_numbers to name the probe too close.  (c) the grid
    images are pairwise distinct (pigeonhole injectivity), with the minimum separation reported.
    """
    require_integer(grid_resolution, 2, "grid_resolution")  # (c) needs two images
    n = require_params(params).n
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
    exclusion = _CLEARANCE * scale
    probes = combine_parts(params.beta, *_parts_at(params, _interior_grid(grid_resolution))[0])
    ring = (bounding_radius(n) + 0.25 * scale) * np.exp(1j * TWO_PI * (np.arange(64) + 0.37) / 64)
    both = np.concatenate([probes, ring])
    near, rim = min_curve_distance(poly, probes), float(np.abs(ring).min())
    # 2^-48 rim (32 ulps) off keeps the bound below curve_distances: a ring probe's distance errs
    # by 2 ulps of |p| + 5 of max |v|, the bound by 3 of rim + 2 of max |v|; 12 of rim in all
    clear = rim * (1.0 - 2.0**-48) - float(np.abs(poly).max())  # NaN for a NaN vertex
    if not (near > exclusion and clear > exclusion):
        winding_numbers(poly, both, exclusion)
    winds = windings(poly, both)
    for name, points, wind, target, details in (
            ("interior_winding_one", probes, winds[:probes.size], 1, {"min_curve_distance": near}),
            ("exterior_winding_zero", ring, winds[probes.size:], 0, {})):
        errors = np.abs(wind - target)
        k = int(np.argmax(errors))
        worst = float(errors[k])
        if worst:
            p, w = complex(points[k]), int(wind[k])
            details["worst_probe"] = {"index": k, "point": [p.real, p.imag], "winding": w}
        checks.append(CheckResult(name, not worst, worst, points.size, details or None))

    min_sep = min_pairwise_distance(probes)
    checks.append(CheckResult("grid_images_distinct", min_sep > 0.0, 0.0 if min_sep > 0.0 else 1.0,
                              probes.size, {"min_separation": min_sep}))
    return VerificationReport(params=params, checks=checks)


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
    DomainError for a kind that is no SeriesKind or a point outside the closed disk
    (before any quadrature) and QuadratureFailure if the rule does not converge.
    """
    if not isinstance(kind, SeriesKind):
        raise DomainError(f"kind must be a SeriesKind, got {kind!r}")
    z = np.array([as_number(z, complex, "point")])
    analytic = kind is SeriesKind.ANALYTIC
    rhs = complex(parts_many(require_params(params), z)[0 if analytic else 1][0])
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
    powers = (0, require_params(params).n - 2)  # h' and g' = z^(n-2) h'
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
    n, beta = require_params(params).n, params.beta
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
    canonical, shifts = params.canonical()  # h and g depend on n alone: one pass serves both
    ((hz, gz), at_rot, (hj, gj), at_conj, at_turn, at_shift, at_gam_conj, at_gam, *at_offsets,
     at_r, at_ray) = _parts_at(
        params, z, rot * z, rot_j * z, np.conj(z), np.exp(1j * math.pi / n) * z,
        z * cmath.exp(-1j * shifts * math.pi / n), gam * np.conj(z), gam * z, sub + delta,
        sub - delta, sub + 1j * delta, sub - 1j * delta, r, r * ray)
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

    # half-turn law with l = -1, read from beta + pi back to beta (np.multiply: see combine_parts)
    res = np.abs(fz - np.multiply(half_turn_rotation(n, -1),
                                  combine_parts(beta + math.pi, *at_turn))).max()
    add("half_turn_shift", float(res), sample_count, 1e-10)

    # beta = pi/2 reflection axis law
    eta = math.pi / (2 * n) - math.pi / 4
    lhs = cmath.exp(1j * eta) * combine_parts(math.pi / 2, *at_gam_conj)
    rhs = np.conj(cmath.exp(1j * eta) * combine_parts(math.pi / 2, *at_gam))
    add("half_pi_reflection", float(np.abs(lhs - rhs).max()), sample_count, 1e-10)

    # reduction to canonical beta through the half-turn law with l = shifts
    res = np.abs(fz - np.multiply(half_turn_rotation(n, shifts),
                                  combine_parts(canonical.beta, *at_shift))).max()
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
    exempt: int = 0  # probes not in exactly one copy but within the tolerance of a copy boundary


# Angle, in radians, by which every cone of fundamental_decomposition is widened on either
# side: far above the few ulps by which np.angle and the turned copies' vertices err.
_CONE_MARGIN = 1e-9


def fundamental_decomposition(
    params: RosetteParams, probe_grid: int = 100
) -> tuple[list[RotatedCopy], CoverageReport]:
    """Tile the image of the full map by the n rotated fundamental-set copies.

    Every image of a dense polar z-grid must lie in exactly one rotated copy;
    probes within ``_CLEARANCE`` * scale of some copy boundary are exempt (shared
    boundary arcs), and their number is reported.  Also reports the angle
    subtended at the origin by the set (2pi/n) and by its two half-sector
    pieces (pi/n each).

    Each probe is wound only around the copies whose cone it lies in.  The cone
    lemma: a closed polyline whose vertices lie in a convex cone K at the origin
    lies in K, so its winding number about any point p outside K is 0 (a ray from
    p that avoids K reaches infinity), and every point of it lies at least
    |p| sin(gap) from p, where gap is the angle between p and K, or |p| once the
    gap passes pi/2.  The least cone at the origin that holds every vertex of the
    shared fundamental polyline is found once (it measured at most 1.25 * 2pi/n
    wide for n from 3 to 2000); when it spans pi or more, every probe is tested
    against every copy.  Copy k's cone is that cone turned by the argument of its
    prefactor, widened by ``_CONE_MARGIN`` on either side: the turned vertices and
    the probe arguments err by a few ulps, so a probe found outside the widened cone
    lies outside the cone that holds the copy's float vertices, and the exact
    crossing rule would count it 0 times there.  With the probes sorted by argument
    once, each copy takes its probes by binary search, and only the copies that
    hold probes are wound: O((n + P) log P + K) for K probe-edge pairs, not O(nP).

    A violating probe (not in exactly one copy) is exempt when the least distance
    from it to a copy is at most the tolerance.  By the lemma, a copy whose cone
    lies more than asin(tol/|p|) + ``_CONE_MARGIN`` from p is farther than the
    tolerance, so only the other copies are measured, in one batch per copy.  When
    |p| > 1e-3 * scale, the margin adds more than 1e-9 |p| cos(asin(1e-3)) > 9.9e-13
    * scale to |p| sin(gap), far above the few ulps of scale by which a float distance
    errs; a probe nearer the origin is measured against every copy.  So the counts,
    the exemptions and the verdict are those of winding every probe around every
    copy and measuring it against every copy.
    """
    require_integer(probe_grid, 1, "probe_grid")
    copies = rotated_copies(params)
    n = params.n
    scale = scale_constant(n)
    tol = _CLEARANCE * scale

    # the probe images and the vertex secants of the origin (below) from one series pass
    r0 = 1e-6
    zgrid = _interior_grid(probe_grid, 0.98)
    at_grid, at_side = _parts_at(params, zgrid, np.array(
        [r0, r0 * cmath.exp(1j * math.pi / n), r0 * cmath.exp(2j * math.pi / n)]))
    probes = combine_parts(params.beta, *at_grid)

    cone = _cone(copies[0].fundamental)  # the copies share one fundamental polyline
    counts = np.zeros(probes.size, dtype=int)
    for copy, members in zip(copies, _cone_members(probes, copies, cone, 0.0)):
        if members.size:
            counts[members] += windings(copy.polyline, probes[members]) != 0

    violating = np.flatnonzero(counts != 1)
    if violating.size:  # exempt those near a copy boundary
        p = probes[violating]
        mag = np.abs(p)  # nearer the origin than 1e-3 * scale, every copy is measured
        reach = float(np.arcsin(tol / mag).max()) if (mag > 1e-3 * scale).all() else math.pi
        dist = np.full(violating.size, np.inf)
        for copy, members in zip(copies, _cone_members(p, copies, cone, reach)):
            if members.size:
                np.minimum.at(dist, members, curve_distances(copy.polyline, p[members]))
        violating = violating[dist > tol]
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
    vertex_angle = np.mod(a2 - a0, TWO_PI)
    half_angles = np.mod((a1 - a0, a2 - a1), TWO_PI)

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
        exempt=int(np.count_nonzero(counts != 1)) - violations,
    )
    return copies, report


def _cone(poly: np.ndarray) -> Optional[tuple[float, float]]:
    """(start, span) of the least cone at the origin, the arguments from start to start + span,
    that holds every vertex of ``poly``; None when it spans pi or more."""
    args = np.sort(np.angle(poly[poly != 0]))
    gaps = np.diff(np.append(args, args[0] + TWO_PI))
    k = int(np.argmax(gaps))
    span = TWO_PI - float(gaps[k])
    return (float(args[(k + 1) % args.size]), span) if span < math.pi else None


def _cone_members(probes: np.ndarray, copies: list[RotatedCopy], cone, reach: float):
    """For each copy, the indices of the probes whose argument lies within ``reach`` +
    ``_CONE_MARGIN`` of the copy's cone (``cone`` turned by the copy's prefactor), or of
    all probes when there is no cone or the widened one spans 2pi.  The probes are finite
    and off the origin, as the images of ``_interior_grid`` are."""
    widen = reach + _CONE_MARGIN
    if cone is None or cone[1] + 2.0 * widen >= TWO_PI:
        yield from (np.arange(probes.size) for _ in copies)
        return
    args = np.angle(probes)
    order = np.argsort(args, kind="stable")
    args = args[order]
    for copy in copies:
        lo = wrap_angle(cone[0] + cmath.phase(copy.prefactor) - widen)
        hi = lo + cone[1] + 2.0 * widen
        yield np.concatenate([
            order[np.searchsorted(args, lo + s, "left") : np.searchsorted(args, hi + s, "right")]
            for s in (-TWO_PI, 0.0, TWO_PI)])


def fundamental_tiling(params: RosetteParams, probe_grid: int) -> CheckResult:
    """fundamental_decomposition as a check: its residual is the violation count, and the
    details give the exempt count and name the first violating probe."""
    _, coverage = fundamental_decomposition(params, probe_grid=probe_grid)
    details = {"exempt": coverage.exempt}
    if coverage.first_violation:
        details["first_violation"] = coverage.first_violation
    return CheckResult("fundamental_tiling", coverage.passed, float(coverage.violations),
                       coverage.probes, details)

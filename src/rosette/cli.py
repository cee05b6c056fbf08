"""Command-line interface: render figures, report features, verify, dump curves.

Subcommands
-----------
render     draw the image of a polar grid under one rosette map (SVG)
features   emit the cusp/node feature report (JSON or CSV)
verify     run the numerical certification suite; exit 1 on any failure
dump       stream boundary or radial curve samples as CSV
decompose  render with the fundamental-set overlay and report tiling coverage

``--beta`` accepts plain radians (``0.3``) or fractions of pi (``pi/4``,
``-2pi/5``, ``3pi``).  All output is deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING, Optional

import numpy as np

from .maps import RosetteParams, combine_parts, parts_many, reduce_beta

# boundary, render and verify are imported by the commands that use them, so that a
# command loads only what it runs and a usage error loads none of them
if TYPE_CHECKING:
    from .render import RenderSpec
    from .verify import CheckResult

SCHEMA_VERSION = 1

# Largest |beta| accepted: reducing a float beta modulo pi loses about
# |beta| * 1e-16 (1e-13 at 1e4, 2e-12 at 1e5), so larger phases mean nothing.
BETA_LIMIT = 1e4

_BETA_RE = re.compile(
    r"^(?P<sign>[+-]?)(?P<mult>\d+(?:\.\d+)?)?\s*pi(?:\s*/\s*(?P<den>\d+(?:\.\d+)?))?$",
    re.IGNORECASE,
)


def parse_beta(text: str) -> float:
    """Radians from a decimal or a pi-fraction such as ``pi/4`` or ``-2pi/5``."""
    s = text.strip().replace(" ", "")
    m = _BETA_RE.match(s)
    if m:
        mult = float(m.group("mult")) if m.group("mult") else 1.0
        den = float(m.group("den")) if m.group("den") else 1.0
        if den == 0.0:
            raise argparse.ArgumentTypeError(f"angle {text!r} divides by zero")
        val = mult * math.pi / den
        val = -val if m.group("sign") == "-" else val
    else:
        try:
            val = float(s)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"cannot parse angle {text!r}: use radians or forms like pi/4, -2pi/5"
            ) from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"angle {text!r} is not a finite number")
    if abs(val) > BETA_LIMIT:
        raise argparse.ArgumentTypeError(
            f"angle {text!r} is outside [-{BETA_LIMIT:g}, {BETA_LIMIT:g}]"
        )
    return val


def _at_least(name: str, low, cast=int):
    """An argparse type: a finite ``cast`` (int or float) no smaller than ``low``."""

    def parse(text: str):
        value = cast(text)
        if not low <= value < math.inf:  # also false for NaN
            raise argparse.ArgumentTypeError(f"a finite {name} >= {low} is required, got {value}")
        return value

    parse.__name__ = cast.__name__  # argparse names the type in "invalid int value: 'x'"
    return parse


def _grid(text: str) -> tuple[int, int]:
    m = re.match(r"^(\d+)x(\d+)$", text.strip(), re.IGNORECASE)
    if not m or min(int(m.group(1)), int(m.group(2))) < 1:
        raise argparse.ArgumentTypeError("grid must look like 24x16, both counts >= 1")
    return int(m.group(1)), int(m.group(2))


def _overlays(text: str) -> frozenset:
    from .render import Overlay

    names = {overlay.value: overlay for overlay in Overlay}
    out = set()
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        if part not in names:
            raise argparse.ArgumentTypeError(
                f"unknown overlay {part!r}; choose from {sorted(names)}"
            )
        out.add(names[part])
    return frozenset(out)


def _output(text: str) -> str:
    """An argparse type: ``-`` for stdout, or a nonempty file path that is no directory and
    lies in one."""
    folder = os.path.dirname(text) or "."
    if text != "-" and (not text or os.path.isdir(text) or not os.path.isdir(folder)):
        problem = ("is empty" if not text else "is a directory" if os.path.isdir(text)
                   else "lies in a missing directory")
        raise argparse.ArgumentTypeError(f"cannot write {text!r}: it {problem}")
    return text


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _quote(text: str) -> str:
    """A CSV cell: the text, quoted with its quotes doubled if it holds , " or a line break."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _csv(header: list[str], rows) -> str:
    """CSV text with RFC 4180 line endings, each line joined in one call.  A None cell is
    empty, a float is written in its shortest round-trip decimal form, and any other value
    as str() writes it, quoted as RFC 4180 asks."""
    lines = (["" if v is None else repr(float(v)) if isinstance(v, float) else _quote(str(v))
              for v in row] for row in [header, *rows])
    return "".join([",".join(cells) + "\r\n" for cells in lines])


# --- features ------------------------------------------------------------------


def _feature_payload(n: int, beta_input: float) -> dict:
    from .boundary import extract_features

    beta, shifts = reduce_beta(beta_input)
    params = RosetteParams(n, beta)
    report = extract_features(params)
    features = [
        {
            "kind": ft.kind.value,
            "t": ft.t,
            "re": ft.location.real,
            "im": ft.location.imag,
            "magnitude": ft.magnitude,
            "argument": ft.argument,
            "axis_arg": ft.axis_arg,
            "interior_angle": ft.interior_angle,
        }
        for ft in report.features
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "feature_report",
        "n": n,
        "beta_input": beta_input,
        "beta_canonical": beta,
        "half_turn_shifts": shifts,
        "features": features,
        "separations": list(report.separations),
        "total_curvature_per_petal": report.total_curvature_per_petal,
    }


def cmd_features(args) -> int:
    payload = _feature_payload(args.n, args.beta)
    if args.format == "json":
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    else:
        header = ["kind", "t", "re", "im", "magnitude", "argument", "axis_arg", "interior_angle"]
        _write_text(args.out, _csv(header, [list(ft.values()) for ft in payload["features"]]))
    return 0


# --- verify ----------------------------------------------------------------------


def _checks_payload(checks: list[CheckResult]) -> list[dict]:
    return [
        {"name": c.name, "passed": bool(c.passed), "max_residual": float(c.max_residual),
         "samples_used": int(c.samples_used)}
        for c in checks
    ]


def cmd_verify(args) -> int:
    from .boundary import FIGURE_PER_INTERVAL
    from .verify import fundamental_tiling, integral_identities, symmetry_suite, univalence_scan

    # every stage checks the phase as given; its canonical twin is only reported
    params = RosetteParams(args.n, args.beta)
    beta, shifts = reduce_beta(args.beta)
    quick = args.level == "quick"

    suite = symmetry_suite(params, sample_count=200 if quick else 1000, seed=args.seed)
    scan = univalence_scan(params, grid_resolution=12 if quick else 21,
                           per_interval=FIGURE_PER_INTERVAL if quick else None)
    results = suite.checks + scan.checks
    results.append(integral_identities(params, 10 if quick else 50, args.seed))
    if not quick:
        results.append(fundamental_tiling(params, probe_grid=60))

    checks = _checks_payload(results)
    passed = all(c["passed"] for c in checks)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "verification_report",
        "n": args.n,
        "beta_input": args.beta,
        "beta_canonical": beta,
        "half_turn_shifts": shifts,
        "level": args.level,
        "seed": args.seed,
        "passed": passed,
        "checks": checks,
    }
    if args.format == "csv":
        header = ["name", "passed", "max_residual", "samples_used"]
        _write_text(args.out, _csv(header, [list(c.values()) for c in checks]))
    else:
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0 if passed else 1


# --- dump ------------------------------------------------------------------------


def cmd_dump(args) -> int:
    params = RosetteParams(args.n, args.beta)
    if args.what == "boundary":
        from .boundary import curve_samples

        ts = (np.arange(args.count) + 0.5) * 2.0 * math.pi / args.count
        rows = [[s.t, s.value.real, s.value.imag, s.d_arg, s.d_mag]
                for s in curve_samples(params, ts)]
        text = _csv(["t", "re", "im", "d_arg", "d_mag"], rows)
    else:
        rs = (np.arange(args.count) + 0.5) / args.count
        rows = []
        for ray_arg in (0.0, math.pi / args.n, 2.0 * math.pi / args.n):
            vals = combine_parts(params.beta, *parts_many(params, rs * np.exp(1j * ray_arg)))
            rows += [[ray_arg, r, v.real, v.imag] for r, v in zip(rs, vals)]
        text = _csv(["ray_arg", "r", "re", "im"], rows)
    _write_text(args.out, text)
    return 0


# --- render / decompose -----------------------------------------------------------


def _render_spec(args, extra_overlays: frozenset = frozenset()) -> RenderSpec:
    from .render import RenderSpec

    radial, circles = args.grid
    return RenderSpec(
        params=RosetteParams(args.n, args.beta),
        radial_lines=radial,
        circles=circles,
        samples_per_curve=args.samples,
        width_px=args.width,
        margin_frac=args.margin,
        overlay=frozenset(args.overlay | extra_overlays),
    )


def cmd_render(args) -> int:
    from .render import render_svg

    _write_text(args.out, render_svg(_render_spec(args)))
    return 0


def cmd_decompose(args) -> int:
    if args.out == "-" and args.report in (None, "-"):
        args.usage_error("argument --report: must name a file when --out is -, "
                         "so that the SVG and the report do not share stdout")
    from .verify import fundamental_decomposition

    params = RosetteParams(args.n, args.beta)
    copies, coverage = fundamental_decomposition(params, probe_grid=args.probe_grid)
    if args.out is not None:  # the overlay draws the copies that the coverage tiled
        from .render import Overlay, render_svg

        spec = _render_spec(args, extra_overlays=frozenset({Overlay.FUNDAMENTAL_SET}))
        _write_text(args.out, render_svg(spec, copies=copies))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "coverage_report",
        "n": args.n,
        "beta": args.beta,
        "passed": bool(coverage.passed),
        "probes": coverage.probes,
        "violations": coverage.violations,
        "tolerance": coverage.tolerance,
        "count_histogram": {str(k): v for k, v in coverage.count_histogram.items()},
        "vertex_angle": coverage.vertex_angle,
        "half_sector_angles": list(coverage.half_sector_angles),
    }
    _write_text(args.report, json.dumps(payload, indent=2) + "\n")
    return 0 if coverage.passed else 1


# --- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosette",
        description="Rosette harmonic mappings: figures, features, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=_at_least("n", 3), required=True, help="order, n >= 3")
        p.add_argument(
            "--beta",
            type=parse_beta,
            required=True,
            help="phase in radians or as a pi fraction (pi/4, -2pi/5)",
        )

    p = sub.add_parser("features", help="cusp/node feature report")
    common(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", type=_output, default=None)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("verify", help="numerical certification suite")
    common(p)
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument("--seed", type=_at_least("seed", 0), default=0)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", type=_output, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dump", help="CSV stream of curve samples")
    common(p)
    p.add_argument("--what", choices=["boundary", "radial"], default="boundary")
    p.add_argument("--count", type=_at_least("count", 1), default=64)
    p.add_argument("--out", type=_output, default=None)
    p.set_defaults(func=cmd_dump)

    for name, fn in (("render", cmd_render), ("decompose", cmd_decompose)):
        p = sub.add_parser(name, help=f"{name} a figure")
        common(p)
        p.add_argument("--out", type=_output, required=name == "render", help="output SVG path")
        p.add_argument("--grid", type=_grid, default=(24, 16), help="RxC polar grid")
        p.add_argument("--samples", type=_at_least("samples", 16), default=256)
        p.add_argument("--width", type=_at_least("width", 1), default=900)
        p.add_argument("--margin", type=_at_least("margin", 0, float), default=0.08)
        p.add_argument(
            "--overlay",
            type=_overlays,
            default=frozenset(),
            help="comma list: features,axes,fundamental,hypocycloid",
        )
        if name == "decompose":
            p.add_argument("--report", type=_output, default=None,
                           help="coverage report path (JSON)")
            p.add_argument("--probe-grid", type=_at_least("probe-grid", 1), default=60)
        p.set_defaults(func=fn, usage_error=p.error)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses: built once per process, since parse_args keeps no state in it."""
    return build_parser()


def _merge_negative_angles(argv: list[str]) -> list[str]:
    """Join ``--beta -pi/3`` into ``--beta=-pi/3`` so argparse accepts it."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--beta" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--beta={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parser().parse_args(_merge_negative_angles(list(argv)))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

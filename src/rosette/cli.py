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

Exit codes: 0 on success, 1 for a failed ``verify`` or ``decompose`` check, 2 for a
usage error (argparse), EXIT_LIBRARY_ERROR (3) when a library error (``RosetteError``)
stops a command at valid input, with one stderr line
``rosette <command>: <ErrorClass>: <message>``, and 141 when the reader of stdout stops.
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

from .errors import ORDER_LIMIT, RosetteError
from .maps import BETA_LIMIT, RosetteParams, combine_parts, parts_many, reduce_beta

# boundary, render and verify are imported by the commands that use them, so that a
# command loads only what it runs and a usage error loads none of them
if TYPE_CHECKING:
    from .render import RenderSpec
    from .verify import CheckResult

SCHEMA_VERSION = 1

# The exit code of a command that a RosetteError stopped: neither argparse's 2 for a usage
# error nor the 1 of a failed verify or decompose check.
EXIT_LIBRARY_ERROR = 3

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


def _at_least(name: str, low, cast=int, high=ORDER_LIMIT):
    """An argparse type: a finite ``cast`` (int or float) from ``low`` to ``high``, by default
    ORDER_LIMIT, the largest order or count that the library's float arithmetic tells apart."""

    def parse(text: str):
        value = cast(text)
        if not low <= value < math.inf:  # also false for NaN
            raise argparse.ArgumentTypeError(f"a finite {name} >= {low} is required, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"{name} must be at most {high}, got {value}")
        return value

    parse.__name__ = cast.__name__  # argparse names the type in "invalid int value: 'x'"
    return parse


def _grid(text: str) -> tuple[int, int]:
    m = re.match(r"^(\d+)x(\d+)$", text.strip(), re.IGNORECASE)
    counts = (int(m.group(1)), int(m.group(2))) if m else (0, 0)
    if not all(1 <= count <= ORDER_LIMIT for count in counts):
        raise argparse.ArgumentTypeError(
            f"grid must look like 24x16, both counts from 1 to {ORDER_LIMIT}")
    return counts


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


def _write_text(path: Optional[str], text) -> None:
    """Write ``text``, a string or an iterable of its pieces, to ``path`` as UTF-8 (to stdout
    for None or ``-``)."""
    pieces = (text,) if isinstance(text, str) else text
    if path is None or path == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(path, "wb") as fh:  # the bytes themselves, without a text layer to set up
            for piece in pieces:
                fh.write(piece.encode("utf-8"))


def _quote(text: str) -> str:
    """A CSV cell: the text, quoted with its quotes doubled if it holds , " or a line break."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


# Rows per piece of a written table, so that only one piece's cells are held at a time.
_CHUNK = 512


def _float_cells(values: np.ndarray, missing: str) -> list[str]:
    """float.__repr__ of each value, ``missing`` for NaN (a view's None)."""
    cells = list(map(float.__repr__, values.tolist()))
    return [missing if c == "nan" else c for c in cells] if "nan" in cells else cells


def _pieces(columns: list, missing: str):
    """The cells of equally long columns, up to _CHUNK rows at a time, as one list per
    column.  A column is a float array, written by ``_float_cells``, or an object array of
    finished cells."""
    for start in range(0, len(columns[0]), _CHUNK):
        yield [_float_cells(c[start:start + _CHUNK], missing) if c.dtype.kind == "f"
               else c[start:start + _CHUNK].tolist() for c in columns]


def _csv(header, columns: list):
    """The pieces of a CSV table with RFC 4180 line endings: the header, then the rows of
    the columns (see ``_pieces``), NaN written as an empty cell."""
    yield ",".join(map(_quote, header)) + "\r\n"
    for cells in _pieces(columns, ""):
        yield "\r\n".join(map(",".join, zip(*cells))) + "\r\n"


# --- features ------------------------------------------------------------------

# The fields of a feature: the keys of its JSON object and the columns of the CSV.
_FEATURE_COLUMNS = ("kind", "t", "re", "im", "magnitude", "argument", "axis_arg", "interior_angle")
# One feature of the JSON report, as json.dumps(payload, indent=2) writes it.
_FEATURE_JSON = "    {\n" + ",\n".join(f'      "{key}": %s' for key in _FEATURE_COLUMNS) + "\n    }"


def _feature_columns(features, kind_text) -> list:
    """The report's columns in _FEATURE_COLUMNS order, the kinds as ``kind_text`` writes them."""
    from .boundary import FeatureKind

    kinds = np.empty(len(features), dtype=object)
    for kind in FeatureKind:
        kinds[features.kind == kind] = kind_text(kind.value)
    return [kinds, features.t, features.location.real, features.location.imag,
            features.magnitude, features.argument, features.axis_arg, features.interior_angle]


def _feature_json(n: int, beta_input: float, beta: float, shifts: int, report):
    """The pieces of ``json.dumps(payload, indent=2) + "\n"`` for the feature report, whose
    floats are all finite: each float by float.__repr__, None as null."""
    yield ('{\n  "schema_version": %d,\n  "kind": "feature_report",\n  "n": %d,\n'
           '  "beta_input": %r,\n  "beta_canonical": %r,\n  "half_turn_shifts": %d,\n'
           '  "features": [\n' % (SCHEMA_VERSION, n, beta_input, beta, shifts))
    columns = _feature_columns(report.features, lambda text: f'"{text}"')
    for k, cells in enumerate(_pieces(columns, "null")):
        yield (",\n" if k else "") + ",\n".join(map(_FEATURE_JSON.__mod__, zip(*cells)))
    yield '\n  ],\n  "separations": [\n'
    for k, (cells,) in enumerate(_pieces([np.array(report.separations)], "null")):
        yield (",\n" if k else "") + ",\n".join(["    " + c for c in cells])
    yield '\n  ],\n  "total_curvature_per_petal": %r\n}\n' % report.total_curvature_per_petal


def cmd_features(args) -> int:
    from .boundary import extract_features

    beta, shifts = reduce_beta(args.beta)
    report = extract_features(RosetteParams(args.n, beta))
    if args.format == "json":
        _write_text(args.out, _feature_json(args.n, args.beta, beta, shifts, report))
    else:
        _write_text(args.out, _csv(_FEATURE_COLUMNS, _feature_columns(report.features, _quote)))
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
        # a NaN residual, which fails its check, is written nan, as the JSON report writes NaN
        residuals = _float_cells(np.array([c["max_residual"] for c in checks]), "nan")
        rows = [(_quote(c["name"]), str(c["passed"]), residual, str(c["samples_used"]))
                for c, residual in zip(checks, residuals)]
        _write_text(args.out, _csv(header, list(np.array(rows, dtype=object).T)))
    else:
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return 0 if passed else 1


# --- dump ------------------------------------------------------------------------


def cmd_dump(args) -> int:
    params = RosetteParams(args.n, args.beta)
    if args.what == "boundary":
        from .boundary import curve_samples

        ts = (np.arange(args.count) + 0.5) * 2.0 * math.pi / args.count
        s = curve_samples(params, ts)
        text = _csv(["t", "re", "im", "d_arg", "d_mag"],
                    [s.t, s.value.real, s.value.imag, s.d_arg, s.d_mag])
    else:
        rs = (np.arange(args.count) + 0.5) / args.count
        angles = (0.0, math.pi / args.n, 2.0 * math.pi / args.n)
        rays = np.concatenate([rs * np.exp(1j * a) for a in angles])  # one series pass for all
        vals = combine_parts(params.beta, *parts_many(params, rays))
        text = _csv(["ray_arg", "r", "re", "im"],
                    [np.repeat(angles, args.count), np.tile(rs, len(angles)), vals.real, vals.imag])
    _write_text(args.out, text)
    return 0


# --- render / decompose -----------------------------------------------------------


def _render_spec(args, extra_overlays: frozenset = frozenset()) -> RenderSpec:
    """The spec of the figure; a margin whose viewport overflows is a usage error, the one
    refusal that the parser's types leave to RenderSpec."""
    from .errors import DomainError
    from .render import RenderSpec

    radial, circles = args.grid
    try:
        return RenderSpec(
            params=RosetteParams(args.n, args.beta),
            radial_lines=radial,
            circles=circles,
            samples_per_curve=args.samples,
            width_px=args.width,
            margin_frac=args.margin,
            overlay=frozenset(args.overlay | extra_overlays),
        )
    except DomainError as exc:
        args.usage_error(f"argument --margin: {exc}")


def cmd_render(args) -> int:
    from .render import render_svg

    _write_text(args.out, render_svg(_render_spec(args)))
    return 0


def cmd_decompose(args) -> int:
    if args.out == "-" and args.report in (None, "-"):
        args.usage_error("argument --report: must name a file when --out is -, "
                         "so that the SVG and the report do not share stdout")
    spec = None
    if args.out is not None:  # before any work, so that a bad margin stops it
        from .render import Overlay

        spec = _render_spec(args, extra_overlays=frozenset({Overlay.FUNDAMENTAL_SET}))
    from .verify import fundamental_decomposition

    params = RosetteParams(args.n, args.beta)
    copies, coverage = fundamental_decomposition(params, probe_grid=args.probe_grid)
    if spec is not None:  # the overlay draws the copies that the coverage tiled
        from .render import render_svg

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
    p.add_argument("--seed", type=_at_least("seed", 0, high=math.inf), default=0)
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
        p.add_argument("--margin", type=_at_least("margin", 0, float, high=math.inf), default=0.08)
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
    for tok in argv:
        if out and out[-1] == "--beta" and tok.startswith("-"):
            out[-1] = f"--beta={tok}"
        else:
            out.append(tok)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(_merge_negative_angles(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        sys.stdout.flush()  # its last buffered piece too, while the reader may still be there
    except BrokenPipeError:  # the reader stopped early (``| head``): end quietly, as on SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # the flush at exit too
        return 141
    except RosetteError as exc:  # one line, not a traceback
        message = " ".join(str(exc).split())
        print(f"rosette {args.command}: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_LIBRARY_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())

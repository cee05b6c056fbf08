"""The CLI deck: every command line of tests/deck.txt, run in-process and hashed.

    PYTHONPATH=src python tests/deck.py           # compare with the manifest; exit 1 on a difference
    PYTHONPATH=src python tests/deck.py --write   # record tests/deck_manifest.json

The manifest holds, for each command line, its exit code and two SHA-256
digests of stdout and of every output file: one of the bytes, and one of the
bytes with every number token masked.  In the environment the manifest was
written in (the same Python, numpy, machine and CPU features that numpy
dispatches on) every byte must match; in any other environment the exit codes
and the masked digests must.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import re
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

from rosette.cli import main

HERE = Path(__file__).resolve().parent
DECK = HERE / "deck.txt"
MANIFEST = HERE / "deck_manifest.json"
PLACEHOLDERS = ("@out", "@report")
_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|Infinity|NaN|nan|inf")


def commands() -> list[str]:
    """The deck's command lines, without blank lines and comments."""
    lines = (line.strip() for line in DECK.read_text(encoding="utf-8").splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def environment() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": sorted(name for name, on in features.items() if on),
    }


def run(line: str, folder: Path) -> tuple[int, dict[str, bytes]]:
    """Exit code and outputs (stdout, then each placeholder file written) of one line."""
    paths = {p: folder / p[1:] for p in PLACEHOLDERS}
    for path in paths.values():
        path.unlink(missing_ok=True)
    argv = [str(paths.get(token, token)) for token in shlex.split(line)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    outputs = {"stdout": stdout.getvalue().encode("utf-8")}
    outputs.update((p[1:], path.read_bytes()) for p, path in paths.items() if path.exists())
    return code, outputs


def digests(data: bytes) -> dict:
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "masked": hashlib.sha256(_NUMBER.sub(b"#", data)).hexdigest(),
    }


def record() -> dict:
    cases = []
    with tempfile.TemporaryDirectory() as tmp:
        for line in commands():
            code, outputs = run(line, Path(tmp))
            cases.append({"argv": line, "exit": code,
                          "outputs": {name: digests(data) for name, data in outputs.items()}})
    return {"environment": environment(), "cases": cases}


def differences(manifest: dict) -> list[str]:
    """Every way the deck run here differs from ``manifest``; empty when it reproduces it."""
    key = "sha256" if manifest["environment"] == environment() else "masked"
    now = record()
    if [c["argv"] for c in now["cases"]] != [c["argv"] for c in manifest["cases"]]:
        return ["the command lines of tests/deck.txt differ from the manifest's"]
    found = []
    for was, case in zip(manifest["cases"], now["cases"]):
        if case["exit"] != was["exit"]:
            found.append(f"{case['argv']}: exit {case['exit']}, recorded {was['exit']}")
        for name in sorted(set(was["outputs"]) | set(case["outputs"])):
            old, new = (c["outputs"].get(name, {}).get(key) for c in (was, case))
            if old != new:
                found.append(f"{case['argv']}: {name} {key} {new}, recorded {old}")
    return found


def load() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        MANIFEST.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    elif sys.argv[1:]:
        sys.exit("usage: python tests/deck.py [--write]")
    else:
        problems = differences(load())
        print("\n".join(problems) or "ok")
        sys.exit(1 if problems else 0)

"""A beta-sweep run in one process gives every command's bytes from a process of its own.

    python tests/beta_sweep.py   # prints ok, or each difference and exits 1

h and g do not depend on the phase, so ``maps.parts_many`` serves the later phases of a
sweep from its memo.  This script runs render, features (JSON and CSV) and dump at
n = 8 over five phases, each command line in a process of its own, then all of them in
this one process, forward and backward, and compares the SHA-256 of every output.
It needs the runtime dependencies alone (``rosette`` importable, numpy).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import subprocess
import sys
import tempfile
from pathlib import Path

from rosette.cli import main

ORDER = 8
PHASES = ("0", "0.3", "pi/2", "-1.2", repr(1.5 * math.pi + 0.3))
COMMANDS = (
    ["render", "--overlay", "features,axes"],
    ["features", "--format", "json"],
    ["features", "--format", "csv"],
    ["dump", "--what", "boundary", "--count", "2048"],
)


def command_lines() -> list[list[str]]:
    """Every command at every phase, without its --out."""
    return [[cmd[0], "--n", str(ORDER), "--beta", beta, *cmd[1:]]
            for beta in PHASES for cmd in COMMANDS]


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_in_process(argv: list[str], folder: Path) -> str:
    """The SHA-256 of the command's output, run through rosette.cli.main here."""
    out = Path(folder) / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return _digest(out)


def digest_in_own_process(argv: list[str], folder: Path) -> str:
    """The SHA-256 of the command's output, run by a fresh interpreter."""
    out = Path(folder) / "out"
    subprocess.run([sys.executable, "-W", "error", "-m", "rosette.cli", *argv, "--out", str(out)],
                   check=True)
    return _digest(out)


def differences(cold: dict, folder: Path) -> list[str]:
    """The command lines whose output, in a forward and then a backward sweep in this
    process, differs from ``cold`` (command line as a tuple -> digest)."""
    lines = command_lines()
    found = []
    for order, sweep in (("forward", lines), ("backward", lines[::-1])):
        for argv in sweep:
            if digest_in_process(argv, folder) != cold[tuple(argv)]:
                found.append(f"{order}: {' '.join(argv)}")
    return found


def run() -> int:
    with tempfile.TemporaryDirectory() as folder:
        cold = {tuple(argv): digest_in_own_process(argv, Path(folder))
                for argv in command_lines()}
        found = differences(cold, Path(folder))
    for line in found:
        print(f"differs from its own process: {line}")
    print("ok" if not found else f"{len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(run())

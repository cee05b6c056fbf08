"""The README's own examples run, and the README stays a guide of at most 400 lines.

Runs every `rosette ...` line of the first ```sh block under "## Command line"
through `rosette.cli.main`, and executes the first ```python block under
"## Library example", both in a fresh temporary directory with their output
captured; exits non-zero, naming each failure, if a line exits non-zero (a
usage error included), the example raises, either block is missing or
empty, or the README is longer than MAX_LINES.  Needs only the runtime dependencies:

    PYTHONPATH=src python tests/readme.py
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shlex
import sys
import tempfile
import traceback
from pathlib import Path

from rosette.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
MAX_LINES = 400


def block(text: str, heading: str, language: str) -> str:
    """The first ```language block of the section under ``## heading``, or ""."""
    section = re.search(rf"^## {re.escape(heading)}\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    found = section and re.search(rf"^```{language}\n(.*?)^```", section.group(1), re.M | re.S)
    return found.group(1) if found else ""


def commands(text: str) -> list[str]:
    """The `rosette ...` lines of the command-line block."""
    lines = (line.strip() for line in block(text, "Command line", "sh").splitlines())
    return [line for line in lines if line.startswith("rosette ")]


def _captured(call):
    """``call()``'s result, or the exception it raised, and its stderr; stdout is dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except (Exception, SystemExit) as exc:  # a usage error exits through SystemExit
            result = exc
    return result, err.getvalue()


def failures(text: str) -> list[str]:
    """Every way the examples of the README ``text`` fail; empty when they all run."""
    lines, example = commands(text), block(text, "Library example", "python")
    found = [] if lines else ["the Command line section has no `rosette ...` line"]
    if len(text.splitlines()) > MAX_LINES:
        found.append(f"the README has {len(text.splitlines())} lines, more than {MAX_LINES}")
    if not example.strip():
        found.append("the Library example section has no python block")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for line in lines:
                code, err = _captured(lambda: main(shlex.split(line)[1:]))
                if isinstance(code, SystemExit):
                    code = code.code
                if isinstance(code, BaseException) or code != 0:
                    why = err.strip().splitlines()[-1:] or [repr(code)]
                    found.append(f"{line}: exit {code!r}: {why[0]}")
            if example.strip():
                raised, _ = _captured(lambda: exec(compile(example, "README example", "exec"),
                                                   {"__name__": "__readme__"}))
                if isinstance(raised, BaseException):
                    found.append("the library example raised "
                                 + "".join(traceback.format_exception_only(raised)).strip())
        finally:
            os.chdir(here)
    return found


if __name__ == "__main__":
    problems = failures(README.read_text(encoding="utf-8"))
    print("\n".join(problems) or "ok")
    sys.exit(1 if problems else 0)

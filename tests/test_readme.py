"""The README's command lines and library example run (see tests/readme.py)."""

import readme


def test_the_readme_examples_run():
    assert readme.failures(readme.README.read_text(encoding="utf-8")) == []


def test_a_line_with_an_unknown_flag_or_an_example_that_raises_fails():
    text = readme.README.read_text(encoding="utf-8")
    line = readme.commands(text)[0]
    # the raise goes before the example's first line, so the README keeps its length
    broken = text.replace(line, line + " --no-such-flag", 1).replace(
        "```python\n", "```python\nraise ValueError('stale example'); ", 1)
    found = readme.failures(broken)
    assert len(found) == 2 and "--no-such-flag" in found[0], found
    assert "ValueError: stale example" in found[1], found


def test_a_missing_block_fails():
    assert len(readme.failures("# rosette\n\n## Command line\n\nnone\n")) == 2


def test_a_readme_longer_than_400_lines_fails():
    # the two missing blocks fail either way; the 401st line adds the length
    assert len(readme.failures("# rosette\n" + "\n" * 399)) == 2
    found = readme.failures("# rosette\n" + "\n" * 400)
    assert len(found) == 3 and "the README has 401 lines, more than 400" in found, found

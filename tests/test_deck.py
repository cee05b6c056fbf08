"""The CLI deck reproduces its committed manifest (see tests/deck.py)."""

import deck


def test_the_cli_deck_reproduces_its_manifest():
    assert deck.differences(deck.load()) == []

"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from rosette import maps, series


@pytest.fixture(autouse=True)
def cold_parts_memo():
    """Each test starts with an empty maps.parts_many memo: a test that counts the series
    passes of a set, or patches the evaluator, must not be served a pass of another test."""
    maps.clear_parts_memo()


def _spy_series_passes(monkeypatch, measure) -> list:
    """measure(specs, z) of every series pass, spied where series and maps look it up."""
    real, passes = series.eval_families_many, []

    def counted(specs, z):
        passes.append(measure(specs, z))
        return real(specs, z)

    monkeypatch.setattr(series, "eval_families_many", counted)
    monkeypatch.setattr(maps, "eval_families_many", counted)
    return passes


@pytest.fixture
def series_passes(monkeypatch):
    """The spec count of every series pass made while the fixture is active."""
    return _spy_series_passes(monkeypatch, lambda specs, z: len(specs))


@pytest.fixture
def series_points(monkeypatch):
    """The point count of every series pass made while the fixture is active."""
    return _spy_series_passes(monkeypatch, lambda specs, z: np.size(z))

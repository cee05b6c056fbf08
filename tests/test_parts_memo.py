"""The memo of maps.parts_many: one series pass per order and point set (see the maps
module docstring).  conftest.py empties it before each test."""

import logging
import math
import threading

import numpy as np
import pytest

import beta_sweep
import rosette.series as series
from rosette import DomainError, NoConvergence, RosetteParams
from rosette.maps import _PARTS_MEMO, clear_parts_memo, parts_many


def memo_points(n):
    """z with w = z^{2n} in the direct regime, on the circle (anchored), next to the
    singular parameters j pi/n, and exactly 1 (w = 1)."""
    rng = np.random.default_rng(n)
    t = rng.uniform(0, 2 * math.pi, 40)
    seams = np.arange(2 * n) * (math.pi / n)
    return np.concatenate([
        0.9 * np.sqrt(rng.uniform(0, 1, 40)) ** (1 / n) * np.exp(1j * t),  # |w| <= 0.9^{2n}
        np.exp(1j * t),
        np.exp(1j * (seams[:, None] + np.array([-1e-9, 0.0, 1e-13]))).ravel(),
        [1.0],
    ])


def as_bytes(parts):
    return [part.tobytes() for part in parts]


@pytest.mark.parametrize("n", [3, 6, 96])
def test_a_hit_is_the_cold_pass_bit_for_bit(n):
    params, z = RosetteParams(n, 0.3), memo_points(n)
    assert (np.abs(z**(2 * n)) <= series._direct_radius(64, 1e-12)).any()
    cold = parts_many(params, z)
    hit = parts_many(RosetteParams(n, -1.2), z)  # another phase, the same parts
    assert as_bytes(hit) == as_bytes(cold)
    clear_parts_memo()
    assert as_bytes(parts_many(params, z)) == as_bytes(cold)


def test_a_hit_makes_no_series_pass(series_points):
    z = memo_points(6)
    parts_many(RosetteParams(6, 0.3), z)
    parts_many(RosetteParams(6, math.pi / 2), z)
    parts_many(RosetteParams(6, 0.3), list(z))  # the same points from a list
    assert series_points == [z.size]


def test_a_hit_logs_the_memo_record_and_no_series_record(caplog):
    z = memo_points(5)
    parts_many(RosetteParams(5, 0.3), z)
    with caplog.at_level(logging.DEBUG, logger="rosette"):
        parts_many(RosetteParams(5, -0.3), z)
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        ("rosette.maps", f"parts memo n=5: {z.size} points served without a series pass")]


def test_mutating_the_returned_arrays_leaves_the_next_hit_unchanged():
    params, z = RosetteParams(7, 0.3), memo_points(7)
    cold = parts_many(params, z)
    expected = as_bytes(cold)
    for part in cold:
        part[:] = 0.0
    hit = parts_many(params, z)
    assert as_bytes(hit) == expected
    for part in hit:
        part *= 2.0
    assert as_bytes(parts_many(params, z)) == expected


def test_the_same_points_at_two_orders_do_not_collide():
    z = memo_points(4)
    at_4 = parts_many(RosetteParams(4, 0.3), z)
    at_5 = parts_many(RosetteParams(5, 0.3), z)
    assert as_bytes(at_4) != as_bytes(at_5)
    clear_parts_memo()
    assert as_bytes(parts_many(RosetteParams(5, 0.3), z)) == as_bytes(at_5)
    assert as_bytes(parts_many(RosetteParams(4, 0.3), z)) == as_bytes(at_4)


def test_the_same_bytes_in_another_shape_do_not_collide():
    z = memo_points(4)[:80]
    flat = parts_many(RosetteParams(4, 0.3), z)
    square = parts_many(RosetteParams(4, 0.3), z.reshape(8, 10))
    assert [part.shape for part in square] == [(8, 10), (8, 10)]
    assert as_bytes(square) == as_bytes(flat)


def test_a_call_that_raises_stores_nothing(monkeypatch, series_points):
    with pytest.raises(DomainError):
        parts_many(RosetteParams(6, 0.3), [0.5, math.nan])
    # 8 direct terms move the split below the lemma's reach at n = 96 (test_series)
    monkeypatch.setattr(series, "_DIRECT_TERMS", 8)
    with pytest.raises(NoConvergence):
        parts_many(RosetteParams(96, 0.3), [0.999])
    monkeypatch.setattr(series, "_DIRECT_TERMS", 64)
    assert _PARTS_MEMO.size == 0
    parts_many(RosetteParams(96, 0.3), [0.999])
    assert series_points == [1, 1]


def test_the_memo_stays_within_its_budget(series_points):
    params = RosetteParams(5, 0.3)
    for k in range(10**4):
        parts_many(params, [complex(k * 5e-5, 0.5)])
        assert _PARTS_MEMO.size <= _PARTS_MEMO.BUDGET
    # the last one-point sets are still held, the first ones evicted
    parts_many(params, [complex(9999 * 5e-5, 0.5)])
    parts_many(params, [0.5j])
    assert series_points == [1] * (10**4 + 1)
    before = _PARTS_MEMO.size
    # a set whose entry would count more than a quarter of the budget bypasses the memo
    big = np.full(_PARTS_MEMO.BUDGET // 64, 0.25 + 0.5j)
    parts_many(params, big)
    parts_many(params, big)
    assert series_points[-2:] == [big.size, big.size]
    assert _PARTS_MEMO.size == before <= _PARTS_MEMO.BUDGET


def test_two_threads_on_overlapping_sets_give_the_serial_results():
    rng = np.random.default_rng(5)
    sets = [np.exp(1j * rng.uniform(0, 2 * math.pi, 64)) * (0.7 + 0.3 * k / 9) for k in range(10)]
    params = RosetteParams(6, 0.3)
    serial = [as_bytes(parts_many(params, z)) for z in sets]
    clear_parts_memo()
    orders = {"a": list(range(0, 8)) * 3, "b": list(range(9, 1, -1)) * 3}
    found = {}

    def work(name):
        found[name] = [as_bytes(parts_many(params, sets[k])) for k in orders[name]]

    threads = [threading.Thread(target=work, args=(name,)) for name in orders]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for name, order in orders.items():
        assert found[name] == [serial[k] for k in order], name


def test_a_beta_sweep_in_one_process_gives_each_commands_cold_bytes(tmp_path):
    cold = {}
    for argv in beta_sweep.command_lines():
        clear_parts_memo()
        cold[tuple(argv)] = beta_sweep.digest_in_process(argv, tmp_path)
    clear_parts_memo()
    assert beta_sweep.differences(cold, tmp_path) == []

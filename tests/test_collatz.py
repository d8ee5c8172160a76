"""The two maps, stopping times, trajectory records and the acceleration
consistency check."""

import pytest

from collatzlab.arith import OverflowLimitError
from collatzlab.collatz import (
    CapExceededError,
    accel_T,
    collatz_C,
    consistency_CT,
    consistency_sweep,
    stopping_time,
    stopping_times_upto,
)


# === the maps ===

@pytest.mark.parametrize("x,expected", [(1, 4), (4, 2), (7, 22), (10, 5)])
def test_collatz_map(x, expected):
    assert collatz_C(x) == expected


@pytest.mark.parametrize("x,expected", [(1, 1), (3, 5), (6, 3), (27, 41)])
def test_accelerated_map(x, expected):
    assert accel_T(x) == expected


def test_maps_reject_nonpositive():
    with pytest.raises(ValueError):
        collatz_C(0)
    with pytest.raises(ValueError):
        accel_T(-3)


def test_map_overflow_guards():
    with pytest.raises(OverflowLimitError):
        collatz_C(2**126 + 1)
    with pytest.raises(OverflowLimitError):
        accel_T(2**127 - 1)


def test_two_collatz_steps_equal_one_accelerated_step_on_odds():
    for x in range(3, 100_001, 2):
        assert collatz_C(collatz_C(x)) == accel_T(x)


def test_accelerated_equals_plain_on_evens():
    for x in range(2, 100_001, 2):
        assert accel_T(x) == collatz_C(x)


# === stopping times ===

def test_stopping_time_of_one_under_C_is_three():
    rec = stopping_time("C", 1, 10, keep_path=True)
    assert rec.steps == 3
    assert rec.path == (1, 4, 2, 1)
    assert rec.peak == 4


def test_stopping_time_of_one_under_T_is_one():
    assert stopping_time("T", 1, 10).steps == 1


def test_stopping_time_seed_three():
    rec = stopping_time("T", 3, 100, keep_path=True)
    assert rec.steps == 5
    assert rec.path == (3, 5, 8, 4, 2, 1)
    rec_c = stopping_time("C", 3, 100, keep_path=True)
    assert rec_c.steps == 7
    assert rec_c.peak == 16


def test_cap_exhaustion_is_reported_not_raised():
    rec = stopping_time("C", 27, 10)
    assert rec.steps is None
    assert rec.cap_exceeded
    assert rec.peak >= 27


def test_path_is_a_genuine_trajectory():
    rec = stopping_time("C", 27, 1000, keep_path=True)
    assert rec.steps == 111  # classic value, fixed by the map itself
    for a, b in zip(rec.path, rec.path[1:]):
        assert b == collatz_C(a)
    assert rec.peak == max(rec.path) == 9232


def test_stopping_time_argument_validation():
    with pytest.raises(ValueError):
        stopping_time("X", 5)
    with pytest.raises(ValueError):
        stopping_time("C", 0)
    with pytest.raises(ValueError):
        stopping_time("C", 5, 0)


def test_tabled_stopping_times_match_the_per_seed_op():
    for map_name in ("C", "T"):
        table = stopping_times_upto(map_name, 2000)
        for seed in range(1, 2001):
            assert table[seed] == stopping_time(map_name, seed).steps, (
                map_name, seed)


def test_accelerated_stopping_never_exceeds_plain():
    tc = stopping_times_upto("C", 50_000)
    tt = stopping_times_upto("T", 50_000)
    for seed in range(1, 50_001):
        assert tc[seed] is not None and tt[seed] is not None
        assert tt[seed] <= tc[seed], seed


def test_tabled_stopping_times_respect_small_caps():
    table = stopping_times_upto("C", 30, cap=5)
    assert table[27] is None  # needs 111 steps
    assert table[8] == 3


# === acceleration consistency ===

@pytest.mark.parametrize("seed", [1, 3, 4, 6, 7, 27])
def test_consistency_examples(seed):
    assert consistency_CT(seed)


def test_consistency_cap_exceeded_raises():
    with pytest.raises(CapExceededError):
        consistency_CT(27, cap=10)


def test_consistency_sweep_agrees_with_per_seed_checks():
    assert consistency_sweep(3000) == []
    for seed in range(1, 501):
        assert consistency_CT(seed)

"""The Collatz map C, the accelerated map T, trajectories and stopping times.

C halves evens and sends odd x to 3x+1. T fuses the forced halving after an
odd step: T(x) = (3x+1)/2 for odd x >= 3, T(x) = x/2 for even x, and T fixes
1 (three C-steps close the 1 -> 4 -> 2 -> 1 loop). Reaching 1 under T implies
reaching 1 under C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .arith import check_width

DEFAULT_CAP = 10**5


@dataclass(frozen=True)
class TrajectoryRecord:
    """Orbit summary: steps to first hit 1 (None if the cap ran out), the
    peak value attained, and optionally the full path."""

    seed: int
    map_name: str
    steps: Optional[int]
    peak: int
    path: Optional[tuple[int, ...]] = None

    @property
    def cap_exceeded(self) -> bool:
        return self.steps is None


def collatz_C(x: int) -> int:
    """One Collatz step: x/2 if even, 3x+1 if odd."""
    if x < 1:
        raise ValueError(f"x must be a positive integer, got {x}")
    if x % 2 == 0:
        return x // 2
    return check_width(3 * x + 1, "Collatz step")


def accel_T(x: int) -> int:
    """One accelerated step: fixes 1, halves evens, (3x+1)/2 for odd x >= 3."""
    if x < 1:
        raise ValueError(f"x must be a positive integer, got {x}")
    if x == 1:
        return 1
    if x % 2 == 0:
        return x // 2
    return check_width((3 * x + 1) // 2, "accelerated step")


def _map_fn(map_name: str) -> Callable[[int], int]:
    if map_name == "C":
        return collatz_C
    if map_name == "T":
        return accel_T
    raise ValueError(f"map must be 'C' or 'T', got {map_name!r}")


def stopping_time(map_name: str, seed: int, cap: int = DEFAULT_CAP,
                  keep_path: bool = False) -> TrajectoryRecord:
    """Minimal n >= 1 with map^n(seed) = 1, searched up to cap applications.

    Cap exhaustion is a reported outcome (steps=None), not an error: the
    conjecture being open, "not yet reached" must stay distinguishable from
    a refutation. For seed 1 this gives 3 under C and 1 under T.
    """
    if seed < 1:
        raise ValueError(f"seed must be a positive integer, got {seed}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    step = _map_fn(map_name)
    path = [seed] if keep_path else None
    peak = seed
    value = seed
    for n in range(1, cap + 1):
        value = step(value)
        if path is not None:
            path.append(value)
        if value > peak:
            peak = value
        if value == 1:
            return TrajectoryRecord(seed, map_name, n, peak,
                                    tuple(path) if path is not None else None)
    return TrajectoryRecord(seed, map_name, None, peak,
                            tuple(path) if path is not None else None)


def _path_to_one(map_name: str, seed: int, cap: int) -> list[int]:
    rec = stopping_time(map_name, seed, cap, keep_path=True)
    if rec.steps is None:
        raise CapExceededError(map_name, seed, cap)
    assert rec.path is not None
    return list(rec.path)


class CapExceededError(RuntimeError):
    """A trajectory failed to reach 1 within the step cap."""

    def __init__(self, map_name: str, seed: int, cap: int) -> None:
        super().__init__(
            f"{map_name}-trajectory of {seed} did not reach 1 within {cap} steps")
        self.map_name = map_name
        self.seed = seed
        self.cap = cap


def consistency_CT(seed: int, cap: int = DEFAULT_CAP) -> bool:
    """True iff the T-trajectory of seed is the C-trajectory with the forced
    even value after each odd step skipped (and the terminal 1-4-2-1 loop
    collapsed), which validates T as an acceleration of C."""
    c_path = _path_to_one("C", seed, cap)
    t_path = _path_to_one("T", seed, cap)
    derived = [c_path[0]]
    i = 0
    last = len(c_path) - 1
    while i < last:
        v = c_path[i]
        if v == 1:
            i += 3  # 1 -> 4 -> 2 -> 1 collapses to one T-step
        elif v % 2 == 1:
            i += 2
        else:
            i += 1
        if i > last:
            return False
        derived.append(c_path[i])
    return derived == t_path


def stopping_times_upto(map_name: str, max_seed: int,
                        cap: int = DEFAULT_CAP) -> list[Optional[int]]:
    """Stopping times for every seed in [1, max_seed], or None where the cap
    ran out.

    Seeds are processed in increasing order so each orbit only needs to be
    walked until it drops below its seed; the remainder is already tabled.
    Intermediate values above max_seed are walked explicitly.
    """
    if max_seed < 1:
        raise ValueError(f"max_seed must be >= 1, got {max_seed}")
    step = _map_fn(map_name)
    table: list[Optional[int]] = [None] * (max_seed + 1)
    table[1] = 3 if map_name == "C" else 1
    for seed in range(2, max_seed + 1):
        n = 0
        value = seed
        while n < cap:
            value = step(value)
            n += 1
            if value == 1:
                table[seed] = n
                break
            if value < seed:
                below = table[value]
                if below is not None and n + below <= cap:
                    # value > 1 here, so its tabled count finishes the orbit
                    table[seed] = n + below
                break
    return table


def consistency_sweep(max_seed: int, cap: int = DEFAULT_CAP) -> list[int]:
    """Seeds in [1, max_seed] whose T-trajectory fails to be the skip
    subsequence of their C-trajectory (empty list = all consistent).

    Ascending seeds let each check stop at the first aligned value below the
    seed: from there both trajectories coincide with those of the smaller,
    already-verified seed.
    """
    failures: list[int] = []
    if max_seed >= 1 and not consistency_CT(1, cap):
        failures.append(1)
    for seed in range(2, max_seed + 1):
        cv = seed
        tv = seed
        consistent = True
        for _ in range(cap):
            if cv % 2 == 1:  # odd >= 3: one T-step is two C-steps
                cv = collatz_C(collatz_C(cv))
            else:
                cv = collatz_C(cv)
            tv = accel_T(tv)
            if cv != tv:
                consistent = False
                break
            if cv < seed:
                break  # alignment reduces to the smaller seed, already checked
        else:
            raise CapExceededError("T", seed, cap)
        if not consistent:
            failures.append(seed)
    return failures

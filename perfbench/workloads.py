"""Seeded request lists for the collatzlab benchmark.

Each workload is a fixed list of strata. A stratum is one request template
(subcommand, mode, size band, options) with POOL_SIZE concrete candidates
drawn from a fixed pool seed, so that the expected report of every candidate
can be recorded once (see record.py) and checked on every run.

A run is a sequence of rounds. Round r sends one candidate of every stratum,
in an order shuffled by the run seed; the run seed also fixes which
candidate of each stratum round r uses (a permutation, so no request repeats
within the first POOL_SIZE rounds). Because every round holds every stratum,
the mix of request sizes and kinds is the same for every seed, and the
spread between runs with different seeds is mostly the host's own.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

POOL_SIZE = 16
POOL_VERSION = 1

# Far ranges start here: the int64 proof of the vector engine fails beyond
# about 5.8e8, so `--engine auto` runs the scalar engine on them.
FAR_MIN = 10**9
NEAR_OFFSET_MAX = 10**8
DESK_SCALE_MAX = 10_000  # `--max` beyond this needs `--allow-large`

VERIFY_MODES = ("direct", "simplified", "cross", "bounds", "mbound")
# Single parity cases that each hold about a quarter of a square.
QUARTER_CASES = ("even-even", "even-odd", "odd-even", "odd-odd")
CASE_TABLES = (
    "even-even:1/2,odd-odd:1,*:0",
    "odd-odd:1/2,even-odd:1,odd-even:0,*:1/2",
    "1-1:0,even-even:1,*:1/2",
)

WORKLOADS = {
    "sweep-near": "verify in all five modes on squares of side 500-2700 that "
                  "the int64 proof accepts: the numpy vector kernel does the "
                  "work and sets peak memory",
    "sweep-far": "the same mode mix on squares of side 80-240 above 10^9, so "
                 "auto falls back to the scalar engine: per-pair Python in "
                 "weights, framework, collatz and arith",
    "conditions": "condition coverage over families 1-3 and conditions 1-5, "
                  "small search-lambda grids and decay seed windows: the "
                  "memoised check_condition path and orbit walking",
    "findings": "mbound sweeps with M=1 and 3/2 that find violations, with "
                "caps 100-10000, plus orbit runs cut short: violation "
                "capture, sorting and report rendering",
}


@dataclass(frozen=True)
class Request:
    """One collatzlab command line and what its verdict must be."""

    argv: tuple
    kind: str
    fmt: str
    expect_rc: int

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _sized(rng: random.Random, lo: int, hi: int, power: float,
           band: int = 0, bands: int = 1) -> int:
    """A size from the middle half of quantile band `band` of `bands` equal
    bands of [lo, hi]. The power skews sizes toward small ones, so a round
    holds many requests while its top band still nears the top of the range;
    keeping to the middle of each band keeps the size mix of a round, and so
    its run time, nearly the same for every seed."""
    q = (band + 0.25 + 0.5 * rng.random()) / bands
    return int(lo + (hi - lo) * q ** power)


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _square(lo: int, side: int) -> list:
    hi = lo + side - 1
    argv = ["--min", str(lo), "--max", str(hi)]
    if hi > DESK_SCALE_MAX:
        argv.append("--allow-large")
    return argv


def _fmt(rng: random.Random) -> str:
    return rng.choice(("json", "csv"))


def _verify(rng: random.Random, i: int, lo: int, side: int) -> Request:
    """Sweep stratum i: the mode cycles with i; strata with i % 4 == 1
    filter to one parity case and those with i % 4 == 3 run on two jobs."""
    mode = VERIFY_MODES[i % len(VERIFY_MODES)]
    fmt = _fmt(rng)
    argv = ["verify", "--mode", mode] + _square(lo, side)
    if mode == "mbound":
        argv += ["--M", "2"]
    if i % 4 == 1:
        argv += ["--case", rng.choice(QUARTER_CASES)]
    if i % 4 == 3:
        argv += ["--jobs", "2"]
    argv += ["--format", fmt]
    return Request(tuple(argv), "verify", fmt, 0)


def _sweep_near(i: int, rng: random.Random) -> Request:
    side = _sized(rng, 500, 3000, 8, i, 20)
    lo = 1 if rng.random() < 0.25 else _log_uniform(rng, 2, NEAR_OFFSET_MAX)
    return _verify(rng, i, lo, side)


def _sweep_far(i: int, rng: random.Random) -> Request:
    side = _sized(rng, 80, 250, 4, i, 20)
    return _verify(rng, i, _log_uniform(rng, FAR_MIN, 10**15), side)


def _lambda(rng: random.Random) -> str:
    return rng.choice(("0", "1", "1/2", rng.choice(CASE_TABLES)))


def _conditions(i: int, rng: random.Random) -> Request:
    fmt = _fmt(rng)
    if i < 15:
        # One stratum per (family, condition); family 3 condition 5 runs on a
        # far square, the rest on near ones.
        # Size bands form a Latin square over (family, condition).
        theorem, condition = i // 5 + 1, i % 5 + 1
        band = (i + i // 5) % 5
        if (theorem, condition) == (3, 5):
            lo = _log_uniform(rng, FAR_MIN, 10**15)
            side = _sized(rng, 40, 90, 2, band, 5)
        else:
            lo = 1 if rng.random() < 0.5 else _log_uniform(rng, 2, 10**6)
            side = _sized(rng, 40, 140, 3, band, 5)
        argv = ["conditions", "--lambda", _lambda(rng), "--A",
                rng.choice(("1/2", "1/3", "3/4")), "--theorem", str(theorem),
                "--condition", str(condition)] + _square(lo, side)
        if condition == 4 and rng.random() < 0.5:
            argv.append("--corrected-c4")
        if (theorem, condition) == (3, 5) or (theorem == 3 and rng.random() < 0.5):
            argv.append("--m-lambda")
        argv += ["--format", fmt]
        return Request(tuple(argv), "conditions", fmt, 0)
    if i < 18:
        # Small per-case lambda grids.
        q = 1 if i < 17 else 2
        side = _sized(rng, 20, 50, 1) if q == 1 else _sized(rng, 8, 12, 1)
        a_grid = rng.choice(("1/2", "1/4,1/2", "1/2,3/4")) if q == 1 else "1/2"
        theorem, condition = rng.choice(((3, 5), (1, 5), (2, 1), (1, 3)))
        argv = ["search-lambda", "--q", str(q), "--A", a_grid,
                "--theorem", str(theorem), "--condition", str(condition),
                "--max", str(side), "--format", fmt]
        return Request(tuple(argv), "search-lambda", fmt, 0)
    # Orbit-decay windows: ascending dedup near and far, and full orbits.
    if i == 18:
        lo, width, full = _log_uniform(rng, 1, 10**6), _sized(rng, 1000, 4000, 1), False
    elif i == 19:
        lo, width, full = _log_uniform(rng, FAR_MIN, 10**12), _sized(rng, 500, 1500, 1), False
    else:
        lo, width, full = _log_uniform(rng, 1, 10**5), _sized(rng, 150, 400, 1), True
    argv = ["decay", "--seed-min", str(lo), "--seed-max", str(lo + width - 1),
            "--A", "1/2", "--lambda", rng.choice(("0", "1/2"))]
    if full:
        argv.append("--full-orbits")
    argv += ["--format", "json"]
    return Request(tuple(argv), "decay", "json", 0)


def _findings(i: int, rng: random.Random) -> Request:
    fmt = _fmt(rng)
    if i < 12:
        m_cap = "1" if i % 2 == 0 else "3/2"
        if i < 8:
            lo = 1 if rng.random() < 0.5 else _log_uniform(rng, 2, NEAR_OFFSET_MAX)
            side = _sized(rng, 300, 1500, 3, i // 2, 4)
        else:
            lo = _log_uniform(rng, FAR_MIN, 10**15)
            side = _sized(rng, 60, 150, 2, (i - 8) // 2, 2)
        # Caps from 100 to 10000 in four log bands.
        cap = int(100 * 100 ** ((i % 4 + rng.random()) / 4))
        argv = ["verify", "--mode", "mbound", "--M", m_cap] + _square(lo, side)
        argv += ["--violations-cap", str(cap)]
        if i % 4 == 3:
            argv += ["--jobs", "2"]
        argv += ["--format", fmt]
        return Request(tuple(argv), "verify", fmt, 1)
    # Orbits cut short: every step at least halves, so a cap below log2(seed)
    # cannot reach 1.
    seed = _log_uniform(rng, 2**40, 2**62)
    cap = rng.randint(5, seed.bit_length() - 2)
    argv = ["orbit", "--seed", str(seed), "--cap", str(cap),
            "--map", rng.choice(("T", "C"))]
    if rng.random() < 0.5:
        argv.append("--path")
    argv += ["--format", fmt]
    return Request(tuple(argv), "orbit", fmt, 1)


_STRATA = {
    "sweep-near": (_sweep_near, 20),
    "sweep-far": (_sweep_far, 20),
    "conditions": (_conditions, 21),
    "findings": (_findings, 16),
}

# Rounds the traced run replays; fixed so that its counts repeat exactly.
TRACE_ROUNDS = {"sweep-near": 2, "sweep-far": 1, "conditions": 1, "findings": 2}


def pool(workload: str) -> list:
    """pool[s][c]: candidate c of stratum s; independent of the run seed."""
    make, strata = _STRATA[workload]
    out = []
    for s in range(strata):
        rng = random.Random(f"collatzlab-pool:{POOL_VERSION}:{workload}:{s}")
        out.append([make(s, rng) for _ in range(POOL_SIZE)])
    return out


class RoundPlan:
    """Round r of the run seeded `seed`: every stratum once, shuffled."""

    def __init__(self, workload: str, seed: int) -> None:
        self.pool = pool(workload)
        rng = random.Random(f"collatzlab-run:{workload}:{seed}")
        self._picks = [rng.sample(range(POOL_SIZE), POOL_SIZE) for _ in self.pool]
        self._seed = seed
        self._workload = workload

    def round(self, r: int) -> list:
        reqs = [cands[picks[r % POOL_SIZE]]
                for cands, picks in zip(self.pool, self._picks)]
        random.Random(f"collatzlab-order:{self._workload}:{self._seed}:{r}").shuffle(reqs)
        return reqs

"""Correctness checks for one collatzlab report.

The benchmark counts the items of each request itself (the parity-filtered
grid size of a range, or the orbit steps of a decay window) and compares
them with what the report states. The report's content is compared with a
digest recorded from the seed commit (expected/<workload>.json), taken over
every field except `elapsed_ms` and the `engine` label, so that a change of
engine routing is not a failure but any change of verdict or content is.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

_IGNORED_FIELDS = ("elapsed_ms", "engine")


def _axis_counts(lo: int, hi: int) -> dict:
    ones = 1 if lo == 1 else 0
    evens = hi // 2 - (lo - 1) // 2
    return {"1": ones, "even": evens, "odd": hi - lo + 1 - evens - ones}


def grid_pairs(lo: int, hi: int, cases) -> int:
    """Pairs of the square [lo, hi]^2 whose parity case is in `cases`
    (all pairs when `cases` is empty)."""
    counts = _axis_counts(lo, hi)
    if not cases:
        return (hi - lo + 1) ** 2
    total = 0
    for case in set(cases):
        cx, cy = case.split("-")
        total += counts[cx] * counts[cy]
    return total


def _accel(x: int) -> int:
    if x == 1:
        return 1
    return x // 2 if x % 2 == 0 else (3 * x + 1) // 2


def decay_steps(seed_min: int, seed_max: int, full: bool, cap: int = 10**5) -> int:
    """Orbit steps a decay sweep visits: each walk records steps until the
    fixed point, the cap, or (unless `full`) the first value below its seed."""
    steps = 0
    for seed in range(seed_min, seed_max + 1):
        prev, cur = seed, _accel(seed)
        n = 0
        while n < cap and cur != prev:
            nxt = _accel(cur)
            n += 1
            if not full and cur < seed:
                break
            prev, cur = cur, nxt
        steps += n
    return steps


def _options(argv, name) -> list:
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a == name]


def _option(argv, name, default=None):
    values = _options(argv, name)
    return values[-1] if values else default


def expected_items(argv) -> int:
    """Items the request must report, computed from its arguments alone:
    pairs for sweeps, coverage maps and lambda searches, orbit steps for
    decay, and one per single-seed orbit."""
    cmd = argv[0]
    if cmd == "orbit":
        return 1
    if cmd == "decay":
        return decay_steps(int(_option(argv, "--seed-min", "1")),
                           int(_option(argv, "--seed-max")),
                           "--full-orbits" in argv)
    lo = int(_option(argv, "--min", "1"))
    hi = int(_option(argv, "--max"))
    return grid_pairs(lo, hi, _options(argv, "--case"))


def digest(text: str, fmt: str) -> str:
    if fmt == "json":
        doc = json.loads(text)
        for name in _IGNORED_FIELDS:
            doc.pop(name, None)
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reported_items(cmd: str, text: str, fmt: str):
    """(items, violations_total) as the report states them; the total is
    None where the format does not carry it."""
    if fmt == "json":
        doc = json.loads(text)
        if cmd == "search-lambda":
            return doc["total"], None
        if cmd == "orbit":
            return 1, None
        return doc["pairs_checked"], doc.get("violations_total")
    rows = list(csv.DictReader(io.StringIO(text)))
    if cmd == "verify":
        return sum(int(r["pairs"]) for r in rows if r["record"] == "tally"), None
    if cmd == "conditions":
        return sum(int(r["pairs"]) for r in rows if r["record"] == "cell"), None
    if cmd == "search-lambda":
        return sum(int(r["total"]) for r in rows), None
    if cmd == "orbit":
        return len(rows), None
    raise ValueError(f"no CSV reading for {cmd!r}")


def check_report(req, rc: int, text: str, items: int, expected: dict) -> list:
    """Problems found with one report (empty when it is correct)."""
    problems = []
    if rc != req.expect_rc:
        problems.append(f"exit code {rc}, expected {req.expect_rc}")
    if expected is None:
        return problems + ["no recorded expectation for this request"]
    got_items, got_total = reported_items(req.kind, text, req.fmt)
    if got_items != items:
        problems.append(f"items {got_items}, counted {items}")
    if got_total is not None and got_total != expected["violations_total"]:
        problems.append(f"violations_total {got_total}, recorded "
                        f"{expected['violations_total']}")
    if digest(text, req.fmt) != expected["digest"]:
        problems.append("report content differs from the recorded digest")
    return problems

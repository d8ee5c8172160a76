"""Record the expected report of every pooled request of a workload.

    python3 perfbench/record.py [workload ...]

Runs each candidate request of the workload's pool once, checks its exit
code and its item count against the benchmark's own count, and writes
expected/<workload>.json: exit code, items, violations_total and the digest
of the report (see checks.digest). The recorded files come from the seed
commit; re-record only when a change to the program's report content is
intended.
"""

from __future__ import annotations

import json
import sys

import checks
import workloads
from run import EXPECTED_DIR, import_program, send


def record(main, workload: str) -> dict:
    table = {}
    for stratum in workloads.pool(workload):
        for req in stratum:
            rc, text, _ = send(main, req.argv)
            if rc != req.expect_rc:
                raise SystemExit(f"{req.key}: exit {rc}, expected {req.expect_rc}")
            items, total = checks.reported_items(req.kind, text, req.fmt)
            counted = checks.expected_items(req.argv)
            if items != counted:
                raise SystemExit(f"{req.key}: reports {items} items, counted {counted}")
            table[req.key] = {"rc": rc, "items": items, "violations_total": total,
                              "digest": checks.digest(text, req.fmt)}
    return table


def main() -> int:
    program = import_program()
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    for workload in names:
        table = record(program, workload)
        path = EXPECTED_DIR / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n",
                        encoding="utf-8")
        print(f"{workload}: {len(table)} requests -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

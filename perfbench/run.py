"""collatzlab benchmark: seeded request workloads sent through the public CLI.

    python3 perfbench/run.py --workload sweep-near --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --seed 1          # every workload, one process each

Run from the root of a source checkout; the package is imported from
`src/`. Each workload is a closed loop with one client: requests go through
`collatzlab.cli.main(argv)` in this process, and the next one is sent only
after the previous report is written and checked. Requests run in rounds
(see workloads.py) until `--seconds` have passed; the round in progress is
finished.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(see tracing.py and run_traced). The last line of output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
TRACE_DIR = ROOT / ".perfbench-traces"

SETUP_RUNS = 9
MIN_REQUESTS = 120
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); "
              "from collatzlab.cli import main; "
              "sys.exit(main(['verify', '--max', '2', '--format', 'json']))")

# One small request of each kind, run before timing so that lazy imports
# (multiprocessing, csv writers) are done.
WARMUP = (
    ("verify", "--max", "40", "--format", "json"),
    ("verify", "--max", "40", "--mode", "cross", "--jobs", "2", "--format", "csv"),
    ("conditions", "--A", "1/2", "--max", "12", "--format", "csv"),
    ("search-lambda", "--A", "1/2", "--max", "6", "--format", "json"),
    ("decay", "--seed-max", "50", "--A", "1/2", "--format", "json"),
    ("orbit", "--seed", "27", "--format", "csv"),
)


def import_program():
    """collatzlab.cli.main from this checkout's src/, or exit 2 without a
    result when the checkout holds no program."""
    if not (SRC / "collatzlab" / "cli.py").is_file():
        print(f"error: no collatzlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import collatzlab.cli

    if Path(collatzlab.cli.__file__).resolve().parent.parent != SRC:
        print(f"error: imported collatzlab from {collatzlab.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return collatzlab.cli.main


def send(main, argv) -> tuple:
    """(exit code, stdout text, seconds) of one in-process request; the exit
    code is None when the request raised."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as e:  # argparse rejects bad arguments this way
        rc = e.code
    except Exception:
        traceback.print_exc()
        rc = None
    return rc, out.getvalue(), time.perf_counter() - t0


def load_expected(workload: str) -> dict:
    path = EXPECTED_DIR / f"{workload}.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"error: missing {path}; run perfbench/record.py", file=sys.stderr)
        sys.exit(2)


def measure_setup() -> float:
    """Median seconds from a fresh interpreter to the first trivial request
    done, after one unmeasured start that fills the bytecode cache."""
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr.decode(errors="replace"), file=sys.stderr)
            sys.exit(2)
        if i:
            times.append(dt)
    return statistics.median(times)


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by the Beta(p(n+1), (1-p)(n+1)) mass of their rank interval.
    Unlike a single order statistic it moves smoothly when host noise
    reorders the samples near the quantile, which matters where two request
    sizes meet there."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(u: float) -> float:
        if u <= 0.0 or u >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))

    steps = 8  # Simpson's rule on each rank interval [i/n, (i+1)/n]
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        u0 = i / n
        inner = sum((4 if j % 2 else 2) * density(u0 + j * h) for j in range(1, steps))
        weights.append((density(u0) + inner + density(u0 + steps * h)) * h / 3)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, xs)) / total


class Client:
    """Closed loop with one client: sends a request, waits for the report,
    checks it, and only then sends the next."""

    def __init__(self, main, workload: str) -> None:
        self.main = main
        self.expected = load_expected(workload)
        self._items = {}
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0

    def items(self, req) -> int:
        n = self._items.get(req.key)
        if n is None:
            n = self._items[req.key] = checks.expected_items(req.argv)
        return n

    def send(self, req) -> tuple:
        """(seconds, items) of one request; items are 0 when it failed."""
        rc, text, dt = send(self.main, req.argv)
        self.attempted += 1
        self.output_bytes += len(text.encode("utf-8"))
        items = self.items(req)
        try:
            problems = (["raised an exception"] if rc is None else
                        checks.check_report(req, rc, text, items,
                                            self.expected.get(req.key)))
        except Exception as e:  # a malformed report is a failed request
            problems = [f"unreadable report: {e!r}"]
        if problems:
            self.failed += 1
            print(f"FAILED {req.key}: {'; '.join(problems)}", file=sys.stderr)
            return dt, 0
        return dt, items

    def warm_up(self) -> None:
        for argv in WARMUP:
            rc, _, _ = send(self.main, argv)
            if rc not in (0, 1):
                print(f"error: warm-up request {' '.join(argv)} exited {rc}",
                      file=sys.stderr)
                sys.exit(2)

    def run_rounds(self, plan, rounds) -> list:
        """[(seconds, items)] of every request of the given rounds."""
        return [self.send(req) for r in rounds for req in plan.round(r)]


def run_untraced(main, workload: str, seed: int, seconds: float) -> tuple:
    setup_s = measure_setup()
    client = Client(main, workload)
    client.warm_up()
    plan = workloads.RoundPlan(workload, seed)
    samples = []
    started = time.perf_counter()
    r = 0
    while True:
        samples += client.run_rounds(plan, [r])
        r += 1
        elapsed = time.perf_counter() - started
        # On a slow host, run on (up to 30% longer) until the 90th
        # percentile has at least 10 samples beyond it.
        if elapsed >= seconds and (len(samples) >= MIN_REQUESTS
                                   or elapsed >= 1.3 * seconds):
            break
    latencies = [t for t, _ in samples]
    items = sum(n for _, n in samples)
    p90 = harrell_davis(latencies, 0.9)
    metrics = {
        "items_per_s": items / sum(latencies),
        "latency_p50_s": harrell_davis(latencies, 0.5),
        "latency_p90_s": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    notes = {
        "items_per_s": f"{items} items in {r} rounds",
        "latency_p50_s": f"{len(latencies)} requests",
        "latency_p90_s": f"{len(latencies)} requests, "
                         f"{sum(t > p90 for t in latencies)} beyond",
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
    }
    notes["error_rate"] = f"{client.failed} of {client.attempted} requests"
    report(workload, dict(metrics, error_rate=client.failed / client.attempted),
           notes)
    return client, metrics


def run_traced(main, workload: str, seed: int) -> tuple:
    """The first rounds of the seed, untraced, traced, traced and untraced
    again (so that drift in host speed cancels from the overhead); the
    metrics come from the first traced pass."""
    import tracing

    client = Client(main, workload)
    client.warm_up()
    plan = workloads.RoundPlan(workload, seed)
    rounds = range(workloads.TRACE_ROUNDS[workload])

    def timed_pass() -> float:
        return sum(t for t, _ in client.run_rounds(plan, rounds))

    def traced_pass() -> tuple:
        tracer = tracing.Tracer()
        tracer.install()
        client.main = tracer.request(main)
        bytes_before = client.output_bytes
        try:
            seconds = timed_pass()
        finally:
            tracer.uninstall()
            client.main = main
        metrics = tracer.metrics()
        metrics["cli.output_bytes"] = client.output_bytes - bytes_before
        return seconds, metrics, tracer

    untraced_s = timed_pass()
    traced_s, metrics, tracer = traced_pass()
    traced_again_s, again, _ = traced_pass()
    untraced_s += timed_pass()
    counts_differ = [k for k in metrics if not k.endswith("_s") and metrics[k] != again[k]]
    if counts_differ:
        print(f"warning: counts differ between identical traced passes: "
              f"{', '.join(counts_differ)}", file=sys.stderr)
    metrics["trace.overhead_s"] = (traced_s + traced_again_s - untraced_s) / 2
    trace_file = TRACE_DIR / f"{workload}-seed{seed}.json"
    tracer.dump(trace_file)
    report(workload, metrics, {"trace.overhead_s": f"spans in {trace_file}"})
    return client, metrics


def _units() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units["error_rate"] = "fraction"
    return units


def report(workload: str, metrics: dict, notes: dict) -> None:
    """Print every metric by name with its value and unit."""
    units = _units()
    for name, value in metrics.items():
        print(f"{workload:<11} {name:<36} {value:14.6g} {units[name]:<10} "
              f"{notes.get(name, '')}".rstrip())


def run_all(args) -> int:
    """Every workload in a fresh process of its own, so that one workload's
    memory peak and set-up cannot leak into another's."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        import_program()  # fail fast, before starting any workload
        return run_all(args)
    program = import_program()
    if args.trace:
        client, metrics = run_traced(program, args.workload, args.seed)
    else:
        client, metrics = run_untraced(program, args.workload, args.seed,
                                       args.seconds)
    units = _units()
    print(json.dumps({"correct": client.failed == 0,
                      "attempted": client.attempted,
                      "failed": client.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

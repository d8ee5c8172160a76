"""Per-layer tracing of collatzlab from outside the package.

Layers are the package modules: cli, verifier, framework, weights, collatz
and arith. The tracer replaces, for the duration of a traced run, the
module attributes through which one module calls into another (for
example `collatzlab.verifier.weight_vector`, which the scalar sweep looks up
at every pair) with wrappers that count the call and time it. No source of
the package changes; `uninstall()` puts every original back.

Spans: the benchmark opens one span per request (the `cli.main` call) and
every call from `cli` into another layer opens a span whose parent is the
request span. Calls below that, which run up to millions of times per
request, are kept as aggregate spans per (parent span, callee): count and
total time. Everything stays in memory until `dump()`.

Self time of a layer is the time inside its spans minus the time of the
child spans they contain, which belong to other layers.

Calls made inside `--jobs 2` pool workers run in other processes and are not
seen; the items of such requests are reported as uncounted.
"""

from __future__ import annotations

import json
import time
from collections import Counter

LAYERS = ("cli", "verifier", "framework", "weights", "collatz", "arith")

# (caller module, attribute looked up there, callee layer); calls are counted
# as "<callee layer>.<attribute>".
CROSS_CALLS = (
    ("cli", "verify_pseudocontraction", "verifier"),
    ("cli", "verify_simplified", "verifier"),
    ("cli", "cross_check_simplified", "verifier"),
    ("cli", "m_bound_sweep", "verifier"),
    ("cli", "condition_coverage", "verifier"),
    ("cli", "search_lambda", "verifier"),
    ("cli", "orbit_decay_sweep", "verifier"),
    ("cli", "stopping_time", "collatz"),
    ("cli", "case_lambda", "weights"),
    ("cli", "parse_rational", "arith"),
    ("cli", "format_rational", "arith"),
    ("verifier", "classify", "weights"),
    ("verifier", "weight_vector", "weights"),
    ("verifier", "simplified_lhs", "weights"),
    ("verifier", "tally_key", "weights"),
    ("verifier", "bound_for_key", "weights"),
    ("verifier", "lhs", "framework"),
    ("verifier", "check_condition", "framework"),
    ("verifier", "accel_T", "collatz"),
    ("verifier", "format_rational", "arith"),
    ("framework", "check_width", "arith"),
    ("collatz", "check_width", "arith"),
)


class Tracer:
    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = Counter()
        self.spans = []        # [id, parent, request, name, start, end]
        self.aggregates = {}   # (parent span, name) -> [count, total_s]
        self.engine_items = Counter()
        self.violations_total = 0
        self.violations_recorded = 0
        self.uncounted_items = 0
        self._child_time = [0.0]
        self._span = [0]       # innermost recorded span id
        self._request = 0
        self._restore = []

    # --- wrappers -----------------------------------------------------------

    def _timed(self, fn, layer, name, record_span):
        child_time = self._child_time
        self_s = self.self_s
        calls = self.calls
        current = self._span
        aggregates = self.aggregates
        clock = time.perf_counter

        if not record_span:
            def traced(*args, **kwargs):
                child_time.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    self_s[layer] += dt - child_time.pop()
                    child_time[-1] += dt
                    calls[name] += 1
                    agg = aggregates.get((current[-1], name))
                    if agg is None:
                        aggregates[(current[-1], name)] = [1, dt]
                    else:
                        agg[0] += 1
                        agg[1] += dt
            return traced

        def traced_span(*args, **kwargs):
            span = [len(self.spans) + 1, current[-1], self._request, name, 0.0, 0.0]
            self.spans.append(span)
            current.append(span[0])
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                self_s[layer] += dt - child_time.pop()
                child_time[-1] += dt
                current.pop()
                calls[name] += 1
                span[4], span[5] = t0, t1
            self._note_result(result, kwargs)
            return result
        return traced_span

    def _note_result(self, report, kwargs) -> None:
        items = getattr(report, "pairs_checked", None)
        if items is None:
            items = getattr(report, "total", None)
        if items is None:
            return
        engine = getattr(report, "engine", "scalar")
        self.engine_items[engine] += items
        if kwargs.get("jobs", 1) > 1:
            self.uncounted_items += items
        if hasattr(report, "violations_total"):
            self.violations_total += report.violations_total
            self.violations_recorded += len(report.violations)

    def request(self, main):
        """Wrap the benchmark's call of `cli.main` as one request span."""
        wrapped = self._timed(main, "cli", "cli.main", True)

        def run(argv):
            self._request += 1
            return wrapped(argv)
        return run

    # --- install / uninstall -----------------------------------------------

    def install(self) -> None:
        import importlib

        import collatzlab.framework as framework
        import collatzlab.verifier as verifier

        for caller, attr, layer in CROSS_CALLS:
            mod = importlib.import_module(f"collatzlab.{caller}")
            original = getattr(mod, attr)
            self._restore.append((mod, attr, original))
            setattr(mod, attr, self._timed(original, layer, f"{layer}.{attr}",
                                           record_span=caller == "cli"))
        # orbit_decay_sweep binds its weight function as a keyword default.
        defaults = verifier.orbit_decay_sweep.__kwdefaults__
        self._restore.append((defaults, "W", defaults["W"]))
        defaults["W"] = self._timed(defaults["W"], "weights",
                                    "weights.weight_vector", False)
        # Lambda evaluations: verifier and framework call the spec object.
        call = framework.LambdaSpec.__call__
        self._restore.append((framework.LambdaSpec, "__call__", call))
        framework.LambdaSpec.__call__ = self._timed(call, "framework",
                                                    "framework.lambda", False)

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)

    # --- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counts and self times (seconds) of everything traced."""
        c = self.calls
        items = sum(self.engine_items.values())
        weights_calls = sum(n for k, n in c.items() if k.startswith("weights."))

        def per_item(n):
            return n / items if items else 0.0

        return {
            "cli.self_s": self.self_s["cli"],
            "verifier.self_s": self.self_s["verifier"],
            "verifier.items": items,
            "verifier.vector_share": per_item(self.engine_items["vector"]),
            "verifier.violations_total": self.violations_total,
            "verifier.violations_recorded": self.violations_recorded,
            "framework.self_s": self.self_s["framework"],
            "framework.lhs.calls": c["framework.lhs"],
            "framework.check_condition.calls": c["framework.check_condition"],
            "framework.check_condition_per_item": per_item(c["framework.check_condition"]),
            "framework.lambda.calls": c["framework.lambda"],
            "weights.self_s": self.self_s["weights"],
            "weights.weight_vector.calls": c["weights.weight_vector"],
            "weights.classify.calls": c["weights.classify"],
            "weights.simplified_lhs.calls": c["weights.simplified_lhs"],
            "weights.calls_per_item": per_item(weights_calls),
            "collatz.self_s": self.self_s["collatz"],
            "collatz.accel_T.calls": c["collatz.accel_T"],
            "collatz.stopping_time.calls": c["collatz.stopping_time"],
            "arith.self_s": self.self_s["arith"],
            "arith.check_width.calls": c["arith.check_width"],
            "trace.uncounted_items": self.uncounted_items,
        }

    def dump(self, path) -> None:
        doc = {
            "layers": list(LAYERS),
            "self_s": self.self_s,
            "calls": dict(sorted(self.calls.items())),
            "spans": [dict(zip(("id", "parent", "request", "name", "start", "end"), s))
                      for s in self.spans],
            "aggregate_spans": [
                {"parent": parent, "name": name, "count": n, "total_s": t}
                for (parent, name), (n, t) in sorted(self.aggregates.items())],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

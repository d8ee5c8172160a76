"""Sweeps: pair sweeps (against the per-pair reference), report merging,
lemma sweeps, condition coverage, the lambda grid search and orbit decay."""

import json
import os
import pickle
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from collatzlab import cells, cli, coverage, maxima, regions, verifier, weights
from collatzlab.arith import OverflowLimitError, format_rational
from collatzlab.collatz import accel_T
from collatzlab.framework import (
    ConditionId,
    ConditionParams,
    LambdaSpec,
    WeightVector,
    check_condition,
    lemma1_gap,
    lhs,
)
from collatzlab.reports import (
    CHECK_BOUNDS,
    CHECK_CROSS,
    CHECK_LHS,
    CHECK_MBOUND,
    CHECK_SIMPLIFIED,
    QUANTITY_LABELS,
    _tally,
)
from collatzlab.verifier import (
    CaseTally,
    RangeSpec,
    VerificationReport,
    Violation,
    condition_coverage,
    cross_check_simplified,
    m_bound_sweep,
    merge_reports,
    orbit_decay_sweep,
    search_lambda,
    verify_lemmas,
    verify_pseudocontraction,
    verify_simplified,
)
from collatzlab.weights import (
    CASE_ORDER,
    CELL_CASES,
    DIAGONAL,
    TALLY_KEYS,
    ParityCase,
    cell_weights,
    classify,
    locate,
    weight_vector,
)

LAM0 = LambdaSpec.const(0)
LAM1 = LambdaSpec.const(1)
KIND35 = ConditionId(3, 5)
REMARK = ConditionParams(LAM0, Fraction(1, 2), Fraction(2), Fraction(2))


def tally_view(report):
    return {k: (t.pairs, t.max_lhs, t.bound) for k, t in report.per_case.items()}


def same_report(a, b):
    return replace(a, elapsed_ms=0) == replace(b, elapsed_ms=0)


def sweep_scalar(rng, checks, m_cap, found):
    """The per-pair pair sweep, in pure Python: the reference the interval
    engine must match, with verifier._sweep_vector's signature. Each pair
    is located once; its six-term form is evaluated independently, by
    framework.lhs."""
    do_lhs = CHECK_LHS in checks or CHECK_BOUNDS in checks or CHECK_CROSS in checks
    do_simp = CHECK_SIMPLIFIED in checks or CHECK_CROSS in checks
    m_num, m_den = m_cap.numerator, m_cap.denominator
    per_case = {}
    pairs = 0
    for x in range(rng.x_min, rng.x_max + 1):
        for y in range(rng.y_min, rng.y_max + 1):
            cell, k, l = locate(x, y)
            if not rng.admits(CELL_CASES[cell]):
                continue
            pairs += 1
            tal = _tally(per_case, cell)
            tal.pairs += 1
            direct = lhs(weight_vector, accel_T, x, y) if do_lhs else None
            simp = weights.CELL_FORMS[cell](k, l) if do_simp else None
            value = direct if direct is not None else simp
            if value is not None:
                tal.absorb_value(value)
            flags = {}
            if CHECK_LHS in checks and direct > 0:
                flags[CHECK_LHS] = direct
            if CHECK_BOUNDS in checks and direct > tal.bound:
                flags[CHECK_BOUNDS] = direct
            if CHECK_SIMPLIFIED in checks and simp > 0:
                flags[CHECK_SIMPLIFIED] = simp
            if CHECK_CROSS in checks and direct != simp:
                flags[CHECK_CROSS] = simp - direct
            if CHECK_MBOUND in checks:
                worst = max(map(abs, cell_weights(cell, k, l)))
                if worst * m_den > m_num:
                    flags[CHECK_MBOUND] = worst
            for check in sorted(flags, key=QUANTITY_LABELS.get):
                found.add(x, y, TALLY_KEYS[cell], QUANTITY_LABELS[check],
                          flags[check])
    return pairs, per_case


def oracle(fn, *args, **kwargs):
    """fn(*args, **kwargs) with the per-pair reference, sweep_scalar, in
    place of the interval engine; its reports still say "vector"."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verifier, "_sweep_vector", sweep_scalar)
        return fn(*args, **kwargs)


# === pair sweeps ===

def test_verify_clean_hundred_square():
    report = verify_pseudocontraction(RangeSpec.square(100))
    assert report.pairs_checked == 10_000
    assert report.violations_total == 0 and report.ok


def test_verify_single_pair_attains_zero():
    report = verify_pseudocontraction(RangeSpec(1, 1, 1, 1))
    assert report.pairs_checked == 1
    assert report.per_case["1-1"].max_lhs == 0


def test_verify_even_even_filter():
    rng = RangeSpec(2, 200, 2, 200, frozenset({ParityCase.EVEN_EVEN}))
    report = verify_pseudocontraction(rng)
    assert report.pairs_checked == 100 * 100
    assert set(report.per_case) == {"even-even"}
    assert report.per_case["even-even"].max_lhs == -1


def test_simplified_sweep_clean():
    report = verify_simplified(RangeSpec.square(150))
    assert report.violations_total == 0


def test_cross_check_clean_and_counts():
    report = cross_check_simplified(RangeSpec.square(500))
    assert report.pairs_checked == 250_000
    assert report.violations_total == 0


SWEEPS = {
    "direct": lambda rng, **kw: verify_pseudocontraction(rng, bounds=False, **kw),
    "bounds": verify_pseudocontraction,
    "simplified": verify_simplified,
    "cross": cross_check_simplified,
    "mbound": lambda rng, **kw: m_bound_sweep(rng, Fraction(1), **kw),
}

PARITY_RANGES = {
    "square": RangeSpec.square(120),
    # only band and diagonal odd-odd cells this far out, and no coordinate 1
    "offset": RangeSpec(999_960, 1_000_040, 999_960, 1_000_040),
    "cases": RangeSpec(1, 90, 1, 90, frozenset(
        {ParityCase.ONE_ODD, ParityCase.EVEN_EVEN, ParityCase.ODD_ODD})),
    # x in {1, even} by y odd: only those row and column classes run
    "axes": RangeSpec(1, 90, 1, 90, frozenset(
        {ParityCase.ONE_ODD, ParityCase.EVEN_ODD})),
    "far": RangeSpec.square(10**15 + 60, lo=10**15),
    "edge": RangeSpec.square(6 * 10**8 + 60, lo=6 * 10**8),
    # far, with a case set that is no product of row and column classes
    "far-mask": RangeSpec.square(10**12 + 70, lo=10**12, cases={
        ParityCase.EVEN_ODD, ParityCase.ODD_EVEN, ParityCase.ODD_ODD}),
    "top": RangeSpec.square(2**58 - 1, lo=2**58 - 40),
    # rows far from the columns: every odd-odd pair is high-deep
    "apart": RangeSpec(10**9, 10**9 + 40, 10**15, 10**15 + 40),
    # beyond the arith width bound: the direct form is width-checked
    "wide": RangeSpec.square(2**62 + 40, lo=2**62),
    # k from 18 to 80 against l up to 199: odd-odd rows cross both gates,
    # so all five odd-odd cells and the band edges occur
    "gates": RangeSpec(37, 161, 1, 400),
    # one column, odd
    "column": RangeSpec(1, 300, 77, 77),
    # odd y_min and even y_max: the first and last column classes differ
    "odd-even": RangeSpec(20, 110, 33, 150),
}


@pytest.mark.parametrize("where", PARITY_RANGES)
@pytest.mark.parametrize("mode", SWEEPS)
def test_scalar_and_vector_engines_agree(mode, where):
    rng = PARITY_RANGES[where]
    scalar = oracle(SWEEPS[mode], rng)
    vector = SWEEPS[mode](rng)
    assert vector.engine == "vector"
    assert same_report(vector, scalar)
    assert (scalar.violations_total > 0) == (mode == "mbound")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(x0=st.sampled_from([1, 2, 3, 50, 10**6, 10**12]),
       y0=st.sampled_from([1, 2, 3, 50, 10**6, 10**12]),
       dx=st.integers(0, 30), dy=st.integers(0, 30),
       x_shift=st.integers(0, 40), y_shift=st.integers(0, 40),
       cases=st.none() | st.frozensets(st.sampled_from(CASE_ORDER), min_size=1),
       mode=st.sampled_from(sorted(SWEEPS)), cap=st.integers(0, 60))
def test_engines_agree_on_random_rectangles(x0, y0, dx, dy, x_shift, y_shift,
                                            cases, mode, cap):
    lo_x, lo_y = x0 + x_shift, y0 + y_shift
    rng = RangeSpec(lo_x, lo_x + dx, lo_y, lo_y + dy, cases)
    scalar = oracle(SWEEPS[mode], rng, max_violations=cap)
    interval = SWEEPS[mode](rng, max_violations=cap)
    assert same_report(interval, scalar)


@pytest.mark.parametrize("engine", ["auto", "scalar"])
def test_six_term_overflow_raises_on_both_engines(engine):
    # auto is the sweep as shipped, scalar the per-pair reference
    rng = RangeSpec.square(2**126 + 3, lo=2**126)
    with pytest.raises(OverflowLimitError):
        if engine == "auto":
            verify_pseudocontraction(rng)
        else:
            oracle(verify_pseudocontraction, rng)


def test_engines_agree_on_violations_too():
    # an M cap of 1 is genuinely violated wherever |w| = 2
    rng = RangeSpec.square(40)
    scalar = oracle(m_bound_sweep, rng, Fraction(1))
    vector = m_bound_sweep(rng, Fraction(1))
    assert scalar.violations_total == vector.violations_total > 0
    assert scalar.violations == vector.violations
    first = scalar.violations[0]
    assert (first.x, first.y) == (1, 3)  # zeta(1, 3) = 2 > 1, row-major first
    assert first.value == 2


def test_m_bound_with_a_denominator_beyond_int64():
    rng = RangeSpec.square(12)
    tiny = Fraction(1, 10**20)
    scalar = oracle(m_bound_sweep, rng, tiny)
    vector = m_bound_sweep(rng, tiny)
    assert scalar.violations_total == vector.violations_total == 144
    assert scalar.violations == vector.violations


def test_m_bound_two_is_clean():
    assert m_bound_sweep(RangeSpec.square(300)).violations_total == 0


def test_violation_cap_keeps_total_exact():
    report = m_bound_sweep(RangeSpec.square(60), Fraction(1), max_violations=5)
    assert len(report.violations) == 5
    assert report.violations_total > 5


def test_merge_over_partition_equals_whole():
    whole = oracle(verify_pseudocontraction, RangeSpec.square(80))
    a = oracle(verify_pseudocontraction, RangeSpec(1, 30, 1, 80))
    b = oracle(verify_pseudocontraction, RangeSpec(31, 80, 1, 80))
    merged = merge_reports(a, b)
    assert merged.pairs_checked == whole.pairs_checked
    assert tally_view(merged) == tally_view(whole)
    assert merged.violations == whole.violations
    assert merged.rng == whole.rng


def test_merge_keeps_the_smaller_cap():
    # rows 11-20 kept 50 flags, but rows 1-10 kept only their first 2, so
    # only the first 2 of the merge are the head of the whole range
    a = m_bound_sweep(RangeSpec(1, 10, 1, 20), Fraction(1), max_violations=2)
    b = m_bound_sweep(RangeSpec(11, 20, 1, 20), Fraction(1), max_violations=50)
    whole = m_bound_sweep(RangeSpec.square(20), Fraction(1), max_violations=2)
    assert same_report(merge_reports(a, b), whole)
    assert same_report(merge_reports(b, a), whole)


def test_merge_rejects_different_params():
    a = m_bound_sweep(RangeSpec(1, 10, 1, 20), Fraction(1))
    b = m_bound_sweep(RangeSpec(11, 20, 1, 20), Fraction(3))
    with pytest.raises(ValueError, match="params"):
        merge_reports(a, b)


def test_merge_rejects_different_case_filters():
    a = m_bound_sweep(RangeSpec(1, 10, 1, 20, {ParityCase.EVEN_EVEN}),
                      Fraction(1))
    b = m_bound_sweep(RangeSpec(11, 20, 1, 20), Fraction(1))
    for first, second in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="case filters"):
            merge_reports(first, second)


def test_merge_rejects_ranges_it_would_misstate():
    # a diagonal pair of squares would claim 400 pairs for 200 checked, and
    # a report merged with itself would count its pairs twice
    a = m_bound_sweep(RangeSpec.square(10), Fraction(1))
    b = m_bound_sweep(RangeSpec(11, 20, 11, 20), Fraction(1))
    with pytest.raises(ValueError, match="rectangle"):
        merge_reports(a, b)
    for first, second in ((a, a), (a, m_bound_sweep(RangeSpec(5, 15, 1, 10),
                                                     Fraction(1)))):
        with pytest.raises(ValueError, match="overlapping"):
            merge_reports(first, second)
    # neighbours along either axis merge, in either order
    for c in (m_bound_sweep(RangeSpec(11, 20, 1, 10), Fraction(1)),
              m_bound_sweep(RangeSpec(1, 10, 11, 20), Fraction(1))):
        for first, second in ((a, c), (c, a)):
            merged = merge_reports(first, second)
            assert merged.pairs_checked == merged.rng.grid_count() == 200


def test_merge_with_violations_is_order_insensitive():
    a = oracle(m_bound_sweep, RangeSpec(1, 20, 1, 40), Fraction(1))
    b = oracle(m_bound_sweep, RangeSpec(21, 40, 1, 40), Fraction(1))
    whole = oracle(m_bound_sweep, RangeSpec.square(40), Fraction(1))
    assert merge_reports(a, b).violations == whole.violations
    assert merge_reports(b, a).violations == whole.violations
    assert merge_reports(a, b).violations_total == whole.violations_total


def verify_cli(tmp_path, name, *args):
    """Exit code and report bytes of one `collatzlab verify` call."""
    out = tmp_path / name
    code = cli.main(["verify", *args, "--format", "json",
                     "--output", str(out)])
    return code, out.read_bytes()


def test_parallel_jobs_match_single_job(tmp_path):
    # --jobs is accepted and ignored: under a 700 cap that ends inside row
    # 17, two jobs give the bytes of one, and the per-pair reference's flags
    args = ("--max", "60", "--mode", "mbound", "--M", "1",
            "--violations-cap", "700")
    single = verify_cli(tmp_path, "1.json", *args, "--jobs", "1")
    assert single == verify_cli(tmp_path, "2.json", *args, "--jobs", "2")
    code, scalar = oracle(verify_cli, tmp_path, "s.json", *args)
    doc, reference = json.loads(single[1]), json.loads(scalar)
    assert code == single[0] == 1
    assert doc["violations"] == reference["violations"]
    assert len(doc["violations"]) == 700 < doc["violations_total"]
    assert ends_mid_row(m_bound_sweep(RangeSpec.square(60), Fraction(1),
                                      max_violations=10**6), 700)


THREADED_RANGES = {
    "square": ("--max", "70"),
    # a case set that is no product of row and column classes
    "mask": ("--max", "70", "--case", "even-odd", "--case", "odd-even"),
    "far": ("--min", str(10**15), "--max", str(10**15 + 40), "--allow-large"),
}


@pytest.mark.parametrize("where", THREADED_RANGES)
@pytest.mark.parametrize("mode", SWEEPS)
def test_threaded_blocks_match_serial(mode, where, tmp_path):
    # every sweep runs in one thread whatever --jobs says: in each mode two
    # jobs give the bytes and exit code of one
    args = (*THREADED_RANGES[where], "--mode", mode, "--M", "1")
    single = verify_cli(tmp_path, "1.json", *args, "--jobs", "1")
    assert single == verify_cli(tmp_path, "2.json", *args, "--jobs", "2")
    assert single[0] == (1 if mode == "mbound" else 0)


def test_more_threads_than_cores_match_serial(tmp_path):
    # more jobs than this machine has CPUs, under a cap that ends mid-row
    args = ("--max", "90", "--mode", "mbound", "--M", "1",
            "--violations-cap", "1500")
    jobs = str((os.cpu_count() or 1) + 1)
    serial = verify_cli(tmp_path, "1.json", *args, "--jobs", "1")
    assert serial == verify_cli(tmp_path, "n.json", *args, "--jobs", jobs)
    full = m_bound_sweep(RangeSpec.square(90), Fraction(1),
                         max_violations=10**6)
    assert ends_mid_row(full, 1500)
    doc = json.loads(serial[1])
    assert len(doc["violations"]) == 1500
    assert doc["violations_total"] == full.violations_total


def test_jobs_below_one_behave_as_one(tmp_path):
    args = ("--max", "40", "--mode", "mbound", "--M", "1")
    one = verify_cli(tmp_path, "1.json", *args, "--jobs", "1")
    for jobs in ("0", "-3"):
        assert verify_cli(tmp_path, f"{jobs}.json", *args, "--jobs", jobs) == one


@pytest.fixture
def wrong_forms(monkeypatch):
    """Closed forms that are off, for both paths, since sweeps of the true
    forms flag nothing. Along l the errors are linear (even-even: k*l - 1,
    which also makes the form positive where k > l) and quadratic (even-odd:
    (k - l)(k - 2l); odd-even: (k - l)(k - l + 1)), and each vanishes
    somewhere, so flagged ranges have ends inside intervals."""
    forms = list(weights.CELL_FORMS)
    for case, error in (
            (ParityCase.EVEN_EVEN, lambda k, l: k * l - 1),
            (ParityCase.EVEN_ODD, lambda k, l: (k - l) * (k - 2 * l)),
            (ParityCase.ODD_EVEN, lambda k, l: (k - l) * (k - l + 1))):
        cell = CASE_ORDER.index(case)
        forms[cell] = (lambda right, error: lambda k, l:
                       right(k, l) + error(k, l))(forms[cell], error)
    monkeypatch.setattr(weights, "CELL_FORMS", tuple(forms))


def ends_mid_row(report, cap):
    """Whether the first `cap` flags of a report end inside a row."""
    return report.violations[cap - 1].x == report.violations[cap].x


@pytest.mark.parametrize("mode", ["simplified", "cross"])
def test_far_flags_and_values_match_scalar(mode, wrong_forms):
    rng = RangeSpec.square(10**15 + 40, lo=10**15)
    assert ends_mid_row(oracle(SWEEPS[mode], rng, max_violations=10**6), 150)
    scalar = oracle(SWEEPS[mode], rng, max_violations=150)
    interval = SWEEPS[mode](rng, max_violations=150)
    assert same_report(interval, scalar)
    assert len(interval.violations) == 150 < interval.violations_total
    assert max(abs(v.value) for v in interval.violations) > 10**14


@pytest.mark.parametrize("mode", SWEEPS)
def test_far_evaluation_at_its_guard(mode, wrong_forms):
    # an 8-square at 32770 (k from 16385, l up to 16388): rows where the
    # wrong even-even form turns positive as l passes k, and the least range
    # the old int64 base-K evaluation admitted
    rng = RangeSpec.square(32777, lo=32770)
    scalar = oracle(SWEEPS[mode], rng)
    interval = SWEEPS[mode](rng)
    assert same_report(interval, scalar)
    assert (interval.violations_total > 0) == (mode not in ("direct",
                                                            "bounds"))


@pytest.mark.parametrize("where", PARITY_RANGES)
@pytest.mark.parametrize("mode", ["simplified", "cross"])
def test_wrong_forms_match_scalar(mode, where, wrong_forms):
    rng = PARITY_RANGES[where]
    scalar = oracle(SWEEPS[mode], rng, max_violations=150)
    interval = SWEEPS[mode](rng, max_violations=150)
    assert same_report(interval, scalar)


@pytest.mark.parametrize("cap", [3, 150, 10**5])
@pytest.mark.parametrize("mode", SWEEPS)
def test_wrong_forms_match_scalar_on_a_near_rectangle(mode, cap, wrong_forms):
    rng = PARITY_RANGES["gates"]
    scalar = oracle(SWEEPS[mode], rng, max_violations=cap)
    interval = SWEEPS[mode](rng, max_violations=cap)
    assert same_report(interval, scalar)
    assert (interval.violations_total > 0) == (mode not in ("direct",
                                                            "bounds"))
    if interval.violations_total > cap:
        full = oracle(SWEEPS[mode], rng, max_violations=10**6)
        assert ends_mid_row(full, cap)


@pytest.fixture
def wrong_weights(monkeypatch):
    """A weight table that is off, for both paths, patched after the
    interval engine has tabulated the true one. Even-even's delta of +1
    makes its form positive; even-odd's weights drop into [-1, 1], so an M
    of 1 no longer flags it; the diagonal gains an epsilon of 1."""
    assert verify_pseudocontraction(RangeSpec.square(40)).ok
    rows = list(weights.CELL_WEIGHTS)
    rows[CASE_ORDER.index(ParityCase.EVEN_EVEN)] = (1, 0, -1, 1, -1, 1)
    rows[CASE_ORDER.index(ParityCase.EVEN_ODD)] = (0, 0, -1, 1, -1, 1)
    rows[DIAGONAL] = (2, 0, 0, -1, 1, 0)
    monkeypatch.setattr(weights, "CELL_WEIGHTS", tuple(rows))


@pytest.mark.parametrize("mode", SWEEPS)
def test_patched_weights_reach_pair_sweeps(mode, wrong_weights):
    # every mode but simplified reads the weights; under a cap that ends
    # mid-row the interval engine flags what the per-pair reference does
    rng, cap = PARITY_RANGES["gates"], 150
    full = oracle(SWEEPS[mode], rng, max_violations=10**6)
    scalar = oracle(SWEEPS[mode], rng, max_violations=cap)
    interval = SWEEPS[mode](rng, max_violations=cap)
    assert same_report(interval, scalar)
    cells = {v.case for v in full.violations}
    if mode == "simplified":
        assert not cells
        return
    assert ends_mid_row(full, cap)
    if mode == "mbound":
        assert "even-odd" not in cells  # the true weights flag it at M = 1
    else:
        assert {"even-even", "even-odd", "odd-odd:diagonal"} <= cells


@pytest.mark.parametrize("mode", SWEEPS)
def test_a_negative_cap_keeps_no_flags_on_both_engines(mode, wrong_forms,
                                                       wrong_weights):
    rng = PARITY_RANGES["gates"]
    scalar = oracle(SWEEPS[mode], rng, max_violations=-1)
    interval = SWEEPS[mode](rng, max_violations=-1)
    assert same_report(interval, scalar)
    assert interval.violations == () and interval.violations_total > 0


def shipped(fn, *args, **kwargs):
    """fn(*args, **kwargs) as shipped, the counterpart of oracle."""
    return fn(*args, **kwargs)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(x0=st.sampled_from([1, 2, 3, 30, 10**12]),
       y0=st.sampled_from([1, 2, 3, 30, 10**12]),
       dx=st.integers(1, 14), dy=st.integers(1, 14),
       cases=st.none() | st.frozensets(st.sampled_from(CASE_ORDER), min_size=1),
       mode=st.sampled_from(sorted(SWEEPS)), cap_seed=st.integers(0, 10**6),
       x_seed=st.integers(0, 10**6), y_seed=st.integers(0, 10**6))
# (2, 5) is flagged twice in bounds mode, and a cap of 2 splits its flags
@example(x0=1, y0=1, dx=11, dy=11, cases=None, mode="bounds", cap_seed=1,
         x_seed=0, y_seed=5)
def test_capped_reports_are_prefixes_and_merges_are_exact(
        x0, y0, dx, dy, cases, mode, cap_seed, x_seed, y_seed, wrong_forms,
        wrong_weights):
    rng = RangeSpec(x0, x0 + dx, y0, y0 + dy, cases)
    x_cut, y_cut = x0 + x_seed % dx, y0 + y_seed % dy
    halves = {"rows": (replace(rng, x_max=x_cut), replace(rng, x_min=x_cut + 1)),
              "columns": (replace(rng, y_max=y_cut),
                          replace(rng, y_min=y_cut + 1))}
    for run in (shipped, oracle):
        full = run(SWEEPS[mode], rng, max_violations=10**6)
        cap = 1 + cap_seed % max(1, full.violations_total)
        capped = run(SWEEPS[mode], rng, max_violations=cap)
        assert capped.violations == full.violations[:cap]
        assert capped.violations_total == full.violations_total
        for split, (a, b) in halves.items():
            merged = merge_reports(run(SWEEPS[mode], a, max_violations=cap),
                                   run(SWEEPS[mode], b, max_violations=cap))
            assert same_report(merged, capped), split


# === mbound on cell regions ===

def admitted(rng):
    return [c for c, case in enumerate(CASE_ORDER) if rng.admits(case)]


def odd_odd_spans(k, first, last):
    """The per-row reference of the odd-odd layout: the cells of row k along
    l in [first, last], in l order, as (cell, lo, hi): high-deep, high-band,
    the three diagonal points each on its own (beta = k - l varies there),
    low-band and low-deep. The cuts solve the gates of odd_odd_cell for l."""
    order = (DIAGONAL + 2, DIAGONAL + 1, DIAGONAL, DIAGONAL, DIAGONAL,
             DIAGONAL - 1, DIAGONAL - 2)
    ends = (min(k - 2, (10 * k - 1) // 11), k - 2, k - 1, k, k + 1,
            max(k + 1, (11 * k + 10) // 10 - 1), last)
    lo = first
    for cell, end in zip(order, ends):
        hi = min(end, last)
        if lo <= hi:
            yield cell, lo, hi
        lo = max(lo, end + 1)


def reference_intervals(rng):
    """Per row x of a range, the intervals (cell, pick, lo, hi) of l of the
    cases the range admits, cut row by row: the cases in order, an odd-odd
    row's cells by odd_odd_spans, the pick the diagonal's d + 1 for d = k -
    l (None off it). Builds on neither _cell_spans nor _row_walk."""
    rows = {}
    for x in range(rng.x_min, rng.x_max + 1):
        k = x >> 1  # x = 1 is k = 0
        row_class = 0 if x == 1 else 1 + (x & 1)
        rows[x] = intervals = []
        for case in admitted(rng):
            first, last = cells._span(case % 3, rng.y_min, rng.y_max)
            if case // 3 != row_class or first > last:
                continue
            if case != weights.ODD_ODD:
                intervals.append((case, None, first, last))
                continue
            intervals += [(cell, k - lo + 1 if cell == DIAGONAL else None,
                           lo, hi) for cell, lo, hi in odd_odd_spans(
                               k, first, last)]
    return rows


def region_counts(rng):
    """Pairs per (cell, diagonal pick) as the spans of _cell_spans sum."""
    counts = Counter()
    for cell, pick, _, _, spans in regions._cell_spans(rng, admitted(rng)):
        counts[cell, pick] += sum(map(regions._pairs, spans))
    return +counts


def walked_counts(rng):
    """Pairs per (cell, diagonal pick) on the per-row reference."""
    counts = Counter()
    for intervals in reference_intervals(rng).values():
        for cell, pick, lo, hi in intervals:
            counts[cell, pick] += hi - lo + 1
    return counts


def walked_intervals(rng):
    """Per row x that the row walk over the range's regions visits, the
    (cell, pick, lo, hi) it hands its visitor, in order."""
    rows = {}

    def visit(x, k, cell, pick, column, lo, hi):
        assert k == x >> 1
        rows.setdefault(x, []).append((cell, pick, lo, hi))
        return []

    regions._row_walk(regions._cell_spans(rng, admitted(rng)),
                      range(rng.x_min, rng.x_max + 1), visit,
                      verifier._Findings(0))
    return rows


@settings(max_examples=150, deadline=None, derandomize=True)
@given(x0=st.sampled_from([1, 2, 3, 9, 19, 20, 21, 22, 41, 42, 43, 10**6,
                           10**9, 10**15]),
       y0=st.sampled_from([1, 2, 3, 9, 19, 20, 21, 22, 41, 42, 43, 10**6,
                           10**9, 10**15]),
       dx=st.integers(0, 120), dy=st.integers(0, 400),
       x_shift=st.integers(0, 40), y_shift=st.integers(0, 40),
       gate=st.sampled_from([None, (10, 11), (11, 10)]),
       cases=st.none() | st.frozensets(st.sampled_from(CASE_ORDER), min_size=1))
# k from 19 to 23 against l from 1 to 200: both sides of k = 21, where
# k - 2 and floor((10k - 1)/11) swap as the high cut
@example(x0=39, y0=1, dx=8, dy=400, x_shift=0, y_shift=0, gate=None,
         cases=None)
# rows far from the columns: every odd-odd pair is high-deep
@example(x0=10**9, y0=10**15, dx=40, dy=40, x_shift=0, y_shift=0, gate=None,
         cases=None)
# k from 9 to 11: both sides of k = 10, where k + 1 and floor(11k/10) swap
# as the low cut
@example(x0=19, y0=1, dx=4, dy=60, x_shift=0, y_shift=0, gate=None,
         cases=None)
# k from 100 to 140 against l from 110 to 130: inside the range, first
# crosses floor((10k - 1)/11), floor(11k/10) and k +- 2, and last crosses
# floor(11k/10) and k +- 2
@example(x0=201, y0=221, dx=80, dy=40, x_shift=0, y_shift=0, gate=None,
         cases=None)
# the same crossings of first far out, at k = 10^12 + 20
@example(x0=2 * 10**12 + 1, y0=2 * ((10 * (10**12 + 20) - 1) // 11) + 1,
         dx=80, dy=40, x_shift=0, y_shift=0, gate=None, cases=None)
# the row x = 1 and k across 10 and 21 under a case filter
@example(x0=1, y0=1, dx=45, dy=60, x_shift=0, y_shift=0, gate=None,
         cases=frozenset([ParityCase.ONE_ODD, ParityCase.ODD_ONE,
                          ParityCase.ODD_ODD]))
def test_region_counts_match_the_row_walk(x0, y0, dx, dy, x_shift, y_shift,
                                          gate, cases):
    # a gate puts the columns at 10/11 or 11/10 of the rows, where the deep
    # cells begin, at any offset
    lo_x = x0 + x_shift
    lo_y = y0 + y_shift if gate is None else lo_x * gate[0] // gate[1] + y_shift
    rng = RangeSpec(lo_x, lo_x + dx, lo_y, lo_y + dy, cases)
    assert region_counts(rng) == walked_counts(rng)
    # the row walk over the regions hands its visitor the reference's
    # intervals, row by row and in order
    assert walked_intervals(rng) == {
        x: intervals for x, intervals in reference_intervals(rng).items()
        if intervals}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(k0=st.sampled_from([1, 5, 9, 10, 19, 20, 21, 100, 10**6, 10**15]),
       dk=st.integers(0, 60), k_shift=st.integers(0, 30),
       gate=st.sampled_from([None, (10, 11), (11, 10), (1, 1)]),
       offset=st.integers(-40, 40), width=st.integers(0, 80))
# rows from k = 9, 10, 20, 21 and 22 on, where the high and low cuts switch
# terms and the bands start (high-band is empty at k = 21), with columns
# around the rows so that every cell is met
@example(k0=9, dk=3, k_shift=0, gate=None, offset=1, width=40)
@example(k0=10, dk=2, k_shift=0, gate=(1, 1), offset=-8, width=20)
@example(k0=20, dk=2, k_shift=0, gate=(1, 1), offset=-5, width=12)
@example(k0=21, dk=0, k_shift=0, gate=(1, 1), offset=-5, width=12)
@example(k0=22, dk=0, k_shift=0, gate=(1, 1), offset=-5, width=12)
# first crosses floor((10k - 1)/11) near k = 119, and last crosses
# floor(11k/10) near k = 125, both where the high cut is floor((10k - 1)/11)
@example(k0=100, dk=40, k_shift=0, gate=(10, 11), offset=18, width=30)
# last crosses floor(11k/10) on k in [10, 20]
@example(k0=10, dk=10, k_shift=0, gate=None, offset=1, width=15)
def test_spans_are_the_row_intervals(k0, dk, k_shift, gate, offset, width):
    # each odd-odd region's spans are disjoint k-intervals with one start
    # and one end term each and width >= 1 throughout, and row by row they
    # are the intervals of odd_odd_spans; a region is at most three spans,
    # and adjacent spans differ in a term
    k0 += k_shift
    k1 = k0 + dk
    first = max(1, offset if gate is None else k0 * gate[0] // gate[1] + offset)
    last = first + width
    rng = RangeSpec(2 * k0 + 1, 2 * k1 + 1, 2 * first + 1, 2 * last + 1,
                    frozenset([ParityCase.ODD_ODD]))
    rows = {k: {} for k in range(k0, k1 + 1)}
    for cell, pick, _, _, spans in regions._cell_spans(
            rng, admitted(rng)):
        assert len(spans) <= 3
        for span, after in zip(spans, spans[1:]):
            assert span[1] < after[0]
            assert span[2:] != after[2:]
        for lo, hi, start, end in spans:
            assert len(start) == len(end) == 3
            for k in range(lo, hi + 1):
                l0, l1 = ((p * k + q) // r for p, q, r in (start, end))
                assert l1 >= l0
                assert (cell, pick) not in rows[k]
                rows[k][cell, pick] = (l0, l1)
    for k, intervals in rows.items():
        assert intervals == {
            (cell, k - lo + 1 if cell == DIAGONAL else None): (lo, hi)
            for cell, lo, hi in odd_odd_spans(k, first, last)}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.sampled_from([0, 1, 10, 11]), r=st.sampled_from([1, 10, 11]),
       q=st.integers(-50, 50), a=st.integers(-20, 20) | st.integers(0, 2**100),
       n=st.integers(0, 300))
def test_floor_sums_match_brute_force(p, q, r, a, n):
    assert regions._floor_sum(p, q, r, a, a + n - 1) == sum(
        (p * k + q) // r for k in range(a, a + n))


MBOUND_RANGES = {
    # the row x = 1 and the column y = 1
    "corner": RangeSpec(1, 6, 1, 20),
    # k from 19 to 22: both sides of k = 21, with every odd-odd cell
    "gates": RangeSpec(39, 45, 1, 24),
}


@pytest.mark.parametrize("patched", [False, True], ids=["shipped", "patched"])
@pytest.mark.parametrize("m_cap", [0, 1, Fraction(3, 2), 2], ids=str)
@pytest.mark.parametrize("where", MBOUND_RANGES)
def test_mbound_matches_the_oracle_at_every_cap(where, m_cap, patched,
                                                request):
    # the patched weights drop even-odd into [-1, 1], so an M of 1 no longer
    # flags it
    if patched:
        request.getfixturevalue("wrong_weights")
    rng = MBOUND_RANGES[where]
    full = oracle(m_bound_sweep, rng, Fraction(m_cap), max_violations=10**6)
    assert (full.violations_total > 0) == (m_cap < 2)
    for cap in range(full.violations_total + 2):
        report = m_bound_sweep(rng, Fraction(m_cap), max_violations=cap)
        assert same_report(report, oracle(m_bound_sweep, rng, Fraction(m_cap),
                                          max_violations=cap))
        assert report.violations == full.violations[:cap]


def test_a_far_mbound_head_joins_the_runs_of_one_head():
    # far out, an odd row flags its high band, the diagonal's three points
    # and its low band: the points share one head, so the walk joins them
    # into one run, and no row keeps two adjacent runs of one head whose ys
    # continue at one step
    lo = 36008368538203
    rng = RangeSpec.square(lo + 106, lo=lo)
    full = oracle(m_bound_sweep, rng, Fraction(3, 2), max_violations=10**6)
    total = full.violations_total
    for cap in (1, 7, 100, total):
        report = m_bound_sweep(rng, Fraction(3, 2), max_violations=cap)
        groups = report.violations.groups
        for x, _, runs in groups:
            for (a, *head), (b, *after) in zip(runs, runs[1:]):
                assert not (head == after and a.step == b.step
                            and a[-1] + a.step == b[0]), (cap, x)
        if cap > 100:
            assert any(run[1] == "odd-odd:diagonal" and len(run[0]) == 3
                       for _, _, runs in groups for run in runs)
        assert report.violations == full.violations[:cap]
        assert same_report(report, oracle(m_bound_sweep, rng, Fraction(3, 2),
                                          max_violations=cap))


@pytest.fixture
def walked_rows(monkeypatch):
    """The rows x that the region sweeps' row walk (_row_walk) walks, in
    order."""
    rows = []
    real = regions._row_walk

    def spy(cell_regions, xs, *args, **kwargs):
        def seen():
            for x in xs:
                rows.append(x)
                yield x
        return real(cell_regions, seen(), *args, **kwargs)

    monkeypatch.setattr(regions, "_row_walk", spy)
    monkeypatch.setattr(maxima, "_row_walk", spy)
    return rows


def test_a_clean_mbound_sweep_walks_no_rows(walked_rows):
    report = m_bound_sweep(RangeSpec.square(10**9), Fraction(2))
    assert report.ok and report.pairs_checked == 10**18
    assert walked_rows == []


def test_a_capped_mbound_sweep_walks_only_the_rows_it_keeps(walked_rows):
    # 20 columns: each row flags at most 19 pairs, so 100 flags take rows
    # 1 to 8 of 10^9
    rng = RangeSpec(1, 10**9, 1, 20)
    report = m_bound_sweep(rng, Fraction(1), max_violations=100)
    head = oracle(m_bound_sweep, RangeSpec(1, 40, 1, 20), Fraction(1),
                  max_violations=100)
    assert report.violations == head.violations
    assert report.violations_total > 10**9
    assert sorted(set(walked_rows)) == list(range(1, head.violations[-1].x + 1))


@pytest.mark.parametrize("m_cap", [0, 1])
@pytest.mark.parametrize("rng", [
    RangeSpec(1, 6, 1, 20),  # the row x = 1 and the column y = 1
    RangeSpec(39, 45, 1, 24),  # both sides of k = 21, every odd-odd cell
    RangeSpec(10**6, 10**6 + 40, 10**6 - 150, 10**6 + 150),  # deep cells
], ids=["corner", "gates", "far"])
def test_a_capped_mbound_sweep_builds_only_the_rows_it_keeps(rng, m_cap,
                                                             monkeypatch,
                                                             capsys):
    # the CLI writes a capped report from its runs in every format and
    # builds no Violation row; a read afterwards builds exactly the rows
    # kept. A row holds several runs of flags, and the cap may fall inside
    # any of them.
    reads, reports = [], []
    read = verifier.ViolationRows._read

    def spy(rows):
        reads.append(rows)
        return read(rows)

    def sweep(*args, **kwargs):
        reports.append(m_bound_sweep(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(verifier.ViolationRows, "_read", spy)
    monkeypatch.setattr(cli, "_build_range", lambda args, desk_scale: rng)
    monkeypatch.setattr(cli, "m_bound_sweep", sweep)
    full = oracle(m_bound_sweep, rng, Fraction(m_cap), max_violations=10**6)
    total = full.violations_total
    assert total > 0
    for cap in sorted({0, 1, 2, 7, 19, 20, 21, 33, 100, 257, total - 1, total,
                       total + 5}):
        for fmt in ("json", "csv", "text"):
            reads.clear()
            assert cli.main(["verify", "--mode", "mbound", "--M", str(m_cap),
                             "--max", "1", "--violations-cap", str(cap),
                             "--format", fmt]) == 1
            out = capsys.readouterr().out
            report = reports.pop()
            assert reads == [] and report.violations._rows is None, (cap, fmt)
            if fmt == "csv":
                assert out.count("\nviolation,") == min(cap, total)
            assert report.violations_total == total
            rows = tuple(report.violations)
            assert len(rows) == min(cap, total) == len(report.violations)
            assert {type(v) for v in rows} <= {Violation}
            assert rows == full.violations[:cap] == oracle(
                m_bound_sweep, rng, Fraction(m_cap),
                max_violations=cap).violations


# === the other pair-sweep modes on region maxima ===

FORM_MODES = ["direct", "bounds", "simplified", "cross"]


def test_clean_form_sweeps_walk_no_rows(walked_rows):
    # every tally comes from the regions' row maxima, and nothing flags
    for lo in (1, 10**15):
        rng = RangeSpec.square(lo + 10**9 - 1, lo=lo)
        for mode in FORM_MODES:
            report = SWEEPS[mode](rng)
            assert report.ok and report.pairs_checked == 10**18, mode
            assert all(t.max_lhs <= t.bound for t in report.per_case.values())
    assert walked_rows == []


@pytest.mark.parametrize("rng", [
    RangeSpec.square(2000),  # the x = 1 rows and the 10/11 floor ends
    RangeSpec.square(10**15 + 239, lo=10**15),
], ids=["near", "far"])
@pytest.mark.parametrize("mode", FORM_MODES)
def test_clean_form_sweeps_build_no_row_maxima(mode, rng, monkeypatch):
    # every span's peak is read off its end terms or, for a concave form,
    # off its rectangle in closed form: a clean sweep builds no segments,
    # and its report is the one read off the segments
    built = []
    segments = maxima._maxima

    def counted(e, span):
        built.append(span)
        return segments(e, span)

    monkeypatch.setattr(maxima, "_maxima", counted)
    report = SWEEPS[mode](rng)
    assert report.ok and built == []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maxima, "_span_peak",
                      lambda e, span: maxima._peak(segments(e, span)))
        assert same_report(SWEEPS[mode](rng), report)


# weight rows for high-band and high-deep (period 11) whose forms pass 0 in
# some rows of a residue class of k and not in the rows between
SCATTERED = {DIAGONAL + 1: (1, -2, 2, 0, 0, -2),
             DIAGONAL + 2: (-1, 1, 0, 0, -2, 2)}


@pytest.mark.parametrize("mode, tables", [
    (mode, "wrong") for mode in FORM_MODES] + [
    ("direct", "scattered"), ("bounds", "scattered")])
def test_form_sweeps_walk_only_the_rows_that_flag(mode, tables, walked_rows,
                                                  request, monkeypatch):
    # a row is walked when its largest value passes a threshold, which is
    # exactly when it has a flag; each such row once, in order
    if tables == "wrong":
        request.getfixturevalue("wrong_forms")
        request.getfixturevalue("wrong_weights")
    else:
        rows = list(weights.CELL_WEIGHTS)
        for cell, row in SCATTERED.items():
            rows[cell] = row
        monkeypatch.setattr(weights, "CELL_WEIGHTS", tuple(rows))
    rng = PARITY_RANGES["gates"]
    full = oracle(SWEEPS[mode], rng, max_violations=10**6)
    assert full.violations_total == len(full.violations) > 0
    report = SWEEPS[mode](rng, max_violations=10**6)
    assert same_report(report, full)
    assert sorted(set(walked_rows)) == sorted({v.x for v in full.violations})
    assert walked_rows == sorted(walked_rows)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(entry=st.tuples(st.integers(-6, 6), *[st.integers(-40, 40)] * 5),
       p=st.sampled_from([1, 2, 10, 11]), r=st.integers(0, 10),
       s=st.integers(0, 30), n=st.integers(1, 25),
       start=st.tuples(st.integers(-3, 3), st.integers(-60, 60)),
       width=st.tuples(st.integers(0, 4), st.integers(0, 30)))
def test_row_maxima_are_the_largest_value_of_each_row(entry, p, r, s, n,
                                                      start, width):
    # every row k = p*j + r of a piece, l in [start(j), end(j)], appears in
    # exactly one segment, whose quadratics' largest value at it is the
    # row's largest doubled value
    end = (start[0] + width[0], start[1] + width[1])
    a, b0, b1, c0, c1, c2 = entry
    rows = {}
    for q, r2, i0, i1, quadratics in maxima._row_maxima(entry, p, r, s,
                                                        s + n, end, start):
        for i in range(i0, i1 + 1):
            k = q * i + r2
            assert k not in rows
            rows[k] = max(cells._at(quad, i) for quad in quadratics)
    expected = {}
    for j in range(s, s + n):
        k = p * j + r
        expected[k] = max(a * l * l + (b0 + b1 * k) * l + c0 + (c1 + c2 * k) * k
                          for l in range(start[0] * j + start[1],
                                         end[0] * j + end[1] + 1))
    assert rows == expected


# terms (p, r) of floor((p*k + q)/r) as the layout makes them: first or
# last, k + c, floor((10k + q)/11) and floor((11k + q)/10)
_SLOPES = [(0, 1), (1, 1), (10, 11), (11, 10)]


@st.composite
def _drawn_spans(draw):
    """A span (k0, k1, start, end) with end >= start on every row: of 1 to
    25 rows, so often shorter than a floor term's period, at k from 0 or
    near 2^64, where both terms rise alike so that rows stay narrow."""
    k0 = draw(st.integers(0, 60) | st.integers(2**64 - 40, 2**64 + 40))
    k1 = k0 + draw(st.integers(0, 24))
    p, r = draw(st.sampled_from(_SLOPES))
    u, w = (p, r) if k0 > 60 else draw(st.sampled_from(_SLOPES))
    q = draw(st.integers(-60, 60))
    # the least offset that keeps end >= start, plus a margin
    v = max(w * ((p * k + q) // r) - u * k for k in range(k0, k1 + 1))
    return k0, k1, (p, q, r), (u, v + w * draw(st.integers(0, 30)), w)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(entry=st.tuples(st.integers(-6, 6), *[st.integers(-40, 40)] * 5),
       span=_drawn_spans())
# one row, and floor ends of period 10 and 11 on spans shorter than it
@example(entry=(-3, 7, -5, 1, 2, -1), span=(2**64, 2**64, (10, 3, 11),
                                              (10, 30, 11)))
@example(entry=(2, -7, 3, 0, 1, -2), span=(13, 19, (1, 2, 1), (11, 7, 10)))
@example(entry=(-5, 40, 3, 0, -9, 1), span=(13, 19, (10, 4, 11), (1, 9, 1)))
# concave rows of one (the x = 1 rows of the rectangles), between first and
# last columns that are one column or several around the vertex
@example(entry=(-3, 20, 1, 0, 0, 0), span=(0, 0, (0, 9, 1), (0, 9, 1)))
@example(entry=(-2, 30, -1, 5, 0, 1), span=(0, 0, (0, 1, 1), (0, 60, 1)))
@example(entry=(-1, -7, 2, 3, 1, 0), span=(40, 40, (0, 2, 1), (0, 50, 1)))
def test_span_maxima_are_the_largest_value_of_each_row(entry, span):
    # the segments of a span (_maxima: its pieces, whatever the form's
    # shape in l) hold only its rows, the largest of their quadratics at a
    # row is the row's largest doubled value, and their peak is the span's
    k0, k1, (p, q, r), (u, v, w) = span
    a, b0, b1, c0, c1, c2 = entry
    expected = {
        k: max(a * l * l + (b0 + b1 * k) * l + c0 + (c1 + c2 * k) * k
               for l in range((p * k + q) // r, (u * k + v) // w + 1))
        for k in range(k0, k1 + 1)}
    segments = maxima._maxima(entry, span)
    rows = {}
    for q2, r2, i0, i1, quadratics in segments:
        for i in range(i0, i1 + 1):
            k = q2 * i + r2
            top = max(cells._at(quad, i) for quad in quadratics)
            rows[k] = max(rows.get(k, top), top)
    assert rows == expected
    assert maxima._peak(segments) == max(expected.values())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(entry=st.tuples(st.integers(-6, 6), *[st.integers(-40, 40)] * 5),
       span=_drawn_spans())
@example(entry=(-3, 7, -5, 1, 2, -1), span=(2**64, 2**64, (10, 3, 11),
                                              (10, 30, 11)))
@example(entry=(2, -7, 3, 0, 1, -2), span=(13, 19, (1, 2, 1), (11, 7, 10)))
@example(entry=(-5, 40, 3, 0, -9, 1), span=(13, 19, (10, 4, 11), (1, 9, 1)))
@example(entry=(-3, 20, 1, 0, 0, 0), span=(0, 0, (0, 9, 1), (0, 9, 1)))
@example(entry=(-2, 30, -1, 5, 0, 1), span=(0, 0, (0, 1, 1), (0, 60, 1)))
@example(entry=(-1, -7, 2, 3, 1, 0), span=(40, 40, (0, 2, 1), (0, 50, 1)))
# convex entries on floor ends shorter than their period, one end or both,
# on two floor ends across a whole period near 2^64, and on a span of one
# period that peaks in its last residue
@example(entry=(1, 0, 0, 0, 0, 0), span=(0, 10, (10, 0, 11), (10, 50, 11)))
@example(entry=(1, -9, 2, 4, -3, 1), span=(13, 17, (10, 4, 11), (11, 9, 10)))
@example(entry=(0, 5, -2, 1, 0, 3), span=(5, 5, (11, 2, 10), (11, 2, 10)))
@example(entry=(3, -40, -6, 7, 2, -1), span=(2**64 - 5, 2**64 + 7,
                                             (10, -1, 11), (10, 40, 11)))
def test_span_peak_is_the_peak_of_the_span_maxima(entry, span):
    # a span's peak read off its end terms is the peak of its segments
    assert maxima._span_peak(entry, span) == maxima._peak(
        maxima._maxima(entry, span))


_NEAR = [0, 10**6, 10**15, 2**64 - 40, 2**64 + 40]


@st.composite
def _concave_rectangles(draw):
    """A concave entry (a < 0) and a rectangle span (k0, k1, (0, l0, 1), (0,
    l1, 1)) of 1 to 200 rows and columns near 0, 10^6, 10^15 or 2^64: b1
    0, a multiple of 2a or of 2*c2, or free, c2 of any sign, and columns
    below, around or above the row vertex (b0 + b1*k0)/(-2a)."""
    a, c2 = draw(st.integers(-12, -1)), draw(st.integers(-12, 12))
    b1 = draw(st.just(0) | st.integers(-4, 4).map(lambda n: 2 * a * n)
              | st.integers(-4, 4).map(lambda n: 2 * c2 * n)
              | st.integers(-60, 60))
    size = st.integers(1, 40) | st.integers(1, 200)
    rows, columns = draw(size), draw(size)
    k0 = max(0, draw(st.sampled_from(_NEAR)) + draw(st.integers(-40, 40)))
    l0 = draw(st.sampled_from(_NEAR).map(lambda n: max(0, n - 40))
              | st.just(k0)) + draw(st.integers(-40, 40))
    # the row vertex at k0 lies above the columns, among them or below them
    v = l0 + draw(st.sampled_from([columns + draw(st.integers(0, 50)),
                                   draw(st.integers(0, columns)),
                                   -draw(st.integers(1, 50))]))
    # and the column vertex at l0 near the rows
    u = k0 + draw(st.integers(-50, rows + 50))
    entry = (a, -2 * a * v - b1 * k0 + draw(st.integers(-20, 20)), b1,
             draw(st.integers(-100, 100)),
             -2 * c2 * u - b1 * l0 + draw(st.integers(-20, 20)), c2)
    return entry, (k0, k0 + rows - 1, (0, l0, 1), (0, l0 + columns - 1, 1))


# a pooled sweep-far square (--min 417402035661 --max 417402035740): its
# even rows and even columns, and its odd columns
_FAR_EVEN = (208701017831, 208701017870, (0, 208701017831, 1),
             (0, 208701017870, 1))
_FAR_ODD = (208701017831, 208701017870, (0, 208701017830, 1),
            (0, 208701017869, 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn=_concave_rectangles())
# the shipped concave entries: 1-even, 1-odd, even-even and even-odd
@example(drawn=((-4, 4, 0, 0, 0, 0), _FAR_EVEN))
@example(drawn=((-12, 8, 0, 4, 0, 0), _FAR_ODD))
@example(drawn=((-4, 0, 4, 0, 0, -2), _FAR_EVEN))
@example(drawn=((-4, 0, 0, 2, 0, 0), _FAR_ODD))
# 2a = -6 and 2*c2 = -10 divide no b1 = 7: the segments give the peak
@example(drawn=((-3, 5, 7, 0, 2, -5), (0, 30, (0, -5, 1), (0, 20, 1))))
@example(drawn=((-3, 5, 7, 0, 2, -5), _FAR_EVEN))
def test_concave_rectangle_peak_is_the_rectangle_maximum(drawn):
    # a concave form's peak on a rectangle is read in closed form where b1
    # is 0, c2 >= 0, or 2a or 2*c2 divides b1, and off its segments only
    # otherwise; either way it is the peak of the segments and the largest
    # doubled value of any pair, on the rectangle and on each of its rows
    # and columns
    entry, span = drawn
    k0, k1, (_, l0, _), (_, l1, _) = span
    a, b0, b1, c0, c1, c2 = entry
    peak = maxima._span_peak(entry, span)
    assert peak == maxima._peak(maxima._maxima(entry, span))
    closed = not b1 or c2 >= 0 or not b1 % (2 * a) or not b1 % (2 * c2)
    assert (maxima._rectangle_peak(entry, k0, k1, l0, l1) is None) != closed
    if k1 - k0 < 40 and l1 - l0 < 40:
        grid = {(k, l): a * l * l + (b0 + b1 * k) * l + c0 + (c1 + c2 * k) * k
                for k in range(k0, k1 + 1) for l in range(l0, l1 + 1)}
        assert peak == max(grid.values())
        for k in range(k0, k1 + 1):
            assert maxima._span_peak(entry, (k, k) + span[2:]) == max(
                grid[k, l] for l in range(l0, l1 + 1))
        for l in range(l0, l1 + 1):
            assert maxima._span_peak(entry, (k0, k1, (0, l, 1), (
                0, l, 1))) == max(grid[k, l] for k in range(k0, k1 + 1))


def _patched_tables(rows_seed, forms_seed):
    """A weight table and closed forms that are off on a few cells, drawn
    from the seeds: weight rows in [-2, 2]^6, which make forms concave or
    convex in l on any cell, and closed forms plus a quadratic error in (k,
    l), so that flags start and stop inside rows and inside region pieces.
    A 1 (k or l None) reads as 0."""
    rows, forms = list(weights.CELL_WEIGHTS), list(weights.CELL_FORMS)
    for cell, row in rows_seed:
        rows[cell] = row
    for cell, (a, b, c, d, e, f) in forms_seed:
        forms[cell] = (lambda right, a, b, c, d, e, f: lambda k, l: right(
            k, l) + (lambda k, l: a * l * l + b * k * l + c * k * k + d * l
                     + e * k + f)(k or 0, l or 0))(forms[cell], a, b, c, d, e,
                                                   f)
    return tuple(rows), tuple(forms)


_CELLS = st.integers(0, len(weights.TALLY_KEYS) - 1)
_ROW = st.tuples(*[st.integers(-2, 2)] * 6)
_ERROR = st.tuples(*[st.integers(-3, 3)] * 6)
_STARTS = [1, 2, 3, 5, 18, 19, 20, 21, 22, 39, 40, 41, 42, 43,
           10**6 - 7, 10**6, 10**15 - 3, 10**15, 2**60 - 5, 2**60]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(mode=st.sampled_from(FORM_MODES),
       x0=st.sampled_from(_STARTS), y0=st.sampled_from(_STARTS),
       dx=st.integers(0, 60), dy=st.integers(0, 60),
       gate=st.sampled_from([None, None, (10, 11), (11, 10), (1, 1)]),
       cases=st.none() | st.frozensets(st.sampled_from(CASE_ORDER), min_size=1),
       cap=st.sampled_from([0, 1, 2, 17, 200, 10**6]),
       rows=st.lists(st.tuples(_CELLS, _ROW), max_size=3),
       errors=st.lists(st.tuples(_CELLS, _ERROR), max_size=3))
# a concave patched even-even form far out, flagging mid-row
@example(mode="direct", x0=10**15, y0=10**15, dx=40, dy=40, gate=None,
         cases=None, cap=200, rows=[(4, (1, 0, -1, 1, -1, 1))], errors=[])
# an odd-odd cell made concave in l, on the k-segments [1, 9] and [10, 20]
@example(mode="bounds", x0=3, y0=1, dx=40, dy=60, gate=None, cases=None,
         cap=10**6, rows=[(12, (2, 2, -2, -2, -2, 2)),
                          (9, (-1, -2, 2, 1, 0, 1))], errors=[])
# closed forms off by quadratics that vanish inside rows
@example(mode="cross", x0=20, y0=18, dx=50, dy=50, gate=None, cases=None,
         cap=17, rows=[], errors=[(5, (1, -1, 0, 0, 0, 0)),
                                  (11, (0, 1, -1, 0, 0, 0))])
# odd-odd cells made concave and convex on rows from k = 8 to 23, across
# k = 9/10 and k = 20/21
@example(mode="direct", x0=17, y0=1, dx=30, dy=60, gate=None, cases=None,
         cap=10**6, rows=[(8, (2, 2, -2, -2, -2, 2)),
                          (12, (-1, -2, 2, 1, 0, 1))], errors=[])
# k from 100 to 140 against l from 110 to 130, where first and last cross
# floor((10k - 1)/11), floor(11k/10) and k +- 2 inside the range
@example(mode="cross", x0=201, y0=221, dx=80, dy=40, gate=None, cases=None,
         cap=200, rows=[], errors=[(8, (1, -1, 0, 0, 0, 0)),
                                   (9, (0, 0, 0, 1, -1, 0)),
                                   (12, (0, 1, -1, 0, 0, 0))])
@example(mode="bounds", x0=201, y0=221, dx=80, dy=40, gate=None, cases=None,
         cap=10**6, rows=[(11, (2, 2, -2, -2, -2, 2)),
                          (9, (-1, -2, 2, 1, 0, 1))], errors=[])
def test_region_maxima_match_the_oracle(mode, x0, y0, dx, dy, gate, cases,
                                        cap, rows, errors):
    # the columns start at a gate of the rows when one is drawn, at any
    # offset: where the deep cells begin (10/11, 11/10) or the diagonal
    if gate is not None:
        y0 = max(1, x0 * gate[0] // gate[1] - dy // 2)
    rng = RangeSpec(x0, x0 + dx, y0, y0 + dy, cases)
    table, forms = _patched_tables(rows, errors)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(weights, "CELL_WEIGHTS", table)
        patch.setattr(weights, "CELL_FORMS", forms)
        report = SWEEPS[mode](rng, max_violations=cap)
        assert same_report(report, oracle(SWEEPS[mode], rng,
                                          max_violations=cap))


# The least x whose row of y in [1, 30] fails a width check of
# framework.lhs (a six-term product at y = 3); even rows pass up to about
# 2^63.5.
_WIDTH_EDGE = 6148914691236517209
# The least odd y at which lhs(y, 1) fails a width check (a six-term
# product), below any y at which lhs(1, y) or lhs(2, y) does.
_MIRRORED_EDGE = 8695878550221854809


@pytest.mark.parametrize("rng, fails", [
    (RangeSpec(_WIDTH_EDGE - 40, _WIDTH_EDGE - 1, 1, 30), False),
    # rows pass up to _WIDTH_EDGE, which fails after two columns
    (RangeSpec(_WIDTH_EDGE - 20, _WIDTH_EDGE + 5, 1, 30), True),
    (RangeSpec(1, 30, _WIDTH_EDGE - 40, _WIDTH_EDGE - 1), False),
    # rows 1 and 2 pass; row 3 fails in its sixth column
    (RangeSpec(1, 30, _WIDTH_EDGE - 5, _WIDTH_EDGE + 5), True),
    (RangeSpec.square(2**126 + 3, lo=2**126), True),
    # lhs(x, y) stays inside the limit in rows 1 and 2 up to y =
    # 9223372036854775811; only the blend's lhs(y, x) passes it
    (RangeSpec(1, 2, _MIRRORED_EDGE - 6, _MIRRORED_EDGE + 6), "mirrored"),
], ids=["rows-below", "rows-across", "columns-below", "columns-across",
        "2^126", "mirrored-only"])
@pytest.mark.parametrize("mode", FORM_MODES + ["blend-0", "blend-1/2",
                                               "blend-1"])
def test_width_checks_read_off_regions_fail_where_the_oracle_does(mode, rng,
                                                                  fails):
    # simplified carries no width check; the other modes, and the interval
    # blend at one lambda against the per-pair blend, raise with the same
    # message exactly where some pair fails one, and report as the
    # reference does elsewhere. The blend checks lhs(y, x) too, so it alone
    # fails where only that does ("mirrored")
    def outcome(run):
        try:
            if mode in FORM_MODES:
                return run(SWEEPS[mode], rng)
            lam = Fraction(mode.split("-")[1])
            if run is shipped:
                return verify_lemmas(rng, [], [lam])
            return replace(verify_lemmas(rng, [], [per_pair(lam)]),
                           engine="vector")
        except OverflowLimitError as exc:
            return "overflow", str(exc)
    report, reference = outcome(shipped), outcome(oracle)
    overflow = isinstance(reference, tuple)
    assert overflow == (fails is True and mode != "simplified"
                        or fails == "mirrored" and mode not in FORM_MODES)
    if overflow:
        assert report == reference
    else:
        assert same_report(report, reference)


def test_violation_keeps_its_contract():
    v = Violation(3, 4, "even-even", "lhs>0", Fraction(5, 2))
    assert tuple(v) == (3, 4, "even-even", "lhs>0", Fraction(5, 2))
    assert (v.x, v.y, v.case, v.quantity, v.value) == tuple(v)
    # z is a writer constant, not a field
    assert Violation._fields == ("x", "y", "case", "quantity", "value")
    w = Violation(x=3, y=4, case="even-even", quantity="bound-exceeded",
                  value=7)
    assert w == Violation(3, 4, "even-even", "bound-exceeded", 7)
    assert w != v
    # equal rows hash alike, so they dedupe
    assert len({v, w, Violation(3, 4, "even-even", "lhs>0",
                                Fraction(5, 2))}) == 2
    assert v.sort_key() == (3, 4, "lhs>0")
    assert w.sort_key() == (3, 4, "bound-exceeded")
    assert sorted([v, w], key=Violation.sort_key) == [w, v]
    for name in ("x", "y", "case", "quantity", "value", "other"):
        with pytest.raises(AttributeError):
            setattr(v, name, 0)
    for row in (v, w):
        back = pickle.loads(pickle.dumps(row))
        assert back == row and type(back) is Violation
    # a report ships whole, as a process pool would send it
    report = m_bound_sweep(RangeSpec.square(30), Fraction(1),
                           max_violations=50)
    back = pickle.loads(pickle.dumps(report))
    assert back == report and type(back.violations[0]) is Violation


def test_report_rows_keep_the_tuple_contract(wrong_weights):
    # a report's rows read as the tuple of Violation rows of the per-pair
    # reference, and ship whole: a capped mbound report (runs), a direct
    # report whose lhs>0 values change along l (runs of one) and a blend
    # report with Fraction values (runs of one)
    rng, third = PARITY_RANGES["gates"], Fraction(1, 3)
    runs = {
        "mbound": lambda run: run(SWEEPS["mbound"], rng, max_violations=150),
        "direct": lambda run: run(SWEEPS["direct"], rng, max_violations=150),
        # the per-pair blend is the reference of the interval blend
        "blend": lambda run: verify_lemmas(
            RangeSpec.square(12), [],
            [third if run is shipped else per_pair(third)],
            max_violations=150),
    }
    for name, sweep in runs.items():
        report = sweep(shipped)
        back = pickle.loads(pickle.dumps(report))
        rows, ref = report.violations, tuple(sweep(oracle).violations)
        assert 10 < len(rows) == len(ref) <= 150, name
        assert {type(v) for v in ref} == {Violation}
        assert rows == ref and ref == rows and not rows != ref
        assert rows != ref[1:] and ref[:-1] != rows and rows != list(ref)
        assert rows[0] == ref[0] and rows[-1] == ref[-1]
        assert rows[3:9] == ref[3:9] and rows[::-1] == ref[::-1]
        assert rows + rows == ref + ref == rows + ref == ref + rows
        for other in (list(ref), None):
            with pytest.raises(TypeError):
                rows + other
        assert back == report and back.violations == ref
        assert type(back.violations[0]) is Violation
        if name == "blend":
            assert {type(v.value) for v in rows} == {Fraction}
            assert any(v.value.denominator == 3 for v in rows)
        else:
            assert {v.quantity for v in rows} == {
                "weight-above-M" if name == "mbound" else "lhs>0"}


@pytest.mark.parametrize("mode", ["mbound", "direct"])
def test_merged_split_reports_equal_the_single_run_at_every_cap(
        mode, wrong_weights):
    rng = RangeSpec(1, 12, 1, 14)
    total = SWEEPS[mode](rng, max_violations=0).violations_total
    assert total > 20
    for cap in range(total + 2):
        whole = SWEEPS[mode](rng, max_violations=cap)
        for a, b in ((replace(rng, x_max=5), replace(rng, x_min=6)),
                     (replace(rng, y_max=7), replace(rng, y_min=8))):
            merged = merge_reports(SWEEPS[mode](a, max_violations=cap),
                                   SWEEPS[mode](b, max_violations=cap))
            assert same_report(merged, whole), cap
            assert merged.violations == tuple(whole.violations)


def test_closed_forms_are_quadratic_in_l_off_the_diagonal():
    # every closed form but the diagonal's is a quadratic in l at fixed k,
    # as the interval engine's fit in (k, l) requires
    for cell, form in enumerate(weights.CELL_FORMS):
        if cell == DIAGONAL or cell in (0, 3, 6):  # diagonal, or y = 1
            continue
        for k in ((None,) if cell < 3 else (1, 7, 40, 10**6)):
            for l in (1, 5, 39, 10**9):
                f = [form(k, l + s) for s in range(4)]
                assert f[3] - 3 * f[2] + 3 * f[1] - f[0] == 0


@pytest.mark.parametrize("term", [
    lambda k, l: l ** 3,
    # constant along every row, so only a fit in k as well as l sees it
    lambda k, l: k ** 3,
    # 0 on l = 0..3, the points a fit through three or four values reads
    lambda k, l: l * (l - 1) * (l - 2) * (l - 3),
], ids=["l^3", "k^3", "quartic"])
def test_a_closed_form_cubic_in_l_raises(monkeypatch, term):
    forms = list(weights.CELL_FORMS)
    cell = CASE_ORDER.index(ParityCase.EVEN_EVEN)
    forms[cell] = (lambda right: lambda k, l:
                   right(k, l) + term(k, l))(forms[cell])
    monkeypatch.setattr(weights, "CELL_FORMS", tuple(forms))
    for sweep in (verify_simplified, cross_check_simplified):
        with pytest.raises(ValueError, match="not quadratic"):
            sweep(RangeSpec.square(20))


def test_odd_odd_spans_match_the_classifier():
    # the per-row reference that the region tests compare against: rows
    # from k = 1, across k = 9, 10, 20, 21 and 22 where the cuts switch
    # terms and the bands start, and near 10^12; columns from l = 1 and
    # from around each cut, in windows of width 0, 1, 3 and 40
    for k in [*range(1, 90), 10**12 - 1, 10**12, 10**12 + 1, 10**12 + 21]:
        cuts = ((10 * k - 1) // 11, k - 2, k - 1, k, k + 1, k + 2,
                11 * k // 10)
        firsts = {1} | {max(1, c + s) for c in cuts for s in (-1, 0, 1)}
        for first, width in product(sorted(firsts), (0, 1, 3, 40)):
            last = first + width
            spans = list(odd_odd_spans(k, first, last))
            assert [lo for _, lo, _ in spans] == [first] + [
                hi + 1 for _, _, hi in spans[:-1]]
            assert spans[-1][2] == last
            for cell, lo, hi in spans:
                assert all(weights.odd_odd_cell(k, l) == cell
                           for l in range(lo, hi + 1))
                assert cell != DIAGONAL or lo == hi


def basis(terms):
    """Per weight, the doubled quadratic of its term: 2(s + p*l)^2."""
    return ([2 * p * p for _, p in terms], [4 * s * p for s, p in terms],
            [2 * s * s for s, _ in terms])


def form(w, basis):
    """The six-term form with weights w, as a doubled quadratic in l."""
    return tuple(sum(a * b for a, b in zip(w, coefs)) for coefs in basis)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cell=st.integers(0, len(weights.TALLY_KEYS) - 1),
       k=st.integers(1, 10**15), l=st.integers(1, 10**15),
       d=st.sampled_from([-1, 0, 1]))
def test_direct_table_matches_the_per_pair_expansion(cell, k, l, d):
    # each cell's row and column class, with the row x = 1 where the cell's
    # case has it; the diagonal is read at its three offsets d = k - l, where
    # its entry, fitted in k along its line, matches in value
    row_class, column_class = divmod(
        CASE_ORDER.index(weights.CELL_CASES[cell]), 3)
    x = (1, 2 * k, 2 * k + 1)[row_class]
    row = (x, 0, accel_T(x), 0)
    column = cells._POINTS[column_class]
    ys, yp, ts, tp = column
    assert accel_T(ys + yp * l) == ts + tp * l
    entry = cells._direct_table(weights.CELL_WEIGHTS)[cell]
    if cell == DIAGONAL:
        entry, l = entry[d + 1], k - d
    w = weights.cell_weights(cell, k, l)
    direct = cells._in_l(entry, 0 if x == 1 else k)
    expanded = form(w, basis(cells._terms(row, column)))
    if cell == DIAGONAL:
        assert cells._at(direct, l) == cells._at(expanded, l)
    else:
        assert direct == expanded
    assert entry[6] == max(map(abs, w))
    # the pair (y, x): the transposed cell's entry at d' = -d, swapped
    # (cells._swap), is lhs(y, x) as a quadratic in l at row k
    mirror = weights.CELL_TRANSPOSE[cell]
    entry = cells._direct_table(weights.CELL_WEIGHTS)[mirror]
    if cell == DIAGONAL:
        entry = entry[1 - d]
    swapped = cells._in_l(cells._swap(entry), 0 if x == 1 else k)
    expanded = form(weights.cell_weights(mirror, l, k),
                    basis(cells._terms(column, row)))
    if cell == DIAGONAL:
        assert cells._at(swapped, l) == cells._at(expanded, l)
    else:
        assert swapped == expanded


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cell=st.integers(0, len(weights.TALLY_KEYS) - 1),
       k=st.integers(0, 10**15), l=st.integers(0, 10**15),
       d=st.sampled_from([-1, 0, 1]))
def test_closed_table_reproduces_the_closed_forms(cell, k, l, d):
    # the 1 rows and columns take no reduced coordinate, and the diagonal is
    # read on its line l = k - d
    row_class, column_class = divmod(
        CASE_ORDER.index(weights.CELL_CASES[cell]), 3)
    entry = cells._closed_table(weights.CELL_FORMS)[cell]
    if cell == DIAGONAL:
        entry, l = entry[d + 1], k - d
    value = cells._at(cells._in_l(entry, k), l)
    assert value == 2 * weights.CELL_FORMS[cell](
        k if row_class else None, l if column_class else None)


def test_closed_table_is_the_direct_table_on_every_entry():
    # the shipped closed forms are the six-term forms, entry by entry, so a
    # cross sweep flags on no range
    direct = cells._direct_table(weights.CELL_WEIGHTS)
    closed = cells._closed_table(weights.CELL_FORMS)
    for cell in range(len(weights.TALLY_KEYS)):
        for pick in (0, 1, 2) if cell == DIAGONAL else (None,):
            assert (cells._entry(closed, cell, pick)
                    == cells._entry(direct, cell, pick)[:6]), (cell, pick)


def test_merge_keeps_cell_order_sorted():
    # the second row half introduces cells that sort before cells the first
    # half already has; the merged report must still list cells in sorted order
    whole = verify_pseudocontraction(RangeSpec.square(45))
    top = verify_pseudocontraction(RangeSpec(1, 23, 1, 45))
    bottom = verify_pseudocontraction(RangeSpec(24, 45, 1, 45))
    new = set(bottom.per_case) - set(top.per_case)
    assert new and min(new) < max(top.per_case)
    merged = merge_reports(top, bottom)
    assert list(merged.per_case) == list(whole.per_case) == sorted(whole.per_case)
    assert tally_view(merged) == tally_view(whole)


def test_range_validation():
    with pytest.raises(ValueError):
        RangeSpec(0, 5, 1, 5)
    with pytest.raises(ValueError):
        RangeSpec(5, 4, 1, 5)


# === lemma sweeps ===

def test_lemma_sweep_examples():
    report = verify_lemmas(RangeSpec.square(50), thetas=[-2, 0, 2],
                           lambdas=[Fraction(1, 2)])
    assert report.violations_total == 0
    assert report.per_case["lemma1:theta=-2"].pairs == 50**3
    assert report.per_case["lemma2-identity:lambda=1/2"].pairs == 2500


def triangle_gap_oracle(rng, thetas):
    """verify_lemmas's report on the triangle-gap lemma alone, built triple
    by triple from framework.lemma1_gap."""
    cap = verifier.DEFAULT_MAX_VIOLATIONS
    axis = range(rng.x_min, rng.x_max + 1)
    per_case, flags = {}, []
    for theta in map(Fraction, thetas):
        key = f"lemma1:theta={format_rational(theta)}"
        per_case[key] = CaseTally(len(axis) ** 3)
        flags += [Violation(x, y, key, "lemma1-gap<0", gap)
                  for x, y, z in product(axis, repeat=3)
                  for gap in [lemma1_gap(theta, x, y, z)] if gap < 0]
    return VerificationReport(
        op="lemmas", rng=rng, pairs_checked=len(thetas) * len(axis) ** 3,
        per_case=dict(sorted(per_case.items())),
        violations=tuple(sorted(flags, key=Violation.sort_key))[:cap],
        violations_total=len(flags), elapsed_ms=0, engine="vector",
        params={"thetas": ",".join(format_rational(Fraction(t))
                                   for t in thetas), "lambdas": ""},
        max_violations=cap)


def per_pair(value):
    """A constant lambda that does not say so, which verify_lemmas blends
    pair by pair: the per-pair reference of the interval blend."""
    spec = LambdaSpec.const(value)
    return LambdaSpec(spec, spec.label)


def test_lemmas_reject_a_case_filter():
    # neither lemma is per parity case: a filter would be ignored
    rng = RangeSpec.square(12, cases=[ParityCase.EVEN_EVEN])
    with pytest.raises(ValueError, match="parity-case filter"):
        verify_lemmas(rng, [-1], [Fraction(1, 2)])


def test_lemma_sweep_engine_parity():
    thetas = [Fraction(-5, 2), -1, Fraction(-1, 3), 0, Fraction(1, 2)]
    lambdas = [0, Fraction(1, 4), 1]
    for rng in (RangeSpec.square(24), RangeSpec.square(10**15 + 23, lo=10**15)):
        gap = verify_lemmas(rng, thetas, [])
        assert same_report(gap, triangle_gap_oracle(rng, thetas))
        blend = verify_lemmas(rng, [], lambdas)
        scalar = verify_lemmas(rng, [], [per_pair(v) for v in lambdas])
        assert (blend.engine, scalar.engine) == ("vector", "scalar")
        assert same_report(blend, replace(scalar, engine="vector"))
        both = verify_lemmas(rng, thetas, lambdas)
        assert both.violations_total == 0
        assert both.per_case == {**gap.per_case, **blend.per_case}
        assert list(both.per_case) == sorted(both.per_case)


def test_triangle_gap_lemma_counts_its_triples_at_any_size():
    # the pass is an identity (framework.lemma1_gap): it counts each
    # theta's triples and makes no width check, even at 2^126
    far = verify_lemmas(RangeSpec.square(2**126 + 3, lo=2**126),
                        [-1, Fraction(1, 2)], [])
    assert far.pairs_checked == 2 * 4**3
    assert far.violations_total == 0 and far.violations == ()
    # and costs nothing per triple
    big = verify_lemmas(RangeSpec.square(10**9),
                        [-3, Fraction(-1, 2), 0, 2], [])
    assert big.pairs_checked == 4 * 10**27
    assert big.per_case["lemma1:theta=-1/2"].pairs == 10**27
    assert big.violations_total == 0


_POINT = st.one_of(st.integers(1, 2**70).map(cells._row),
                   st.sampled_from(cells._POINTS))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(s=st.lists(st.integers(-10**6, 10**6), min_size=6, max_size=6),
       u=_POINT, v=_POINT)
def test_blend_swaps_the_terms_of_a_transposed_pair(s, u, v):
    # the terms of (v, u) are those of (u, v) in the order (0, 2, 1, 3, 5,
    # 4), so the interval blend's form is its identity's right side by
    # linearity, for every weight row
    swapped = [s[i] for i in (0, 2, 1, 3, 5, 4)]
    assert (form(swapped, basis(cells._terms(u, v)))
            == form(s, basis(cells._terms(v, u))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=st.integers(-50, 50), b=st.integers(-3000, 3000),
       c=st.integers(-10**6, 10**6), lo=st.integers(-40, 40),
       width=st.integers(0, 40))
def test_top_is_the_largest_value_on_the_integers(a, b, c, lo, width):
    q = (a, b, c)
    assert cells._top(q, lo, lo + width) == max(
        cells._at(q, l) for l in range(lo, lo + width + 1))


def test_capped_lemma_reports_are_prefixes(wrong_weights):
    # the wrong even-even row makes both lambdas flag, with pairs
    # interleaved across the two passes; theta = -1 counts and flags none
    args = (RangeSpec.square(12), [-1], [Fraction(1, 3), Fraction(1, 2)])
    full = verify_lemmas(*args, max_violations=10**6)
    assert {v.case.split(":")[0] for v in full.violations} == {
        "lemma2-nonpositive"}
    assert {v.case for v in full.violations} == {
        "lemma2-nonpositive:lambda=1/3", "lemma2-nonpositive:lambda=1/2"}
    for cap in range(1, full.violations_total + 1):
        capped = verify_lemmas(*args, max_violations=cap)
        assert capped.violations == full.violations[:cap], cap
        assert capped.violations_total == full.violations_total


def test_lemma_sweep_rejects_bad_lambda():
    with pytest.raises(ValueError):
        verify_lemmas(RangeSpec.square(10), thetas=[0], lambdas=[Fraction(3, 2)])


def test_lemma_sweep_engine_label_names_what_ran():
    # the blend lemma runs on intervals wherever every lambda is constant
    half = [Fraction(1, 2)]
    oblong = RangeSpec(1, 10, 1, 12)
    assert verify_lemmas(oblong, [], half).engine == "vector"
    assert verify_lemmas(oblong, [-1], half).engine == "vector"
    assert verify_lemmas(oblong, [-1], []).engine == "vector"
    per_case = LambdaSpec(lambda x, y: Fraction(x % 2), "x mod 2")
    square = RangeSpec.square(12)
    assert verify_lemmas(square, [], [per_case]).engine == "scalar"
    # a theta < 0 runs no engine, so it leaves the label to the blend
    assert verify_lemmas(square, [-1], [per_case]).engine == "scalar"
    assert verify_lemmas(square, [-1], half).engine == "vector"


def test_triangle_gap_lemma_runs_vectorized_on_far_squares():
    rng = RangeSpec.square(10**15 + 30, lo=10**15)
    thetas = [Fraction(-5, 2), -1]
    vector = verify_lemmas(rng, thetas, [])
    assert vector.engine == "vector"
    assert same_report(vector, triangle_gap_oracle(rng, thetas))
    assert vector.violations_total == 0


BLEND_LAMBDAS = [0, Fraction(1, 3), Fraction(1, 2), 1]


@pytest.mark.parametrize("lo", [10**12, 10**15])
def test_blend_lemma_runs_vectorized_on_far_squares(lo):
    rng = RangeSpec.square(lo + 40, lo=lo)
    vector = verify_lemmas(rng, [], BLEND_LAMBDAS)
    scalar = verify_lemmas(rng, [], [per_pair(v) for v in BLEND_LAMBDAS])
    assert (vector.engine, scalar.engine) == ("vector", "scalar")
    assert same_report(vector, replace(scalar, engine="vector"))
    assert vector.pairs_checked == 8 * 41 * 41


@pytest.mark.parametrize("rng", [RangeSpec.square(60), RangeSpec(1, 40, 1, 70),
                                 RangeSpec(31, 70, 5, 44)],
                         ids=["square", "rectangle", "offset"])
def test_blend_lemma_matches_scalar(rng):
    vector = verify_lemmas(rng, [], BLEND_LAMBDAS)
    scalar = verify_lemmas(rng, [], [per_pair(v) for v in BLEND_LAMBDAS])
    assert (vector.engine, scalar.engine) == ("vector", "scalar")
    assert same_report(vector, replace(scalar, engine="vector"))


def test_blend_lemma_flags_match_scalar(monkeypatch):
    # delta = +1 on even-even makes those forms positive, so the
    # nonpositivity check flags, with values, under a cap that ends mid-row
    rows = list(weights.CELL_WEIGHTS)
    rows[CASE_ORDER.index(ParityCase.EVEN_EVEN)] = (1, 0, -1, 1, -1, 1)
    monkeypatch.setattr(weights, "CELL_WEIGHTS", tuple(rows))
    rng = RangeSpec(1, 40, 1, 70)
    lambdas = [Fraction(1, 3), Fraction(1, 2)]
    # the first lambda alone flags more than 200, the 200th inside a row
    first = verify_lemmas(rng, [], [per_pair(lambdas[0])],
                          max_violations=10**6)
    assert ends_mid_row(first, 200)
    vector = verify_lemmas(rng, [], lambdas, max_violations=200)
    scalar = verify_lemmas(rng, [], [per_pair(v) for v in lambdas],
                           max_violations=200)
    assert same_report(vector, replace(scalar, engine="vector"))
    assert len(vector.violations) == 200


# === condition coverage ===

def test_coverage_reproduces_the_flat_lambda_analysis():
    report = condition_coverage(RangeSpec.square(99), REMARK, KIND35)
    assert report.pairs_checked == 99 * 99
    assert sum(c.pairs for c in report.cells.values()) == report.pairs_checked
    for key in ("1-1", "1-even", "1-odd", "even-1", "even-even",
                "even-odd", "odd-1"):
        assert report.cells[key].fails == 0, key
    ge = report.cells["odd-odd:x>=y"]
    assert ge.fails == 0
    assert sorted(ge.weight_tuples) == [
        (2, 0, 0, -1, 0, 0), (2, 1, -1, -1, 0, 0),
        (2, 2, -2, -2, 0, 2), (2, 2, -2, -1, 0, 0)]
    assert ge.b_sums == {Fraction(2), Fraction(3), Fraction(4), Fraction(6)}
    assert ge.ratios == {Fraction(1, 2)}
    lt = report.cells["odd-odd:x<y"]
    assert lt.fails == lt.pairs
    assert lt.example_fail == (3, 5)
    assert report.cells["odd-even"].fails == report.cells["odd-even"].pairs
    assert report.m_violations == 0


def test_coverage_differs_between_blend_readings():
    flat = condition_coverage(RangeSpec.square(60), REMARK, KIND35)
    strict = condition_coverage(
        RangeSpec.square(60),
        ConditionParams(LAM1, Fraction(1, 2), Fraction(2), Fraction(2)),
        KIND35)
    ee_flat, ee_strict = flat.cells["even-even"], strict.cells["even-even"]
    assert ee_flat.holds_first == ee_flat.pairs and ee_flat.holds_mirrored == 0
    assert ee_strict.holds_first == 0 and ee_strict.holds_mirrored == ee_strict.pairs
    # mixed-parity witness drift: the first-branch ratio changes at (1, even)
    assert flat.cells["1-even"].ratios == {Fraction(1, 2)}
    assert strict.cells["1-even"].ratios == {Fraction(0)}


def test_coverage_is_deterministic():
    a = condition_coverage(RangeSpec.square(40), REMARK, KIND35)
    b = condition_coverage(RangeSpec.square(40), REMARK, KIND35)
    assert a.cells == b.cells and a.holds_total == b.holds_total


def test_coverage_m_lambda_flag():
    report = condition_coverage(RangeSpec.square(40), REMARK, KIND35,
                                m_lambda=True)
    assert report.m_lambda_violations == 0


def test_coverage_other_condition_families():
    params = ConditionParams(LAM0, Fraction(1, 2))
    one = condition_coverage(RangeSpec.square(30), params, ConditionId(1, 1))
    assert one.pairs_checked == 900
    assert one.m_violations is None
    # condition (1) fails wherever the beta-positive quantity is 0
    assert one.fails_total > 0


def test_coverage_corrected_c4_changes_outcomes():
    params = ConditionParams(LAM0, Fraction(1, 2))
    printed = condition_coverage(RangeSpec(1, 1, 1, 1), params,
                                 ConditionId(1, 4))
    corrected = condition_coverage(RangeSpec(1, 1, 1, 1), params,
                                   ConditionId(1, 4), corrected_c4=True)
    assert printed.holds_total == 0
    assert corrected.holds_total == 1


def fold_coverage_per_pair(rng, params, kind, m_lambda=False):
    """condition_coverage as a per-pair fold: check_condition at every pair,
    in row-major order."""
    cells = {key: coverage.CoverageCell() for key in coverage.COVERAGE_KEYS}
    holds = fails = m_viol = ml_viol = 0
    for x in range(rng.x_min, rng.x_max + 1):
        for y in range(rng.y_min, rng.y_max + 1):
            case = classify(x, y).case
            if not rng.admits(case):
                continue
            out = check_condition(kind, weight_vector, params, x, y,
                                  m_lambda=m_lambda)
            cell = cells[case.label if case is not ParityCase.ODD_ODD
                         else "odd-odd:x>=y" if x >= y else "odd-odd:x<y"]
            cell.pairs += 1
            if out.holds:
                holds += 1
                if out.branch == "mirrored":
                    cell.holds_mirrored += 1
                else:
                    cell.holds_first += 1
                cell.example_hold = cell.example_hold or (x, y)
                if kind.number == 5:
                    side = "first" if out.branch == "first" else "mirror"
                    cell._note_set(cell.weight_tuples,
                                   weight_vector(x, y).as_tuple())
                    cell._note_set(cell.ratios, out.witnesses[f"{side}_ratio"])
                    cell._note_set(cell.b_sums,
                                   out.witnesses.get(f"{side}_b_sum"))
            else:
                fails += 1
                cell.fails += 1
                cell.example_fail = cell.example_fail or (x, y)
            m_viol += not out.witnesses.get("m_ok", True)
            ml_viol += not out.witnesses.get("m_lambda_ok", True)
    return ({k: c for k, c in cells.items() if c.pairs}, holds, fails,
            m_viol, ml_viol)


@pytest.mark.parametrize("kind,m_lambda", [
    (ConditionId(1, 5), False), (ConditionId(3, 5), True),
    (ConditionId(2, 3), False)])
def test_coverage_with_a_per_pair_lambda_matches_a_per_pair_fold(kind,
                                                                 m_lambda):
    # every pair has its own lambda; the 1-even ratios outrun the witness cap
    lam = LambdaSpec(lambda x, y: Fraction((7 * x + 3 * y) % 101, 100), "mix")
    params = ConditionParams(lam, Fraction(1, 2), Fraction(1, 2),
                             Fraction(3, 2))
    rng = RangeSpec(1, 3, 1, 400)
    report = condition_coverage(rng, params, kind, m_lambda=m_lambda)
    cells, holds, fails, m_viol, ml_viol = fold_coverage_per_pair(
        rng, params, kind, m_lambda)
    assert report.cells == cells
    assert list(report.cells) == list(cells)
    assert (report.holds_total, report.fails_total) == (holds, fails)
    assert report.pairs_checked == holds + fails == 1200
    if kind == ConditionId(3, 5):
        assert (report.m_violations, report.m_lambda_violations) == (
            m_viol, ml_viol)
        assert 0 < report.m_lambda_violations < report.m_violations
    else:
        assert report.m_violations is report.m_lambda_violations is None
    if kind.number == 5:
        assert cells["1-even"].truncated
        assert len(cells["1-even"].ratios) == coverage._WITNESS_SET_CAP


@pytest.mark.parametrize("lam", [
    LambdaSpec.const(Fraction(1, 3)),
    weights.case_lambda(dict.fromkeys(weights.CASE_ORDER, Fraction(1, 2)))],
    ids=["const", "uniform-table"])
def test_signatures_read_a_constant_lambda_without_calling_it(lam,
                                                              monkeypatch):
    rng = RangeSpec(1, 30, 1, 40)
    value = lam.constant
    per_pair = coverage._signatures(rng, LambdaSpec(lambda x, y: value, "same"))

    def refuse(self, x, y):
        raise AssertionError("constant lambda called per pair")

    monkeypatch.setattr(LambdaSpec, "__call__", refuse)
    assert list(coverage._signatures(rng, lam).items()) == list(per_pair.items())


# === lambda grid search ===

def test_search_cannot_cover_everything():
    result = search_lambda(RangeSpec.square(99), 1, [Fraction(1, 2)], KIND35,
                           B=Fraction(2), M=Fraction(2))
    assert result.assignments_scored == 2**9
    assert not result.budget_exhausted
    assert result.coverage < 1
    assert "odd-odd" in result.irreducible_cells


def test_search_full_coverage_on_even_even():
    rng = RangeSpec(1, 200, 1, 200, frozenset({ParityCase.EVEN_EVEN}))
    result = search_lambda(rng, 0, [Fraction(1, 2)], KIND35,
                           B=Fraction(2), M=Fraction(2))
    assert result.coverage == 1
    assert result.total == 100 * 100


def test_search_rejects_empty_a_grid():
    with pytest.raises(ValueError):
        search_lambda(RangeSpec.square(10), 1, [], KIND35)


def test_search_is_deterministic():
    a = search_lambda(RangeSpec.square(60), 1, [Fraction(1, 3), Fraction(1, 2)],
                      KIND35, B=Fraction(2), M=Fraction(2))
    b = search_lambda(RangeSpec.square(60), 1, [Fraction(1, 3), Fraction(1, 2)],
                      KIND35, B=Fraction(2), M=Fraction(2))
    assert a.best_lambda == b.best_lambda
    assert a.best_a == b.best_a
    assert a.covered == b.covered


def test_search_coverage_recomputes_from_assignment():
    from collatzlab.weights import CASE_BY_LABEL, case_lambda, classify

    result = search_lambda(RangeSpec.square(40), 1, [Fraction(1, 2)], KIND35,
                           B=Fraction(2), M=Fraction(2))
    lam = case_lambda({CASE_BY_LABEL[k]: v for k, v in result.best_lambda.items()})
    params = ConditionParams(lam, result.best_a, Fraction(2), Fraction(2))
    report = condition_coverage(RangeSpec.square(40), params, KIND35)
    assert report.holds_total == result.covered
    assert report.pairs_checked == result.total


def test_search_budget_pruning_still_returns_a_result():
    result = search_lambda(RangeSpec.square(30), 2, [Fraction(1, 2)], KIND35,
                           B=Fraction(2), M=Fraction(2), budget=100)
    assert result.budget_exhausted
    assert result.assignments_scored <= 100
    assert result.covered > 0
    whole = search_lambda(RangeSpec.square(30), 2, [Fraction(1, 2)], KIND35,
                          B=Fraction(2), M=Fraction(2))
    assert not whole.budget_exhausted
    assert whole.assignments_scored == 3**9
    for name in ("best_lambda", "best_a", "covered", "cell_coverage"):
        assert getattr(result, name) == getattr(whole, name), name


def brute_force_search(rng, q, a_grid, kind, B=None, M=None,
                       budget=verifier.DEFAULT_SEARCH_BUDGET):
    """search_lambda by enumeration: outcomes tabulated pair by pair over the
    lambda pairs an assignment can give it (one value twice where the case
    is its own transpose), then every assignment of the (pruned) product
    scored."""
    values = [Fraction(i, q) for i in range(q + 1)] if q else [Fraction(0)]
    a_values = sorted({Fraction(a) for a in a_grid})
    sat = {c: {} for c in CASE_ORDER}
    total = dict.fromkeys(CASE_ORDER, 0)
    for x in range(rng.x_min, rng.x_max + 1):
        for y in range(rng.y_min, rng.y_max + 1):
            case = classify(x, y).case
            if not rng.admits(case):
                continue
            total[case] += 1
            for v1, v2, a in product(values, values, a_values):
                if case.transpose is case and v1 != v2:
                    continue
                lam = LambdaSpec(lambda u, w, x=x, y=y, v1=v1, v2=v2:
                                 v1 if (u, w) == (x, y) else v2, "pair")
                if check_condition(kind, weight_vector,
                                   ConditionParams(lam, a, B, M), x, y).holds:
                    sat[case][v1, v2, a] = sat[case].get((v1, v2, a), 0) + 1
    present = [c for c in CASE_ORDER if total[c]]
    exhausted = len(values) ** 9 * len(a_values) > budget
    keep = max(1, int(max(1, budget // len(a_values)) ** (1.0 / 6)))
    best = None
    scored = 0
    for a in a_values:
        per_group = []
        for group in coverage._SEARCH_GROUPS:
            if len(group) == 1:
                c = group[0]
                combos = [((v,), sat[c].get((v, v, a), 0)) for v in values]
            else:
                c, tc = group
                combos = [((v1, v2), sat[c].get((v1, v2, a), 0)
                           + sat[tc].get((v2, v1, a), 0))
                          for v1 in values for v2 in values]
            if exhausted:
                combos = sorted(combos, key=lambda cv: (-cv[1], cv[0]))[:keep]
            per_group.append([vals for vals, _ in combos])
        for pick in product(*per_group):
            assign = {}
            for group, vals in zip(coverage._SEARCH_GROUPS, pick):
                assign.update(zip(group, vals))
            scored += 1
            cov = sum(sat[c].get((assign[c], assign[c.transpose], a), 0)
                      for c in present)
            key = (-cov, tuple(assign[c] for c in CASE_ORDER), a)
            if best is None or key < best[0]:
                best = (key, assign)
    (neg_cov, _, best_a), assign = best
    return verifier.LambdaSearchResult(
        q=q, a_grid=tuple(a_values), kind=kind, rng=rng, budget=budget,
        assignments_scored=scored, budget_exhausted=exhausted,
        best_lambda={c.label: assign[c] for c in CASE_ORDER}, best_a=best_a,
        covered=-neg_cov, total=sum(total.values()),
        cell_coverage={c.label: (sat[c].get((assign[c], assign[c.transpose],
                                             best_a), 0), total[c])
                       for c in present},
        irreducible_cells=tuple(c.label for c in present
                                if max(sat[c].values(), default=0) < total[c]),
        elapsed_ms=0)


SEARCH_RANGES = {
    "square": RangeSpec.square(12),
    "oblong": RangeSpec(3, 14, 1, 9),
    "far": RangeSpec.square(10**6 + 9, lo=10**6),
    "filtered": RangeSpec(1, 16, 1, 16, frozenset({
        ParityCase.ONE_EVEN, ParityCase.ODD_ODD, ParityCase.EVEN_ODD})),
}


@pytest.mark.parametrize("where,q,a_grid,kind,budget", [
    ("square", 0, ["1/2"], ConditionId(3, 5), None),
    ("square", 1, ["1/4", "1/2"], ConditionId(1, 5), None),
    ("oblong", 1, ["1/2"], ConditionId(2, 1), 100),
    ("far", 2, ["1/2"], ConditionId(3, 5), None),
    ("far", 1, ["1/3", "3/4"], ConditionId(1, 3), 1000),
    ("filtered", 2, ["1/2", "3/4"], ConditionId(1, 5), 1000),
    ("oblong", 3, ["1/2"], ConditionId(3, 5), 100),
    ("square", 3, ["1/3", "1/2"], ConditionId(2, 3), 1000),
    # keeps four candidates per group, more than a one-case group has
    ("square", 2, ["1/2"], ConditionId(1, 5), 10_000),
])
def test_search_matches_a_brute_force_product(where, q, a_grid, kind, budget):
    rng = SEARCH_RANGES[where]
    extra = {"B": Fraction(2), "M": Fraction(2)} if kind.theorem == 3 else {}
    if budget is not None:
        extra["budget"] = budget
    a_grid = [Fraction(a) for a in a_grid]
    result = search_lambda(rng, q, a_grid, kind, **extra)
    want = brute_force_search(rng, q, a_grid, kind, **extra)
    assert replace(result, elapsed_ms=0) == want
    assert list(result.cell_coverage) == list(want.cell_coverage)
    assert result.budget_exhausted == (budget is not None)


# === orbit decay sweep ===

def test_decay_sweep_is_clean_for_small_seeds():
    params = ConditionParams(LAM0, Fraction(1, 2))
    report = orbit_decay_sweep(1, 1000, params)
    assert report.violations_total == 0
    held = report.per_case["premise-held"].pairs
    failed = report.per_case["premise-failed"].pairs
    assert held + failed == report.pairs_checked


def test_decay_sweep_full_mode_matches_per_orbit_reports():
    from collatzlab.collatz import accel_T
    from collatzlab.framework import check_orbit_decay, iterate_orbit
    from collatzlab.weights import weight_vector

    params = ConditionParams(LAM0, Fraction(1, 2))
    sweep = orbit_decay_sweep(1, 300, params, dedup=False, telescoped=False)
    held = failed = 0
    for seed in range(1, 301):
        rep = check_orbit_decay(iterate_orbit(accel_T, seed, 10**5),
                                weight_vector, params)
        held += rep.premise_held
        failed += rep.premise_failed
        assert rep.violations == ()
    assert sweep.per_case["premise-held"].pairs == held
    assert sweep.per_case["premise-failed"].pairs == failed
    assert sweep.violations_total == 0


def test_decay_sweep_dedup_covers_the_same_violations():
    # weights whose premise holds everywhere yet bound nothing: expanding
    # orbit steps then violate, and both walking modes must flag the same
    # set of offending orbit pairs
    from collatzlab.framework import WeightVector

    def flat(x, y):
        return WeightVector(1, 0, 0, 0, 0, 1)

    params = ConditionParams(LAM0, Fraction(1, 2))
    full = orbit_decay_sweep(1, 400, params, W=flat, dedup=False,
                             telescoped=False)
    dedup = orbit_decay_sweep(1, 400, params, W=flat, dedup=True,
                              telescoped=False)
    assert full.violations_total > 0
    full_set = {(v.x, v.y, v.quantity) for v in full.violations}
    dedup_set = {(v.x, v.y, v.quantity) for v in dedup.violations}
    assert full_set == dedup_set


@pytest.mark.parametrize("lam", [
    LambdaSpec.const(Fraction(1, 3)),
    weights.case_lambda(dict.fromkeys(weights.CASE_ORDER, Fraction(1, 2))),
    weights.case_lambda({c: Fraction(i % 3, 2)
                         for i, c in enumerate(weights.CASE_ORDER)})],
    ids=["const", "uniform-table", "per-case-table"])
def test_decay_premise_reads_a_constant_lambda_without_calling_it(
        lam, monkeypatch):
    # a spec without `constant` is the per-step reference
    params = ConditionParams(lam, Fraction(1, 2))
    reference = orbit_decay_sweep(1, 300, ConditionParams(
        LambdaSpec(lam, lam.label), Fraction(1, 2)))
    if lam.constant is not None:
        # condition checks on a premise miss may call the spec; the premise
        # keys may not
        real_call, real_check = LambdaSpec.__call__, verifier.check_condition
        inside = []

        def refuse(self, x, y):
            if not inside:
                raise AssertionError("constant lambda called per step")
            return real_call(self, x, y)

        def check(*args, **kwargs):
            inside.append(True)
            try:
                return real_check(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(LambdaSpec, "__call__", refuse)
        monkeypatch.setattr(verifier, "check_condition", check)
    assert same_report(orbit_decay_sweep(1, 300, params), reference)


def test_decay_sweep_merges_over_seed_blocks():
    params = ConditionParams(LAM0, Fraction(1, 2))
    whole = orbit_decay_sweep(1, 500, params)
    merged = merge_reports(orbit_decay_sweep(1, 250, params),
                           orbit_decay_sweep(251, 500, params))
    assert merged.pairs_checked == whole.pairs_checked
    assert {k: t.pairs for k, t in merged.per_case.items()} == \
           {k: t.pairs for k, t in whole.per_case.items()}


def _flat(x, y):
    # weights whose premise holds everywhere yet bound nothing, so expanding
    # orbit steps violate
    return WeightVector(1, 0, 0, 0, 0, 1)


@pytest.mark.parametrize("dedup", [False, True])
def test_capped_decay_reports_are_heads(dedup):
    # the kept rows are the least by sort key, ties in seed order, whatever
    # the seed order in which they are found; split seed ranges merge to the
    # single run at every cap
    params = ConditionParams(LAM0, Fraction(1, 3))

    def sweep(lo, hi, cap):
        return orbit_decay_sweep(lo, hi, params, W=_flat, dedup=dedup,
                                 max_violations=cap)

    full = sweep(1, 300, 10**6)
    total = full.violations_total
    assert total == len(full.violations) > 100
    assert list(full.violations) == sorted(full.violations,
                                           key=Violation.sort_key)
    if not dedup:
        # seed order would have kept (26, 13) last
        assert full.violations[49][:3] == (4, 2, "even-even")
    for cap in sorted({0, 1, 50, total - 1, total, total + 7}):
        capped = sweep(1, 300, cap)
        assert capped.violations_total == total
        assert capped.violations == full.violations[:cap]
        for cut in (1, 77, 150, 299):
            assert same_report(merge_reports(sweep(1, cut, cap),
                                             sweep(cut + 1, 300, cap)),
                               capped), (cap, cut)

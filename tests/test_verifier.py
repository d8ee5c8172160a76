"""Sweep engines: pair sweeps (both engines), report merging, lemma sweeps,
condition coverage, the lambda grid search and orbit decay."""

import json
import os
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from collatzlab import cli, verifier, weights
from collatzlab.arith import OverflowLimitError
from collatzlab.framework import (
    ConditionId,
    ConditionParams,
    LambdaSpec,
    check_condition,
    metric_d,
)
from collatzlab.verifier import (
    RangeSpec,
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
    DIAGONAL,
    ParityCase,
    classify,
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
    scalar = SWEEPS[mode](rng, engine="scalar")
    vector = SWEEPS[mode](rng, engine="vector")
    assert scalar.engine == "scalar" and vector.engine == "vector"
    assert same_report(vector, replace(scalar, engine="vector"))
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
    scalar = SWEEPS[mode](rng, engine="scalar", max_violations=cap)
    interval = SWEEPS[mode](rng, max_violations=cap)
    assert same_report(interval, replace(scalar, engine="vector"))


@pytest.mark.parametrize("engine", ["auto", "scalar"])
def test_six_term_overflow_raises_on_both_engines(engine):
    rng = RangeSpec.square(2**126 + 3, lo=2**126)
    with pytest.raises(OverflowLimitError):
        verify_pseudocontraction(rng, engine=engine)


def test_engines_agree_on_violations_too():
    # an M cap of 1 is genuinely violated wherever |w| = 2
    rng = RangeSpec.square(40)
    scalar = m_bound_sweep(rng, Fraction(1), engine="scalar")
    vector = m_bound_sweep(rng, Fraction(1), engine="vector")
    assert scalar.violations_total == vector.violations_total > 0
    assert scalar.violations == vector.violations
    first = scalar.violations[0]
    assert (first.x, first.y) == (1, 3)  # zeta(1, 3) = 2 > 1, row-major first
    assert first.value == 2


def test_m_bound_with_a_denominator_beyond_int64():
    rng = RangeSpec.square(12)
    tiny = Fraction(1, 10**20)
    scalar = m_bound_sweep(rng, tiny, engine="scalar")
    vector = m_bound_sweep(rng, tiny, engine="vector")
    assert scalar.violations_total == vector.violations_total == 144
    assert scalar.violations == vector.violations


def test_m_bound_two_is_clean():
    assert m_bound_sweep(RangeSpec.square(300)).violations_total == 0


def test_violation_cap_keeps_total_exact():
    report = m_bound_sweep(RangeSpec.square(60), Fraction(1), max_violations=5)
    assert len(report.violations) == 5
    assert report.violations_total > 5


def test_merge_over_partition_equals_whole():
    whole = verify_pseudocontraction(RangeSpec.square(80), engine="scalar")
    a = verify_pseudocontraction(RangeSpec(1, 30, 1, 80), engine="scalar")
    b = verify_pseudocontraction(RangeSpec(31, 80, 1, 80), engine="scalar")
    merged = merge_reports(a, b)
    assert merged.pairs_checked == whole.pairs_checked
    assert tally_view(merged) == tally_view(whole)
    assert merged.violations == whole.violations
    assert merged.rng == whole.rng


def test_merge_with_violations_is_order_insensitive():
    a = m_bound_sweep(RangeSpec(1, 20, 1, 40), Fraction(1), engine="scalar")
    b = m_bound_sweep(RangeSpec(21, 40, 1, 40), Fraction(1), engine="scalar")
    whole = m_bound_sweep(RangeSpec.square(40), Fraction(1), engine="scalar")
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
    # 17, two jobs give the bytes of one, and the scalar engine's flags
    args = ("--max", "60", "--mode", "mbound", "--M", "1",
            "--violations-cap", "700")
    single = verify_cli(tmp_path, "1.json", *args, "--jobs", "1")
    assert single == verify_cli(tmp_path, "2.json", *args, "--jobs", "2")
    code, scalar = verify_cli(tmp_path, "s.json", *args, "--engine", "scalar")
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


def test_unknown_engine_is_rejected():
    for engine in ("sclar", "vectr", "", "Vector"):
        with pytest.raises(ValueError, match="engine"):
            verify_pseudocontraction(RangeSpec.square(5), engine=engine)
        with pytest.raises(ValueError, match="engine"):
            verify_lemmas(RangeSpec.square(5), [-1], [Fraction(1, 2)],
                          engine=engine)


@pytest.fixture
def wrong_forms(monkeypatch):
    """Closed forms that are off, for both engines, since sweeps of the true
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
    monkeypatch.setattr(verifier, "CELL_FORMS", tuple(forms))


def ends_mid_row(report, cap):
    """Whether the first `cap` flags of a report end inside a row."""
    return report.violations[cap - 1].x == report.violations[cap].x


@pytest.mark.parametrize("mode", ["simplified", "cross"])
def test_far_flags_and_values_match_scalar(mode, wrong_forms):
    rng = RangeSpec.square(10**15 + 40, lo=10**15)
    assert ends_mid_row(SWEEPS[mode](rng, engine="scalar",
                                     max_violations=10**6), 150)
    scalar = SWEEPS[mode](rng, engine="scalar", max_violations=150)
    interval = SWEEPS[mode](rng, max_violations=150)
    assert same_report(interval, replace(scalar, engine="vector"))
    assert len(interval.violations) == 150 < interval.violations_total
    assert max(abs(v.value) for v in interval.violations) > 10**14


@pytest.mark.parametrize("mode", SWEEPS)
def test_far_evaluation_at_its_guard(mode, wrong_forms):
    # an 8-square at 32770 (k from 16385, l up to 16388): rows where the
    # wrong even-even form turns positive as l passes k, and the least range
    # the old int64 base-K evaluation admitted
    rng = RangeSpec.square(32777, lo=32770)
    scalar = SWEEPS[mode](rng, engine="scalar")
    interval = SWEEPS[mode](rng)
    assert same_report(interval, replace(scalar, engine="vector"))
    assert (interval.violations_total > 0) == (mode not in ("direct",
                                                            "bounds"))


@pytest.mark.parametrize("where", PARITY_RANGES)
@pytest.mark.parametrize("mode", ["simplified", "cross"])
def test_wrong_forms_match_scalar(mode, where, wrong_forms):
    rng = PARITY_RANGES[where]
    scalar = SWEEPS[mode](rng, engine="scalar", max_violations=150)
    interval = SWEEPS[mode](rng, max_violations=150)
    assert same_report(interval, replace(scalar, engine="vector"))


@pytest.mark.parametrize("cap", [3, 150, 10**5])
@pytest.mark.parametrize("mode", SWEEPS)
def test_wrong_forms_match_scalar_on_a_near_rectangle(mode, cap, wrong_forms):
    rng = PARITY_RANGES["gates"]
    scalar = SWEEPS[mode](rng, engine="scalar", max_violations=cap)
    interval = SWEEPS[mode](rng, max_violations=cap)
    assert same_report(interval, replace(scalar, engine="vector"))
    assert (interval.violations_total > 0) == (mode not in ("direct",
                                                            "bounds"))
    if interval.violations_total > cap:
        full = SWEEPS[mode](rng, engine="scalar", max_violations=10**6)
        assert ends_mid_row(full, cap)


def test_closed_forms_are_quadratic_in_l_off_the_diagonal():
    # the interval engine reads every closed form but the diagonal's as a
    # quadratic in l at fixed k, from three values
    for cell, form in enumerate(weights.CELL_FORMS):
        if cell == DIAGONAL or cell in (0, 3, 6):  # diagonal, or y = 1
            continue
        for k in ((None,) if cell < 3 else (1, 7, 40, 10**6)):
            for l in (1, 5, 39, 10**9):
                f = [form(k, l + s) for s in range(4)]
                assert f[3] - 3 * f[2] + 3 * f[1] - f[0] == 0


def test_a_closed_form_cubic_in_l_raises(monkeypatch):
    forms = list(weights.CELL_FORMS)
    cell = CASE_ORDER.index(ParityCase.EVEN_EVEN)
    forms[cell] = (lambda right: lambda k, l:
                   right(k, l) + l ** 3)(forms[cell])
    monkeypatch.setattr(verifier, "CELL_FORMS", tuple(forms))
    for sweep in (verify_simplified, cross_check_simplified):
        with pytest.raises(ValueError, match="not quadratic"):
            sweep(RangeSpec.square(20))


def test_odd_odd_spans_match_the_classifier():
    for k in range(1, 90):
        spans = list(verifier._odd_odd_spans(k, 1, 120))
        assert [lo for _, lo, _ in spans] == [1] + [
            hi + 1 for _, _, hi in spans[:-1]]
        assert spans[-1][2] == 120
        for cell, lo, hi in spans:
            assert all(weights.odd_odd_cell(k, l) == cell
                       for l in range(lo, hi + 1))
            assert cell != DIAGONAL or lo == hi


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


def test_lemma_sweep_engine_parity():
    thetas = [Fraction(-5, 2), -1, Fraction(-1, 3), 0, Fraction(1, 2)]
    lambdas = [0, Fraction(1, 4), 1]
    for rng in (RangeSpec.square(60), RangeSpec.square(10**15 + 29, lo=10**15)):
        scalar = verify_lemmas(rng, thetas, lambdas, engine="scalar")
        vector = verify_lemmas(rng, thetas, lambdas)
        assert scalar.violations_total == vector.violations_total == 0
        assert same_report(vector, replace(scalar, engine="vector"))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lo=st.integers(1, 10**15), side=st.integers(1, 50), data=st.data())
def test_gap_quadratic_matches_the_distances(lo, side, data):
    hi = lo + side - 1
    rows = list(verifier._gap_rows(lo, hi))
    assert [x for x, _ in rows] == list(range(lo, hi + 1))
    x = data.draw(st.integers(lo, hi), label="x")
    forms = rows[x - lo][1]
    assert len(forms) == side
    for y, q in zip(range(lo, hi + 1), forms):
        for z in range(lo, hi + 1):
            gap = metric_d(x, y) ** 2 - 2 * (metric_d(x, z) ** 2
                                             + metric_d(z, y) ** 2)
            assert verifier._at(q, z) == 2 * gap, (x, y, z)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=st.integers(-50, 50), b=st.integers(-3000, 3000),
       c=st.integers(-10**6, 10**6), lo=st.integers(-40, 40),
       width=st.integers(0, 40))
def test_top_is_the_largest_value_on_the_integers(a, b, c, lo, width):
    q = (a, b, c)
    assert verifier._top(q, lo, lo + width) == max(
        verifier._at(q, l) for l in range(lo, lo + width + 1))


def test_triangle_gap_flags_match_a_brute_force_list(monkeypatch):
    # the lemma holds everywhere, so raise every gap quadratic by 3 to make
    # the interval path flag the z next to the midpoint of x and y
    rows = verifier._gap_rows
    monkeypatch.setattr(verifier, "_gap_rows", lambda lo, hi: (
        (x, [(a, b, c + 6) for a, b, c in forms]) for x, forms in rows(lo, hi)))
    theta, lo, hi = Fraction(-3, 2), 5, 16
    key = "lemma1:theta=-3/2"
    flags = [Violation(x, y, key, "lemma1-gap<0", Fraction(-3 * (gap + 3), 2),
                       z=z)
             for x in range(lo, hi + 1) for y in range(lo, hi + 1)
             for z in range(lo, hi + 1)
             for gap in [(x - y) ** 2 - 2 * ((x - z) ** 2 + (z - y) ** 2)]
             if gap + 3 > 0]
    rng = RangeSpec.square(hi, lo=lo)
    full = verify_lemmas(rng, [theta], [], max_violations=10**6)
    assert full.violations == tuple(sorted(flags, key=Violation.sort_key))
    assert full.violations_total == len(flags)
    assert ends_mid_row(full, 100)
    capped = verify_lemmas(rng, [theta], [], max_violations=100)
    assert capped.violations == tuple(sorted(flags[:100],
                                             key=Violation.sort_key))
    assert capped.violations_total == len(flags)


def test_triangle_gap_flags_of_two_thetas_come_from_one_scan(monkeypatch):
    # as above, with two negative thetas under a cap that ends inside the
    # second theta's flags: both emit the same triples, read off one scan
    rows = verifier._gap_rows
    scans = []

    def raised(lo, hi):
        scans.append((lo, hi))
        return ((x, [(a, b, c + 6) for a, b, c in forms])
                for x, forms in rows(lo, hi))

    monkeypatch.setattr(verifier, "_gap_rows", raised)
    thetas, lo, hi = [Fraction(-3, 2), -1], 5, 16
    flags = [Violation(x, y, f"lemma1:theta={label}", "lemma1-gap<0",
                       th * (gap + 3), z=z)
             for th, label in zip(map(Fraction, thetas), ("-3/2", "-1"))
             for x in range(lo, hi + 1) for y in range(lo, hi + 1)
             for z in range(lo, hi + 1)
             for gap in [(x - y) ** 2 - 2 * ((x - z) ** 2 + (z - y) ** 2)]
             if gap + 3 > 0]
    cap = len(flags) // 2 + 37
    rng = RangeSpec.square(hi, lo=lo)
    report = verify_lemmas(rng, thetas, [], max_violations=cap)
    assert scans == [(lo, hi)]
    assert report.violations == tuple(sorted(flags[:cap],
                                             key=Violation.sort_key))
    assert report.violations_total == len(flags)
    assert report.per_case["lemma1:theta=-1"].pairs == (hi - lo + 1) ** 3


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
    assert verify_lemmas(oblong, [-1], half, engine="vector").engine == "vector"
    per_case = LambdaSpec(lambda x, y: Fraction(x % 2), "x mod 2")
    square = RangeSpec.square(12)
    assert verify_lemmas(square, [], [per_case]).engine == "scalar"
    assert verify_lemmas(square, [-1], [per_case]).engine == "mixed"
    assert verify_lemmas(square, [-1], half).engine == "vector"
    assert verify_lemmas(square, [-1], half, engine="scalar").engine == "scalar"


def test_triangle_gap_lemma_runs_vectorized_on_far_squares():
    rng = RangeSpec.square(10**15 + 30, lo=10**15)
    thetas = [Fraction(-5, 2), -1]
    vector = verify_lemmas(rng, thetas, [], engine="vector")
    scalar = verify_lemmas(rng, thetas, [], engine="scalar")
    assert vector.engine == "vector"
    assert tally_view(vector) == tally_view(scalar)
    assert vector.violations_total == scalar.violations_total == 0


BLEND_LAMBDAS = [0, Fraction(1, 3), Fraction(1, 2), 1]


@pytest.mark.parametrize("lo", [10**12, 10**15])
def test_blend_lemma_runs_vectorized_on_far_squares(lo):
    rng = RangeSpec.square(lo + 40, lo=lo)
    vector = verify_lemmas(rng, [], BLEND_LAMBDAS)
    scalar = verify_lemmas(rng, [], BLEND_LAMBDAS, engine="scalar")
    assert vector.engine == "vector"
    assert same_report(vector, replace(scalar, engine="vector"))
    assert vector.pairs_checked == 8 * 41 * 41


@pytest.mark.parametrize("rng", [RangeSpec.square(60), RangeSpec(1, 40, 1, 70),
                                 RangeSpec(31, 70, 5, 44)],
                         ids=["square", "rectangle", "offset"])
def test_blend_lemma_matches_scalar(rng):
    vector = verify_lemmas(rng, [], BLEND_LAMBDAS)
    scalar = verify_lemmas(rng, [], BLEND_LAMBDAS, engine="scalar")
    assert vector.engine == "vector"
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
    first = verify_lemmas(rng, [], lambdas[:1], engine="scalar",
                          max_violations=10**6)
    assert ends_mid_row(first, 200)
    vector = verify_lemmas(rng, [], lambdas, max_violations=200)
    scalar = verify_lemmas(rng, [], lambdas, engine="scalar",
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
    cells = {key: verifier.CoverageCell() for key in verifier.COVERAGE_KEYS}
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
        assert len(cells["1-even"].ratios) == verifier._WITNESS_SET_CAP


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
    lambda grid, then every assignment of the (pruned) product scored."""
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
        for group in verifier._SEARCH_GROUPS:
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
            for group, vals in zip(verifier._SEARCH_GROUPS, pick):
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


def test_decay_sweep_merges_over_seed_blocks():
    params = ConditionParams(LAM0, Fraction(1, 2))
    whole = orbit_decay_sweep(1, 500, params)
    merged = merge_reports(orbit_decay_sweep(1, 250, params),
                           orbit_decay_sweep(251, 500, params))
    assert merged.pairs_checked == whole.pairs_checked
    assert {k: t.pairs for k, t in merged.per_case.items()} == \
           {k: t.pairs for k, t in whole.per_case.items()}

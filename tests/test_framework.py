"""Framework-level checks: the six-term form, blending, the triangle-gap
inequality, condition systems and orbit decay."""

from fractions import Fraction
from operator import le

import pytest
from hypothesis import given, settings, strategies as st

from collatzlab.arith import OverflowLimitError
from collatzlab.collatz import accel_T
from collatzlab.framework import (
    ConditionId,
    ConditionParams,
    LambdaSpec,
    WeightVector,
    check_condition,
    check_orbit_decay,
    contraction_ratio,
    iterate_orbit,
    lemma1_gap,
    lhs,
    metric_d,
    symmetrize,
    weighted_lhs,
)
from collatzlab.weights import weight_vector

LAM0 = LambdaSpec.const(0)
LAM1 = LambdaSpec.const(1)
REMARK_PARAMS = ConditionParams(LAM0, Fraction(1, 2), Fraction(2), Fraction(2))


# === metric ===

@pytest.mark.parametrize("x,y,expected", [(5, 5, 0), (3, 8, 5), (8, 3, 5)])
def test_metric_examples(x, y, expected):
    assert metric_d(x, y) == expected


def test_metric_rejects_nonpositive():
    with pytest.raises(ValueError):
        metric_d(0, 3)
    with pytest.raises(ValueError):
        metric_d(3, -1)


def test_metric_axioms_exhaustive():
    """Identity, symmetry and the triangle inequality over x, y, z <= 200."""
    points = range(1, 201)
    d = {x: [metric_d(x, y) for y in points] for x in points}
    for x in points:
        assert [y for y in points if d[x][y - 1] == 0] == [x]
        assert d[x] == [d[y][x - 1] for y in points]
        # d(x,y) <= d(x,z) + d(z,y) for every y and z, one row x at a time
        for z in points:
            via_z = [d[x][z - 1] + dzy for dzy in d[z]]
            assert all(map(le, d[x], via_z)), f"triangle fails at x={x}, z={z}"


# === six-term form ===

def test_lhs_at_the_fixed_point_pair():
    assert lhs(weight_vector, accel_T, 1, 1) == 0


def test_lhs_even_even_small_pair():
    # all six distances spelled out: T(2)=1, weights (1,0,-1,0,-1,1)
    expected = (1 * 0 + 0 * 1 + (-1) * 1 + 0 * 0 + (-1) * 1 + 1 * 1)
    assert expected == -1
    assert lhs(weight_vector, accel_T, 2, 2) == expected


def test_lhs_one_two():
    # T(1)=1, T(2)=1, weights at (1,2) are (1,0,0,-1,0,1)
    expected = (1 * 0 + 0 * 0 + 0 * 1 + (-1) * 1 + 0 * 0 + 1 * 1)
    assert expected == 0
    assert lhs(weight_vector, accel_T, 1, 2) == expected


def test_weighted_lhs_matches_inline_expansion():
    wv = WeightVector(2, -1, 3, 0, -2, 1)
    x, y = 7, 10
    tx, ty = accel_T(x), accel_T(y)
    expected = (2 * (tx - ty) ** 2 - 1 * (x - ty) ** 2 + 3 * (tx - y) ** 2
                + 0 * (x - y) ** 2 - 2 * (x - tx) ** 2 + 1 * (y - ty) ** 2)
    assert weighted_lhs(wv, accel_T, x, y) == expected


def test_lhs_overflow_guard():
    with pytest.raises(OverflowLimitError):
        weighted_lhs(WeightVector(1, 1, 1, 1, 1, 1), accel_T, 5, 2**64)


# === blending (lambda-symmetrization) ===

def test_blend_zero_is_identity():
    for x in range(1, 40):
        for y in range(1, 40):
            assert symmetrize(weight_vector, LAM0, x, y) == weight_vector(x, y)


def test_blend_one_reads_the_swapped_tables():
    # full crossing at (1,2): alpha/delta swap arguments, beta<->gamma,
    # epsilon<->zeta
    w21 = weight_vector(2, 1)
    expected = WeightVector(w21.alpha, w21.gamma, w21.beta, w21.delta,
                            w21.zeta, w21.epsilon)
    assert expected.as_tuple() == (1, 1, 0, -1, 1, 0)
    assert symmetrize(weight_vector, LAM1, 1, 2) == expected


def test_blend_half_at_the_fixed_point_pair():
    half = LambdaSpec.const(Fraction(1, 2))
    assert symmetrize(weight_vector, half, 1, 1).as_tuple() == (1, 0, 0, 0, 0, 0)


def test_blend_one_twice_is_the_identity():
    def swapped(x, y):
        return symmetrize(weight_vector, LAM1, x, y)

    for x in range(1, 25):
        for y in range(1, 25):
            assert symmetrize(swapped, LAM1, x, y) == weight_vector(x, y)


@settings(max_examples=200, derandomize=True)
@given(vals=st.lists(st.integers(-5, 5), min_size=12, max_size=12),
       x=st.integers(1, 300), y=st.integers(1, 300),
       lam_v=st.sampled_from([Fraction(0), Fraction(1, 5), Fraction(1, 2),
                              Fraction(2, 3), Fraction(1)]))
def test_blend_identity_for_arbitrary_weights(vals, x, y, lam_v):
    """The blended six-term form equals the lambda-mix of the two plain
    forms, for any weight system whatsoever."""
    table = {(x, y): WeightVector(*vals[:6]), (y, x): WeightVector(*vals[6:])}

    def W(u, v):
        return table[(u, v)]

    lam = LambdaSpec.const(lam_v)
    left = weighted_lhs(symmetrize(W, lam, x, y), accel_T, x, y)
    right = ((1 - lam_v) * lhs(W, accel_T, x, y)
             + lam_v * lhs(W, accel_T, y, x))
    assert left == right


def test_lambda_spec_rejects_out_of_range():
    with pytest.raises(ValueError):
        LambdaSpec.const(Fraction(3, 2))
    bad = LambdaSpec(lambda x, y: Fraction(-1, 2), "bad")
    with pytest.raises(ValueError):
        bad(1, 2)


# === triangle-gap inequality ===

@pytest.mark.parametrize("theta,x,y,z,expected", [
    (0, 3, 9, 4, 0),
    (1, 1, 4, 2, 9),
    (-1, 1, 4, 2, 1),
])
def test_gap_examples(theta, x, y, z, expected):
    assert lemma1_gap(theta, x, y, z) == expected


def test_gap_nonnegative_small_exhaustive():
    thetas = [-3, Fraction(-5, 2), -2, -1, 0, Fraction(1, 2), 1, 2, 3]
    for x in range(1, 26):
        for y in range(1, 26):
            for z in range(1, 26):
                for th in thetas:
                    gap = lemma1_gap(th, x, y, z)
                    assert gap >= 0, (th, x, y, z, gap)


@settings(max_examples=300, derandomize=True)
@given(x=st.integers(1, 1000), y=st.integers(1, 1000), z=st.integers(1, 1000),
       theta=st.fractions(min_value=-10, max_value=10, max_denominator=7),
       base=st.integers(0, 2**60))
def test_gap_nonnegative_random(x, y, z, theta, base):
    # the gap is a closed form at any offset, which is what lets
    # verify_lemmas count the triangle-gap lemma's triples unchecked
    x, y, z = base + x, base + y, base + z
    gap = lemma1_gap(theta, x, y, z)
    assert gap == (-theta * (x + y - 2 * z) ** 2 if theta < 0
                   else theta * (x - y) ** 2)
    assert gap >= 0


# === condition systems ===

def test_condition5_family3_holds_at_even_even():
    out = check_condition(ConditionId(3, 5), weight_vector, REMARK_PARAMS, 2, 2)
    assert out.holds and out.branch == "first"
    assert out.witnesses["first_denom"] == 2
    assert out.witnesses["first_numer"] == -1
    assert out.witnesses["first_ratio"] == Fraction(1, 2)
    assert out.witnesses["first_b_sum"] == 2
    assert out.witnesses["m_ok"] is True


def test_condition5_fails_at_3_5_on_both_branches():
    out = check_condition(ConditionId(3, 5), weight_vector, REMARK_PARAMS, 3, 5)
    assert not out.holds and out.branch is None
    assert out.witnesses["first_denom"] == 0
    assert out.witnesses["mirror_denom"] == 0
    assert out.witnesses["first_ratio"] is None
    assert out.witnesses["mirror_ratio"] is None


def test_condition1_with_constant_weights_holds_everywhere():
    def const_w(x, y):
        return WeightVector(1, 0, 0, 0, 0, 1)

    params = ConditionParams(LAM0, Fraction(1, 2))
    for pair in [(1, 1), (17, 4), (9, 9), (2, 31)]:
        out = check_condition(ConditionId(1, 1), const_w, params, *pair)
        assert out.holds
        assert out.witnesses == {"clause1": 2, "clause2": 0}


def test_condition4_printed_vs_corrected_differ_at_1_1():
    printed = check_condition(ConditionId(1, 4), weight_vector, REMARK_PARAMS,
                              1, 1, corrected_c4=False)
    corrected = check_condition(ConditionId(1, 4), weight_vector, REMARK_PARAMS,
                                1, 1, corrected_c4=True)
    # at (1,1): gamma-positive quantity 0, beta-negative clause -1, but the
    # gamma-negative clause is +1
    assert not printed.holds
    assert corrected.holds
    assert printed.witnesses["clause2"] == -1
    assert corrected.witnesses["clause2"] == 1


def test_condition_outcomes_are_pure():
    a = check_condition(ConditionId(3, 5), weight_vector, REMARK_PARAMS, 6, 15)
    b = check_condition(ConditionId(3, 5), weight_vector, REMARK_PARAMS, 6, 15)
    assert a == b


def test_condition5_family3_requires_b_and_m():
    params = ConditionParams(LAM0, Fraction(1, 2))
    with pytest.raises(ValueError):
        check_condition(ConditionId(3, 5), weight_vector, params, 2, 2)


def test_condition_params_validation():
    with pytest.raises(ValueError):
        ConditionParams(LAM0, Fraction(2))
    with pytest.raises(ValueError):
        ConditionParams(LAM0, Fraction(1, 2), Fraction(0))
    with pytest.raises(ValueError):
        ConditionParams(LAM0, Fraction(1, 2), Fraction(2), Fraction(-1))
    with pytest.raises(ValueError):
        ConditionId(4, 1)
    with pytest.raises(ValueError):
        ConditionId(1, 0)


def test_condition5_m_lambda_flag_records_blended_cap():
    out = check_condition(ConditionId(3, 5), weight_vector, REMARK_PARAMS,
                          4, 6, m_lambda=True)
    assert out.witnesses["m_lambda_ok"] is True


# === contraction ratio ===

def test_ratio_examples():
    assert contraction_ratio(WeightVector(1, 0, 0, 0, -1, 1)) == Fraction(1, 2)
    assert contraction_ratio(WeightVector(2, -1, 1, -1, 0, 0)) is None
    assert contraction_ratio(WeightVector(2, 2, -2, -2, 0, 2)) == Fraction(1, 2)


def test_ratio_mirrored_branch_uses_gamma_quantities():
    # mirrored: denom = alpha + epsilon + 2*min(gamma,0) = 1+1+0 = 2,
    # numer = delta + zeta + 2*min(gamma,0) = 0-1+0 = -1
    wv = WeightVector(1, 0, 0, 0, 1, -1)
    assert contraction_ratio(wv, "mirrored") == Fraction(1, 2)
    with pytest.raises(ValueError):
        contraction_ratio(wv, "sideways")


# === orbits ===

def test_orbit_of_the_fixed_point():
    rec = iterate_orbit(accel_T, 1, 10)
    assert rec.points == (1, 1)
    assert rec.reached_fixed_point and rec.steps_taken == 1


@pytest.mark.parametrize("seed,expected", [
    (3, (3, 5, 8, 4, 2, 1, 1)),
    (6, (6, 3, 5, 8, 4, 2, 1, 1)),
])
def test_orbit_paths(seed, expected):
    rec = iterate_orbit(accel_T, seed, 10)
    assert rec.points == expected
    assert rec.reached_fixed_point
    for i in range(len(rec.points) - 1):
        assert rec.points[i + 1] == accel_T(rec.points[i])
        assert rec.step_distances_squared[i] == (rec.points[i + 1]
                                                 - rec.points[i]) ** 2


def test_orbit_respects_max_steps():
    rec = iterate_orbit(accel_T, 27, 5)
    assert not rec.reached_fixed_point
    assert rec.steps_taken == 5


def test_orbit_overflow_guard():
    # an unchecked map, so that the orbit's own check is the one that fires:
    # 2 * (2**126 + 1) exceeds the 127-bit limit
    with pytest.raises(OverflowLimitError, match="orbit iterate"):
        iterate_orbit(lambda x: 2 * x, 2**126 + 1, 10)


# === orbit decay ===

def test_decay_along_seed_4():
    rec = iterate_orbit(accel_T, 4, 10)
    report = check_orbit_decay(rec, weight_vector, REMARK_PARAMS)
    assert [s.premise_holds for s in report.steps] == [True, True]
    # 1 <= (1/2) * 4 at the even-even step
    assert report.steps[0].prev_sq == 4 and report.steps[0].step_sq == 1
    assert report.violations == ()


def test_decay_constant_orbit_is_vacuous():
    rec = iterate_orbit(accel_T, 1, 10)
    report = check_orbit_decay(rec, weight_vector, REMARK_PARAMS)
    assert report.steps == () and report.violations == ()


def test_decay_marks_premise_failures_without_asserting():
    rec = iterate_orbit(accel_T, 3, 10)
    report = check_orbit_decay(rec, weight_vector, REMARK_PARAMS)
    first = report.steps[0]
    assert (first.x, first.y) == (3, 5)
    assert not first.premise_holds and first.ok is None
    assert report.violations == ()
    assert report.premise_failed >= 2  # (3,5) and (5,8) both fail


def test_decay_detects_genuine_violations():
    """With weights that make the premise hold everywhere but assert nothing
    about growth, an expanding orbit step must be flagged."""
    def flat(x, y):
        return WeightVector(1, 0, 0, 0, 0, 1)

    params = ConditionParams(LAM0, Fraction(1, 2))
    rec = iterate_orbit(accel_T, 3, 10)
    report = check_orbit_decay(rec, flat, params)
    assert all(s.premise_holds for s in report.steps)
    assert report.violations, "expanding steps must be reported"
    bad = report.violations[0]
    assert bad.step_sq > Fraction(1, 2) * bad.prev_sq


def test_seed_small_orbits_never_violate_decay():
    for seed in range(1, 2001):
        rec = iterate_orbit(accel_T, seed, 10**5)
        assert rec.reached_fixed_point
        report = check_orbit_decay(rec, weight_vector, REMARK_PARAMS)
        assert report.violations == (), f"decay violated for seed {seed}"

"""Generic six-weight contraction machinery on the metric space (N, |x-y|).

A self-map T together with six weight functions (alpha..zeta) on pairs is
tested through the quadratic form

    alpha*d(Tx,Ty)^2 + beta*d(x,Ty)^2 + gamma*d(Tx,y)^2 + delta*d(x,y)^2
        + epsilon*d(x,Tx)^2 + zeta*d(y,Ty)^2  <=  0

This module evaluates that form, blends a weight system with its swapped
mirror (lambda-symmetrization), evaluates the per-pair condition systems
that drive orbit decay, and iterates orbits recording squared step sizes.
All arithmetic is exact: integers and fractions only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

from .arith import check_width, format_rational

Exact = Union[int, Fraction]
MapFn = Callable[[int], int]

BRANCH_FIRST = "first"
BRANCH_MIRRORED = "mirrored"


@dataclass(frozen=True)
class WeightVector:
    """The six weights (alpha, beta, gamma, delta, epsilon, zeta) at one pair."""

    alpha: Exact
    beta: Exact
    gamma: Exact
    delta: Exact
    epsilon: Exact
    zeta: Exact

    def as_tuple(self) -> tuple[Exact, Exact, Exact, Exact, Exact, Exact]:
        return (self.alpha, self.beta, self.gamma, self.delta, self.epsilon, self.zeta)

    def max_abs(self) -> Exact:
        return max(abs(c) for c in self.as_tuple())


WeightFunction = Callable[[int, int], WeightVector]


class LambdaSpec:
    """A blending weight lambda(x, y) in [0, 1], used to mix a weight system
    with its argument-swapped mirror.

    `constant` is set when the spec is a single rational, which lets sweep
    engines take exact integer fast paths.
    """

    __slots__ = ("_fn", "label", "constant")

    def __init__(self, fn: Callable[[int, int], Exact], label: str,
                 constant: Optional[Fraction] = None) -> None:
        self._fn = fn
        self.label = label
        self.constant = constant

    @classmethod
    def const(cls, value: Exact) -> "LambdaSpec":
        v = Fraction(value)
        if not 0 <= v <= 1:
            raise ValueError(f"lambda must lie in [0, 1], got {format_rational(v)}")
        return cls(lambda x, y: v, format_rational(v), constant=v)

    def __call__(self, x: int, y: int) -> Fraction:
        v = Fraction(self._fn(x, y))
        if not 0 <= v <= 1:
            raise ValueError(
                f"lambda({x}, {y}) = {format_rational(v)} is outside [0, 1]")
        return v

    def __repr__(self) -> str:
        return f"LambdaSpec({self.label})"


@dataclass(frozen=True)
class ConditionId:
    """Which condition system: theorem family 1/2/3, condition number 1..5.

    Families 1 and 2 share all five conditions; family 3 strengthens
    condition (5) with the B lower bound and the M cap on raw weights.
    """

    theorem: int
    number: int

    def __post_init__(self) -> None:
        if self.theorem not in (1, 2, 3):
            raise ValueError(f"theorem must be 1, 2 or 3, got {self.theorem}")
        if self.number not in (1, 2, 3, 4, 5):
            raise ValueError(f"condition must be 1..5, got {self.number}")

    def label(self) -> str:
        return f"theorem{self.theorem}.condition{self.number}"


@dataclass(frozen=True)
class ConditionParams:
    """Exact parameters for the condition systems.

    A is the contraction ratio cap in (0, 1); B and M only matter for the
    family-3 condition (5) and may be omitted otherwise.
    """

    lam: LambdaSpec
    A: Fraction
    B: Optional[Fraction] = None
    M: Optional[Fraction] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "A", Fraction(self.A))
        if not 0 < self.A < 1:
            raise ValueError(f"A must lie in (0, 1), got {format_rational(self.A)}")
        if self.B is not None:
            object.__setattr__(self, "B", Fraction(self.B))
            if self.B <= 0:
                raise ValueError(f"B must be positive, got {format_rational(self.B)}")
        if self.M is not None:
            object.__setattr__(self, "M", Fraction(self.M))
            if self.M <= 0:
                raise ValueError(f"M must be positive, got {format_rational(self.M)}")


@dataclass(frozen=True)
class ConditionOutcome:
    """Result of evaluating one condition at one pair, with exact witnesses.

    `holds` is reproducible from the witnesses alone; `branch` records which
    disjunct of condition (5) succeeded ("first"/"mirrored"/None).
    """

    kind: ConditionId
    x: int
    y: int
    holds: bool
    branch: Optional[str]
    witnesses: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OrbitRecord:
    """A forward orbit of T with squared step distances."""

    seed: int
    points: tuple[int, ...]
    step_distances_squared: tuple[int, ...]
    reached_fixed_point: bool

    @property
    def steps_taken(self) -> int:
        return len(self.points) - 1


@dataclass(frozen=True)
class DecayStep:
    """One consecutive-pair decay check along an orbit.

    `ok` is None when the condition premise fails at the pair (nothing is
    asserted there); otherwise it records step_sq <= A * prev_sq exactly.
    """

    index: int
    x: int
    y: int
    premise_holds: bool
    branch: Optional[str]
    prev_sq: int
    step_sq: int
    ok: Optional[bool]


@dataclass(frozen=True)
class OrbitDecayReport:
    seed: int
    steps: tuple[DecayStep, ...]
    premise_held: int
    premise_failed: int
    violations: tuple[DecayStep, ...]


def metric_d(x: int, y: int) -> int:
    """Distance |x - y| between two positive integers."""
    if x < 1 or y < 1:
        raise ValueError(f"points must be positive integers, got ({x}, {y})")
    return abs(x - y)


def weighted_lhs(weights: WeightVector, T: MapFn, x: int, y: int) -> Exact:
    """Evaluate the six-term quadratic form with an explicit weight vector."""
    tx = T(x)
    ty = T(y)
    d_tt = metric_d(tx, ty) ** 2
    d_xty = metric_d(x, ty) ** 2
    d_txy = metric_d(tx, y) ** 2
    d_xy = metric_d(x, y) ** 2
    d_xtx = metric_d(x, tx) ** 2
    d_yty = metric_d(y, ty) ** 2
    terms = (
        weights.alpha * d_tt,
        weights.beta * d_xty,
        weights.gamma * d_txy,
        weights.delta * d_xy,
        weights.epsilon * d_xtx,
        weights.zeta * d_yty,
    )
    for t in terms:
        check_width(t, "six-term product")
    return check_width(sum(terms), "six-term sum")


def lhs(W: WeightFunction, T: MapFn, x: int, y: int) -> Exact:
    """Six-term quadratic form at (x, y) with weights W(x, y).

    T satisfies the contraction inequality at the pair iff this is <= 0.
    """
    return weighted_lhs(W(x, y), T, x, y)


def symmetrize(W: WeightFunction, lam: LambdaSpec, x: int, y: int) -> WeightVector:
    """Blend W at (x, y) with the swapped system at (y, x).

    The blend keeps each distance term attached to the matching weight:
    beta crosses to gamma(y, x), epsilon crosses to zeta(y, x), and
    symmetrically. lambda = 0 returns W(x, y) unchanged.
    """
    lv = lam(x, y)
    w = W(x, y)
    s = W(y, x)
    co = 1 - lv
    return WeightVector(
        alpha=co * w.alpha + lv * s.alpha,
        beta=co * w.beta + lv * s.gamma,
        gamma=co * w.gamma + lv * s.beta,
        delta=co * w.delta + lv * s.delta,
        epsilon=co * w.epsilon + lv * s.zeta,
        zeta=co * w.zeta + lv * s.epsilon,
    )


def lemma1_gap(theta: Exact, x: int, y: int, z: int) -> Exact:
    """Slack of the weighted triangle bound through z:

        theta*d(x,y)^2 - 2*min(theta, 0)*(d(x,z)^2 + d(z,y)^2)

    which is theta*(x - y)^2 for theta >= 0 and, since 2(a^2 + b^2) -
    (a + b)^2 = (a - b)^2 with a = x - z and b = z - y, -theta*(x + y -
    2z)^2 for theta < 0: nonnegative for every real theta and all points.
    """
    d_xy = metric_d(x, y) ** 2
    d_xz = metric_d(x, z) ** 2
    d_zy = metric_d(z, y) ** 2
    gap = theta * d_xy - 2 * min(theta, 0) * (d_xz + d_zy)
    if isinstance(gap, Fraction):
        check_width(gap.numerator, "lemma gap numerator")
    else:
        check_width(gap, "lemma gap")
    return gap


def beta_quantities(wl: WeightVector) -> tuple[Exact, Exact]:
    """(alpha + zeta + 2*min(beta, 0), delta + epsilon + 2*min(beta, 0))."""
    m = 2 * min(wl.beta, 0)
    return wl.alpha + wl.zeta + m, wl.delta + wl.epsilon + m


def gamma_quantities(wl: WeightVector) -> tuple[Exact, Exact]:
    """(alpha + epsilon + 2*min(gamma, 0), delta + zeta + 2*min(gamma, 0))."""
    m = 2 * min(wl.gamma, 0)
    return wl.alpha + wl.epsilon + m, wl.delta + wl.zeta + m


def contraction_ratio(wl: WeightVector, branch: str = BRANCH_FIRST) -> Optional[Fraction]:
    """Exact ratio -numer/denom of the decay quantities, or None when the
    denominator quantity is not positive.

    The first branch uses the beta-based quantities, the mirrored branch the
    gamma-based ones; the caller passes the vector at the mirrored pair when
    asking for the mirrored branch.
    """
    if branch == BRANCH_FIRST:
        denom, numer = beta_quantities(wl)
    elif branch == BRANCH_MIRRORED:
        denom, numer = gamma_quantities(wl)
    else:
        raise ValueError(f"unknown branch {branch!r}")
    if denom <= 0:
        return None
    return Fraction(-numer, 1) / Fraction(denom)


def check_condition(kind: ConditionId, W: WeightFunction, params: ConditionParams,
                    x: int, y: int, corrected_c4: bool = False,
                    m_lambda: bool = False) -> ConditionOutcome:
    """Evaluate one condition of one family at the single pair (x, y).

    Conditions 1..4 are sign requirements on the symmetrized quantities at
    (x, y). Condition 4 as printed repeats the beta-based second clause of
    condition 2; `corrected_c4` switches to the symmetric gamma-based clause.

    Condition 5 tries the first branch at (x, y) and the mirrored branch at
    (y, x): the positive quantity must be > 0 and the ratio <= A. Family 3
    additionally requires the branch B-sum >= B and |w| <= M for all six raw
    weights at both orders; `m_lambda` also caps the symmetrized weights.
    """
    lam = params.lam
    wl_xy = symmetrize(W, lam, x, y)

    if kind.number in (1, 2):
        q_pos, q_neg = beta_quantities(wl_xy)
        if kind.number == 1:
            holds = q_pos > 0 and q_neg >= 0
        else:
            holds = q_pos >= 0 and q_neg > 0
        return ConditionOutcome(kind, x, y, holds, None,
                                {"clause1": q_pos, "clause2": q_neg})

    if kind.number in (3, 4):
        g_pos, g_neg = gamma_quantities(wl_xy)
        if kind.number == 3:
            holds = g_pos > 0 and g_neg >= 0
            return ConditionOutcome(kind, x, y, holds, None,
                                    {"clause1": g_pos, "clause2": g_neg})
        if corrected_c4:
            second = g_neg
        else:
            second = beta_quantities(wl_xy)[1]
        holds = g_pos >= 0 and second > 0
        return ConditionOutcome(kind, x, y, holds, None,
                                {"clause1": g_pos, "clause2": second})

    # Condition 5: both disjunct branches, plus B/M for family 3.
    wl_yx = symmetrize(W, lam, y, x)
    first_denom, first_numer = beta_quantities(wl_xy)
    mirror_denom, mirror_numer = gamma_quantities(wl_yx)

    first_ratio = contraction_ratio(wl_xy, BRANCH_FIRST)
    mirror_ratio = contraction_ratio(wl_yx, BRANCH_MIRRORED)

    first_ok = first_ratio is not None and first_ratio <= params.A
    mirror_ok = mirror_ratio is not None and mirror_ratio <= params.A

    witnesses: dict = {
        "first_denom": first_denom,
        "first_numer": first_numer,
        "first_ratio": first_ratio,
        "mirror_denom": mirror_denom,
        "mirror_numer": mirror_numer,
        "mirror_ratio": mirror_ratio,
    }

    if kind.theorem == 3:
        if params.B is None or params.M is None:
            raise ValueError("family-3 condition 5 requires both B and M")
        first_b = wl_xy.alpha + wl_xy.beta + wl_xy.zeta
        mirror_b = wl_yx.alpha + wl_yx.gamma + wl_yx.epsilon
        first_ok = first_ok and first_b >= params.B
        mirror_ok = mirror_ok and mirror_b >= params.B
        m_ok = max(W(x, y).max_abs(), W(y, x).max_abs()) <= params.M
        witnesses.update({"first_b_sum": first_b, "mirror_b_sum": mirror_b,
                          "m_ok": m_ok})
        if m_lambda:
            ml_ok = max(wl_xy.max_abs(), wl_yx.max_abs()) <= params.M
            witnesses["m_lambda_ok"] = ml_ok
    else:
        m_ok = True

    branch = BRANCH_FIRST if first_ok else (BRANCH_MIRRORED if mirror_ok else None)
    holds = branch is not None and m_ok
    if m_lambda and kind.theorem == 3:
        holds = holds and witnesses["m_lambda_ok"]
    return ConditionOutcome(kind, x, y, holds, branch, witnesses)


def iterate_orbit(T: MapFn, seed: int, max_steps: int) -> OrbitRecord:
    """Iterate T from seed until a fixed point or max_steps applications."""
    if seed < 1:
        raise ValueError(f"seed must be a positive integer, got {seed}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    points = [seed]
    sq = []
    reached = False
    cur = seed
    for _ in range(max_steps):
        nxt = check_width(T(cur), "orbit iterate")
        points.append(nxt)
        sq.append((nxt - cur) ** 2)
        if nxt == cur:
            reached = True
            break
        cur = nxt
    return OrbitRecord(seed, tuple(points), tuple(sq), reached)


def check_orbit_decay(orbit: OrbitRecord, W: WeightFunction,
                      params: ConditionParams) -> OrbitDecayReport:
    """Check geometric decay of squared step distances along an orbit.

    At each consecutive pair where condition (5) holds (either branch) the
    next squared step must shrink by the factor A: step_sq <= A * prev_sq,
    compared exactly in rationals. Steps whose premise fails assert nothing.
    """
    if len(orbit.step_distances_squared) < 2:
        return OrbitDecayReport(orbit.seed, (), 0, 0, ())
    kind = ConditionId(1, 5)
    sq = orbit.step_distances_squared
    pts = orbit.points
    a_num, a_den = params.A.numerator, params.A.denominator
    steps = []
    held = failed = 0
    violations = []
    for n in range(1, len(sq)):
        px, py = pts[n - 1], pts[n]
        outcome = check_condition(kind, W, params, px, py)
        if outcome.holds:
            held += 1
            ok = a_den * sq[n] <= a_num * sq[n - 1]
        else:
            failed += 1
            ok = None
        step = DecayStep(n, px, py, outcome.holds, outcome.branch,
                         sq[n - 1], sq[n], ok)
        steps.append(step)
        if ok is False:
            violations.append(step)
    return OrbitDecayReport(orbit.seed, tuple(steps), held, failed,
                            tuple(violations))

"""Catalog of inequalities for psi and its Turanians, with pointwise checks.

Each entry is normalized to the orientation ``lhs < rhs`` (``<=`` for the
S-family) and verified with margin = rhs - lhs against the combined error
budget of both sides: ``pass`` needs margin > budget, ``fail`` needs
margin < -budget, anything inside the budget is ``inconclusive``.

Ratio bounds (D = Turanian, R = D/psi^2):

    T1L  (c-a-1)/x^2 < R_ac                              a>0, c<1
    T1U  R_ac < 1/c + 2x(c-a)/(c^2(c+1))                 a>1, c<-1
    T2L  -1/(2x) < R_ac                                  a>0, c<1
    P1L  1/c < R_ac                                      a>0>c
    P1U  R_ac < 0                                        a>0, c<1
    T3L  (1 + x/(2c))/(1+a-c) < R_a                      a>0>c
    T3U  R_a < 2/x                                       a>0, c<1
    T5L  (1 - (c-a)x^2/(c^2(c+1)))/(1+a-c) < R_a         a>1, c<-1
    P2L  0 < R_a                                         a>0, c<1
    P2U  R_a < 1/(1+a-c)                                 a>1, c<1
    T6L  -a/x^2 < R_c                                    a>0, c<1
    T6U  R_c < (a/(c(1+a-c)))(1 + 2x(c-a)/(c(c+1)))      a>1, c<-1
    P3L  a/(c(1+a-c)) < R_c                              a>0>c
    P3U  R_c < 0                                         a>0, any c
    P4U  R_ac < 1/a                                      a>1 (probe: 0<a<=1)

Raw psi relations:

    S1   -(1/x) psi psi(a,c-1) <= D_c                    a>0, c<a+2
         checked as -(1/x) psi(a,c-1)/psi <= R_c
    S2   -(1/x) psi^2 psi(a+1,c+1) <= D_c                a>1, c<a+1  [advisory]
         checked as -(1/x) psi(a+1,c+1) <= R_c
    S2H  -(1/x) psi psi(a+1,c+1) <= D_c                  a>1, c<a+1  [advisory]
         checked as -(1/x) psi(a+1,c+1)/psi <= R_c
    I1   (G1 psi(a+1,c+1))^(1/(a+1)) < (G0 psi)^(1/a)    a>0>c
         checked as f(0+) < f(x)
    I2   2 < psi/psi(a+1,c+1) - (1/c)(G0 psi)^(1/a)      a>0>c
    I3   (G0 psi)^(c/(a(c+1))) < (G1 psi(a+1,c+1))^(1/(a+1))   a>0, c<-1
         checked as g(x) < g(0+)
    I4   psi(a+1,c+1) < -(1/c) psi                       a>0>c
         checked as h(0+) < h(x)

with G0 = Gamma(a-c+1)/Gamma(1-c) and G1 = Gamma(a-c+1)/Gamma(-c).

All three S-family regions have a > 0, where psi > 0, so each raw
relation lhs <= D_c = psi^2 R_c is checked divided by psi^2, against the
same second-shift ratio R_c as T6L, T6U, P3L and P3U: no product of two
psi values is formed, so the checks run wherever psi and R_c do, at
large a as well.  ``_S_BOUNDS`` states each lhs once, as -(1/x)
psi^power q with q a quotient of ``PairRecords.quotient``: S1 takes
psi(a,c-1)/psi = 1 - a r (DLMF 13.3.9), the Turanians' own lower
quotient, and S2 and S2H take s = psi(a+1,c+1)/psi, S2 times psi.  The
I-family reads psi and s as well: I2's quotient is 1/s, and an
auxiliary with weights (w0, wp) is (w0 - wp) ln psi - wp ln s, so that
psi's own error enters it with the weight w0 - wp alone (not at all in
h).  No psi at a shifted point is read.

I1, I3 and I4 are checked in log form, so their lhs and rhs are log
values.  Each is the monotone auxiliary log-ratio f, g or h below held
against its own x->0+ limit: psi(a,c,0) = 1/G0 for c < 1 and
psi(a+1,c+1,0) = 1/G1 for c < 0 (DLMF 13.2(iii)), so an auxiliary with
weights (w0, wp) has aux(0+) = wp ln G1 - w0 ln G0, and h(0+) = ln(-c).
Each row of ``_LOG_BOUNDS`` names its auxiliary; the limit is the
closed-form side, the ``lower`` one for an increasing auxiliary and the
``upper`` one for a decreasing one.  No power of psi is formed, so none
can underflow.

S2 keeps the quoted inhomogeneity even though it mixes psi^3 against
psi^2 (psi against R_c once divided) and fails systematically at large
x; it and its homogenized variant S2H are therefore advisory
(``gating=False``): their failures are reported but do not gate a
verification run.  P4U is gating on a > 1 only; the 0 < a <= 1 probe is
a separate advisory entry.

Each ratio bound is one row of ``_RATIO_BOUNDS`` that states its closed
form ``bound_fn(a, c, x)`` once, with the side it sits on.  Both sides of
its :class:`BoundSpec` are derived from that row when the catalog is
built: a ``lower`` bound checks bound_fn < R of the target's kind, an
``upper`` bound checks R < bound_fn.

``LIMITS`` holds the seven limits that make ratio bounds sharp.  Six
name the bound (T1U, T1L, T5L, T3U, T6U, T6L) and a scan toward 0 or
infinity: the kind and region are the bound's, L is the bound at x = 0
toward 0 and 0 toward infinity, and the rate is |bound_fn - L|, proven
where the bound is.  The zeta limit, x^2 R_ac -> c-a-1 as x -> inf,
takes its rate from the Stieltjes form q(x) = psi(a+1,c+1,x)/psi(a,c,x)
= int_0^inf phi(t)/(x+t) dt, phi >= 0 (Ismail & Kelker, SIAM J. Math.
Anal. 10, 1979; ``measure``): R_ac = -int t phi/(x+t)^2 dt, and 1 -
1/(1+u)^2 <= 2u with u = t/x bounds x^2 R_ac - (c-a-1) by 2 m_2/x, m_2
= int t^2 phi dt = (1+a-c)(2+2a-c) from the large-x expansion of q.

The eight dominance claims D1..D8 state where one closed-form bound is
tighter than its competitor, comparing the closed-form sides that the
catalog checks.  Each verdict rule is written once, on columns of
values: ``_verdicts`` for a catalog bound, ``_dominance_verdicts`` for a
dominance claim and ``_status_codes`` for the status of a margin
against its budget; so is a closed form's value with its 4 EPS|v|
budget and its error where it is not a finite double,
``_closed_values``.  The suites apply the rules to the rows of a claim
at all x of an (a, c) pair they have placed in its region:
``bound_columns`` reads each side of the claim at the pair's x in order
through its :class:`_Side` from the pair's context, a :class:`PairGrid`,
and ``dominance_columns`` its two closed forms by ``_closed_values`` at
the x that meet its threshold; each raises the first failing x's error,
the lhs's first.

The context reads the records of psi, r and s at all the x of the pair
in one call of ``kernel.pair_quotients``, which runs their trapezoid
passes together, into arrays, and forms from them as numpy columns each
Turanian kind's ratio and each auxiliary log-ratio, once per pair and
shared by every claim and suite that reads it, and the S-family lhs and
I2's rhs; ln G0 and ln G1, which I2 and the I-family limits read, are
formed once per pair, and so is an I-family limit.
Each column does the per-point arithmetic on whole arrays, the same
operations in the same order, with every log and exp a ``math.log`` or
``math.exp`` per element (numpy's can differ in the last bit), so each
element is bit for bit the value at its x.  ``check_bound`` and
``check_dominance`` validate one point and apply the same rules to its
one row; ``BoundSpec.closed_form`` and ``auxiliary_log_ratio`` are the
one-x case of a column.
The auxiliary log-ratios f, g and h behind the I-family are
``AUXILIARY`` records, each with its region, its two weights and the
sign of its monotonicity; the monotonicity suite checks that sign on the
column I1, I3 and I4 read, taken in increasing x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .kernel import (_TINY, EPS, EvaluationError, FunctionValue, ParameterPoint,
                     RegionError, log_gamma, log_gamma_error)
from .measure import WeightDensity
from .turanians import (BOTH, FIRST, SCAN_TO_INFINITY, SCAN_TO_ZERO, SECOND, Column,
                        PairRecords, SharpnessLimit, TuranianKind)

PASS, FAIL, INCONCLUSIVE = "pass", "fail", "inconclusive"
_STATUSES = (PASS, FAIL, INCONCLUSIVE)    # a status code is an index here


class PairGrid(PairRecords):
    """The context of one (a, c) pair: the x at which the rows of its
    claims are evaluated, in order, with the records, quotients and
    Turanian ratios of ``turanians.PairRecords`` and, formed from the same
    records as columns, the S-family lhs (``_s_lhs``), I2's rhs
    (``_i2_rhs``) and the auxiliary log-ratios, ln G0 and ln G1, and the
    pair's weight density with its phi table (``density``), each once per
    pair."""

    def __init__(self, a: float, c: float, xs):
        super().__init__(a, c, xs)
        self._auxiliary: dict = {}

    @cached_property
    def ln_g0(self) -> tuple[float, float]:
        """ln G0 = ln Gamma(a-c+1)/Gamma(1-c) and its error, which I2 and
        the I-family limits read; where it raises, it is formed again on
        the next read and raises again."""
        return _lg_ratio(self.a - self.c + 1.0, 1.0 - self.c)

    @cached_property
    def ln_g1(self) -> tuple[float, float]:
        """ln G1 = ln Gamma(a-c+1)/Gamma(-c) and its error, as ``ln_g0``."""
        return _lg_ratio(self.a - self.c + 1.0, -self.c)

    @cached_property
    def density(self) -> WeightDensity:
        """The pair's ``measure.WeightDensity``, which keeps its phi table;
        where it raises, it is formed again on the next read, as ``ln_g0``."""
        return WeightDensity(self.a, self.c)

    @cached_property
    def logs(self) -> tuple[np.ndarray, np.ndarray]:
        """ln psi and ln s at each x, by ``_logs``."""
        return _logs(self.records.psi), _logs(self.records.s)

    def auxiliary(self, which: str, order=None) -> Column:
        """The auxiliary ``which`` at the pair's x, taken in ``order`` as
        ``column`` takes it."""
        if which not in self._auxiliary:
            self._auxiliary[which] = _auxiliary_arrays(self, which)
        return self.column(*self._auxiliary[which], lambda x: RegionError(
            "psi must be positive for the log-ratios (a > 0)"), order)


class _Side(NamedTuple):
    """One side of a catalog claim: ``column``, its values at the x of a
    pair, with ``method`` for its value at a point (None: psi's method
    there)."""

    column: Callable[[PairGrid], Column]
    method: str | None = None

    def at(self, pair: PairGrid) -> FunctionValue:
        """Its value at the one x of ``pair``."""
        return pair.one(self.column(pair), self.method)


@dataclass(frozen=True)
class BoundSpec:
    id: str
    target: str          # ratio_both | ratio_first | ratio_second | raw_psi_relation
    side: str            # lower | upper (side the closed-form bound sits on)
    region: Callable[[float, float], bool]
    region_text: str
    lhs: _Side
    rhs: _Side
    anchor: str
    gating: bool = True
    bound_fn: Callable[[float, float, float], float] | None = None

    def closed_form(self, p: ParameterPoint) -> FunctionValue:
        """The closed-form side at p: a ratio bound's bound_fn, or the
        x->0+ limit of the auxiliary behind I1, I3 or I4."""
        side = self.lhs if self.side == "lower" else self.rhs
        return side.at(PairGrid(p.a, p.c, (p.x,)))


class VerificationRecord(NamedTuple):
    """The verdict of one claim at one point: an immutable named tuple."""

    bound_id: str
    point: ParameterPoint
    lhs: FunctionValue
    rhs: FunctionValue
    margin: float
    budget: float
    status: str
    anchor: str


# --- verdict rules, applied to columns -------------------------------------

def _status_codes(margins, budgets) -> list[int]:
    """The status of each margin against its budget as its index in
    _STATUSES: pass needs margin > budget, fail margin < -budget."""
    return [0 if m > b else 1 if m < -b else 2 for m, b in zip(margins, budgets)]


def _status(margin: float, budget: float) -> str:
    return _STATUSES[_status_codes((margin,), (budget,))[0]]


def _verdicts(lhs, lhs_errors, rhs, rhs_errors) -> tuple:
    """(margins, budgets, status codes) of a catalog bound lhs < rhs at
    each point of its columns: margin = rhs - lhs, held against the
    errors of both sides."""
    margins = [r - l for l, r in zip(lhs, rhs)]
    budgets = [el + er + EPS * (abs(l) + abs(r))
               for l, el, r, er in zip(lhs, lhs_errors, rhs, rhs_errors)]
    return margins, budgets, _status_codes(margins, budgets)


def _dominance_verdicts(lower: bool, claimed, claimed_errors, other, other_errors) -> tuple:
    """(margins, budgets, status codes) of a dominance claim between two
    closed-form columns: for lower bounds the claimed value must be the
    larger, for upper bounds the smaller.  The budget, 8 EPS of their
    sizes, covers their errors of 4 EPS each."""
    pairs = list(zip(claimed, other))
    margins = [c - o for c, o in pairs] if lower else [o - c for c, o in pairs]
    budgets = [8.0 * EPS * (abs(c) + abs(o)) for c, o in pairs]
    return margins, budgets, _status_codes(margins, budgets)


def _verdict_columns(xs: list, lhs: Column, rhs: Column, rule) -> tuple:
    """(xs, lhs, rhs, margins, budgets, status codes) of a claim whose sides
    at xs are lhs and rhs, by ``rule``; where a side raised, raises the
    error of the first x where one did, the lhs's before the rhs's."""
    n = min(len(lhs.values), len(rhs.values))
    if n < len(xs):
        raise lhs.error if len(lhs.values) == n else rhs.error
    return (xs, lhs.values, rhs.values, *rule(*lhs[:2], *rhs[:2]))


# --- evaluator factories ---------------------------------------------------

def _closed_values(bound_id: str, fn, a: float, c: float, xs) -> Column:
    """The closed form fn(a, c, x) of bound_id at each x of xs, each with
    the budget 4 EPS|v|, up to the first x where it is not a finite
    double (x^2 underflows to 0 in T1L and T6L below x ~ 1.5e-162)."""
    values, error = [], None
    for x in xs:
        try:
            v = fn(a, c, x)
        except ZeroDivisionError:
            v = math.nan
        if not math.isfinite(v):
            error = EvaluationError(f"closed form of {bound_id} is not a finite double "
                                    f"at (a={a}, c={c}, x={x})")
            break
        values.append(v)
    return Column(values, [4.0 * EPS * abs(v) for v in values], error)


def _exact(bound_id: str, fn) -> _Side:
    """The closed form fn(a, c, x) of bound_id as a side, by
    ``_closed_values``, which states its budget and its error once."""
    return _Side(lambda pair: _closed_values(bound_id, fn, pair.a, pair.c, pair.xs),
                 "closed_form")


def _lg_ratio(u: float, v: float) -> tuple[float, float]:
    # log of Gamma(u)/Gamma(v) and its error; I-family arguments are positive
    (lu, _), (lv, _) = log_gamma(u), log_gamma(v)
    return lu - lv, log_gamma_error(u, lu) + log_gamma_error(v, lv) + EPS * abs(lu - lv)


def _logs(values: np.ndarray) -> np.ndarray:
    """math.log of each element, nan where it is not positive: numpy's log
    can differ from it in the last bit."""
    return np.array([math.log(v) if v > 0.0 else math.nan for v in values.tolist()])


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _s_lhs(da: int, dc: int, power: int) -> Callable[[PairGrid], Column]:
    """The column of -(1/x) psi^power q with q = psi(a+da, c+dc, x)/psi from
    ``PairRecords.quotient``: an S-family lhs divided by psi^2 > 0.  One
    that underflows costs at most _TINY, which its budget carries."""
    def column(pair: PairGrid) -> Column:
        q, err_q = pair.quotient(da, dc)
        rec = pair.records
        f, err_f = (rec.psi, rec.psi_err) if power else (1.0, 0.0)
        with np.errstate(all="ignore"):
            value = -f * q / pair.x
            err = ((abs(f) * err_q + abs(q) * err_f) / pair.x + 2.0 * EPS * abs(value)
                   + (abs(value) < _TINY) * _TINY)
        return pair.column(value, err)
    return column


def _i2_rhs(pair: PairGrid) -> Column:
    """The column of psi/psi(a+1,c+1) - (1/c)(G0 psi)^(1/a), the quotient as
    1/s, s = psi(a+1,c+1)/psi.  The power enters as a positive addend, so
    one that underflows costs at most _TINY/|c|, which its budget carries;
    where the power, the value or its budget overflows this raises, as
    it does where ln(G0) leaves the double range."""
    a, c, rec = pair.a, pair.c, pair.records
    try:
        lg, lg_err = pair.ln_g0
    except EvaluationError as exc:
        return pair.column(rec.psi, rec.psi_err, np.ones(len(pair.xs), bool), lambda x: exc)
    expo = 1.0 / a
    pw = np.array([_exp(expo * (lg + l0)) for l0 in pair.logs[0].tolist()])
    with np.errstate(all="ignore"):
        q = 1.0 / rec.s
        eq = q * (rec.s_err / rec.s + EPS)
        pw_err = (abs(pw * expo) * (rec.psi_err / abs(rec.psi) + lg_err) + 4.0 * EPS * abs(pw)
                  + (pw < _TINY) * _TINY)
        val = q - pw / c
        err = eq + pw_err / abs(c) + 4.0 * EPS * abs(val)
    return pair.column(val, err, ~np.isfinite(abs(val) + err), lambda x: EvaluationError(
        f"rhs of I2 beyond the double range at (a={a}, c={c}, x={x})"))


# --- auxiliary monotone log-ratios -----------------------------------------

@dataclass(frozen=True)
class AuxiliaryRatio:
    """w0 log psi(a,c,x) - wp log psi(a+1,c+1,x) on its region, with the
    sign of its monotonicity in x (+1 increasing, -1 decreasing).  A log
    value: I1, I3 and I4 are checked as this log-ratio against its x->0+
    limit wp ln G1 - w0 ln G0."""

    region: Callable[[float, float], bool]
    region_text: str
    weights: Callable[[float, float], tuple[float, float]]
    sign: float


AUXILIARY = {
    "f": AuxiliaryRatio(lambda a, c: a > 0.0 > c, "a>0>c",
                        lambda a, c: (1.0 / a, 1.0 / (a + 1.0)), +1.0),
    "g": AuxiliaryRatio(lambda a, c: a > 0.0 and c < -1.0, "a>0, c<-1",
                        lambda a, c: (c / (a * (c + 1.0)), 1.0 / (a + 1.0)), -1.0),
    "h": AuxiliaryRatio(lambda a, c: a > 0.0, "a>0",
                        lambda a, c: (1.0, 1.0), +1.0),
}


def _auxiliary_arrays(pair: PairGrid, which: str) -> tuple:
    """The values and errors of the auxiliary ``which`` at the pair's x,
    and the mask of the x where psi or s is not positive (see
    ``auxiliary_log_ratio``)."""
    rec = pair.records
    s, err_s = rec.s, rec.s_err
    # log psi(a+1,c+1) = l0 + ls, so psi's own error enters with w0 - wp
    l0, ls = pair.logs
    w0, wp = AUXILIARY[which].weights(pair.a, pair.c)
    with np.errstate(all="ignore"):
        value = (w0 - wp) * l0 - wp * ls
        err = (abs(w0 - wp) * rec.psi_err / rec.psi + abs(wp) * err_s / s
               + 2.0 * EPS * (abs(w0 * l0) + abs(wp * l0) + abs(wp * ls) + abs(value)))
    return value, err, (rec.psi <= 0.0) | (s <= 0.0)


def auxiliary_log_ratio(which: str, a: float, c: float, x: float) -> FunctionValue:
    """The log-ratio combinations whose monotonicity drives the I-family:

        f = (1/a) log psi - (1/(a+1)) log psi(a+1,c+1,.)        increasing
        g = (c/(a(c+1))) log psi - (1/(a+1)) log psi(a+1,c+1,.) decreasing
        h = log psi - log psi(a+1,c+1,.)                        increasing

    The value is a log, as are the lhs and rhs of I1, I3 and I4, which
    check f, g and h against their x->0+ limits.  Outside the auxiliary's
    region this raises :class:`RegionError`, as it does where psi or s is
    not positive; it is the one-x case of ``PairGrid.auxiliary``, the
    column that I1, I3 and I4 and the monotonicity suite read at a pair.
    """
    if which not in AUXILIARY:
        raise KeyError(f"unknown auxiliary function {which!r}")
    aux = AUXILIARY[which]
    if not aux.region(a, c):
        raise RegionError(
            f"auxiliary {which} requires {aux.region_text}, got a={a}, c={c}")
    pair = PairGrid(a, c, (x,))
    return pair.one(pair.auxiliary(which))


# --- the catalog -----------------------------------------------------------

_TARGET_KIND = {"ratio_both": BOTH, "ratio_first": FIRST, "ratio_second": SECOND}

# one row per ratio bound: (id, target, side, region, region_text, bound_fn,
# anchor[, gating=True]); see the module docstring for the derived sides
_RATIO_BOUNDS = (
    ("T1L", "ratio_both", "lower", lambda a, c: a > 0.0 and c < 1.0, "a>0, c<1, x>0",
     lambda a, c, x: (c - a - 1.0) / (x * x),
     "both-shift lower bound (c-a-1)/x^2, sharp as x->inf"),
    ("T1U", "ratio_both", "upper", lambda a, c: a > 1.0 and c < -1.0, "a>1, c<-1, x>0",
     lambda a, c, x: 1.0 / c + 2.0 * x * (c - a) / (c * c * (c + 1.0)),
     "both-shift upper bound 1/c + 2x(c-a)/(c^2(c+1)), sharp as x->0"),
    ("T2L", "ratio_both", "lower", lambda a, c: a > 0.0 and c < 1.0, "a>0, c<1, x>0",
     lambda a, c, x: -0.5 / x,
     "both-shift lower bound -1/(2x), sharp as x->inf"),
    ("P1L", "ratio_both", "lower", lambda a, c: a > 0.0 > c, "a>0>c, x>0",
     lambda a, c, x: 1.0 / c,
     "both-shift prior lower bound 1/c"),
    ("P1U", "ratio_both", "upper", lambda a, c: a > 0.0 and c < 1.0, "a>0, c<1, x>0",
     lambda a, c, x: 0.0,
     "both-shift prior upper bound 0 (negativity)"),
    ("T3L", "ratio_first", "lower", lambda a, c: a > 0.0 > c, "a>0>c, x>0",
     lambda a, c, x: (1.0 + 0.5 * x / c) / (1.0 + a - c),
     "first-shift lower bound (1 + x/(2c))/(1+a-c), sharp as x->0"),
    ("T3U", "ratio_first", "upper", lambda a, c: a > 0.0 and c < 1.0, "a>0, c<1, x>0",
     lambda a, c, x: 2.0 / x,
     "first-shift upper bound 2/x, sharp as x->inf"),
    ("T5L", "ratio_first", "lower", lambda a, c: a > 1.0 and c < -1.0, "a>1, c<-1, x>0",
     lambda a, c, x: (1.0 - (c - a) * x * x / (c * c * (c + 1.0))) / (1.0 + a - c),
     "first-shift quadratic lower bound, sharp as x->0"),
    ("P2L", "ratio_first", "lower", lambda a, c: a > 0.0 and c < 1.0, "a>0, c<1, x>0",
     lambda a, c, x: 0.0,
     "first-shift prior lower bound 0 (positivity)"),
    ("P2U", "ratio_first", "upper", lambda a, c: a > 1.0 and c < 1.0, "a>1>c, x>0",
     lambda a, c, x: 1.0 / (1.0 + a - c),
     "first-shift prior upper bound 1/(1+a-c)"),
    ("T6L", "ratio_second", "lower", lambda a, c: a > 0.0 and c < 1.0, "a>0, c<1, x>0",
     lambda a, c, x: -a / (x * x),
     "second-shift lower bound -a/x^2, sharp as x->inf"),
    ("T6U", "ratio_second", "upper", lambda a, c: a > 1.0 and c < -1.0, "a>1, c<-1, x>0",
     lambda a, c, x: a / (c * (1.0 + a - c)) * (1.0 + 2.0 * x * (c - a) / (c * (c + 1.0))),
     "second-shift upper bound with linear correction, sharp as x->0"),
    ("P3L", "ratio_second", "lower", lambda a, c: a > 0.0 > c, "a>0>c, x>0",
     lambda a, c, x: a / (c * (1.0 + a - c)),
     "second-shift prior lower bound a/(c(1+a-c))"),
    ("P3U", "ratio_second", "upper", lambda a, c: a > 0.0, "a>0, any c, x>0",
     lambda a, c, x: 0.0,
     "second-shift prior upper bound 0 (negativity)"),
    ("P4U", "ratio_both", "upper", lambda a, c: a > 1.0, "a>1, any c, x>0",
     lambda a, c, x: 1.0 / a,
     "both-shift upper bound 1/a"),
    ("P4U_probe", "ratio_both", "upper", lambda a, c: 0.0 < a <= 1.0, "0<a<=1, any c, x>0",
     lambda a, c, x: 1.0 / a,
     "both-shift upper bound 1/a probed outside its proven region", False),
)


def _ratio(kind: TuranianKind) -> _Side:
    """The Turanian ratio of ``kind``, formed once per pair."""
    return _Side(lambda pair: pair.ratios(kind))


def _ratio_bound(id_, target, side, region, region_text, bound_fn, anchor,
                 gating=True) -> BoundSpec:
    closed, ratio = _exact(id_, bound_fn), _ratio(_TARGET_KIND[target])
    lhs, rhs = (closed, ratio) if side == "lower" else (ratio, closed)
    return BoundSpec(id_, target, side, region, region_text, lhs, rhs, anchor,
                     gating, bound_fn)


CATALOG: dict[str, BoundSpec] = {row[0]: _ratio_bound(*row) for row in _RATIO_BOUNDS}


# one row per S-family claim, checked as lhs <= R_c, the raw relation
# lhs <= D_c divided by psi^2: (id, region, region_text, (da, dc), power,
# anchor, gating); see ``_s_lhs`` for the lhs
_S_BOUNDS = (
    ("S1", lambda a, c: a > 0.0 and c < a + 2.0, "a>0, c<a+2, x>0", (0, -1), 0,
     "second-shift Turanian >= -(1/x) psi(a,c,x) psi(a,c-1,x); "
     "checked as -(1/x) psi(a,c-1)/psi <= R_c", True),
    ("S2", lambda a, c: a > 1.0 and c < a + 1.0, "a>1, c<a+1, x>0", (1, 1), 1,
     "second-shift Turanian >= -(1/x) psi^2(a,c,x) psi(a+1,c+1,x), "
     "inhomogeneous as quoted (fails at large x); "
     "checked as -(1/x) psi(a+1,c+1) <= R_c", False),
    ("S2H", lambda a, c: a > 1.0 and c < a + 1.0, "a>1, c<a+1, x>0", (1, 1), 0,
     "homogenized variant of S2 with a single psi(a,c,x) factor; "
     "checked as -(1/x) psi(a+1,c+1)/psi <= R_c", False),
)
CATALOG.update((id_, BoundSpec(id_, "raw_psi_relation", "lower", region, region_text,
                               _Side(_s_lhs(*shift, power)), _ratio(SECOND), anchor,
                               gating))
               for id_, region, region_text, shift, power, anchor, gating in _S_BOUNDS)

# one row per I-family claim in log form: (id, auxiliary, region,
# region_text, anchor); see the module docstring for the derived sides
_LOG_BOUNDS = (
    ("I1", "f", lambda a, c: a > 0.0 > c, "a>0>c, x>0",
     "Gamma-normalized psi^(1/a) dominates the (a+1)-shifted power; "
     "checked as f(0+) < f(x)"),
    ("I3", "g", lambda a, c: a > 0.0 and c < -1.0, "a>0, c<-1, x>0",
     "power-mean comparison with exponent c/(a(c+1)); checked as g(x) < g(0+)"),
    ("I4", "h", lambda a, c: a > 0.0 > c, "a>0>c, x>0",
     "psi(a+1,c+1,x) < -(1/c) psi(a,c,x); checked as h(0+) < h(x)"),
)


def _log_bound(id_, which, region, region_text, anchor) -> BoundSpec:
    aux = AUXILIARY[which]

    def limit(pair: PairGrid) -> Column:
        # aux(0+) = wp ln G1 - w0 ln G0, derived in the module docstring; it
        # depends on (a, c) alone, so it is formed once per pair, and where
        # it raises, or its value or budget is not a finite double, it does
        # so at the pair's first x
        a, c, n = pair.a, pair.c, len(pair.xs)
        w0, wp = aux.weights(a, c)
        try:
            (l0, e0), (l1, e1) = pair.ln_g0, pair.ln_g1
        except EvaluationError as exc:
            return Column([], [], exc)
        value = wp * l1 - w0 * l0
        err = abs(wp) * e1 + abs(w0) * e0 + EPS * (abs(wp * l1) + abs(w0 * l0) + abs(value))
        if not (math.isfinite(value) and math.isfinite(err)):
            return Column([], [], EvaluationError(
                f"x->0+ limit of {id_} is not a finite double with a finite budget "
                f"at (a={a}, c={c}) (got {value} +- {err})"))
        return Column([value] * n, [err] * n, None)
    side = "lower" if aux.sign > 0 else "upper"
    closed, aux_side = _Side(limit, "closed_form"), _Side(lambda pair: pair.auxiliary(which))
    lhs, rhs = (closed, aux_side) if side == "lower" else (aux_side, closed)
    return BoundSpec(id_, "raw_psi_relation", side, region, region_text, lhs, rhs, anchor)


_I2 = BoundSpec("I2", "raw_psi_relation", "lower", lambda a, c: a > 0.0 > c, "a>0>c, x>0",
                _exact("I2", lambda a, c, x: 2.0), _Side(_i2_rhs),
                "psi ratio minus (1/c)-scaled power exceeds 2")
CATALOG.update((spec.id, spec) for spec in sorted(     # in order I1, I2, I3, I4
    (_I2, *(_log_bound(*row) for row in _LOG_BOUNDS)), key=lambda spec: spec.id))


# --- sharpness limits ------------------------------------------------------

# The (a, c) pairs the sharpness suite scans, each in the region of every
# limit that scans it; they stay while recorded counts pin the 28 rows.
# _SCANS: scan sequence -> claim name prefix, anchor and pairs.
PAIRS_TO_ZERO = ((1.5, -2.5), (2.0, -2.5), (2.0, -4.5), (3.0, -4.5))
PAIRS_TO_INFINITY = ((1.0, 0.5), (1.0, -1.5), (2.0, -2.5), (3.0, -4.5))
_SCANS = {
    SCAN_TO_ZERO: ("zero-limit", "plain ratio tends to its x->0 closed form within its rate",
                   PAIRS_TO_ZERO),
    SCAN_TO_INFINITY: ("vanish", "plain ratio tends to 0 within its rate", PAIRS_TO_INFINITY),
}


def _sharpness_limit(bound_id: str, xs: tuple[float, ...]) -> SharpnessLimit:
    spec, (prefix, anchor, pairs) = CATALOG[bound_id], _SCANS[xs]
    kind = _TARGET_KIND[spec.target]
    value = partial(spec.bound_fn, x=0.0) if xs is SCAN_TO_ZERO else lambda a, c: 0.0

    def rate(a: float, c: float, x: float) -> float:
        return abs(spec.bound_fn(a, c, x) - value(a, c))
    return SharpnessLimit(f"{prefix}[{kind.value}]", kind, xs, False, spec.region,
                          value, rate, anchor, pairs)


# claim name -> limit, in the output order of ``tricomi-turan sharpness``
LIMITS: dict[str, SharpnessLimit] = {lim.name: lim for lim in (
    SharpnessLimit("zeta-limit", BOTH, SCAN_TO_INFINITY, True,
                   lambda a, c: a > 0.0 and c < 1.0, lambda a, c: c - a - 1.0,
                   lambda a, c, x: 2.0 * (1.0 + a - c) * (2.0 + 2.0 * a - c) / x,
                   "x^2-scaled both-shift ratio tends to c-a-1 within its rate",
                   PAIRS_TO_INFINITY),
    *(_sharpness_limit(*row) for row in (
        ("T1U", SCAN_TO_ZERO), ("T1L", SCAN_TO_INFINITY), ("T5L", SCAN_TO_ZERO),
        ("T3U", SCAN_TO_INFINITY), ("T6U", SCAN_TO_ZERO), ("T6L", SCAN_TO_INFINITY))),
)}


def bound_columns(spec: BoundSpec, pair: PairGrid) -> tuple:
    """The rows of the catalog bound ``spec`` at the x of ``pair``, which
    the caller has placed in its region, as the columns (xs, lhs, rhs,
    margins, budgets, status codes) of ``_verdicts``."""
    return _verdict_columns(pair.xs, spec.lhs.column(pair), spec.rhs.column(pair),
                            _verdicts)


def check_bound(bound_id: str, p: ParameterPoint) -> VerificationRecord:
    """Verify one catalogued inequality at one point: validate the id and
    the point, then read both sides there and apply the catalog's verdict
    rule ``_verdicts`` to that one row, as ``bound_columns`` applies it to
    the rows of a pair.

    Raises :class:`RegionError` outside the bound's region (distinct from
    a ``fail`` status).
    """
    if bound_id not in CATALOG:
        raise KeyError(f"unknown bound id {bound_id!r}")
    spec = CATALOG[bound_id]
    if not spec.region(p.a, p.c):
        raise RegionError(
            f"point (a={p.a}, c={p.c}) outside region of {bound_id} "
            f"({spec.region_text})")
    pair = PairGrid(p.a, p.c, (p.x,))
    lhs, rhs = spec.lhs.at(pair), spec.rhs.at(pair)
    (margin,), (budget,), (code,) = _verdicts((lhs.value,), (lhs.abs_error,),
                                              (rhs.value,), (rhs.abs_error,))
    return VerificationRecord(bound_id, p, lhs, rhs, margin, budget, _STATUSES[code],
                              spec.anchor)


# --- dominance claims ------------------------------------------------------

@dataclass(frozen=True)
class DominanceSpec:
    id: str
    claimed: str          # id of the bound claimed tighter
    other: str
    threshold: Callable[[float, float, float], bool]
    threshold_text: str

    @cached_property
    def anchor(self) -> str:
        return f"{self.claimed} tighter than {self.other} for {self.threshold_text}"

    def region(self, a: float, c: float) -> bool:
        """True when (a, c) lies in both bounds' regions."""
        return CATALOG[self.claimed].region(a, c) and CATALOG[self.other].region(a, c)


DOMINANCE: dict[str, DominanceSpec] = {spec.id: spec for spec in (
    DominanceSpec("D1", "T1L", "P1L", lambda a, c, x: x * x > c * (c - a - 1.0),
                  "x^2 > c(c-a-1)"),
    DominanceSpec("D2", "T1U", "P1U", lambda a, c, x: x < c * (c + 1.0) / (2.0 * (a - c)),
                  "x < c(c+1)/(2(a-c))"),
    DominanceSpec("D3", "T2L", "P1L", lambda a, c, x: x > -0.5 * c,
                  "x > -c/2"),
    DominanceSpec("D4", "T3L", "P2L", lambda a, c, x: x < -1.5 * c,
                  "x < -3c/2"),
    DominanceSpec("D5", "T3U", "P2U", lambda a, c, x: x > 2.0 * (1.0 + a - c),
                  "x > 2(1+a-c)"),
    DominanceSpec("D6", "T5L", "P2L", lambda a, c, x: x * x < c * c * (c + 1.0) / (c - a),
                  "x^2 < c^2(c+1)/(c-a)"),
    DominanceSpec("D7", "T6L", "P3L", lambda a, c, x: x * x > c * (c - a - 1.0),
                  "x^2 > c(c-a-1)"),
    DominanceSpec("D8", "T6U", "P3U", lambda a, c, x: x < c * (c + 1.0) / (2.0 * (a - c)),
                  "x < c(c+1)/(2(a-c))"),
)}


def dominance_applicable(dom_id: str, p: ParameterPoint) -> bool:
    """True when p lies in both bounds' regions and meets the threshold."""
    spec = DOMINANCE[dom_id]
    return spec.region(p.a, p.c) and spec.threshold(p.a, p.c, p.x)


def dominance_columns(spec: DominanceSpec, pair: PairGrid) -> tuple:
    """The rows of the dominance claim ``spec`` at the x of ``pair`` that
    meet its threshold, the pair in both bounds' regions, as the columns
    (xs, claimed, other, margins, budgets, status codes) of
    ``_dominance_verdicts``."""
    a, c = pair.a, pair.c
    xs = [x for x in pair.xs if spec.threshold(a, c, x)]
    claimed, other = CATALOG[spec.claimed], CATALOG[spec.other]
    return _verdict_columns(xs, _closed_values(claimed.id, claimed.bound_fn, a, c, xs),
                            _closed_values(other.id, other.bound_fn, a, c, xs),
                            partial(_dominance_verdicts, claimed.side == "lower"))


def check_dominance(dom_id: str, p: ParameterPoint) -> VerificationRecord:
    """Compare the two closed-form bound values where the claim applies:
    validate the id and the point, then apply ``_dominance_verdicts`` to
    that one row, as ``dominance_columns`` applies it to the rows of a
    pair.

    Points outside either region or failing the threshold raise
    :class:`RegionError`.
    """
    if dom_id not in DOMINANCE:
        raise KeyError(f"unknown dominance id {dom_id!r}")
    spec = DOMINANCE[dom_id]
    if not dominance_applicable(dom_id, p):
        raise RegionError(
            f"{dom_id} needs the regions of {spec.claimed} and {spec.other} and "
            f"{spec.threshold_text}, not met at (a={p.a}, c={p.c}, x={p.x})")
    claimed = CATALOG[spec.claimed]
    sides = [_closed_values(s.id, s.bound_fn, p.a, p.c, (p.x,))
             for s in (claimed, CATALOG[spec.other])]
    *_, (margin,), (budget,), (code,) = _verdict_columns(
        [p.x], *sides, partial(_dominance_verdicts, claimed.side == "lower"))
    fv_c, fv_o = (FunctionValue(s.values[0], s.errors[0], "closed_form") for s in sides)
    return VerificationRecord(dom_id, p, fv_c, fv_o, margin, budget, _STATUSES[code],
                              spec.anchor)


def catalog_document() -> list[dict]:
    """The catalog as a structured document for reports and the CLI."""
    out = []
    for spec in CATALOG.values():
        out.append({
            "id": spec.id,
            "target": spec.target,
            "side": spec.side,
            "region": spec.region_text,
            "anchor": spec.anchor,
            "gating": spec.gating,
        })
    return out

"""Turanians of psi and the limits that make their bounds sharp.

Three determinant-like differences are tracked, one per parameter shift:

    both shifts   D_ac(x) = psi(a,c,x)^2 - psi(a-1,c-1,x) psi(a+1,c+1,x)
    first only    D_a(x)  = psi(a,c,x)^2 - psi(a-1,c,x)   psi(a+1,c,x)
    second only   D_c(x)  = psi(a,c,x)^2 - psi(a,c-1,x)   psi(a,c+1,x)

normalized throughout by psi(a,c,x)^2: R = D/psi^2 = 1 - q_- q_+ with the
quotients q_+- = psi(a+-da, c+-dc, x)/psi(a,c,x).  Two quotients serve
all three, r = psi(a+1,c,x)/psi and s = psi(a+1,c+1,x)/psi: q_+ is s,
r or psi(a,c+1)/psi = 1 + a s (DLMF 13.3.9), and the contiguous
relations give

    psi(a-1,c)/psi   = (2a-c+x) - a(a-c+1) r      DLMF 13.3.7
    psi(a,c-1)/psi   = 1 - a r                    DLMF 13.3.9
    psi(a-1,c-1)/psi = (a-c+1+x) - a(a-c+1) r     13.3.9 at (a-1,c), then 13.3.7

13.3.7 runs backward in a, the stable direction, as U is the minimal
solution of the recurrence (Gil, Segura & Temme, *Numerical Methods for
Special Functions*, SIAM 2007, ch. 4); and no psi is evaluated below the
point, so a-1 <= 0 and its integer-c hole never enter.

psi, r and s come from one record per (a, c, x), ``kernel.pair_quotients``:
one trapezoid pass for a > 0, and psi at (a,c), (a+1,c) and (a+1,c+1) for
a <= 0, so psi(a,c+1) is never read.  A :class:`PairRecords` reads the
records at all the x of one (a, c) pair in one call, whose passes run
together, into numpy arrays and forms from them, as columns over the
pair's x, the six shifted quotients and each kind's ratio, once per
kind: the shifted values of the ratios and of the bounds' S- and
I-family.  A column applies the per-point arithmetic to whole arrays,
the same operations in the same order, so each element is bit for bit
the value at its x; ``turanian_ratio`` reads the ratio of a context of
one x, and ``sharpness_scan`` the ratios of a context over its own
sequence.  Nothing is kept past the context that formed it.

The raw Turanian, which only ``tricomi-turan eval turanian:KIND`` reads,
takes the relations without the division, D = psi^2 - psi_+ psi_- with
psi_- = A psi - B psi(a+1,c), from psi at its three points: it holds
where psi vanishes (only at a <= 0).

A :class:`SharpnessLimit` states a limit that makes a catalogued bound
sharp (``bounds.LIMITS``); ``sharpness_scan`` measures the deviations from
it along its own sequence, each beside its rate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .kernel import (_TINY, EPS, EvaluationError, FunctionValue,
                     ParameterPoint, RegionError, pair_quotients, psi)


class TuranianKind(enum.Enum):
    """Which parameter shift defines the Turanian."""

    BOTH_SHIFT = "both"
    FIRST_SHIFT = "first"
    SECOND_SHIFT = "second"

    @property
    def shifts(self) -> tuple[int, int]:
        return _SHIFTS[self]


BOTH, FIRST, SECOND = (TuranianKind.BOTH_SHIFT, TuranianKind.FIRST_SHIFT,
                       TuranianKind.SECOND_SHIFT)
_SHIFTS = {BOTH: (1, 1), FIRST: (1, 0), SECOND: (0, 1)}


def _one_plus_a_s(a: float, c: float, x: float, r, s) -> tuple[float, float]:
    """psi(a,c+1,x)/psi = 1 + a s (DLMF 13.3.9) and its error, at one x or,
    on arrays, at each."""
    s, err_s = s
    t = 1.0 + a * s
    return t, abs(a) * err_s + EPS * (abs(a * s) + abs(t))


# (da, dc) -> psi(a+da, c+dc, x)/psi(a,c,x) and its error from the record's
# r and s: the three kinds' upper shifts, then their lower ones by ``_lower``
_QUOTIENTS = {
    (1, 0): lambda a, c, x, r, s: r,
    (1, 1): lambda a, c, x, r, s: s,
    (0, 1): _one_plus_a_s,
    **{(-da, -dc): (lambda a, c, x, r, s, k=kind: _lower(k, a, c, x, 1.0, 0.0, *r))
       for kind, (da, dc) in _SHIFTS.items()},
}


class Column(NamedTuple):
    """One quantity at the x of a pair, in order: its values and errors up
    to the first x where it raises, and that error (None if none)."""

    values: list
    errors: list
    error: Exception | None


class _Records(NamedTuple):
    """The records of a pair's x: psi (as its FunctionValue, and its value
    and error), r and s with their errors, nan where the record raises, and
    that error at each x (else None), also as a mask."""

    f0: list
    psi: np.ndarray
    psi_err: np.ndarray
    r: np.ndarray
    r_err: np.ndarray
    s: np.ndarray
    s_err: np.ndarray
    failures: list
    failed: np.ndarray


_NO_RECORD = (math.nan,) * 6


class PairRecords:
    """The x of one (a, c) pair, in order, with the record of psi and its
    quotients at each, read for all x in one ``pair_quotients`` call when
    first needed (so that a column taken in another order meets its first
    error there too), and the quotients and each kind's ratios as
    columns, each formed once per pair.  Column arithmetic runs under
    ``np.errstate``: like Python floats it turns to inf or nan beyond the
    double range, without a warning, and ``column`` fails the x there."""

    def __init__(self, a: float, c: float, xs):
        self.a, self.c, self.xs = a, c, list(xs)
        self._quotients: dict = {}
        self._ratios: dict = {}

    @cached_property
    def x(self) -> np.ndarray:
        return np.array(self.xs, dtype=float)

    @cached_property
    def records(self) -> _Records:
        f0s, rows, failures = [], [], []
        for got in pair_quotients(self.a, self.c, self.xs):
            if isinstance(got, Exception):
                # kept for a column to raise at its x, after the errors of
                # earlier x: a pair raises its first failing task
                f0, row, failure = None, _NO_RECORD, got
            else:
                f0, r, s = got
                row, failure = (f0.value, f0.abs_error, *r, *s), None
            f0s.append(f0)
            rows.append(row)
            failures.append(failure)
        arrays = np.array(rows, dtype=float).reshape(-1, 6).T
        return _Records(f0s, *arrays, failures,
                        np.array([e is not None for e in failures], dtype=bool))

    def column(self, values, errors, name: str, order=None) -> Column:
        """The arrays values and errors of ``name`` at the pair's x, taken
        at the x of ``order`` (indices; all, in order, if None) up to the
        first whose record raised or whose value or error is not a finite
        double, with the record's error there, else EvaluationError."""
        rec = self.records
        failed = rec.failed | ~(np.isfinite(values) & np.isfinite(errors))
        if order is not None:
            values, errors, failed = values[order], errors[order], failed[order]
        stops = failed.nonzero()[0]
        if not stops.size:
            return Column(values.tolist(), errors.tolist(), None)
        k = int(stops[0])
        i = k if order is None else order[k]
        error = rec.failures[i] or EvaluationError(
            f"{name} beyond the double range at (a={self.a}, c={self.c}, x={self.xs[i]})")
        return Column(values[:k].tolist(), errors[:k].tolist(), error)

    def one(self, column: Column, method: str | None = None) -> FunctionValue:
        """A column of the pair's one x as a FunctionValue, of ``method``
        or else psi's there; raises the column's error."""
        if column.error is not None:
            raise column.error
        (value,), (err,) = column.values, column.errors
        return FunctionValue(value, err, method or self.records.f0[0].method)

    def quotient(self, da: int, dc: int) -> tuple[np.ndarray, np.ndarray]:
        """psi(a+da, c+dc, x)/psi(a,c,x) and its error at each x, from r
        and s at the six shifts of ``_QUOTIENTS``, nan where the record
        raises, formed once per shift.  Raises ValueError at any other
        shift."""
        form = _QUOTIENTS.get((da, dc))
        if form is None:
            raise ValueError(f"no quotient at the shift (da={da}, dc={dc})")
        if (da, dc) not in self._quotients:
            rec = self.records
            with np.errstate(all="ignore"):
                self._quotients[da, dc] = form(self.a, self.c, self.x, (rec.r, rec.r_err),
                                               (rec.s, rec.s_err))
        return self._quotients[da, dc]

    def ratios(self, kind: TuranianKind) -> Column:
        """The ratio of ``kind`` at the pair's x, formed once per kind."""
        if kind not in self._ratios:
            self._ratios[kind] = self._ratio_column(kind)
        return self._ratios[kind]

    def _ratio_column(self, kind: TuranianKind) -> Column:
        """R = 1 - q_- q_+, q_+- = psi(a+-da, c+-dc, x)/psi(a,c,x), with q_-
        from DLMF 13.3.7 and 13.3.9 (see the module docstring).  The budget
        is first order in the quotients' errors, |q_+| err(q_-) + |q_-|
        err(q_+), plus 3 EPS |q_- q_+| of rounding on the product and EPS |R|
        on the difference: psi is never squared.  Where the value or the
        budget is not finite, the ratio raises, by ``column``'s rule."""
        da, dc = kind.shifts
        qm, err_m = self.quotient(-da, -dc)
        qp, err_p = self.quotient(da, dc)
        with np.errstate(all="ignore"):
            product = qm * qp
            value = 1.0 - product
            err = (abs(qp) * err_m + abs(qm) * err_p + 3.0 * EPS * abs(product)
                   + EPS * abs(value))
        return self.column(value, err, "Turanian ratio")


def turanian(kind: TuranianKind, p: ParameterPoint) -> FunctionValue:
    """psi^2 - psi_+ psi_-, psi_+- = psi(a+-da, c+-dc, x), with psi_- = A psi
    - B psi(a+1,c,x) by ``_lower``: no division, so psi may vanish (only at
    a <= 0), and the error bounds the products' errors in full, plus EPS
    of rounding on each product and on the difference.  Where a product
    of nonzero psi values underflows, or the value or its error is not
    finite, this raises, as psi does."""
    a, c, x = p
    da, dc = kind.shifts
    f0, f1 = psi(p), psi(ParameterPoint(a + 1.0, c, x))
    fp = psi(ParameterPoint(a + da, c + dc, x))
    down, down_err = _lower(kind, a, c, x, f0.value, f0.abs_error, f1.value, f1.abs_error)
    square, product = f0.value * f0.value, fp.value * down
    value = square - product
    err = ((2.0 * abs(f0.value) + f0.abs_error) * f0.abs_error
           + abs(down) * fp.abs_error + (abs(fp.value) + fp.abs_error) * down_err
           + EPS * (square + abs(product) + abs(value)))
    if ((f0.value and abs(square) < _TINY) or (fp.value and down and abs(product) < _TINY)
            or not math.isfinite(abs(value) + err)):
        raise EvaluationError(f"psi products underflow or leave the double range "
                              f"at (a={a}, c={c}, x={x})")
    return FunctionValue(value, err, f0.method)


def _lower(kind: TuranianKind, a: float, c: float, x: float, u: float,
           err_u: float, v: float, err_v: float) -> tuple[float, float]:
    """A u - B v, with A and B of psi(a-da, c-dc, x) = A psi(a,c,x) - B
    psi(a+1,c,x), and its error: |A| err(u) + |B| err(v) plus EPS per
    rounding of A, B, the products and the difference, each taken at the
    magnitudes of its terms; on arrays of x, u and v, at each."""
    if kind is TuranianKind.SECOND_SHIFT:       # DLMF 13.3.9
        lead, coef, lead_size, coef_size = 1.0, a, 0.0, abs(a)
    else:
        b = a - c + 1.0
        coef, coef_size = a * b, abs(a) * (abs(a) + abs(c) + 1.0)
        if kind is TuranianKind.FIRST_SHIFT:    # DLMF 13.3.7
            lead, lead_size = 2.0 * a - c + x, 2.0 * abs(a) + abs(c) + x
        else:                                   # 13.3.9 at (a-1, c), then 13.3.7
            lead, lead_size = b + x, abs(a) + abs(c) + 1.0 + x
    value = lead * u - coef * v
    return value, (abs(lead) * err_u + abs(coef) * err_v
                   + EPS * (2.0 * lead_size * abs(u) + 2.0 * coef_size * abs(v)
                            + abs(value)))


def turanian_ratio(kind: TuranianKind, p: ParameterPoint) -> FunctionValue:
    """Turanian normalized by psi^2 as R = 1 - q_- q_+ at p, with the method
    of psi there: the one-x case of ``PairRecords.ratios``, whose docstring
    states the budget.  Where the record or the budget leaves the double
    range, this raises, on every call."""
    pair = PairRecords(p.a, p.c, (p.x,))
    return pair.one(pair.ratios(kind))


# scan sequences: toward 0 and toward infinity
SCAN_TO_ZERO = (1.0, 0.1, 0.01, 0.001)
SCAN_TO_INFINITY = (10.0, 100.0, 1000.0)


@dataclass(frozen=True)
class SharpnessLimit:
    """One sharpness claim: where ``region(a, c)`` holds, the ratio R of
    ``kind``, times x^2 if ``x2_scaled``, tends to L = ``value(a, c)``
    along ``xs``, at the proven rate |scale R - L| <= ``rate(a, c, x)``,
    which tends to 0.  The region is the one where the rate is stated.
    The sharpness suite scans the limit at ``pairs``."""

    name: str
    kind: TuranianKind
    xs: tuple[float, ...]                   # SCAN_TO_ZERO or SCAN_TO_INFINITY
    x2_scaled: bool
    region: Callable[[float, float], bool]
    value: Callable[[float, float], float]
    rate: Callable[[float, float, float], float]
    anchor: str
    pairs: tuple[tuple[float, float], ...]  # PAIRS_TO_ZERO or PAIRS_TO_INFINITY

    @property
    def toward_zero(self) -> bool:
        return self.xs[-1] < self.xs[0]


@dataclass(frozen=True)
class ScanPoint:
    """One point of a scan: the (x^2-scaled) ratio, its deviation from the
    limit, the rate that bounds it and the budget of rate - deviation."""

    x: float
    ratio: float
    deviation: float
    rate: float
    budget: float


def sharpness_scan(limit: SharpnessLimit, a: float, c: float) -> tuple[ScanPoint, ...]:
    """The (x^2-scaled) ratio along the limit's own scan sequence, each
    point with its deviation |scale R - L| from the limit L and the rate
    bound on it.  The budget of rate - deviation is the scaled ratio's
    plus EPS (14 |L| + 5 rate + 3 deviation): L, in both, and the bound b
    of a rate |b - L| round within 4 EPS of their size, as catalog closed
    forms do, |b| <= |L| + rate (the zeta rate takes b's share), x^2 R
    within 2 EPS (|L| + deviation), and each difference once.  Raises
    :class:`RegionError` outside the limit's region, and
    :class:`EvaluationError` where a deviation, rate or budget is not finite."""
    if not limit.region(a, c):
        raise RegionError(f"{limit.name} is not stated at (a={a}, c={c})")
    value = limit.value(a, c)
    ratios = PairRecords(a, c, limit.xs).ratios(limit.kind)
    points = []
    for i, x in enumerate(limit.xs):
        if i == len(ratios.values):
            raise ratios.error
        r, r_err = ratios.values[i], ratios.errors[i]
        scale = x * x if limit.x2_scaled else 1.0
        rate, dev = limit.rate(a, c, x), abs(scale * r - value)
        budget = scale * r_err + EPS * (14.0 * abs(value) + 5.0 * rate + 3.0 * dev)
        if not math.isfinite(dev + rate + budget):
            raise EvaluationError(f"{limit.name} has no finite deviation, rate and "
                                  f"budget at (a={a}, c={c}, x={x})")
        points.append(ScanPoint(x, scale * r, dev, rate, budget))
    return tuple(points)

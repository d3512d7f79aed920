"""Turanians of psi and the limit constants attached to them.

Three determinant-like differences are tracked, one per parameter shift:

    both shifts   D_ac(x) = psi(a,c,x)^2 - psi(a-1,c-1,x) psi(a+1,c+1,x)
    first only    D_a(x)  = psi(a,c,x)^2 - psi(a-1,c,x)   psi(a+1,c,x)
    second only   D_c(x)  = psi(a,c,x)^2 - psi(a,c-1,x)   psi(a,c+1,x)

normalized throughout by psi(a,c,x)^2.  The catalogued bounds on these
ratios become equalities in a limit direction; :class:`SharpnessLimit`
stores those limiting constants in closed form:

    x^2 D_ac/psi^2 -> c-a-1          as x -> inf   (a>0, c<1)
    D_ac/psi^2     -> 1/c            as x -> 0     (a>0>c)
    D_a/psi^2      -> 1/(1+a-c)      as x -> 0     (a>0, c<1)
    D_c/psi^2      -> a/(c(1+a-c))   as x -> 0     (a>0>c)
    all plain ratios -> 0            as x -> inf.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .kernel import (_TINY, EPS, EvaluationError, FunctionValue,
                     ParameterPoint, RegionError, psi)


class TuranianKind(enum.Enum):
    """Which parameter shift defines the Turanian."""

    BOTH_SHIFT = "both"
    FIRST_SHIFT = "first"
    SECOND_SHIFT = "second"

    @property
    def shifts(self) -> tuple[int, int]:
        return _SHIFTS[self]


_SHIFTS = {
    TuranianKind.BOTH_SHIFT: (1, 1),
    TuranianKind.FIRST_SHIFT: (1, 0),
    TuranianKind.SECOND_SHIFT: (0, 1),
}


class Direction(enum.Enum):
    X_TO_ZERO = "x_to_zero"
    X_TO_INFINITY = "x_to_infinity"


class Normalization(enum.Enum):
    RATIO = "ratio"
    RATIO_TIMES_X2 = "ratio_times_x2"


def turanian(kind: TuranianKind, p: ParameterPoint,
             tol: float = 1e-12) -> FunctionValue:
    """psi^2 - psi(shifted down) * psi(shifted up), with first-order error.
    A product of nonzero psi values that underflows raises, as psi does."""
    da, dc = kind.shifts
    f0 = psi(p, tol)
    fm = psi(ParameterPoint(p.a - da, p.c - dc, p.x), tol)
    fp = psi(ParameterPoint(p.a + da, p.c + dc, p.x), tol)
    square, cross = f0.value * f0.value, fm.value * fp.value
    if ((f0.value and abs(square) < _TINY)
            or (fm.value and fp.value and abs(cross) < _TINY)):
        raise EvaluationError(f"psi products underflow at "
                              f"(a={p.a}, c={p.c}, x={p.x})")
    value = square - cross
    err = (2.0 * abs(f0.value) * f0.abs_error
           + abs(fm.value) * fp.abs_error + abs(fp.value) * fm.abs_error
           + EPS * (abs(f0.value) ** 2 + abs(cross)))
    return FunctionValue(value, err, f0.method)


def turanian_ratio(kind: TuranianKind, p: ParameterPoint,
                   tol: float = 1e-12) -> FunctionValue:
    """Turanian normalized by psi^2 as 1 - (psi_-/psi)(psi_+/psi), with a
    first-order budget of relative errors: psi is never squared."""
    da, dc = kind.shifts
    f0 = psi(p, tol)
    if f0.abs_error >= abs(f0.value) / 2.0:
        raise EvaluationError(
            f"psi indistinguishable from 0 at (a={p.a}, c={p.c}, x={p.x})")
    fm = psi(ParameterPoint(p.a - da, p.c - dc, p.x), tol)
    fp = psi(ParameterPoint(p.a + da, p.c + dc, p.x), tol)
    qm, qp = fm.value / f0.value, fp.value / f0.value
    value = 1.0 - qm * qp
    # one rounding per quotient and for the product, one for the difference
    err = ((abs(qp) * fm.abs_error + abs(qm) * fp.abs_error) / abs(f0.value)
           + abs(qm * qp) * (2.0 * f0.abs_error / abs(f0.value) + 3.0 * EPS)
           + EPS * abs(value))
    return FunctionValue(value, err, f0.method)


@dataclass(frozen=True)
class SharpnessLimit:
    """A limit constant of a (possibly x^2-scaled) Turanian ratio."""

    kind: TuranianKind
    direction: Direction
    normalization: Normalization
    limit_value: float

    @classmethod
    def closed_form(cls, kind: TuranianKind, direction: Direction,
                    normalization: Normalization, a: float,
                    c: float) -> "SharpnessLimit":
        """Build the limit with its closed-form value for parameters (a, c)."""
        if direction is Direction.X_TO_INFINITY:
            if normalization is Normalization.RATIO:
                value = 0.0
            elif kind is TuranianKind.BOTH_SHIFT:
                if not (a > 0.0 and c < 1.0):
                    raise RegionError("x^2-scaled limit requires a > 0, c < 1")
                value = c - a - 1.0
            else:
                raise RegionError(
                    "x^2 normalization at infinity applies to the both-shift kind")
        else:
            if normalization is not Normalization.RATIO:
                raise RegionError("x -> 0 limits are stated for the plain ratio")
            if kind is TuranianKind.BOTH_SHIFT:
                if not (a > 0.0 > c):
                    raise RegionError("1/c limit requires a > 0 > c")
                value = 1.0 / c
            elif kind is TuranianKind.FIRST_SHIFT:
                if not (a > 0.0 and c < 1.0):
                    raise RegionError("1/(1+a-c) limit requires a > 0, c < 1")
                value = 1.0 / (1.0 + a - c)
            else:
                if not (a > 0.0 > c):
                    raise RegionError("a/(c(1+a-c)) limit requires a > 0 > c")
                value = a / (c * (1.0 + a - c))
        return cls(kind, direction, normalization, value)


@dataclass(frozen=True)
class ScanPoint:
    x: float
    ratio: float
    deviation: float
    budget: float


@dataclass(frozen=True)
class ScanResult:
    limit: SharpnessLimit
    a: float
    c: float
    points: tuple[ScanPoint, ...]
    eventually_decreasing: bool
    inconclusive: bool  # error budget exceeds a deviation somewhere


# default scan sequences: toward 0 and toward infinity
SCAN_TO_ZERO = (1.0, 0.1, 0.01, 0.001)
SCAN_TO_INFINITY = (10.0, 100.0, 1000.0)


def sharpness_scan(limit: SharpnessLimit, a: float, c: float,
                   xs: tuple[float, ...] | None = None,
                   tol: float = 1e-12) -> ScanResult:
    """Deviations of the normalized ratio from its limit along an x-sequence.

    The sequence must run monotonically toward the limit direction; the
    result reports whether deviations are eventually decreasing and
    whether any deviation sits inside its own error budget.
    """
    if xs is None:
        xs = SCAN_TO_ZERO if limit.direction is Direction.X_TO_ZERO \
            else SCAN_TO_INFINITY
    seq = list(xs)
    toward_zero = limit.direction is Direction.X_TO_ZERO
    ordered = all(b < a_ for a_, b in zip(seq, seq[1:])) if toward_zero \
        else all(b > a_ for a_, b in zip(seq, seq[1:]))
    if not ordered:
        raise RegionError("x sequence must be monotone toward the limit direction")
    points = []
    for x in seq:
        r = turanian_ratio(limit.kind, ParameterPoint(a, c, x), tol)
        scale = x * x if limit.normalization is Normalization.RATIO_TIMES_X2 else 1.0
        dev = abs(scale * r.value - limit.limit_value)
        points.append(ScanPoint(x, scale * r.value, dev, scale * r.abs_error))
    devs = [q.deviation for q in points]
    decreasing = all(b < a_ for a_, b in zip(devs, devs[1:]))
    inconclusive = any(q.budget > q.deviation for q in points)
    return ScanResult(limit, a, c, tuple(points), decreasing, inconclusive)

"""Turanians of psi and the limits that make their bounds sharp.

Three determinant-like differences are tracked, one per parameter shift:

    both shifts   D_ac(x) = psi(a,c,x)^2 - psi(a-1,c-1,x) psi(a+1,c+1,x)
    first only    D_a(x)  = psi(a,c,x)^2 - psi(a-1,c,x)   psi(a+1,c,x)
    second only   D_c(x)  = psi(a,c,x)^2 - psi(a,c-1,x)   psi(a,c+1,x)

normalized throughout by psi(a,c,x)^2.  The catalogued bounds on these
ratios become equalities as x -> 0 or x -> inf.  ``LIMITS`` states each
of those seven limits once, as a :class:`SharpnessLimit` row keyed by its
claim name: the Turanian kind, the scan sequence toward 0 or toward
infinity, whether the ratio is scaled by x^2, the (a, c) region, the
closed-form limit and the anchor text of its report rows.
``sharpness_scan`` measures the deviations from a row's limit along that
row's own sequence.

``turanian_ratio`` and ``turanian`` are cached per (kind, a, c, x), as
``kernel.psi`` is per (a, c, x): one target is checked by up to
six catalog bounds at a point (T1L, T1U, T2L, P1L, P1U and P4U all read
the both-shift ratio, S1, S2 and S2H the raw second-shift Turanian), and
the stieltjes suite and the sharpness scans read the same values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

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


def turanian(kind: TuranianKind, p: ParameterPoint) -> FunctionValue:
    """psi^2 - psi(shifted down) * psi(shifted up), with first-order error.
    A product of nonzero psi values that underflows raises, as psi does,
    on every call.  Cached per (kind, a, c, x)."""
    return _turanian_cached(kind, p.a, p.c, p.x)


@lru_cache(maxsize=65_536)
def _turanian_cached(kind: TuranianKind, a: float, c: float, x: float) -> FunctionValue:
    da, dc = kind.shifts
    f0 = psi(ParameterPoint(a, c, x))
    fm = psi(ParameterPoint(a - da, c - dc, x))
    fp = psi(ParameterPoint(a + da, c + dc, x))
    square, cross = f0.value * f0.value, fm.value * fp.value
    if ((f0.value and abs(square) < _TINY)
            or (fm.value and fp.value and abs(cross) < _TINY)):
        raise EvaluationError(f"psi products underflow at "
                              f"(a={a}, c={c}, x={x})")
    value = square - cross
    err = (2.0 * abs(f0.value) * f0.abs_error
           + abs(fm.value) * fp.abs_error + abs(fp.value) * fm.abs_error
           + EPS * (abs(f0.value) ** 2 + abs(cross)))
    return FunctionValue(value, err, f0.method)


def turanian_ratio(kind: TuranianKind, p: ParameterPoint) -> FunctionValue:
    """Turanian normalized by psi^2 as 1 - (psi_-/psi)(psi_+/psi), with a
    first-order budget of relative errors: psi is never squared.

    Cached per (kind, a, c, x), since one ratio is checked by up to six
    catalog bounds at a point.  A point that raises raises again on the
    next call."""
    return _ratio_cached(kind, p.a, p.c, p.x)


@lru_cache(maxsize=65_536)
def _ratio_cached(kind: TuranianKind, a: float, c: float, x: float) -> FunctionValue:
    da, dc = kind.shifts
    f0 = psi(ParameterPoint(a, c, x))
    if f0.abs_error >= abs(f0.value) / 2.0:
        raise EvaluationError(
            f"psi indistinguishable from 0 at (a={a}, c={c}, x={x})")
    fm = psi(ParameterPoint(a - da, c - dc, x))
    fp = psi(ParameterPoint(a + da, c + dc, x))
    qm, qp = fm.value / f0.value, fp.value / f0.value
    value = 1.0 - qm * qp
    # one rounding per quotient and for the product, one for the difference
    err = ((abs(qp) * fm.abs_error + abs(qm) * fp.abs_error) / abs(f0.value)
           + abs(qm * qp) * (2.0 * f0.abs_error / abs(f0.value) + 3.0 * EPS)
           + EPS * abs(value))
    return FunctionValue(value, err, f0.method)


# scan sequences: toward 0 and toward infinity
SCAN_TO_ZERO = (1.0, 0.1, 0.01, 0.001)
SCAN_TO_INFINITY = (10.0, 100.0, 1000.0)


@dataclass(frozen=True)
class SharpnessLimit:
    """One sharpness claim: where ``region(a, c)`` holds, the ratio of
    ``kind``, times x^2 if ``x2_scaled``, tends to ``value(a, c)`` along
    ``xs``."""

    name: str
    kind: TuranianKind
    xs: tuple[float, ...]                   # SCAN_TO_ZERO or SCAN_TO_INFINITY
    x2_scaled: bool
    region: Callable[[float, float], bool]
    value: Callable[[float, float], float]
    anchor: str

    @property
    def toward_zero(self) -> bool:
        return self.xs[-1] < self.xs[0]


_ZERO_ANCHOR = "plain ratio approaches its x->0 closed form"


def _vanishes(kind: TuranianKind) -> SharpnessLimit:
    return SharpnessLimit(f"vanish[{kind.value}]", kind, SCAN_TO_INFINITY, False,
                          lambda a, c: True, lambda a, c: 0.0,
                          "plain ratio deviations from 0 decrease toward infinity")


# claim name -> limit, in the output order of ``tricomi-turan sharpness``
LIMITS: dict[str, SharpnessLimit] = {lim.name: lim for lim in (
    SharpnessLimit("zeta-limit", TuranianKind.BOTH_SHIFT, SCAN_TO_INFINITY, True,
                   lambda a, c: a > 0.0 and c < 1.0, lambda a, c: c - a - 1.0,
                   "x^2-scaled both-shift ratio approaches c-a-1"),
    SharpnessLimit("zero-limit[both]", TuranianKind.BOTH_SHIFT, SCAN_TO_ZERO, False,
                   lambda a, c: a > 0.0 > c, lambda a, c: 1.0 / c, _ZERO_ANCHOR),
    _vanishes(TuranianKind.BOTH_SHIFT),
    SharpnessLimit("zero-limit[first]", TuranianKind.FIRST_SHIFT, SCAN_TO_ZERO, False,
                   lambda a, c: a > 0.0 and c < 1.0,
                   lambda a, c: 1.0 / (1.0 + a - c), _ZERO_ANCHOR),
    _vanishes(TuranianKind.FIRST_SHIFT),
    SharpnessLimit("zero-limit[second]", TuranianKind.SECOND_SHIFT, SCAN_TO_ZERO, False,
                   lambda a, c: a > 0.0 > c,
                   lambda a, c: a / (c * (1.0 + a - c)), _ZERO_ANCHOR),
    _vanishes(TuranianKind.SECOND_SHIFT),
)}


@dataclass(frozen=True)
class ScanPoint:
    x: float
    ratio: float
    deviation: float
    budget: float


@dataclass(frozen=True)
class ScanResult:
    points: tuple[ScanPoint, ...]
    eventually_decreasing: bool


def sharpness_scan(limit: SharpnessLimit, a: float, c: float) -> ScanResult:
    """Deviations of the (x^2-scaled) ratio from its limit along the
    limit's own scan sequence, and whether they decrease throughout.
    Raises :class:`RegionError` where the limit's region does not hold."""
    if not limit.region(a, c):
        raise RegionError(f"{limit.name} is not stated at (a={a}, c={c})")
    value = limit.value(a, c)
    points = []
    for x in limit.xs:
        r = turanian_ratio(limit.kind, ParameterPoint(a, c, x))
        scale = x * x if limit.x2_scaled else 1.0
        dev = abs(scale * r.value - value)
        points.append(ScanPoint(x, scale * r.value, dev, scale * r.abs_error))
    devs = [q.deviation for q in points]
    decreasing = all(b < a_ for a_, b in zip(devs, devs[1:]))
    return ScanResult(tuple(points), decreasing)

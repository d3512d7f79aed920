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

psi, r and s come from one cached record per (a, c, x),
``kernel.psi_quotients``, from which ``shift_quotient`` serves the six
shifts to the ratios and the bounds' S- and I-family: one trapezoid
pass for a > 0, and psi at (a,c), (a+1,c) and (a+1,c+1) for a <= 0, so
psi(a,c+1) is never read.  R carries a first-order
budget in the quotients' errors plus 3 EPS |q_- q_+| of rounding on the
product and EPS |R| on the difference.  The derived values are never
psi results and never enter psi's cache.

The raw Turanian, which only ``tricomi-turan eval turanian:KIND`` reads,
takes the relations without the division, D = psi^2 - psi_+ psi_- with
psi_- = A psi - B psi(a+1,c), from psi at its three points: it holds
where psi vanishes (only at a <= 0).

The catalogued bounds on these ratios become equalities as x -> 0 or
x -> inf.  ``LIMITS`` states each of those seven limits once, as a
:class:`SharpnessLimit` row keyed by its claim name: the Turanian kind,
the scan sequence toward 0 or toward infinity, whether the ratio is
scaled by x^2, the (a, c) region, the closed-form limit L, the rate
bound rho(a, c, x) >= |scale R - L|, the anchor text of its report rows
and the curated (a, c) pairs the sharpness suite scans.  The rates come
from the Stieltjes form q(x) = psi(a+1,c+1,x)/psi(a,c,x) = int_0^inf
phi(t)/(x+t) dt with phi >= 0 (Ismail & Kelker, SIAM J. Math. Anal. 10,
1979; ``measure``): the both-shift ratio is -int t phi/(x+t)^2 dt, and
1 - 1/(1+u)^2 <= 2u with u = t/x bounds x^2 R_ac - (c-a-1) by 2 m_2/x,
m_2 = int t^2 phi dt = (1+a-c)(2+2a-c) from the large-x expansion of q.
The other six rates are |bound - L| for the catalog bound that makes the
limit sharp, so each is proven where that bound is.  ``sharpness_scan`` measures the deviations from a row's
limit along that row's own sequence, each beside its rate.

``turanian_ratio`` is cached per (kind, a, c, x), on top of the record
per (a, c, x) that ``kernel.psi_quotients`` caches: one ratio is read by
up to seven catalog bounds at a point (T1L, T1U, T2L, P1L, P1U and P4U
or P4U_probe the both-shift ratio; T6L, T6U, P3L, P3U, S1, S2 and S2H
the second-shift one), and the stieltjes suite and the sharpness scans
read the same values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .kernel import (_TINY, EPS, EvaluationError, FunctionValue,
                     ParameterPoint, RegionError, psi, psi_quotients)


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
    """psi(a,c+1,x)/psi = 1 + a s (DLMF 13.3.9) and its error."""
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


def shift_quotient(p: ParameterPoint, da: int, dc: int) -> tuple[FunctionValue, float, float]:
    """(psi(a,c,x), q, err(q)), q = psi(a+da, c+dc, x)/psi(a,c,x), from the
    record ``kernel.psi_quotients(p)`` alone at the six shifts: r at (1, 0),
    s at (1, 1), 1 + a s at (0, 1), and A - B r at (-1, 0), (-1, -1) and
    (0, -1), as the module docstring lists them.  Raises ValueError at any
    other shift, and where the record raises."""
    quotient = _QUOTIENTS.get((da, dc))
    if quotient is None:
        raise ValueError(f"no quotient at the shift (da={da}, dc={dc})")
    f0, r, s = psi_quotients(p)
    return (f0, *quotient(p.a, p.c, p.x, r, s))


def turanian(kind: TuranianKind, p: ParameterPoint) -> FunctionValue:
    """psi^2 - psi_+ psi_-, psi_+- = psi(a+-da, c+-dc, x), with psi_- = A psi
    - B psi(a+1,c,x) by ``_lower``: no division, so psi may vanish (only at
    a <= 0), and the error bounds the products' errors in full, plus EPS
    of rounding on each product and on the difference.  Where a product
    of nonzero psi values underflows this raises, as psi does."""
    a, c, x = p
    da, dc = kind.shifts
    f0, f1 = psi(p), psi(ParameterPoint(a + 1.0, c, x))
    fp = psi(ParameterPoint(a + da, c + dc, x))
    down, down_err = _lower(kind, a, c, x, f0.value, f0.abs_error, f1.value, f1.abs_error)
    square, product = f0.value * f0.value, fp.value * down
    if (f0.value and abs(square) < _TINY) or (fp.value and down and abs(product) < _TINY):
        raise EvaluationError(f"psi products underflow at (a={a}, c={c}, x={x})")
    value = square - product
    err = ((2.0 * abs(f0.value) + f0.abs_error) * f0.abs_error
           + abs(down) * fp.abs_error + (abs(fp.value) + fp.abs_error) * down_err
           + EPS * (square + abs(product) + abs(value)))
    return FunctionValue(value, err, f0.method)


def _lower(kind: TuranianKind, a: float, c: float, x: float, u: float,
           err_u: float, v: float, err_v: float) -> tuple[float, float]:
    """A u - B v, with A and B of psi(a-da, c-dc, x) = A psi(a,c,x) - B
    psi(a+1,c,x), and its error: |A| err(u) + |B| err(v) plus EPS per
    rounding of A, B, the products and the difference, each taken at the
    magnitudes of its terms."""
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


@lru_cache(maxsize=4096)
def turanian_ratio(kind: TuranianKind, p: ParameterPoint) -> FunctionValue:
    """Turanian normalized by psi^2 as R = 1 - q_- q_+, q_+- = psi(a+-da,
    c+-dc, x)/psi(a,c,x), with q_- from DLMF 13.3.7 and 13.3.9 (see the
    module docstring).  The budget is first order in the quotients' errors,
    |q_+| err(q_-) + |q_-| err(q_+), plus 3 EPS |q_- q_+| of rounding on
    the product and EPS |R| on the difference: psi is never squared.

    Cached per (kind, a, c, x), since one ratio is checked by up to seven
    catalog bounds at a point: the last 4,096, where a ratio is read again
    at most 35 ratios later.  A point that raises raises again on the next
    call."""
    da, dc = kind.shifts
    f0, qm, err_m = shift_quotient(p, -da, -dc)
    _, qp, err_p = shift_quotient(p, da, dc)
    value = 1.0 - qm * qp
    err = (abs(qp) * err_m + abs(qm) * err_p + 3.0 * EPS * abs(qm * qp)
           + EPS * abs(value))
    if not math.isfinite(err):
        raise EvaluationError(f"Turanian ratio beyond the double range at "
                              f"(a={p.a}, c={p.c}, x={p.x})")
    return FunctionValue(value, err, f0.method)


# scan sequences: toward 0 and toward infinity
SCAN_TO_ZERO = (1.0, 0.1, 0.01, 0.001)
SCAN_TO_INFINITY = (10.0, 100.0, 1000.0)


# The (a, c) pairs the sharpness suite scans.  They stay while the recorded
# counts of the default run pin its 28 sharpness rows; each lies in the
# region of every limit that scans it.
PAIRS_TO_ZERO = ((1.5, -2.5), (2.0, -2.5), (2.0, -4.5), (3.0, -4.5))
PAIRS_TO_INFINITY = ((1.0, 0.5), (1.0, -1.5), (2.0, -2.5), (3.0, -4.5))


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


def _vanishes(kind: TuranianKind, rate) -> SharpnessLimit:
    return SharpnessLimit(f"vanish[{kind.value}]", kind, SCAN_TO_INFINITY, False,
                          lambda a, c: a > 0.0 and c < 1.0, lambda a, c: 0.0, rate,
                          "plain ratio tends to 0 within its rate", PAIRS_TO_INFINITY)


def _to_zero(kind: TuranianKind, value, rate) -> SharpnessLimit:
    return SharpnessLimit(f"zero-limit[{kind.value}]", kind, SCAN_TO_ZERO, False,
                          lambda a, c: a > 1.0 and c < -1.0, value, rate,
                          "plain ratio tends to its x->0 closed form within its rate",
                          PAIRS_TO_ZERO)


# claim name -> limit, in the output order of ``tricomi-turan sharpness``.
# Each rate but the zeta limit's is |bound - L| for the catalog bound that
# makes the limit sharp (T1U, T1L, T5L, T3U, T6U, T6L in this order),
# written out here since the catalog imports this module.
LIMITS: dict[str, SharpnessLimit] = {lim.name: lim for lim in (
    SharpnessLimit("zeta-limit", BOTH, SCAN_TO_INFINITY, True,
                   lambda a, c: a > 0.0 and c < 1.0, lambda a, c: c - a - 1.0,
                   lambda a, c, x: 2.0 * (1.0 + a - c) * (2.0 + 2.0 * a - c) / x,
                   "x^2-scaled both-shift ratio tends to c-a-1 within its rate",
                   PAIRS_TO_INFINITY),
    _to_zero(BOTH, lambda a, c: 1.0 / c,
             lambda a, c, x: 2.0 * x * (c - a) / (c * c * (c + 1.0))),
    _vanishes(BOTH, lambda a, c, x: (1.0 + a - c) / (x * x)),
    _to_zero(FIRST, lambda a, c: 1.0 / (1.0 + a - c),
             lambda a, c, x: x * x * (c - a) / (c * c * (c + 1.0) * (1.0 + a - c))),
    _vanishes(FIRST, lambda a, c, x: 2.0 / x),
    _to_zero(SECOND, lambda a, c: a / (c * (1.0 + a - c)),
             lambda a, c, x: 2.0 * x * a * (c - a) / (c * c * (c + 1.0) * (1.0 + a - c))),
    _vanishes(SECOND, lambda a, c, x: a / (x * x)),
)}


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
    bound on it.  The budget is the scaled ratio's plus 4 EPS (|L| + rate)
    for the rounding of L, of the rate and of scale R.  Raises
    :class:`RegionError` where the limit's region does not hold."""
    if not limit.region(a, c):
        raise RegionError(f"{limit.name} is not stated at (a={a}, c={c})")
    value = limit.value(a, c)
    points = []
    for x in limit.xs:
        r = turanian_ratio(limit.kind, ParameterPoint(a, c, x))
        scale = x * x if limit.x2_scaled else 1.0
        rate = limit.rate(a, c, x)
        points.append(ScanPoint(x, scale * r.value, abs(scale * r.value - value), rate,
                                scale * r.abs_error + 4.0 * EPS * (abs(value) + rate)))
    return tuple(points)

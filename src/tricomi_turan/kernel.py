"""Evaluation kernel for the Tricomi confluent hypergeometric function.

The function psi(a, c, x) solves Kummer's equation

    x y''(x) + (c - x) y'(x) - a y(x) = 0

and, for a > 0 and x > 0, equals the Laplace-type integral

    psi(a, c, x) = 1/Gamma(a) * int_0^inf e^(-x t) t^(a-1) (1+t)^(c-a-1) dt.

Three routes evaluate psi on the real axis:

* ``psi_quadrature``   -- the trapezoid rule for the integral above in
                          w = log(x t) (validity a > 0; the accuracy
                          anchor),
* ``psi_connection``   -- Gamma-weighted combination of two Kummer-M
                          series (the route for a <= 0 and the
                          independent cross-check for a > 0; requires
                          non-integer c, while a negative integer a gives
                          a terminating polynomial),
* ``_asymptotic_auto`` -- the large-x expansion
                          psi ~ x^-a (1 + alpha1/x + alpha2/x^2 + ...),
                          summed to its smallest term.

The quadrature route.  With s = x t = e^w the integral becomes

    psi = x^-a / Gamma(a) * int f(w) dw over the real line,
    f(w) = exp(a w - e^w + (c-a-1) log1p(e^w/x)).

f is analytic in a strip about the real axis and decays like e^(aw) to
the left and like exp(-e^w) to the right, so the trapezoid sum
T_h = h sum_k f(w0 + k h) converges exponentially as h shrinks
(Trefethen & Weideman, SIAM Review 56(3), 2014).  The nodes are one numpy
array anchored at w0 ~ log min(x, 1) that ends past a cutoff S.  Far to
the left f = e^(aw) G(w) with G -> 1: those nodes contribute
e^(aw) expm1(log G), which decays like e^((a+1)w) and is truncated, and
the sum of their e^(aw) parts is the geometric series
h e^(a(ws-h)) / (-expm1(-a h)), which is exact.  So there is no endpoint
singularity and small a costs no more than large a.  The error budget is
|T_h - T_2h| (T_2h from the even nodes) plus the left truncation bound,
the tail bound past S, the rounding of every node's exponent and the
rounding of the prefactor, which includes |lnGamma(a)| (about 18 at
a = 1e-8).  h is halved until the budget meets ``tol``; a budget that
cannot is returned as it is, flagged ``"tolerance_not_met"``.

Every result is a :class:`FunctionValue` carrying an absolute error
estimate; downstream strict-inequality checks compare margins against
these budgets instead of trusting raw floating point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import digamma, gammaln, gammasgn

EPS = 2.2204460492503131e-16

# smallest normal double; a smaller |value| has lost digits to underflow
_TINY = sys.float_info.min

# Connection-formula guard: the formula degenerates at integer c.
INTEGER_C_GUARD = 1e-6

# M(a, c, x) grows like e^x, and math.exp overflows near 709
_CONNECTION_X_MAX = 600.0
_M_MAX_TERMS = 10_000

QUADRATURE = "quadrature"
CONNECTION = "connection_series"
ASYMPTOTIC = "asymptotic_large_x"

# trapezoid rule of psi_quadrature: first and smallest step in w = log s,
# and the e-folds of the truncated left sum below the geometric part
_STEP = 2.0 ** -3
_STEP_MIN = 2.0 ** -7
_LEFT_DEPTH = 40.0


class EvaluationError(RuntimeError):
    """A numerical evaluation could not be completed to tolerance."""


class RegionError(ValueError):
    """Arguments violate the validity region of the requested quantity."""


@dataclass(frozen=True)
class ParameterPoint:
    """A parameter triple (a, c, x) with x > 0 and finite a, c."""

    a: float
    c: float
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.c)):
            raise RegionError(f"parameters must be finite, got a={self.a}, c={self.c}")
        if not (math.isfinite(self.x) and self.x > 0.0):
            raise RegionError(f"argument must satisfy x > 0, got x={self.x}")


@dataclass(frozen=True)
class FunctionValue:
    """A computed scalar with an absolute-error estimate and a method tag."""

    value: float
    abs_error: float
    method: str
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.abs_error < 0.0:
            raise ValueError("abs_error must be nonnegative")

    @property
    def rel_error(self) -> float:
        v = abs(self.value)
        return self.abs_error / v if v else math.inf


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------

def log_gamma(z: float) -> tuple[float, float]:
    """Return (log|Gamma(z)|, sign(Gamma(z))) for real z off the poles."""
    if z <= 0.0 and z == math.floor(z):
        raise EvaluationError(f"Gamma pole at z={z}")
    return float(gammaln(z)), float(gammasgn(z))


def _connection_coefficients(a: float, c: float):
    """A = Gamma(1-c)/Gamma(a-c+1) and B = Gamma(c-1)/Gamma(a) off integer c,
    each as (value, relative error); a pole of the denominator gives
    exactly (0, 0).  The error counts the rounding of the log-Gamma values
    and of the arguments 1-c, a-c+1 and c-1, which the digamma function
    amplifies near a pole."""
    if abs(c - round(c)) < INTEGER_C_GUARD:
        raise EvaluationError(
            f"connection formula degenerates for integer c (c={c})")
    out = []
    for num, den in ((1.0 - c, a - c + 1.0), (c - 1.0, a)):
        if den <= 0.0 and den == math.floor(den):
            out.append((0.0, 0.0))
            continue
        lg_num, sg_num = log_gamma(num)
        lg_den, sg_den = log_gamma(den)
        value = sg_num * sg_den * math.exp(lg_num - lg_den)
        if value == 0.0:
            raise EvaluationError(
                f"Gamma({num})/Gamma({den}) is outside the double range")
        rel = EPS * (2.0 + abs(lg_num) + abs(lg_den)
                     + abs(num * _digamma(num)) + abs(den * _digamma(den)))
        out.append((value, rel))
    return out


def _digamma(z: float) -> float:
    """digamma(z) off the poles; z < 0 goes through the reflection
    psi(z) = psi(1-z) - pi cot(pi z), which scipy evaluates some 30 times
    faster than digamma on (-1, 0)."""
    if z < 0.0:
        return float(digamma(1.0 - z)) - math.pi / math.tan(math.pi * z)
    return float(digamma(z))


def _pochhammer(c: float, m: int) -> float:
    out = 1.0
    for k in range(m):
        out *= c + k
    return out


def _terminating(m: int, c: float, x: float) -> FunctionValue:
    """psi(-m, c, x) = (-1)^m sum_s C(m,s) (c+s)_(m-s) (-x)^s (DLMF 13.2.7),
    a degree-m polynomial with no division, valid for every c.  The budget
    allows 3m + 4 roundings per term, the summation included."""
    total = gross = 0.0
    for s in range(m + 1):
        term = math.comb(m, s) * _pochhammer(c + s, m - s) * (-x) ** s
        total += term
        gross += abs(term)
    sign = -1.0 if m % 2 else 1.0
    return FunctionValue(sign * total, (3 * m + 4) * EPS * gross, CONNECTION)


# ---------------------------------------------------------------------------
# quadrature route
# ---------------------------------------------------------------------------

def _trapezoid(a: float, pw: float, x: float, w0: float, w_max: float,
               h: float) -> tuple[float, float, float]:
    """The step-h trapezoid sum of f(w) = exp(a w - e^w + pw log1p(e^w/x))
    over the nodes w0 + k h, all k, scaled by e^-m with m the largest
    exponent on the grid.  Returns (T_h, its error bound, m), both scaled.
    """
    # left of the split node k = -j, q e^w <= 1/2, so |log G| <= 1/2 there
    q = 1.0 + abs(pw) / x
    j = 2 * max(0, math.ceil(0.5 * (math.log(2.0 * q) + w0) / h))
    depth = max(0.0, _LEFT_DEPTH - math.log1p(1.0 / a)) / (a + 1.0)
    kl = j + 2 * math.ceil(0.5 * depth / h)
    nl = kl - j                       # nodes summed as e^(aw) expm1(log G)
    k = np.arange(-kl, math.ceil((w_max - w0) / h) + 2)
    w = w0 + h * k                    # exact: h and w0 are short binary fractions
    ew = np.exp(w)
    pl = pw * np.log1p(ew / x)
    lg = pl - ew
    aw = a * w
    arg = aw + lg
    m = float(arg.max())
    f = np.exp(arg - m)
    e_left = np.exp(aw[:nl] - m)
    f[:nl] = e_left * np.expm1(lg[:nl])

    # the ones of the left terms, summed exactly: h sum_{i>=1} e^(a(ws - i h))
    ws = w0 - j * h
    geo_h = h * math.exp(a * (ws - h) - m) / -math.expm1(-a * h)
    geo_2h = 2.0 * h * math.exp(a * (ws - 2.0 * h) - m) / -math.expm1(-2.0 * a * h)
    t_h = h * float(f.sum()) + geo_h
    t_2h = 2.0 * h * float(f[::2].sum()) + geo_2h   # kl is even: k = 0 mod 2

    # left rest beyond the last node: |expm1(lg)| <= 1.65 q e^w there, so a
    # geometric series in e^((a+1)w); counted for both sums
    w_end = w0 - (kl + 1) * h
    rest = 1.65 * q * h * math.exp(a * w_end - m + w_end) / -math.expm1(-(a + 1.0) * h)
    # node rounding: the exponent of each node (and m) is rounded
    u = f.copy()
    u[:nl] = e_left + np.abs(f[:nl])
    rounding = (4.0 * EPS * h * float(u @ (16.0 + abs(m) + abs(pw) + np.abs(aw) + ew
                                           + np.abs(pl)))
                + 4.0 * EPS * geo_h * (4.0 + abs(a * (ws - h) - m)))
    return t_h, abs(t_h - t_2h) + 4.0 * rest + rounding, m


def psi_quadrature(p: ParameterPoint, tol: float = 1e-12) -> FunctionValue:
    """Evaluate psi(a,c,x), a > 0, by the trapezoid rule in w = log s.

    Written in the Laplace-scaled variable s = x t = e^w,

        psi = x^-a / Gamma(a) * int_-inf^inf f(w) dw,
        f(w) = exp(a w - e^w + (c-a-1) log1p(e^w/x)),

    by the trapezoid sum T_h = h sum_k f(w0 + k h) over all k (see the
    module docstring).  The anchor w0 is log min(x, 1) rounded to a
    multiple of 2^-20, so that every node is exact; the nodes end past the
    cutoff S.  Write f = e^(aw) G(w).  Left of the split node ws, where
    |log G| <= 1/2, a node contributes e^(aw) expm1(log G), which decays
    like e^((a+1)w) and is truncated with a bound, and the e^(aw) parts
    sum exactly to h e^(a(ws-h)) / (-expm1(-a h)).

    abs_error adds |T_h - T_2h| (the even nodes), the left truncation
    bound, the tail bound 2 f(log S) at the cutoff, the rounding of every
    node's exponent and the rounding of the prefactor
    exp(m - a log x - lnGamma(a)).  h starts at 1/8 and is halved until
    abs_error <= tol |value|; if that fails at h = 1/128 the honest budget
    is returned with the flag ``"tolerance_not_met"``.  A value below the
    normal double range raises :class:`EvaluationError`.
    """
    a, c, x = p.a, p.c, p.x
    if a <= 0.0:
        raise RegionError(f"integral representation requires a > 0, got a={a}")
    pw = c - a - 1.0
    log_b = math.log(min(x, 1.0))
    w0 = round(log_b * 2.0 ** 20) * 2.0 ** -20

    def log_integrand(s):
        return -s + a * math.log(s) + pw * math.log1p(s / x)

    # cutoff: beyond S the integrand decays at least like e^(-s/2); the
    # integral is at least e^-1 min(1, 2^pw) b^a / a
    S = max(4.0 * (max(a - 1.0, 0.0) + max(pw, 0.0) + 2.0), 30.0)
    log_floor = a * log_b - math.log(a) - 1.0 + min(pw, 0.0) * math.log(2.0)
    while log_integrand(S) + math.log(20.0) > math.log(tol) + log_floor and S < 700.0:
        S *= 1.5
    log_x = math.log(x)
    lg_a = float(gammaln(a))

    h = _STEP
    while True:
        total, err, m = _trapezoid(a, pw, x, w0, math.log(S), h)
        # 2 f(log S) is S times a bound on either sum past the cutoff
        err += 2.0 * math.exp(log_integrand(S) - m)
        rel_scale = EPS * (3.0 + 2.0 * (abs(m) + abs(a * log_x) + abs(lg_a)))
        met = err <= (tol - rel_scale) * abs(total)
        if met or h <= _STEP_MIN:
            break
        h *= 0.5
    scale = math.exp(m - a * log_x - lg_a)
    value = scale * total
    _check_normal(value, a, c, x)
    return FunctionValue(value, scale * err + rel_scale * abs(value), QUADRATURE,
                         () if met else ("tolerance_not_met",))


# ---------------------------------------------------------------------------
# connection-formula route
# ---------------------------------------------------------------------------

def _m_series(a: float, c: float, x: float, tol: float) -> tuple[float, float]:
    """Taylor series of M(a, c, x) for real x; returns (sum, abs error).

    Term n is a running product that carries about 4n roundings, so the
    error adds EPS sum_n (4n + 5) |term_n| to twice the last term; that
    sum is at least the largest partial sum |S|, the floor of the
    stopping rule."""
    term = s = peak = 1.0
    gross = 5.0
    prev_small = False
    for n in range(_M_MAX_TERMS):
        term = term * (a + n) * x / ((c + n) * (n + 1.0))
        s += term
        mag = abs(s)
        if not math.isfinite(mag):
            raise EvaluationError(f"Kummer series overflow at a={a}, c={c}, x={x}")
        peak = max(peak, mag)
        gross += (4 * n + 9) * abs(term)        # this is term n + 1
        # floor by EPS*peak so a sum that cancels to ~0 can still terminate
        small = abs(term) <= tol * mag + EPS * peak
        if small and prev_small:
            return s, 2.0 * abs(term) + EPS * gross
        prev_small = small
    raise EvaluationError(f"Kummer series did not converge within {_M_MAX_TERMS} terms "
                          f"(a={a}, c={c}, x={x})")


def psi_connection(a: float, c: float, x: float,
                   tol: float = 1e-15) -> FunctionValue:
    """Evaluate psi(a,c,x), x > 0, from the two-term Kummer-M connection
    formula

        psi = Gamma(1-c)/Gamma(a-c+1) M(a,c,x)
            + Gamma(c-1)/Gamma(a) x^(1-c) M(a-c+1, 2-c, x).

    This is the route for a <= 0 and the independent check of
    ``psi_quadrature`` for a > 0.

    Special cases: a = 0 returns exactly 1; a a negative integer -m
    returns the terminating polynomial of DLMF 13.2.7, for every c.
    Otherwise c within ``INTEGER_C_GUARD`` of an integer is rejected,
    since the formula degenerates there.  The estimate includes the
    rounding of both series, the cancellation of the two terms and the
    rounding of the Gamma arguments and of x^(1-c); when the terms cancel
    beyond 10^6 * EPS the result is flagged ``"cancellation"``.
    """
    if a == 0.0:
        return FunctionValue(1.0, 0.0, CONNECTION)
    if a < 0.0 and a == math.floor(a):
        return _terminating(int(-a), c, x)

    (c1, rel1), (c2, rel2) = _connection_coefficients(a, c)
    t1 = t2 = err = 0.0
    if c1 != 0.0:
        m1, e1 = _m_series(a, c, x, tol)
        t1 = c1 * m1
        err += abs(c1) * e1
    if c2 != 0.0:
        log_xp = (1.0 - c) * math.log(x)
        xp = math.exp(log_xp)
        m2, e2 = _m_series(a - c + 1.0, 2.0 - c, x, tol)
        t2 = c2 * xp * m2
        err += abs(c2) * xp * e2 + abs(t2) * EPS * 2.0 * abs(log_xp)
    value = t1 + t2
    if not math.isfinite(value):
        raise EvaluationError(f"connection formula overflow at a={a}, c={c}, x={x}")
    gross = abs(t1) + abs(t2)
    err += 4.0 * EPS * gross + abs(t1) * rel1 + abs(t2) * rel2
    flags = ()
    if abs(value) > 0.0 and gross / abs(value) > 1e6:
        flags = ("cancellation",)
    return FunctionValue(value, err, CONNECTION, flags)


# ---------------------------------------------------------------------------
# asymptotic route
# ---------------------------------------------------------------------------

def _asymptotic_auto(a: float, c: float, x: float,
                     max_order: int = 60) -> FunctionValue:
    """Sum the expansion to its smallest term (optimal truncation)."""
    m = a + 1.0 - c
    term = 1.0
    s = 1.0
    n = 0
    while n < max_order:
        nxt = term * (a + n) * (m + n) / (-(n + 1.0) * x)
        if abs(nxt) >= abs(term) and n > 0:
            break
        term = nxt
        s += term
        n += 1
        if term == 0.0:  # terminating series (a or m a nonpositive integer)
            break
    omitted = abs(term * (a + n) * (m + n) / ((n + 1.0) * x))
    pref = x ** (-a)
    return FunctionValue(pref * s, pref * (omitted + EPS * abs(s)), ASYMPTOTIC)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def asymptotic_threshold(a: float, c: float) -> float:
    """Dispatch boundary: the expansion is preferred only for x above this."""
    return 50.0 * (1.0 + abs(a) + abs(c)) ** 2


def _check_normal(value: float, a: float, c: float, x: float) -> None:
    """psi > 0 for a > 0, so a value of 0 or a subnormal one has underflowed."""
    if abs(value) < _TINY:
        raise EvaluationError(
            f"psi(a={a}, c={c}, x={x}) underflows the double range (got {value})")


@lru_cache(maxsize=200_000)
def _psi_cached(a: float, c: float, x: float, tol: float) -> FunctionValue:
    if a > 0.0:
        if x > asymptotic_threshold(a, c):
            fv = _asymptotic_auto(a, c, x)
            _check_normal(fv.value, a, c, x)
            return fv
        return psi_quadrature(ParameterPoint(a, c, x), tol)
    if a == 0.0 or a == math.floor(a):
        return psi_connection(a, c, x)
    # a < 0, non-integer: the connection series loses ~e^x to cancellation,
    # while optimal truncation of the divergent expansion gains with x.
    # Take whichever route reports the smaller error.  The series budget
    # holds 4 EPS (|t1| + |t2|) >= 4 EPS |its value|, so it cannot come in
    # under an expansion at the rounding floor (<= 2 EPS |value|) unless its
    # value is below half of psi while it claims an error near EPS psi:
    # the expansion goes first, and the series is summed only if it can win.
    expansion = _asymptotic_auto(a, c, x) if x > 1.0 else None
    if expansion is not None and expansion.abs_error <= 2.0 * EPS * abs(expansion.value):
        return expansion
    candidates = []
    if x <= _CONNECTION_X_MAX:
        try:
            candidates.append(psi_connection(a, c, x))
        except EvaluationError:
            pass
    if expansion is not None:
        candidates.append(expansion)
    if not candidates:
        raise EvaluationError(f"no usable evaluation route for a={a}, c={c}, x={x}")
    return min(candidates, key=lambda fv: fv.abs_error)


def psi(p: ParameterPoint, tol: float = 1e-12) -> FunctionValue:
    """Evaluate psi(a,c,x) for x > 0, selecting a method by parameter region.

    a > 0 uses the quadrature route (or the asymptotic expansion beyond
    ``asymptotic_threshold``); a = 0 and negative-integer a use their
    exact closed forms.  Other a < 0 try the optimally truncated expansion
    first (for x > 1): when its budget is at the rounding floor,
    2 EPS |value|, it is returned, because the connection series, whose
    budget never falls below 4 EPS |value|, cannot beat it.  Otherwise the
    connection series is summed too (for x <= 600) and the route with the
    smaller budget is returned.  Results are cached per (a, c, x, tol).
    For a > 0, where psi is positive, a value that underflows to 0 or to a
    subnormal raises :class:`EvaluationError`.
    """
    return _psi_cached(p.a, p.c, p.x, tol)

"""Evaluation kernel for the Tricomi confluent hypergeometric function.

The function psi(a, c, x) solves Kummer's equation

    x y''(x) + (c - x) y'(x) - a y(x) = 0

and, for a > 0 and x > 0, equals the Laplace-type integral

    psi(a, c, x) = 1/Gamma(a) * int_0^inf e^(-x t) t^(a-1) (1+t)^(c-a-1) dt.

Three routes evaluate psi on the real axis:

* ``psi_quadrature``   -- the trapezoid rule for the integral above in
                          w = log(x t) (the route for a > 0, at every
                          x > 0; the accuracy anchor),
* ``psi_connection``   -- Gamma-weighted combination of two Kummer-M
                          series (a route for a <= 0 and the
                          independent cross-check for a > 0; requires
                          non-integer c, while a negative integer a gives
                          a terminating polynomial),
* ``_asymptotic_auto`` -- the large-x expansion
                          psi ~ x^-a (1 + alpha1/x + alpha2/x^2 + ...),
                          summed to its smallest term (a route for
                          non-integer a < 0 and x > 1 only).

The quadrature route.  With s = x t = e^w the integral becomes

    psi = x^-a / Gamma(a) * int f(w) dw over the real line,
    f(w) = exp(a w - e^w + (c-a-1) log1p(e^w/x)).

f is analytic in a strip about the real axis and decays like e^(aw) to
the left and like exp(-e^w) to the right, so the trapezoid sum
T_h = h sum_k f(w0 + k h) converges exponentially as h shrinks, in the
same way at every x > 0 (Trefethen & Weideman, SIAM Review 56(3), 2014).
The nodes are one numpy array anchored at w0 ~ log min(x, 1) that runs
from a first node w1 far to the left to past a cutoff S, and each is
summed once.  Left of w1,
f = e^(aw) G(w) with G -> 1: the e^(aw) parts of those nodes sum to the
geometric series h e^(a(w1-h)) / (-expm1(-a h)), which is exact, and the
rest, e^(aw) expm1(log G), decays like e^((a+1)w) and is truncated.  So
there is no endpoint singularity and small a costs no more than large a.
Each sum on the nodes is a row with one error rule (``_row_sum``):
|T_h - T_2h| (T_2h from the even nodes), the left truncation, the
rounding of every node's exponent, the tail past S and underflow.  psi's
budget adds the rounding of the prefactor, which includes |lnGamma(a)|
(about 18 at a = 1e-8).  One rule, ``_settled``, ends the halving of h
at each x, for psi and the records alike.

``pair_quotients`` returns psi with the quotients psi(a+1,c,x)/psi and
psi(a+1,c+1,x)/psi at each x of one (a, c) pair, and ``psi_quotients``
at one point; the Turanians and the bounds take every shifted value
from them.  For a > 0 one trapezoid pass gives all three, psi bit for
bit as ``psi`` gives it, and the shifted sums as two more rows.  The
passes of a pair's x run together, one per h (``_trapezoid``): each x
keeps its own nodes, h and checks, and only the elementwise work is
shared, so each record has the bits of a pass at its x alone.  A
subnormal a, 0 < |a| < 2^-1022, raises :class:`EvaluationError` in psi
and in the records.  An x fails in one place, its nodes (``_nodes``) or
its last pass, in psi and in the records alike: no pass raises for all.

``pair_psi`` is psi at every x of one pair, a > 0, each x bit for bit
as ``psi`` gives it: the passes of its x run together with psi's row
alone.  Nothing is kept: ``psi`` computes every call afresh, and the
suites read a pair's values through its context (``bounds.PairGrid``),
which holds them for the pair's block.

Every result is a :class:`FunctionValue` carrying an absolute error
estimate; downstream strict-inequality checks compare margins against
these budgets instead of trusting raw floating point.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

EPS = 2.2204460492503131e-16

# smallest normal double; a smaller |value| has lost digits to underflow
_TINY = sys.float_info.min
_FMAX = sys.float_info.max      # largest finite double
_LOG_2FMAX = math.log(_FMAX) + math.log(2.0)

# the relative accuracy the quadrature route aims at
PSI_TOL = 1e-12

# Connection-formula guard: the formula degenerates at integer c.
INTEGER_C_GUARD = 1e-6

# M(a, c, x) grows like e^x, and math.exp overflows near 709
_CONNECTION_X_MAX = 600.0
_M_MAX_TERMS = 10_000.0         # the series' terms at most, a double as its counter is
_M_TOL = 1e-15                  # stop once two terms are below this share of the sum
_ASYMPTOTIC_MAX_ORDER = 60.0    # the expansion's terms at most

QUADRATURE = "quadrature"
CONNECTION = "connection_series"
ASYMPTOTIC = "asymptotic_large_x"

# trapezoid rule of psi_quadrature: first and smallest step in w = log s,
# and the e-folds of e^((a+1) w) that the nodes reach left of |log G| = 1/2
_STEP = 2.0 ** -3
_STEP_MIN = 2.0 ** -7
_LEFT_DEPTH = 40.0
# more nodes than a pass has: they span less than max(log 2q, -w0) + depth
# + log S + 7 h < 745 + 40 + 710 + 1 (``_extent``; 2q, S and x doubles)
_NODES_MAX = 1.92e5
# the cutoff test of psi_quadrature: 20 f(S) against PSI_TOL, in logs
_LOG_20 = math.log(20.0)
_LOG_2 = math.log(2.0)
_LOG_PSI_TOL = math.log(PSI_TOL)


class EvaluationError(RuntimeError):
    """A numerical evaluation could not be completed to tolerance."""


class DoubleRangeError(EvaluationError):
    """The value lies beyond the double range, so no route can deliver it."""


class RegionError(ValueError):
    """Arguments violate the validity region of the requested quantity."""


class _PointFields(NamedTuple):
    a: float
    c: float
    x: float


class ParameterPoint(_PointFields):
    """A parameter triple (a, c, x) with x > 0 and finite a, c: an immutable
    named tuple, validated on construction (``typing.NamedTuple`` does not
    let a class body override ``__new__``, hence the field base)."""

    __slots__ = ()

    def __new__(cls, a: float, c: float, x: float):
        if not (math.isfinite(a) and math.isfinite(c)):
            raise RegionError(f"parameters must be finite, got a={a}, c={c}")
        if not (math.isfinite(x) and x > 0.0):
            raise RegionError(f"argument must satisfy x > 0, got x={x}")
        return tuple.__new__(cls, (a, c, x))


class _ValueFields(NamedTuple):
    value: float
    abs_error: float
    method: str
    flags: tuple[str, ...] = ()


class FunctionValue(_ValueFields):
    """A computed scalar with an absolute-error estimate and a method tag:
    an immutable named tuple, validated on construction."""

    __slots__ = ()

    def __new__(cls, value: float, abs_error: float, method: str,
                flags: tuple[str, ...] = ()):
        if abs_error < 0.0:
            raise ValueError("abs_error must be nonnegative")
        return tuple.__new__(cls, (value, abs_error, method, flags))

    @property
    def rel_error(self) -> float:
        v = abs(self.value)
        return self.abs_error / v if v else math.inf


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------

def log_gamma(z: float) -> tuple[float, float]:
    """Return (log|Gamma(z)|, sign(Gamma(z))) for real z off the poles;
    where log|Gamma(z)| itself overflows (z near 1e306 and beyond), raise
    :class:`EvaluationError`."""
    if z <= 0.0 and z == math.floor(z):
        raise EvaluationError(f"Gamma pole at z={z}")
    try:
        lg = math.lgamma(z)
    except OverflowError:
        raise EvaluationError(f"log Gamma({z}) is beyond the double range") from None
    return lg, -1.0 if z < 0.0 and math.floor(z) % 2 else 1.0


def log_gamma_error(z: float, lg: float) -> float:
    """Error bound of lg = log_gamma(z)[0].  For z < 0 math.lgamma cancels
    reflection terms of size lnGamma(1-z): against 40-digit mpmath it is 27
    EPS off at z = -14 + 6e-12, where lg = 0.6, and at most 5.1 EPS max(1,
    |lg|, lnGamma(1-z)) on 18,000 seeded z in (-60, 2000), poles included."""
    # max(1, |lg|, lnGamma(1-z)) by comparisons, which cost a fraction of max
    scale = abs(lg)
    scale = scale if scale > 1.0 else 1.0
    if z < 0.0:
        reflected = math.lgamma(1.0 - z)
        scale = reflected if reflected > scale else scale
    return 8.0 * EPS * scale


def _connection_coefficients(a: float, c: float):
    """A = Gamma(1-c)/Gamma(a-c+1) and B = Gamma(c-1)/Gamma(a) off integer c,
    each as (value, relative error); a pole of the denominator gives
    exactly (0, 0), and a quotient beyond the double range either way
    raises :class:`EvaluationError`.  The error counts the rounding of the
    log-Gamma values and of the arguments 1-c, a-c+1 and c-1, which the
    digamma function amplifies near a pole."""
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
        lg = lg_num - lg_den
        try:
            value = sg_num * sg_den * math.exp(lg)
        except OverflowError:
            value = math.inf
        if not 0.0 < abs(value) <= _FMAX:
            raise EvaluationError(
                f"Gamma({num})/Gamma({den}) is outside the double range")
        rel = (log_gamma_error(num, lg_num) + log_gamma_error(den, lg_den)
               + EPS * (2.0 + abs(lg)
                        + abs(num * _digamma(num)) + abs(den * _digamma(den))))
        out.append((value, rel))
    return out


def _digamma(z: float) -> float:
    """digamma(z) off the poles to about 1e-10, plenty for the budgets it
    scales: reflection psi(z) = psi(1-z) - pi cot(pi z) for z < 0, then
    psi(z) = psi(z+1) - 1/z up to z >= 6, then the asymptotic series.  The
    reflection term comes off last, as in the recursion."""
    reflected = 0.0
    if z < 0.0:
        reflected, z = math.pi / math.tan(math.pi * z), 1.0 - z
    steps = []
    while z < 6.0:
        steps.append(z)
        z += 1.0
    r = 1.0 / (z * z)
    out = math.log(z) - 0.5 / z - r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r / 240)))
    for zk in reversed(steps):      # the recursion's order: 1/z comes off last
        out -= 1.0 / zk
    return out - reflected


def _pochhammer(c: float, m: int) -> float:
    """(c)_m as a running product, which stops at its first zero or
    non-finite value: later finite factors leave a zero a zero, and a
    non-finite product a non-finite one."""
    out = 1.0
    for k in range(m):
        out *= c + k
        if not 0.0 < abs(out) <= _FMAX:
            break
    return out


def _terminating(m: int, c: float, x: float) -> FunctionValue:
    """psi(-m, c, x) = (-1)^m sum_s C(m,s) (c+s)_(m-s) (-x)^s (DLMF 13.2.7),
    a degree-m polynomial with no division, valid for every c.  The budget
    allows 3m + 4 roundings per term, the summation included.  The sum
    stops at its first non-finite term, which raises, so a huge m costs
    no more than the terms before the double range ends."""
    total = gross = 0.0
    try:
        for s in range(m + 1):
            term = math.comb(m, s) * _pochhammer(c + s, m - s) * (-x) ** s
            total += term
            gross += abs(term)
            if not gross <= _FMAX:
                break
    except OverflowError:
        gross = math.inf
    if not gross <= _FMAX:
        raise EvaluationError(f"terminating series overflows the double range "
                              f"at a={-float(m)}, c={c}, x={x}")
    sign = -1.0 if m % 2 else 1.0
    return FunctionValue(sign * total, (3 * m + 4) * EPS * gross, CONNECTION)


# ---------------------------------------------------------------------------
# quadrature route
# ---------------------------------------------------------------------------

def _point(a: float, x: float, w0: float, rows) -> tuple:
    """A point of the passes (``_trapezoid``), (x, w0, rows, extents).  The
    extents, of psi's row and, with more rows, of the extent they share
    (the last row's), hold what the node counts of every pass take from x
    alone, formed once per x (``_extent``)."""
    if len(rows) == 1:
        return x, w0, rows, (_extent(a, rows[0], w0),)
    return x, w0, rows, (_extent(a, rows[0], w0), _extent(a, rows[-1], w0))


def _extent(a: float, row, w0: float) -> tuple:
    """A row's extent, (max(0, log 2q + w0) / 2, depth / 2, log S - w0):
    at step h its nodes run from w0 - kl h, kl = 2 ceil(max(0, log 2q +
    w0) / 2h) + 2 ceil(depth / 2h), to w0 + (end + 1) h, end = ceil((log
    S - w0) / h), past S (``_count``).  The nodes of exp(a w + log G),
    |log G| <= q e^w, start there: left of w = -log 2q, q e^w <= 1/2, so
    |log G| <= 1/2, and the nodes start depth e-folds of e^((a+1)w)
    further left."""
    k, _, S, q, _ = row
    ak = a + k
    depth = _LEFT_DEPTH - math.log1p(1.0 / ak)
    half_left = 0.5 * (math.log(2.0 * q) + w0)
    return (half_left if half_left > 0.0 else 0.0,
            0.5 * ((depth if depth > 0.0 else 0.0) / (ak + 1.0)), math.log(S) - w0)


def _span(point, h: float) -> tuple:
    """(size, psi's lo and hi, first node, psi's first node) of a point's
    nodes at step h, lo and hi from its first node on: psi's extent, or
    the larger of it and the shared one (``_extent``)."""
    w0, extents = point[1], point[3]
    kl, end = _count(extents[0], h)
    if len(extents) == 1:
        return kl + end + 2, 0, kl + end + 2, w0 - kl * h, w0 - kl * h
    k1, last = _count(extents[1], h)
    k1, last = (kl if kl > k1 else k1), (end if end > last else last)
    return k1 + last + 2, k1 - kl, k1 + end + 2, w0 - k1 * h, w0 - kl * h


def _count(extent, h: float) -> tuple[int, int]:
    """kl and end of an extent at step h (``_extent``)."""
    half_left, half_depth, right = extent
    return 2 * math.ceil(half_left / h) + 2 * math.ceil(half_depth / h), math.ceil(right / h)


def _left_sums(a: float, q: float, w1: float, h: float, m: float):
    """The nodes left of w1 of exp(a w + log G - m), |log G| <= q e^w <= 1/2
    there: the exact geometric series of their e^(aw) parts in T_h and in
    T_2h, h sum_{i>=1} e^(a(w1 - i h)) (w1 is a node of T_2h too), and a
    bound on what that drops, e^(aw) expm1(log G) with |expm1(log G)| <=
    1.65 q e^w, a geometric series in e^((a+1)w)."""
    geo_h = h * math.exp(a * (w1 - h) - m) / -math.expm1(-a * h)
    geo_2h = 2.0 * h * math.exp(a * (w1 - 2.0 * h) - m) / -math.expm1(-2.0 * a * h)
    w_end = w1 - h
    rest = 1.65 * q * h * math.exp(a * w_end - m + w_end) / -math.expm1(-(a + 1.0) * h)
    return geo_h, geo_2h, rest


def _trapezoid(a: float, pw: float, h: float, points) -> tuple:
    """The step-h trapezoid pass at each point (x, w0, rows, extents) of
    one (a, c) pair (``_point``), on the nodes w0 + k h of f(w) = exp(a w
    - e^w + pw log1p(e^w/x)), scaled by e^-m, m the largest exponent on
    psi's nodes at the point.  A row (k, j, S, q, log_tail) is the sum of
    f e^(kw) / (1 + e^w/x)^j, the integrand of psi(a+k, c+k-j), formed as
    x^j f e^(kw) / (x + e^w)^j; its nodes run past S and start where q e^w
    bounds the log of its factor (1 + e^w/x)^(pw-j) (``_extent``), and 2
    e^log_tail bounds its sum past S.  psi's row, (0, 0), comes first and
    is its own slice of the point's nodes; the other rows share one extent
    (k, S and q) and take all of them.  Returns (each point's m, each
    point's psi (T_h, error bound), nodes), on which ``_more_rows`` sums
    the other rows.

    The points' nodes lie in one array, each point's in its span (lo, hi,
    psi's lo and hi, first node, psi's first node).  The elementwise work
    runs once over the array, each element as in a pass at its point
    alone; each maximum and sum runs over one span, in the order of that
    pass (``np.add.reduceat`` would sum in another).  One point takes the
    numpy calls of its pass alone and none of the spreading, cuts or
    per-point lists of several: at (2.3, -1.7, 3.1), 145 nodes, its pass
    takes about 13 us, 11 of them in its 18 numpy calls, three of those
    in ``_row_sum`` (timeit minimum, shared 2-core x86-64 VM, numpy 2.4).
    Buffers are worked in place, each element as with a fresh array: aw
    holds w, a w, then the rounding weights |a w| + e^w + kappa L, L =
    log1p(e^w/x); f holds a w + log G, then psi's summands.

    The weights bound the rounding of a node's exponent a w - e^w + pw L
    - m, in units of 4 EPS, with 2 EPS for each of exp and log1p.  e^w is
    off by 2 EPS e^w; u = e^w/x by 2.5 EPS relative, so L by 2.5 EPS
    u/(1+u) <= 2.5 EPS L, and by 2 EPS L more from log1p; pw L by |pw|
    times that, EPS/2 |pw L| from the product, and |dpw| L from the
    rounding of pw = c - a - 1 itself, |dpw| <= EPS/2 (|c-a| + |pw|) <=
    EPS (|pw| + 1/2); each of the three sums by EPS/2 its magnitude, at
    most |a w| + e^w + |pw L| + |m|.  In all 1.5 EPS |a w| + 3.5 EPS e^w +
    (7.5 |pw| + 0.5) EPS L + EPS/2 |m|: kappa is (7.5 |pw| + 0.5) / 4, and
    ``_row_sum`` charges |m| flat."""
    one = len(points) == 1
    if one:
        # w, exact: h is a power of 2 and w0 a multiple of 2^-20
        x = points[0][0]
        n, lo, hi, first, w1 = _span(points[0], h)
        spans = ((0, n, lo, hi, first, w1),)
        aw = np.arange(first, first + (n - 0.5) * h, h)
    else:
        spans, n = [], 0
        for point in points:
            size, lo, hi, w, w1 = _span(point, h)
            spans.append((n, n + size, n + lo, n + hi, w, w1))
            n += size
        # a point's nodes are the array's from its lo on, moved to its
        # first node
        first = spans[0][4]
        aw = np.arange(first, first + (n - 0.5) * h, h)
        sizes = np.array([hi - lo for lo, hi, *_ in spans])
        aw += np.array([w - first - lo * h for lo, _, _, _, w, _ in spans]).repeat(sizes)
        x = np.array([p[0] for p in points]).repeat(sizes)
    ew = np.exp(aw)
    pl = ew / x
    np.log1p(pl, pl)
    f = pl * pw
    f -= ew
    aw *= a
    f += aw
    if one:
        # psi's nodes, views that follow f and aw: all of them for psi alone
        own, weights = (f, aw) if hi - lo == n else (f[lo:hi], aw[lo:hi])
        m = float(np.maximum.reduce(own))
        f -= m
        ms = (m,)
    else:
        cuts = [i for span in spans for i in span[2:4]]
        ms = np.maximum.reduceat(f, cuts[:-1] if cuts[-1] == n else cuts)[::2]
        f -= ms.repeat(sizes)
        ms = ms.tolist()
    np.exp(f, f)
    np.abs(aw, aw)
    aw += ew
    pl *= 1.875 * abs(pw) + 0.125
    aw += pl
    if one:
        row = points[0][2][0]
        return ms, (_row_sum(row, own, weights, w1, _left_sums(a, row[3], w1, h, m),
                             a, x, h, m),), (f, ew, aw, x, spans)
    psi_sums = []
    for point, (_, _, lo, hi, _, w1), m in zip(points, spans, ms):
        row = point[2][0]
        psi_sums.append(_row_sum(row, f[lo:hi], aw[lo:hi], w1, _left_sums(a, row[3], w1, h, m),
                                 a, point[0], h, m))
    return ms, psi_sums, (f, ew, aw, x, spans)


def _shifted_summands(nodes) -> tuple:
    """f e^w and f e^w / (e^w + x) on all the nodes of a pass
    (``_trapezoid``): the summands, scaled by x^-j, of the rows with k = 1."""
    f, ew, _, x, _ = nodes
    fk = f * ew
    return fk, fk / (ew + x)


def _more_rows(nodes, summands, i: int, point, m: float, a: float, h: float) -> list:
    """``_row_sum`` of the other rows of the pass's point i, (x, w0, rows,
    extents), which share one extent with k = 1, on all its nodes of the
    pass, from the pass's ``_shifted_summands``; the left series is formed
    once."""
    aw, spans = nodes[2], nodes[4]
    xp, rows = point[0], point[2]
    lo, hi, _, _, w1, _ = spans[i]
    left = _left_sums(a + 1.0, rows[1][3], w1, h, m)
    return [_row_sum(row, summands[row[1]][lo:hi], aw[lo:hi], w1, left, a, xp, h, m)
            for row in rows[1:]]


def _row_sum(row, y, weights, w1: float, left, a: float, x: float, h: float,
             m: float) -> tuple[float, float]:
    """(T_h, error bound) of a row whose summands y, scaled by e^-m, lie on
    the nodes from w1 (a node of T_2h) on: T_h is x^j h sum(y) plus the
    left series, ``left`` the ``_left_sums`` of the row's extent.  The one
    error rule: |T_h - T_2h|; the left truncation, for both sums; the
    rounding of each node, 4 EPS times its weight (``_trapezoid``) plus
    16 + |m| and 2 per factor e^w or 1/(x + e^w), and the left series';
    the tail past S; underflow, 2^-1072 (1 + 2 S) max(1, x^j) per node."""
    k, j, S, _, log_tail = row
    ak, hs = a + k, h * x if j else h
    geo_h, geo_2h, rest = left
    total = float(np.add.reduce(y))
    t_h = hs * total + geo_h
    t_2h = 2.0 * hs * float(np.add.reduce(y[::2])) + geo_2h
    rounding = (4.0 * EPS * hs * (float(y.dot(weights))
                                  + (16.0 + 2.0 * (k + j) + abs(m)) * total)
                + 4.0 * EPS * geo_h * (4.0 + abs(ak * (w1 - h) - m)))
    return t_h, (abs(t_h - t_2h) + 4.0 * rest + rounding + 2.0 * math.exp(log_tail - m)
                 + len(y) * (2.0 * S + 1.0) * 2.0 ** -1072 * (hs if hs > h else h))


def _shifted_quotients(a: float, c: float, x: float, t0: float, e0: float, sums):
    """r = psi(a+1,c,x)/psi and s = psi(a+1,c+1,x)/psi with their errors,
    from the (T_h, error) of their rows and psi's t0 within e0: T_h / (a x
    t0), the exponents applied last, so that a quotient in the double range
    is formed however small a x is.  Below the normal range, 0 included, or
    beyond it with its error, it raises :class:`EvaluationError`."""
    (ma, ea), (mx, ex), (m0, et0) = math.frexp(a), math.frexp(x), math.frexp(t0)
    denom, rel0 = ma * mx * m0, e0 / t0 + 3.0 * EPS
    out = []
    for t_h, err in sums:
        mt, et = math.frexp(t_h)
        try:
            ratio = math.ldexp(mt / denom, et - et0 - ea - ex)
        except OverflowError:
            ratio = math.inf
        err = ratio * (err / t_h + rel0) if ratio >= _TINY else math.nan
        if not ratio + err <= _FMAX:
            raise EvaluationError(f"shifted quotients underflow or overflow the double range "
                                  f"at (a={a}, c={c}, x={x})")
        out.append((ratio, err))
    return tuple(out)


def psi_quadrature(p: ParameterPoint) -> FunctionValue:
    """Evaluate psi(a,c,x), a > 0, by the trapezoid rule in w = log s
    (see the module docstring), on nodes anchored at w0 = log min(x, 1)
    rounded to a multiple of 2^-20, so that every node is exact; h is
    halved by the rule of ``_settled``.  a <= 0 raises
    :class:`RegionError`.  A value below the normal double range raises
    :class:`EvaluationError`, one beyond it :class:`DoubleRangeError`; so
    do, as :class:`EvaluationError`, a subnormal a, nodes, node exponents
    or rounding weights beyond the double range (|c - a - 1|/x or the
    cutoff near the largest double; :class:`DoubleRangeError` where psi is
    shown to lie beyond it) and a NaN or infinite value or budget.
    """
    return _quadrature(p.a, p.c, p.x)


def _cutoff(a: float, pw: float, x: float, log_b: float,
            pw_floor: float) -> tuple[float, float]:
    """The cutoff S of the nodes for f = exp(a w - e^w + pw log1p(e^w/x)),
    b = min(x, 1), and log f(log S): 20 f(log S) lies below PSI_TOL times
    e^-1 min(1, 2^pw_floor) b^a / a, a floor of the integral of f for
    pw_floor = pw, and of f / (1 + e^w/x) for pw_floor = pw - 1.  Beyond
    S the integrand decays at least like e^(-s/2)."""
    # max and min as comparisons, which cost a fraction of the builtins
    S = 4.0 * ((0.0 if a - 1.0 < 0.0 else a - 1.0) + (0.0 if pw < 0.0 else pw) + 2.0)
    S = 30.0 if S < 30.0 else S
    log_floor = a * log_b - math.log(a) - 1.0 + (0.0 if pw_floor > 0.0 else pw_floor) * _LOG_2
    cut = _LOG_PSI_TOL + log_floor
    while True:
        log_f_cut = -S + a * math.log(S) + pw * math.log1p(S / x)
        if log_f_cut + _LOG_20 <= cut or S >= 700.0:
            return S, log_f_cut
        S *= 1.5


def _nodes(a: float, c: float, pw: float, x: float, shifted: bool) -> tuple:
    """(point, bounded): the point (x, w0, rows, extents) of the passes at
    x (``_point``), the rows psi's alone or, with ``shifted``, also the r
    and s rows, and whether psi's sums stay doubles: its summands are at
    most 1, and ``_NODES_MAX`` times its largest weight is one.  Elsewhere
    a sum, as the r and s rows' (summands up to e^w), may overflow to inf
    and fail its x alone, in ``_settled`` or ``_shifted_quotients``;
    refusing such x would refuse psi(0.5, -5e307, 10) = 1.41e-154.  Raises
    :class:`EvaluationError` where a is subnormal or the nodes leave the
    double range, and where their exponents or rounding weights do: there
    as :class:`DoubleRangeError` where psi is shown to lie beyond it
    (``_beyond_gamma_floor``)."""
    if a < _TINY:
        raise _subnormal(a, c, x)
    log_b = math.log(1.0 if x > 1.0 else x)
    w0 = round(log_b * 2.0 ** 20) * 2.0 ** -20
    S, log_f_cut = _cutoff(a, pw, x, log_b, pw)
    rows, S_ext = [(0, 0, S, 1.0 + abs(pw) / x, log_f_cut)], S
    if shifted:
        # the r row, psi's integrand at (a+1, pw-1), and the s row, at
        # (a+1, pw), share the s row's cutoff and the larger q; log_s is
        # the log of the s row's integrand there, as in _cutoff
        S_s = _cutoff(a + 1.0, pw, x, log_b, pw - 1.0)[0]
        S_ext = S_s if S_s > S else S
        q_ext = 1.0 + (abs(pw) if abs(pw) >= abs(pw - 1.0) else abs(pw - 1.0)) / x
        log_s = -S_ext + (a + 1.0) * math.log(S_ext) + pw * math.log1p(S_ext / x)
        rows += [(1, 1, S_ext, q_ext, log_s - math.log1p(S_ext / x)), (1, 0, S_ext, q_ext, log_s)]
    # the nodes need e^w/x up to past S_ext and twice the largest q of
    # _extent as doubles
    if not 2.0 * (S_ext + abs(pw) + 1.0) / x <= _FMAX:
        raise EvaluationError(f"the trapezoid nodes of psi(a={a}, c={c}, x={x}) "
                              f"reach beyond the double range")
    # the pass needs each node's exponent a w - e^w + pw L, which it
    # lowers by m, the largest, and each rounding weight |a w| + e^w +
    # kappa L (``_trapezoid``) as doubles: the exponents lie within E = a
    # |w| + e^w + |pw| L of 0, and the weights below E + (kappa - |pw|) L.
    # e^w and L are largest at the last node, w < log S_ext + 2 h, and |w|
    # < 800, as w0 >= -745 and, with 2q and S doubles, the nodes run from
    # less than 41 left of min(w0, -log 2q) to log S + 1/4 (``_extent``)
    e_end = 1.3 * S_ext
    log_end = math.log1p(e_end / x)
    exponent = a * 800.0 + e_end + abs(pw) * log_end
    weight = exponent + (0.875 * abs(pw) + 0.125) * log_end
    if not (2.0 * exponent <= _FMAX and weight <= _FMAX):
        if _beyond_gamma_floor(a, c, pw, x):
            raise _beyond_range(a, c, x)
        raise EvaluationError(f"the trapezoid exponents of psi(a={a}, c={c}, x={x}) "
                              f"leave the double range")
    return _point(a, x, w0, rows), _NODES_MAX * weight <= _FMAX


def _beyond_gamma_floor(a: float, c: float, pw: float, x: float) -> bool:
    """Whether psi(a, c, x), a > 0, is shown to exceed twice the largest
    double: for pw = c - a - 1 >= 0, (1+t)^pw >= t^pw gives psi >=
    Gamma(z) x^-z / Gamma(a), z = c - 1, whose log exceeds z (log z - 1 -
    log x) - log z / 2 - lnGamma(a) (Stirling).  The test leaves room for
    the rounding of each term."""
    if not pw >= 0.0:
        return False
    try:
        lg_a = math.lgamma(a)
    except OverflowError:
        return False
    z = c - 1.0
    log_z, log_x = math.log(z), math.log(x)
    d = log_z - 1.0 - log_x - 4.0 * EPS * (abs(log_z) + 1.0 + abs(log_x))
    return d > 0.0 and z * d * (1.0 - 4.0 * EPS) > (
        _LOG_2FMAX + 0.5 * log_z + lg_a + log_gamma_error(a, lg_a) + 1.0)


def _quadrature(a: float, c: float, x: float) -> FunctionValue:
    """``psi_quadrature`` on float arguments, as the dispatcher calls it:
    psi's row alone, one pass (``_trapezoid``) per h at the one x
    (``_halving``).  The records' passes (``_pair_quadrature``) end by the
    same ``_settled``, in a loop over the x of a pair.  At (2.3, -1.7, 3.1),
    one pass, a call takes about 17 us, 13 of them in the pass."""
    if a <= 0.0:
        raise RegionError(f"integral representation requires a > 0, got a={a}")
    pw = c - a - 1.0
    point, bounded = _nodes(a, c, pw, x, False)
    if bounded:
        return _halving(a, c, pw, point)
    with np.errstate(over="ignore"):  # about 1 us a call: only where needed
        return _halving(a, c, pw, point)


def _halving(a: float, c: float, pw: float, point: tuple) -> FunctionValue:
    """psi at the x of ``point`` (``_nodes``), as ``_quadrature``: one pass
    per h until ``_settled`` ends them."""
    x, points = point[0], (point,)
    log_x = math.log(x)
    lg_a, _ = log_gamma(a)
    lg_a_err = log_gamma_error(a, lg_a)
    # end: the last pass's relative budget, until it is psi
    h, end = _STEP, math.inf
    while True:
        (m,), ((total, err),), _ = _trapezoid(a, pw, h, points)
        end = _settled(a, c, x, log_x, lg_a, lg_a_err, h, end, m, total, err)
        if type(end) is FunctionValue:
            return end
        h *= 0.5


def _pair_quadrature(a: float, c: float, xs, shifted: bool = True) -> list:
    """psi and the quotients r and s at each x of ``xs`` at one pair,
    a > 0, as ``pair_quotients`` needs them: a list of each x's (psi,
    ((r, err_r), (s, err_s))), or of the exception the x raises; without
    ``shifted``, psi's row alone, as ``pair_psi`` needs it: a list of
    each x's psi, bit for bit as ``_halving`` gives it, or its exception.
    Each x keeps its own nodes, h and checks, as in ``_halving``; as
    every x starts at the same h, one pass per h (``_trapezoid``) serves
    every x whose passes ``_settled`` has not ended.  lnGamma(a) is taken
    once, if some x has nodes: none has where it overflows, a > 2.5e305."""
    pw = c - a - 1.0
    # points: (x, w0, rows, extents, index in xs, log x, the last relative
    # error) of each x whose h is still being halved
    out, points = list(xs), []
    for i, x in enumerate(out):
        try:
            points.append((*_nodes(a, c, pw, x, shifted)[0], i, math.log(x), math.inf))
        except EvaluationError as exc:
            out[i] = exc
    if not points:
        return out
    lg_a, _ = log_gamma(a)
    lg_a_err = log_gamma_error(a, lg_a)
    h = _STEP
    # a sum of the r and s rows, or of psi's row where ``_nodes`` finds it
    # unbounded, may overflow to inf
    with np.errstate(over="ignore"):
        while points:
            ms, sums, nodes = _trapezoid(a, pw, h, points)
            summands, rest = None, []
            for k, (point, m, (total, err)) in enumerate(zip(points, ms, sums)):
                x, i = point[0], point[4]
                try:
                    end = _settled(a, c, x, point[5], lg_a, lg_a_err, h, point[6],
                                   m, total, err)
                    if type(end) is not FunctionValue:
                        rest.append((*point[:6], end))
                        continue
                    if not shifted:
                        out[i] = end
                        continue
                    summands = summands or _shifted_summands(nodes)
                    out[i] = end, _shifted_quotients(a, c, x, total, err, _more_rows(
                        nodes, summands, k, point, m, a, h))
                except EvaluationError as exc:
                    out[i] = exc
            points = rest
            h *= 0.5
    return out


def _settled(a: float, c: float, x: float, log_x: float, lg_a: float, lg_a_err: float,
             h: float, prev_rel: float, m: float, total: float, err: float):
    """The end of the step-h pass at x, for psi (``_halving``) and the
    records (``_pair_quadrature``) alike, from psi's (T_h, error) = (total,
    err) scaled by e^-m (``_trapezoid``): the relative budget, where h is
    halved again, or psi.  The halving rule: h starts at 1/8 and is halved
    until the budget, the rounding of the prefactor e^(m - a log x -
    lnGamma(a)) included, meets ``PSI_TOL``, h is 1/128, a halving leaves
    the relative budget above half the last, ``prev_rel`` (rounding then
    sets it), or the relative budget is not finite, which no halving mends.
    An unmet budget is returned as it is, flagged ``"tolerance_not_met"``.
    psi > 0, so a value below the normal range raises
    :class:`EvaluationError`, one beyond it :class:`DoubleRangeError`, and
    a NaN or infinite value or budget :class:`EvaluationError`."""
    rel_scale = (EPS * (3.0 + 2.0 * (abs(m) + abs(a * log_x)) + abs(lg_a))
                 + lg_a_err)
    met = err <= (PSI_TOL - rel_scale) * abs(total)
    rel = err / total
    if not (met or h <= _STEP_MIN or rel > 0.5 * prev_rel or not rel < math.inf):
        return rel
    try:
        scale = math.exp(m - a * log_x - lg_a)
    except OverflowError:
        # psi = scale T_h with T_h of order h or more: beyond the double
        # range, or too near its top to hold
        raise _beyond_range(a, c, x) from None
    value = scale * total
    if value < _TINY:
        raise EvaluationError(
            f"psi(a={a}, c={c}, x={x}) underflows the double range (got {value})")
    if value > _FMAX:
        raise _beyond_range(a, c, x)
    budget = scale * err + rel_scale * abs(value)
    # NaN passes both tests above
    if not value + budget <= _FMAX:
        raise EvaluationError(f"psi(a={a}, c={c}, x={x}) has no finite value and "
                              f"budget on the trapezoid route")
    return FunctionValue(value, budget, QUADRATURE, () if met else ("tolerance_not_met",))


def _points(a: float, c: float, xs) -> tuple[list, list]:
    """ParameterPoint(a, c, x) at each x of ``xs``, or the RegionError that
    x raises, and the indices of the valid points."""
    out = []
    for x in xs:
        try:
            out.append(ParameterPoint(a, c, x))
        except RegionError as exc:
            out.append(exc)
    return out, [i for i, p in enumerate(out) if type(p) is ParameterPoint]


def pair_quotients(a: float, c: float, xs) -> list:
    """psi(a,c,x) and the quotients r = psi(a+1,c,x)/psi(a,c,x) and
    s = psi(a+1,c+1,x)/psi(a,c,x) at each x of ``xs``: a list of each x's
    record (psi, (r, err_r), (s, err_s)), the first item ``psi`` bit for
    bit there, or of the exception the x raises.  Nothing is kept, so an
    x raises again on every call.

    For a > 0 each record comes from one pass of psi's trapezoid rule, at
    every x: the r and s rows (see ``_trapezoid``) are summed at psi's
    last h on its nodes, run on to cover them, and the passes of all the
    x run together (``_pair_quadrature``).  For a <= 0, r and s are psi at
    (a+1,c) and (a+1,c+1) divided by psi, by ``_quotient``.

    An x raises where it is not a valid point, where psi raises at one of
    the points it reads, where psi's error is half its magnitude or more
    (psi cannot be told from 0) and, for a > 0, where r or s leaves the
    double range, each with the error it raises read alone."""
    out, valid = _points(a, c, xs)
    passes = (_pair_quadrature(a, c, [out[i].x for i in valid]) if a > 0.0
              else [None] * len(valid))
    for i, got in zip(valid, passes):
        try:
            out[i] = _record(out[i], got)
        except Exception as exc:
            out[i] = exc
    return out


def _record(p: ParameterPoint, got):
    """The record of ``pair_quotients`` at p, from its pass ``got`` (a > 0)
    or, where ``got`` is None (a <= 0), from psi at three points."""
    if isinstance(got, Exception):
        raise got
    a, c, x = p
    if got is None:
        f0 = psi(p)
    else:
        f0, (r, s) = got
    if f0.abs_error >= abs(f0.value) / 2.0:
        raise EvaluationError(
            f"psi indistinguishable from 0 at (a={a}, c={c}, x={x})")
    if got is None:
        r = _quotient(psi(ParameterPoint(a + 1.0, c, x)), f0)
        s = _quotient(psi(ParameterPoint(a + 1.0, c + 1.0, x)), f0)
    return f0, r, s


def psi_quotients(p: ParameterPoint):
    """The record of ``pair_quotients`` at the one point p, (psi, (r,
    err_r), (s, err_s)); raises where that point raises."""
    (got,) = pair_quotients(p.a, p.c, (p.x,))
    if isinstance(got, Exception):
        raise got
    return got


def _quotient(f: FunctionValue, f0: FunctionValue) -> tuple[float, float]:
    """f/f0 and its first-order error, the rounding of the division included."""
    q = f.value / f0.value
    return q, (f.abs_error + abs(q) * f0.abs_error) / abs(f0.value) + EPS * abs(q)


# ---------------------------------------------------------------------------
# connection-formula route
# ---------------------------------------------------------------------------

def _m_series(a: float, c: float, x: float, tol: float) -> tuple[float, float]:
    """Taylor series of M(a, c, x) for real x; returns (sum, abs error).

    Term n is a running product that carries about 4n roundings, so the
    error adds EPS sum_n (4n + 5) |term_n| to twice the last term; that
    sum is at least the largest partial sum |S|, the floor of the
    stopping rule.

    The counter n is a double: a + n, c + n, n + 1 and 4n + 9 are exact,
    so each term has the bits that an integer count gives it, and a sign
    test takes each magnitude."""
    term = s = peak = 1.0
    gross = 5.0
    prev_small = False
    n = 0.0
    while n < _M_MAX_TERMS:
        term = term * (a + n) * x / ((c + n) * (n + 1.0))
        s += term
        mag = s if s >= 0.0 else -s
        if not mag <= _FMAX:                    # inf or NaN
            raise EvaluationError(f"Kummer series overflow at a={a}, c={c}, x={x}")
        if mag > peak:
            peak = mag
        at = term if term >= 0.0 else -term
        gross += (4.0 * n + 9.0) * at           # this is term n + 1
        # floor by EPS*peak so a sum that cancels to ~0 can still terminate
        small = at <= tol * mag + EPS * peak
        if small and prev_small:
            return s, 2.0 * at + EPS * gross
        prev_small = small
        n += 1.0
    raise EvaluationError(f"Kummer series did not converge within {_M_MAX_TERMS:.0f} terms "
                          f"(a={a}, c={c}, x={x})")


def psi_connection(a: float, c: float, x: float) -> FunctionValue:
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
        m1, e1 = _m_series(a, c, x, _M_TOL)
        t1 = c1 * m1
        err += abs(c1) * e1
    if c2 != 0.0:
        log_xp = (1.0 - c) * math.log(x)
        m2, e2 = _m_series(a - c + 1.0, 2.0 - c, x, _M_TOL)
        try:
            xp = math.exp(log_xp)
        except OverflowError:
            # |t2| >= |c2| x^(1-c) (|m2| - e2); past 2 FMAX, psi = t1 + t2
            # is beyond the double range whatever the finite t1
            low = abs(c2) * (abs(m2) - e2)
            if low > 0.0 and math.isfinite(t1) and log_xp + math.log(low) > _LOG_2FMAX:
                raise _beyond_range(a, c, x) from None
            raise EvaluationError(
                f"connection formula overflow at a={a}, c={c}, x={x}") from None
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

def _asymptotic_auto(a: float, c: float, x: float) -> FunctionValue:
    """Sum the expansion to its smallest term (optimal truncation).  The
    counter n is a double: a + n, m + n and n + 1 are exact, so each term
    has the bits that an integer count gives it."""
    m = a + 1.0 - c
    term = mag = 1.0
    s = 1.0
    n = 0.0
    while n < _ASYMPTOTIC_MAX_ORDER:
        nxt = term * (a + n) * (m + n) / (-(n + 1.0) * x)
        mag_nxt = nxt if nxt >= 0.0 else -nxt
        if mag_nxt >= mag and n > 0.0:
            break
        term, mag = nxt, mag_nxt
        s += term
        n += 1.0
        if term == 0.0:  # terminating series (a or m a nonpositive integer)
            break
    omitted = abs(term * (a + n) * (m + n) / ((n + 1.0) * x))
    try:
        pref = x ** (-a)
    except OverflowError:
        pref = math.inf
    value = pref * s
    # s is near 1 where the expansion is used, so psi is as large as x^-a
    if not abs(value) <= _FMAX:
        raise _beyond_range(a, c, x)
    return FunctionValue(value, pref * (omitted + EPS * abs(s)), ASYMPTOTIC)


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def _beyond_range(a: float, c: float, x: float) -> DoubleRangeError:
    return DoubleRangeError(f"psi(a={a}, c={c}, x={x}) exceeds the double range")


def _subnormal(a: float, c: float, x: float) -> EvaluationError:
    # a w and a h lose their digits to underflow, and 1/a overflows
    return EvaluationError(f"psi(a={a}, c={c}, x={x}): a is subnormal, below the "
                           f"normal double range that the routes need")


def psi(p: ParameterPoint) -> FunctionValue:
    """Evaluate psi(a,c,x) for x > 0, selecting a method by parameter region.

    a > 0 uses the quadrature route at every x, a value to ``PSI_TOL`` as
    ``psi_quadrature(p)`` gives it; a = 0 and negative-integer a use their
    exact closed forms.  Other a < 0 try the optimally truncated expansion
    first (for x > 1): when its budget is at the rounding floor,
    2 EPS |value|, it is returned, because the connection series, whose
    budget never falls below 4 EPS |value|, cannot beat it.  Otherwise the
    connection series is summed too (for x <= 600) and the route with the
    smaller budget is returned.  Nothing is kept: every call computes its
    value afresh.
    For a > 0, where psi is positive, a value that underflows to 0 or to a
    subnormal raises :class:`EvaluationError`.  A value beyond the largest
    double raises :class:`DoubleRangeError`, and a terminating polynomial
    whose terms overflow raises :class:`EvaluationError`.
    """
    a, c, x = p
    if a > 0.0:
        return _quadrature(a, c, x)
    if a == 0.0 or a == math.floor(a):
        return psi_connection(a, c, x)
    if a > -_TINY:
        raise _subnormal(a, c, x)
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
    series = None
    if x <= _CONNECTION_X_MAX:
        try:
            series = psi_connection(a, c, x)
        except DoubleRangeError:
            raise
        except EvaluationError:
            pass
    # an expansion whose budget overflows is no candidate; on a tie the
    # series is returned
    if (expansion is not None and expansion.abs_error <= _FMAX
            and (series is None or expansion.abs_error < series.abs_error)):
        return expansion
    if series is None:
        raise EvaluationError(f"no usable evaluation route for a={a}, c={c}, x={x}")
    return series


def pair_psi(a: float, c: float, xs) -> list:
    """psi(a,c,x), a > 0, at each x of ``xs``: a list of each x's value,
    bit for bit as ``psi`` gives it, or of the exception the x raises,
    read alone.  The passes of all the x run together, psi's row alone
    (``_pair_quadrature``).  a <= 0 raises :class:`RegionError`."""
    if a <= 0.0:
        raise RegionError(f"integral representation requires a > 0, got a={a}")
    out, valid = _points(a, c, xs)
    for i, got in zip(valid, _pair_quadrature(a, c, [out[i].x for i in valid], False)):
        out[i] = got
    return out

"""Kernel tests: each evaluation route against independent oracles.

Oracles used here:
  * closed forms   psi(a, a+1, x) = x^-a,  psi(0, c, x) = 1,
                   psi(-1, c, x) = x - c,  M(a, a, x) = e^x,
                   M(1, 2, x) = (e^x - 1)/x,  M(-1, c, x) = 1 - x/c
  * error-function forms via math.erf/erfc:
                   psi(1/2, 1/2, x) = sqrt(pi) e^x erfc(sqrt(x))
  * upper incomplete gamma via mpmath.gammainc:
                   psi(1, b, x) = e^x x^(1-b) Gamma(b-1, x)
  * frozen 50-digit reference values for generic parameter points
  * cross-method agreement between the quadrature and connection routes
  * mpmath.hyperu at 40 digits, as |value - ref| <= abs_error
  * the Laplace integral by mpmath.quad at 40 digits, for psi and its
    quotients at large |c|, where hyperu fails
  * reference forms of ``_trapezoid`` and ``_digamma`` written out
    plainly, which the kernel's in-place and looped forms must equal
    bit for bit; ``_trapezoid`` sums every node once as exp(a w + log G),
    and the earlier form, which split off the left nodes' e^(aw) parts as
    a geometric series, is kept as a second reference that the sum must
    agree with to within its budget.
"""

import hashlib
import math
import pickle
import random
import signal
from collections import Counter

import mpmath
import numpy as np
import pytest

from tricomi_turan import kernel
from tricomi_turan.kernel import (EPS, PSI_TOL, DoubleRangeError,
                                  EvaluationError, FunctionValue,
                                  ParameterPoint, RegionError,
                                  _asymptotic_auto, _digamma,
                                  _m_series, _trapezoid,
                                  log_gamma, log_gamma_error, psi,
                                  psi_connection, psi_quadrature)
from tricomi_turan.turanians import SECOND, turanian_ratio

from oracle import hyperu40, laplace40

SQRT_PI = math.sqrt(math.pi)

# 50-digit reference values for spot checks at generic parameters
PSI_REFS = {
    (2.0, -2.5, 3.0): 0.017158595638471754438,
    (0.5, 0.25, 0.7): 0.79019337644482946054,
    (2.5, -1.5, 1.25): 0.017911335158752790552,
    (-0.75, -5.5, 200.0): 54.324954886873698567,
    (-1.25, 0.75, 0.5): -0.63067231144028590727,
}


def large_x(a, c):
    """50 (1 + |a| + |c|)^2: the samplers below take x past it as large."""
    return 50.0 * (1.0 + abs(a) + abs(c)) ** 2


def m_series(a, c, x):
    return _m_series(a, c, x, 1e-15)


def digamma_recursive(z):
    """_digamma written as the recursion psi(z) = psi(z+1) - 1/z."""
    if z < 0.0:
        return digamma_recursive(1.0 - z) - math.pi / math.tan(math.pi * z)
    if z < 6.0:
        return digamma_recursive(z + 1.0) - 1.0 / z
    r = 1.0 / (z * z)
    return math.log(z) - 0.5 / z - r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r / 240)))


def trapezoid_nodes(a, pw, x, w0, w_max, h):
    """_trapezoid's node grid: q, the split index j, the first index -kl
    and the nodes w0 + h k over the integers k."""
    q = 1.0 + abs(pw) / x
    j = 2 * max(0, math.ceil(0.5 * (math.log(2.0 * q) + w0) / h))
    depth = max(0.0, kernel._LEFT_DEPTH - math.log1p(1.0 / a)) / (a + 1.0)
    kl = j + 2 * math.ceil(0.5 * depth / h)
    k = np.arange(-kl, math.ceil((w_max - w0) / h) + 2)
    return q, j, kl, w0 + h * k


def trapezoid_reference(a, pw, x, w0, w_max, h):
    """_trapezoid written out with a fresh array for every step."""
    q, _, kl, w = trapezoid_nodes(a, pw, x, w0, w_max, h)
    ew = np.exp(w)
    log1p = np.log1p(ew / x)
    lg = pw * log1p - ew
    aw = a * w
    arg = aw + lg
    m = float(arg.max())
    f = np.exp(arg - m)
    w1 = w0 - kl * h
    geo_h = h * math.exp(a * (w1 - h) - m) / -math.expm1(-a * h)
    geo_2h = 2.0 * h * math.exp(a * (w1 - 2.0 * h) - m) / -math.expm1(-2.0 * a * h)
    total = float(f.sum())
    t_h = h * total + geo_h
    t_2h = 2.0 * h * float(f[::2].sum()) + geo_2h
    w_end = w1 - h
    rest = 1.65 * q * h * math.exp(a * w_end - m + w_end) / -math.expm1(-(a + 1.0) * h)
    weights = np.abs(aw) + ew + (1.875 * abs(pw) + 0.125) * log1p
    rounding = (4.0 * EPS * h * (float(f @ weights) + (16.0 + abs(m)) * total)
                + 4.0 * EPS * geo_h * (4.0 + abs(a * (w1 - h) - m)))
    return t_h, abs(t_h - t_2h) + 4.0 * rest + rounding, m


def trapezoid_split_reference(a, pw, x, w0, w_max, h):
    """The same sum split at the node ws = w0 - j h: the array's nodes left
    of ws enter as e^(aw) expm1(log G), and the e^(aw) parts of every node
    left of ws as one geometric series."""
    q, j, kl, w = trapezoid_nodes(a, pw, x, w0, w_max, h)
    nl = kl - j
    ew = np.exp(w)
    log1p = np.log1p(ew / x)
    lg = pw * log1p - ew
    aw = a * w
    arg = aw + lg
    m = float(arg.max())
    f = np.exp(arg - m)
    e_left = np.exp(aw[:nl] - m)
    f[:nl] = e_left * np.expm1(lg[:nl])
    ws = w0 - j * h
    geo_h = h * math.exp(a * (ws - h) - m) / -math.expm1(-a * h)
    geo_2h = 2.0 * h * math.exp(a * (ws - 2.0 * h) - m) / -math.expm1(-2.0 * a * h)
    t_h = h * float(f.sum()) + geo_h
    t_2h = 2.0 * h * float(f[::2].sum()) + geo_2h
    w_end = w0 - (kl + 1) * h
    rest = 1.65 * q * h * math.exp(a * w_end - m + w_end) / -math.expm1(-(a + 1.0) * h)
    u = f.copy()
    u[:nl] = e_left + np.abs(f[:nl])
    rounding = (4.0 * EPS * h * float(u @ (16.0 + abs(m) + np.abs(aw) + ew
                                           + (1.875 * abs(pw) + 0.125) * log1p))
                + 4.0 * EPS * geo_h * (4.0 + abs(a * (ws - h) - m)))
    return t_h, abs(t_h - t_2h) + 4.0 * rest + rounding, m


class TestParameterPoint:
    P = ParameterPoint(1.5, -0.5, 2.0)

    @pytest.mark.parametrize("a,c,x,message", [
        (math.nan, 0.5, 1.0, "parameters must be finite, got a=nan, c=0.5"),
        (1.0, -math.inf, 1.0, "parameters must be finite, got a=1.0, c=-inf"),
        (1.0, 0.5, 0.0, "argument must satisfy x > 0, got x=0.0"),
        (1.0, 0.5, -2.0, "argument must satisfy x > 0, got x=-2.0"),
        (1.0, 0.5, math.inf, "argument must satisfy x > 0, got x=inf"),
        (1.0, 0.5, math.nan, "argument must satisfy x > 0, got x=nan")])
    def test_validation(self, a, c, x, message):
        with pytest.raises(RegionError) as exc:
            ParameterPoint(a, c, x)
        assert str(exc.value) == message

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            self.P.x = 3.0
        with pytest.raises(AttributeError):
            self.P.extra = 3.0

    def test_pickle_round_trip(self):
        back = pickle.loads(pickle.dumps(self.P))
        assert back == self.P and type(back) is ParameterPoint

    def test_repr(self):
        assert repr(self.P) == "ParameterPoint(a=1.5, c=-0.5, x=2.0)"

    def test_equal_points_hash_equal(self):
        q = ParameterPoint(1.5, -0.5, 2.0)
        assert q == self.P and hash(q) == hash(self.P)
        assert len({self.P, q, ParameterPoint(1.5, -0.5, 3.0)}) == 2


class TestFunctionValue:
    V = FunctionValue(0.25, 1e-16, "quadrature", ("tolerance_not_met",))

    def test_negative_error_is_rejected(self):
        with pytest.raises(ValueError) as exc:
            FunctionValue(1.0, -1e-300, "quadrature")
        assert str(exc.value) == "abs_error must be nonnegative"

    def test_flags_default_and_rel_error(self):
        fv = FunctionValue(-2.0, 1e-15, "closed_form")
        assert fv.flags == () and fv.rel_error == 5e-16
        assert FunctionValue(0.0, 1e-15, "closed_form").rel_error == math.inf

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            self.V.value = 0.0

    def test_pickle_round_trip(self):
        back = pickle.loads(pickle.dumps(self.V))
        assert back == self.V and type(back) is FunctionValue

    def test_repr(self):
        assert repr(self.V) == ("FunctionValue(value=0.25, abs_error=1e-16, "
                                "method='quadrature', flags=('tolerance_not_met',))")
        assert repr(FunctionValue(1.0, 0.0, "connection_series")) == (
            "FunctionValue(value=1.0, abs_error=0.0, method='connection_series', "
            "flags=())")

    def test_equal_values_hash_equal(self):
        w = FunctionValue(0.25, 1e-16, "quadrature", ("tolerance_not_met",))
        assert w == self.V and hash(w) == hash(self.V)


class TestLogGamma:
    def test_at_one(self):
        lg, sign = log_gamma(1.0)
        assert lg == 0.0 and sign == 1.0

    def test_half(self):
        lg, sign = log_gamma(0.5)  # Gamma(1/2) = sqrt(pi)
        assert sign == 1.0
        assert lg == pytest.approx(0.57236494292470008707, abs=1e-15)

    def test_reflection_negative_half(self):
        lg, sign = log_gamma(-0.5)  # Gamma(-1/2) = -2 sqrt(pi)
        assert sign == -1.0
        assert lg == pytest.approx(1.2655121234846453965, abs=1e-15)

    @pytest.mark.parametrize("z", [0.0, -1.0, -2.0, -7.0])
    def test_pole_raises(self, z):
        with pytest.raises(EvaluationError):
            log_gamma(z)

    def test_beyond_the_double_range_raises(self):
        # math.lgamma raises an untyped OverflowError here
        with pytest.raises(EvaluationError, match="beyond the double range"):
            log_gamma(1e308)

    def test_oracle_sample(self):
        """log|Gamma| within its stated bound, the sign and digamma against
        mpmath at 40 digits: 550 seeded z of both signs, near 1 and 2, and
        1e-12 to 0.1 from the poles at 0, -1, ..., -30."""
        rng = np.random.default_rng(17)
        poles = -rng.integers(0, 31, 150).astype(float)
        zs = np.concatenate([
            rng.uniform(-12.0, 2000.0, 150), rng.uniform(-30.0, 3.0, 150),
            1.0 + rng.uniform(-1e-2, 1e-2, 50), 2.0 + rng.uniform(-1e-2, 1e-2, 50),
            poles + rng.choice([-1.0, 1.0], 150) * 10.0 ** rng.uniform(-12.0, -1.0, 150)])
        with mpmath.workdps(40):
            for z in map(float, zs):
                gamma = mpmath.gamma(mpmath.mpf(z))
                lg, sign = log_gamma(z)
                assert abs(lg - mpmath.log(abs(gamma))) <= log_gamma_error(z, lg), z
                assert sign == (1.0 if gamma > 0 else -1.0), z
                if z > 0.0 or abs(z - round(z)) >= 1e-3:
                    ref = mpmath.digamma(mpmath.mpf(z))
                    assert abs(_digamma(z) - ref) <= 1e-9 * max(1.0, abs(ref)), z

    def test_digamma_matches_recursive_form(self):
        rng = np.random.default_rng(23)
        for z in map(float, rng.uniform(-60.0, 60.0, 2000)):
            assert _digamma(z) == digamma_recursive(z), z


class TestKummerM:
    @pytest.mark.parametrize("a,c,x", [
        (300.0, 0.5, 700.0), (-1000.5, 0.5, 700.0), (1e300, 0.5, 1e10),
        (1e308, 1e-308, 1e308), (math.nan, 0.5, 1.0)])
    def test_overflow_raises(self, a, c, x):
        # an infinite or NaN partial sum raises at once, never a value
        with pytest.raises(EvaluationError, match="Kummer series overflow"):
            _m_series(a, c, x, 1e-15)

    def test_empty_sum(self):
        assert m_series(3.7, 0.4, 0.0)[0] == 1.0

    def test_exponential(self):
        assert m_series(1.0, 1.0, 1.0)[0] == pytest.approx(math.e, rel=1e-14)

    def test_m_1_2(self):
        value, err = m_series(1.0, 2.0, 1.0)
        assert value == pytest.approx(math.e - 1.0, rel=1e-14)
        assert err < 1e-12

    def test_m_a_a_is_exp(self):
        value, _ = m_series(3.0, 3.0, 2.5)
        assert value == pytest.approx(12.182493960703473438, rel=1e-14)

    def test_terminating_series_cancels_to_zero(self):
        # M(-1, 1/2, 1/2) = 1 - x/c = 0: the stopping rule must not hang
        value, _ = m_series(-1.0, 0.5, 0.5)
        assert abs(value) < 1e-15

    def test_pole_in_c(self):
        # M(a, c, x) has poles at c = 0, -1, ...; the connection route never
        # sums a series there, since c or 2 - c would be an integer
        for c in (-2.0, 3.0):
            with pytest.raises(EvaluationError):
                psi_connection(1.0, c, 1.0)


class TestPsiQuadrature:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_power_closed_form(self, a, x):
        # c = a+1 collapses the integrand; psi(a, a+1, x) = x^-a
        fv = psi_quadrature(ParameterPoint(a, a + 1.0, x))
        assert fv.value == pytest.approx(x ** (-a), rel=1e-10)

    @pytest.mark.parametrize("x", [1e-8, 0.5, 3.0])
    def test_erfc_oracle(self, x):
        expected = SQRT_PI * math.exp(x) * math.erfc(math.sqrt(x))
        fv = psi_quadrature(ParameterPoint(0.5, 0.5, x))
        assert fv.value == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("b", [1.5, 2.5, 3.25])
    @pytest.mark.parametrize("x", [0.2, 2.0, 20.0])
    def test_incomplete_gamma_oracle(self, b, x):
        # psi(1, b, x) = e^x x^(1-b) Gamma(b-1, x)
        with mpmath.workdps(40):
            expected = float(mpmath.exp(x) * mpmath.mpf(x) ** (1.0 - b)
                             * mpmath.gammainc(b - 1.0, x))
        fv = psi_quadrature(ParameterPoint(1.0, b, x))
        assert fv.value == pytest.approx(expected, rel=1e-10)

    def test_small_x_limit_value(self):
        # x -> 0 with c < 1 tends to Gamma(1-c)/Gamma(a-c+1); here sqrt(pi)
        fv = psi_quadrature(ParameterPoint(0.5, 0.5, 1e-8))
        assert abs(fv.value - SQRT_PI) < 3e-4
        assert fv.value < SQRT_PI

    @pytest.mark.parametrize("point,expected", sorted(
        (k, v) for k, v in PSI_REFS.items() if k[0] > 0))
    def test_reference_values(self, point, expected):
        fv = psi_quadrature(ParameterPoint(*point))
        assert fv.value == pytest.approx(expected, rel=1e-11)
        assert abs(fv.value - expected) <= max(fv.abs_error, 1e-13 * abs(expected))

    def test_error_estimate_nonnegative(self):
        fv = psi_quadrature(ParameterPoint(2.0, -2.5, 3.0))
        assert fv.abs_error >= 0.0
        assert fv.method == "quadrature"

    def test_rejects_nonpositive_a(self):
        with pytest.raises(RegionError):
            psi_quadrature(ParameterPoint(-0.5, 0.5, 1.0))

    def test_unmet_tolerance_is_flagged_with_honest_budget(self):
        # at a = 100 the rounding of the prefactor, lnGamma(100) = 359
        # included, exceeds PSI_TOL relative on its own
        fv = psi_quadrature(ParameterPoint(100.0, -0.5, 1.0))
        assert fv.flags == ("tolerance_not_met",)
        assert fv.abs_error > PSI_TOL * fv.value
        assert abs(fv.value - hyperu40(100.0, -0.5, 1.0)) <= fv.abs_error

    def test_halving_stops_when_rounding_sets_the_budget(self, monkeypatch):
        # from h = 1/16 on the budget is rounding alone, so h = 1/32 does
        # not halve it and no finer step is tried
        passes = []
        trapezoid = kernel._trapezoid

        def counted(*args):
            passes.append(args[-1])
            return trapezoid(*args)

        monkeypatch.setattr(kernel, "_trapezoid", counted)
        fv = psi_quadrature(ParameterPoint(100.0, -0.5, 1.0))
        assert len(passes) <= 3, passes
        assert abs(fv.value - hyperu40(100.0, -0.5, 1.0)) <= fv.abs_error

    def test_oracle_sample(self):
        # a log-uniform in [1e-8, 1e-3] (the endpoint factor s^(a-1) is at
        # its sharpest), uniform in [1e-3, 6], and a = 20, 30; c uniform in
        # [-5, 2]; x log-uniform in [1e-2, large_x(a, c)]
        rng = np.random.default_rng(20261018)
        a_values = ([float(10.0 ** rng.uniform(-8, -3)) for _ in range(40)]
                    + [float(rng.uniform(1e-3, 6.0)) for _ in range(100)]
                    + [20.0, 30.0] * 5)
        points = []
        for a in a_values:
            c = float(rng.uniform(-5.0, 2.0))
            x = float(math.exp(rng.uniform(math.log(1e-2),
                                           math.log(large_x(a, c)))))
            points.append((a, c, x))
        # the longest node arrays and the largest geometric tails: a
        # log-uniform in [1e-8, 1e-3], c uniform in [1, 2] and x log-uniform
        # in [1e-2, 0.1], so that q = 1 + |c-a-1|/x is large
        points += [(float(10.0 ** rng.uniform(-8, -3)), float(rng.uniform(1.0, 2.0)),
                    float(10.0 ** rng.uniform(-2, -1))) for _ in range(160)]
        for a, c, x in points:
            fv = psi_quadrature(ParameterPoint(a, c, x))
            ref = hyperu40(a, c, x)
            assert abs(fv.value - ref) <= fv.abs_error <= 1e-12 * abs(ref), (a, c, x)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(RegionError):
            ParameterPoint(1.0, 0.5, 0.0)

    @pytest.mark.parametrize("a", [200.0, 1000.0])
    def test_underflow_raises(self, a):
        # psi(200, 0.5, 1) = 2.8e-386 is positive but below the double range
        with pytest.raises(EvaluationError, match="underflows"):
            psi_quadrature(ParameterPoint(a, 0.5, 1.0))


def trapezoid_cases(n=600, seed=31):
    """Seeded (a, pw, x, w0, S, h) as psi_quadrature forms them: a in
    [1e-8, 30], x in [1e-2, 1e3], h from 1/8 to 1/128; and a below e^-40,
    where the nodes start at the split node ws, so that the split form has
    no node summed as e^(aw) expm1(log G)."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        a = 1e-20 * 10.0 ** (i % 3) if i % 50 == 0 else 10.0 ** rng.uniform(-8.0, math.log10(30.0))
        c = rng.uniform(-5.0, 2.0)
        x = 10.0 ** rng.uniform(-2.0, 3.0)
        pw = c - a - 1.0
        w0 = round(math.log(min(x, 1.0)) * 2.0 ** 20) * 2.0 ** -20
        S = max(4.0 * (max(a - 1.0, 0.0) + max(pw, 0.0) + 2.0), 30.0) * 1.5 ** rng.integers(0, 4)
        cases.append((a, pw, x, w0, S, 2.0 ** -int(rng.integers(3, 8))))
    return cases


def psi_row(a, pw, x, w0, S, h):
    """(T_h, its bound, m) of psi's row alone, with no tail bound past S,
    which the references leave out."""
    (m,), ((t_h, err),), _ = _trapezoid(
        a, pw, h, [kernel._point(a, x, w0, [(0, 0, S, 1.0 + abs(pw) / x, -math.inf)])])
    return t_h, err, m


def test_trapezoid_matches_reference():
    cases = trapezoid_cases()
    empty_left = 0
    for a, pw, x, w0, S, h in cases:
        args = (a, pw, x, w0, math.log(S), h)
        assert psi_row(a, pw, x, w0, S, h) == trapezoid_reference(*args), args
        empty_left += args[0] < math.exp(-kernel._LEFT_DEPTH)
    assert empty_left >= 6


def test_trapezoid_agrees_with_split_form():
    # the one-pass sum and the split sum are the same sum rounded
    # differently: the one lies within its budget of the other, and the
    # two budgets differ in rounding alone
    for a, pw, x, w0, S, h in trapezoid_cases():
        args = (a, pw, x, w0, math.log(S), h)
        t_h, err, m = psi_row(a, pw, x, w0, S, h)
        t_split, err_split, m_split = trapezoid_split_reference(*args)
        assert m == m_split, args
        assert abs(t_h - t_split) <= err, args
        assert 0.5 <= err / err_split <= 2.0, args


def _large_x_and_nonpositive_a_points():
    """The points at large x or a <= 0 that ``test_psi_equals_psi_bit_for_bit``
    takes: five fixed ones, where psi is a quadrature value at large x, a
    connection value, a terminating polynomial, has no route and
    underflows, then 300 seeded, every other one with a uniform in [-4, 0]
    (every sixth an integer), c uniform in [-6, 3] and x log-uniform in
    [0.05, 600], the rest with a log-uniform in [0.05, 6] and x from 1 to
    20 times large_x(a, c)."""
    points = [(0.5, -1.0, 400.0), (-0.5, 0.25, 2.0), (-2.0, 0.5, 3.0),
              (-0.5, -2.0, 0.03), (200.0, 0.5, 1e7)]
    rng = np.random.default_rng(1075)
    for i in range(300):
        if i % 2 == 0:
            a = float(rng.uniform(-4.0, 0.0))
            if i % 6 == 0:
                a = float(math.floor(a))
            c = float(rng.uniform(-6.0, 3.0))
            x = float(math.exp(rng.uniform(math.log(0.05), math.log(600.0))))
        else:
            a = float(10.0 ** rng.uniform(math.log10(0.05), math.log10(6.0)))
            c = float(rng.uniform(-6.0, 3.0))
            x = float(rng.uniform(1.0, 20.0)) * large_x(a, c)
        points.append((a, c, x))
    return points


class TestPsiQuotients:
    """psi_quotients: psi and its quotients over (a+1, c) and (a+1, c+1),
    from one trapezoid pass at a > 0; their oracles at large x and at
    large |c| are here, the rest in test_turanians."""

    def test_budgets_hold_and_meet_the_tolerance_at_large_negative_c(self):
        # the rounding of the nodes' exponents grows with |pw| only where
        # |pw log1p(e^w/x)| does, not flat in |pw|: at c = -1e4 and -1e20
        # psi's budget once missed PSI_TOL by 9x and 9e16x.  Then 300
        # seeded points: a log-uniform in [0.05, 6], -c log-uniform in
        # [1, 1e5] and x log-uniform in [1e-2, 1e2]
        rng = np.random.default_rng(1409)
        points = [(0.5, -1e4, 1.0), (0.5, -1e20, 1.0)]
        points += [(float(10.0 ** rng.uniform(math.log10(0.05), math.log10(6.0))),
                    -float(10.0 ** rng.uniform(0.0, 5.0)),
                    float(10.0 ** rng.uniform(-2.0, 2.0))) for _ in range(300)]
        for a, c, x in points:
            f0, r, s = kernel.psi_quotients(ParameterPoint(a, c, x))
            assert f0.flags == (), (a, c, x)
            for (value, err), ref in zip(((f0.value, f0.abs_error), r, s),
                                         laplace40(a, c, x)):
                assert abs(value - ref) <= err, (a, c, x)

    def test_psi_equals_psi_bit_for_bit(self):
        # 1,000 seeded points with a > 0: a log-uniform in [1e-8, 30], c
        # uniform in [-6, 3], a tenth within 1e-3 of an integer, x
        # log-uniform in [1e-3, large_x(a, c)]; then those of
        # _large_x_and_nonpositive_a_points
        rng = np.random.default_rng(1409)
        points = []
        for i in range(1000):
            a = float(10.0 ** rng.uniform(-8.0, math.log10(30.0)))
            c = float(rng.uniform(-6.0, 3.0))
            if i % 10 == 0:
                c = round(c) + float(rng.uniform(-1e-3, 1e-3))
            x = float(math.exp(rng.uniform(math.log(1e-3),
                                           math.log(large_x(a, c)))))
            points.append((a, c, x))
        differ = []
        for a, c, x in points + _large_x_and_nonpositive_a_points():
            p = ParameterPoint(a, c, x)
            try:
                want = psi(p)
            except EvaluationError as exc:
                with pytest.raises(type(exc)):
                    kernel.psi_quotients(p)
                continue
            got = kernel.psi_quotients(p)[0]
            if (got.value.hex(), got.abs_error.hex(), got.method, got.flags) != (
                    want.value.hex(), want.abs_error.hex(), want.method, want.flags):
                differ.append((a, c, x))
        assert differ == []

    def test_large_x_psi_and_quotients_within_their_budgets_against_mpmath(self):
        # 600 seeded points: a log-uniform in [1e-3, 30], c uniform in
        # [-5, 2], a fifth at or within 1e-7 of an integer, x from 1 to 20
        # times large_x(a, c) at every other point and log-uniform in 1 to
        # 1e4 times it at the rest.  psi, r and s against mpmath.hyperu at
        # 40 digits with exact shifts
        rng = np.random.default_rng(1409_1075)
        outside = []
        with mpmath.workdps(40):
            for i in range(600):
                a = float(math.exp(rng.uniform(math.log(1e-3), math.log(30.0))))
                c = float(rng.uniform(-5.0, 2.0))
                if i % 5 == 0:
                    c = float(rng.integers(-5, 3)) + (
                        0.0 if i % 10 == 0 else float(rng.uniform(-1e-7, 1e-7)))
                scale = (rng.uniform(1.0, 20.0) if i % 2 == 0
                         else math.exp(rng.uniform(0.0, math.log(1e4))))
                x = float(scale) * large_x(a, c)
                A, C, X = mpmath.mpf(a), mpmath.mpf(c), mpmath.mpf(x)
                u0 = mpmath.hyperu(A, C, X)
                f0, r, s = kernel.psi_quotients(ParameterPoint(a, c, x))
                assert f0.method == "quadrature"
                for name, (value, err), ref in (
                        ("psi", f0[:2], u0), ("r", r, mpmath.hyperu(A + 1, C, X) / u0),
                        ("s", s, mpmath.hyperu(A + 1, C + 1, X) / u0)):
                    if not abs(value - float(ref)) <= err:
                        outside.append((name, a, c, x, value, err, float(ref)))
        assert outside == []

    @pytest.mark.parametrize("x", [1e308, 1.7e308])
    def test_quotients_below_the_double_range_raise_on_every_call(self, monkeypatch, x):
        # psi(0.1, -4.5, x) is a normal double, but r and s, about 1/x, are
        # not: they raise as psi does where it underflows.  No record is
        # kept, so the second call makes the passes of the first again
        runs = []
        trapezoid = kernel._trapezoid
        monkeypatch.setattr(kernel, "_trapezoid",
                            lambda a, pw, h, points: runs[-1].append(h)
                            or trapezoid(a, pw, h, points))
        for _ in range(2):
            runs.append([])
            with pytest.raises(EvaluationError, match="underflow"):
                kernel.psi_quotients(ParameterPoint(0.1, -4.5, x))
        assert runs[0] and runs[1] == runs[0]

    def test_quotients_near_the_bottom_of_the_double_range_deliver(self):
        a, c, x = 0.1, -4.5, 1e307
        f0, r, s = kernel.psi_quotients(ParameterPoint(a, c, x))
        with mpmath.workdps(40):
            A, C, X = mpmath.mpf(a), mpmath.mpf(c), mpmath.mpf(x)
            u0 = mpmath.hyperu(A, C, X)
            for (value, err), ref in ((r, mpmath.hyperu(A + 1, C, X) / u0),
                                      (s, mpmath.hyperu(A + 1, C + 1, X) / u0)):
                assert value == pytest.approx(1e-307, rel=1e-12)
                assert abs(value - float(ref)) <= err

    @pytest.mark.parametrize("a,c,x", [(1e-300, 2.5, 1e-30), (1e-300, 1.5, 1e-12)])
    def test_quotients_deliver_where_a_x_underflows(self, a, c, x):
        # a x t0 is 0 or subnormal here while r ~ x^(1-c) is not: the first
        # point used to raise ZeroDivisionError, the second to return r 27
        # times outside its budget
        f0, r, s = kernel.psi_quotients(ParameterPoint(a, c, x))
        with mpmath.workdps(40):
            A = mpmath.mpf(a)
            u0 = mpmath.hyperu(A, c, x)
            for (value, err), ref in ((r, mpmath.hyperu(A + 1, c, x) / u0),
                                      (s, mpmath.hyperu(A + 1, c + 1, x) / u0)):
                assert abs(value - float(ref)) <= err

    def test_quotients_beyond_the_double_range_raise(self):
        # s ~ 1e232 with an error past the largest double, which was returned
        with pytest.raises(EvaluationError, match="overflow"):
            kernel.psi_quotients(ParameterPoint(1e-200, 4.5, 1e-120))

    def test_psi_indistinguishable_from_zero_raises_on_every_call(self, monkeypatch):
        # U(-3/2, 1/2, x^2) = H_3(x)/8 = x^3 - 3x/2 vanishes at x^2 = 3/2.
        # No record is kept, so each call reads psi at the point again
        p, seen = ParameterPoint(-1.5, 0.5, 1.5), []
        monkeypatch.setattr(kernel, "psi", lambda q: seen.append(q) or psi(q))
        for _ in range(2):
            with pytest.raises(EvaluationError, match="indistinguishable from 0"):
                kernel.psi_quotients(p)
        assert seen == [p, p]

    def test_psi_alone_runs_no_extension(self, monkeypatch):
        # each pass sums psi's row (0, 0) alone; the record's last pass then
        # sums the r row (1, 1) and the s row (1, 0), over the whole array,
        # which reaches past psi's own nodes, and psi's passes sum no other
        # row.  (6, -4.5, 200) takes two passes
        summed = []
        row_sum = kernel._row_sum

        def counted(row, y, *args):
            summed.append((*row[:2], len(y)))
            return row_sum(row, y, *args)

        monkeypatch.setattr(kernel, "_row_sum", counted)
        for point, passes in (((2.0, -2.5, 3.0), 1), ((6.0, -4.5, 200.0), 2)):
            psi_quadrature(ParameterPoint(*point))
            psi_rows = summed[:]
            assert [row[:2] for row in psi_rows] == [(0, 0)] * passes
            summed.clear()
            kernel.psi_quotients(ParameterPoint(*point))
            assert summed[:passes] == psi_rows
            r, s = summed[passes:]
            assert r[:2] == (1, 1) and s[:2] == (1, 0) and r[2] == s[2] > psi_rows[-1][2]
            summed.clear()


def _pair_cases():
    """(a, c, xs) for pair_quotients: ten pairs where an x takes psi's
    route at a <= 0, has a subnormal a, leaves the double range with its
    nodes, has node exponents beyond the double range where psi is shown
    to lie beyond it and where it is not, halves h while the pair's other
    x do not, is flagged tolerance_not_met, or has shifted quotients
    beyond or below the double range; then 40 seeded
    pairs, a log-uniform in [1e-8, 60], c uniform in [-300, 60] and 2 to 9
    x log-uniform in [1e-6, 1e5]."""
    cases = [(-0.5, 0.25, (0.5, 2.0, 40.0)), (-1.5, 0.5, (1.0, 1.5, 2.0)),
             (1e-310, 0.5, (1.0, 2.0)), (0.5, -1e307, (1e-300, 1.0, 100.0)),
             (0.5, 1e306, (1e-10, 1.0, 10.0)), (0.5, -5e307, (1.0, 10.0)),
             (6.0, -4.5, (0.5, 200.0, 3.0)),
             (35.15362223586434, -102.32554853370691, (7.3e-7, 1e-3, 1.0, 5.0)),
             (1e-200, 4.5, (1e-120, 1.0)), (0.1, -4.5, (1.0, 1e308, 3.0))]
    rng = np.random.default_rng(1409_42)
    for _ in range(40):
        a = float(math.exp(rng.uniform(math.log(1e-8), math.log(60.0))))
        c = float(rng.uniform(-300.0, 60.0))
        xs = tuple(float(10.0 ** rng.uniform(-6.0, 5.0)) for _ in range(rng.integers(2, 10)))
        cases.append((a, c, xs))
    return cases


def _record_bits(got):
    """A record as its bits, or an exception as its type and message."""
    if isinstance(got, Exception):
        return type(got), str(got)
    f0, r, s = got
    return (f0.value.hex(), f0.abs_error.hex(), f0.method, f0.flags,
            *(v.hex() for v in (*r, *s)))


class TestPairQuotients:
    @pytest.mark.parametrize("a,c", [(1.5, -0.5), (-0.5, 0.25)])
    def test_an_invalid_x_raises_alone(self, a, c):
        # each x that is not a valid point takes its own RegionError, and
        # the other x their records, as read alone
        xs = (0.5, -1.0, 2.0, math.inf, 0.0)
        for x, got in zip(xs, kernel.pair_quotients(a, c, xs)):
            if 0.0 < x < math.inf:
                assert not isinstance(got, Exception)
                assert _record_bits(got) == _record_bits(kernel.pair_quotients(a, c, (x,))[0])
            else:
                assert type(got) is RegionError and "x > 0" in str(got)

    def test_each_record_has_the_bits_of_its_x_read_alone(self, monkeypatch):
        # each x's record, or its exception's type and message, is the same
        # read alone, with the pair's other x and with them in shuffled
        # order, though the pair's passes share one array per h
        rng = np.random.default_rng(1075_42)
        steps = []
        trapezoid = kernel._trapezoid
        monkeypatch.setattr(kernel, "_trapezoid", lambda a, pw, h, points: steps.append(
            (h, len(points))) or trapezoid(a, pw, h, points))
        alone_bits, split = [], 0
        for a, c, xs in _pair_cases():
            alone = [_record_bits(kernel.pair_quotients(a, c, (x,))[0]) for x in xs]
            order = rng.permutation(len(xs))
            shuffled = kernel.pair_quotients(a, c, [xs[i] for i in order])
            back = [None] * len(xs)
            for i, got in zip(order, shuffled):
                back[i] = _record_bits(got)
            steps.clear()
            assert [_record_bits(got) for got in kernel.pair_quotients(a, c, xs)] == alone, (
                a, c, xs)
            assert back == alone, (a, c, xs, order)
            alone_bits += alone
            # a pass at a halved h serves some of the pair's x, not all
            split += len(steps) > 1 and steps[0][1] > steps[-1][1]
        messages = " ".join(bits[1] for bits in alone_bits if len(bits) == 2)
        for part in ("a is subnormal", "reach beyond the double range",
                     "c=1e+306, x=1.0) exceeds the double range",
                     "exponents of psi(a=0.5, c=-5e+307, x=1.0) leave the double range",
                     "indistinguishable from 0",
                     "shifted quotients underflow or overflow"):
            assert part in messages, part
        assert any(bits[3] == ("tolerance_not_met",) for bits in alone_bits if len(bits) > 2)
        assert split


def _psi_bits(got):
    """psi's value as its bits, or an exception as its type and message."""
    if isinstance(got, Exception):
        return type(got), str(got)
    return got.value.hex(), got.abs_error.hex(), got.method, got.flags


def _psi_alone(a, c, x):
    try:
        return psi(ParameterPoint(a, c, x))
    except Exception as exc:
        return exc


class TestPairPsi:
    def test_an_invalid_x_raises_alone(self):
        xs = (0.5, -1.0, 2.0, math.inf, 0.0)
        for x, got in zip(xs, kernel.pair_psi(1.5, -0.5, xs)):
            if 0.0 < x < math.inf:
                assert _psi_bits(got) == _psi_bits(psi(ParameterPoint(1.5, -0.5, x)))
            else:
                assert type(got) is RegionError and "x > 0" in str(got)

    @pytest.mark.parametrize("a", [0.0, -0.5])
    def test_needs_a_above_zero(self, a):
        with pytest.raises(RegionError, match="requires a > 0"):
            kernel.pair_psi(a, 0.25, (1.0,))

    def test_each_value_has_the_bits_of_psi_read_alone(self, monkeypatch):
        # each x's psi, or its exception's type and message, is psi's at
        # that point alone, with the pair's other x in their order and in
        # shuffled order; one trapezoid pass per h serves every x
        rng = np.random.default_rng(1075_47)
        steps = []
        trapezoid = kernel._trapezoid
        monkeypatch.setattr(kernel, "_trapezoid", lambda a, pw, h, points: steps.append(
            (h, len(points))) or trapezoid(a, pw, h, points))
        alone_bits = []
        for a, c, xs in _pair_cases():
            if a <= 0.0:
                continue
            alone = [_psi_bits(_psi_alone(a, c, x)) for x in xs]
            order = rng.permutation(len(xs))
            back = [None] * len(xs)
            for i, got in zip(order, kernel.pair_psi(a, c, [xs[i] for i in order])):
                back[i] = _psi_bits(got)
            steps.clear()
            assert [_psi_bits(got) for got in kernel.pair_psi(a, c, xs)] == alone, (a, c, xs)
            assert back == alone, (a, c, xs, order)
            if any(len(bits) > 2 for bits in alone):
                assert [h for h, _ in steps] == [
                    kernel._STEP / 2 ** k for k in range(len(steps))], (a, c, xs)
            alone_bits += alone
        messages = " ".join(bits[1] for bits in alone_bits if len(bits) == 2)
        for part in ("a is subnormal", "reach beyond the double range",
                     "c=1e+306, x=1.0) exceeds the double range",
                     "exponents of psi(a=0.5, c=-5e+307, x=1.0) leave the double range"):
            assert part in messages, part
        assert any(bits[3] == ("tolerance_not_met",) for bits in alone_bits if len(bits) > 2)


class TestPsiConnection:
    def test_a_zero_exact(self):
        fv = psi_connection(0.0, -0.5, 3.0)
        assert fv.value == 1.0 and fv.abs_error == 0.0

    def test_negative_integer_a_closed_form(self):
        # psi(-1, c, x) = x - c
        fv = psi_connection(-1.0, -0.5, 4.0)
        assert fv.value == pytest.approx(4.5, rel=1e-14)

    def test_negative_integer_a_degree_two(self):
        # psi(-2, c, x) = x^2 - 2(c+1)x + c(c+1)
        c, x = -1.5, 5.0
        expected = x * x - 2.0 * (c + 1.0) * x + c * (c + 1.0)
        fv = psi_connection(-2.0, c, x)
        assert fv.value == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("a,c,x", [
        (-2.0, -3.0, 32.02),   # the series of M(-2, -3, z) meets 0/0 past degree 2
        (-1.0, 0.0, 6.32),     # psi(-1, 0, x) = x, where (c)_m M(-m, c, x) is 0 * inf
        (-3.0, -2.0, 0.0409),
    ])
    def test_negative_integer_a_any_c(self, a, c, x):
        fv = psi_connection(a, c, x)
        assert abs(fv.value - hyperu40(a, c, x)) <= fv.abs_error

    @pytest.mark.parametrize("a,c,x", [
        (2.0, -1.9999, 1.0),
        (-0.5, -1.9999, 1.0),
    ])
    def test_budget_covers_gamma_argument_rounding(self, a, c, x):
        # c - 1 sits 1e-4 from the pole of Gamma at -3, so its rounding moves
        # Gamma(c-1) by ~1e-12 relative before the two terms cancel
        fv = psi_connection(a, c, x)
        assert abs(fv.value - hyperu40(a, c, x)) <= fv.abs_error

    def test_cross_method_spec_point(self):
        q = psi_quadrature(ParameterPoint(1.0, 1.5, 4.0))
        k = psi_connection(1.0, 1.5, 4.0)
        assert abs(q.value - k.value) <= q.abs_error + k.abs_error

    def test_integer_c_guard(self):
        with pytest.raises(EvaluationError):
            psi_connection(1.5, 2.0, 1.0)
        with pytest.raises(EvaluationError):
            psi_connection(1.5, -1.0 + 1e-9, 1.0)

    def test_cancellation_flag_at_large_x(self):
        fv = psi_connection(2.0, -2.5, 30.0)
        assert "cancellation" in fv.flags
        # the estimate must own up to the cancellation loss
        assert fv.abs_error > 1e-10 * abs(fv.value)

    def test_oracle_sample(self):
        # a uniform in [-4, 6] off the integers, c uniform in [-5, 2] at
        # least 1e-3 from an integer, x log-uniform in [1e-2, 600]; plus a
        # point where the two Kummer series reach 1e130 and cancel to 1678
        rng = np.random.default_rng(20261019)
        points = [(-1.3, -2.7, 300.0)]
        while len(points) < 301:
            a = float(rng.uniform(-4.0, 6.0))
            c = float(rng.uniform(-5.0, 2.0))
            x = float(math.exp(rng.uniform(math.log(1e-2), math.log(600.0))))
            if a != math.floor(a) and abs(c - round(c)) >= 1e-3:
                points.append((a, c, x))
        for a, c, x in points:
            fv = psi_connection(a, c, x)
            assert abs(fv.value - hyperu40(a, c, x)) <= fv.abs_error, (a, c, x)


class TestPsiAsymptotic:
    def test_exact_when_series_terminates(self):
        # a=1, c=2 makes every correction coefficient vanish: psi = 1/x
        fv = _asymptotic_auto(1.0, 2.0, 100.0)
        assert fv.value == pytest.approx(0.01, rel=1e-15)

    def test_remainder_brackets_truth(self):
        fv = _asymptotic_auto(1.0, 1.0, 100.0)
        assert abs(fv.value - hyperu40(1.0, 1.0, 100.0)) <= fv.abs_error


class TestPsiDispatcher:
    def test_quadrature_region(self):
        fv = psi(ParameterPoint(1.0, 2.0, 2.0))
        assert fv.value == pytest.approx(0.5, rel=1e-11)
        assert fv.method == "quadrature"

    def test_a_zero(self):
        fv = psi(ParameterPoint(0.0, -1.0, 7.0))
        assert fv.value == 1.0

    def test_small_x_gamma_limit(self):
        # Gamma(1-c)/Gamma(a-c+1) = Gamma(3)/Gamma(5) = 1/12 at (2, -2)
        fv = psi(ParameterPoint(2.0, -2.0, 0.001))
        assert abs(fv.value - 1.0 / 12.0) < 2e-4

    def test_negative_a_moderate_x(self):
        fv = psi(ParameterPoint(-1.25, 0.75, 0.5))
        assert fv.value == pytest.approx(PSI_REFS[(-1.25, 0.75, 0.5)], rel=1e-11)

    def test_negative_a_large_x_uses_asymptotics(self):
        fv = psi(ParameterPoint(-0.75, -5.5, 200.0))
        assert fv.value == pytest.approx(PSI_REFS[(-0.75, -5.5, 200.0)], rel=1e-11)
        assert fv.method == "asymptotic_large_x"

    def test_huge_x_takes_quadrature(self):
        # x past large_x(0.25, 0.5) = 153, where psi ~ x^-a
        fv = psi(ParameterPoint(0.25, 0.5, 500.0))
        assert fv.method == "quadrature"
        assert fv.value == pytest.approx(500.0 ** -0.25, rel=1e-3)

    def test_asymptotic_underflow_raises(self):
        # psi(200, 0.5, 1e7) ~ 1e7^-200 = 1e-1400, at large x, where the
        # quadrature route serves a > 0 as everywhere
        with pytest.raises(EvaluationError, match="underflows"):
            psi(ParameterPoint(200.0, 0.5, 1e7))

    def test_negative_a_matches_eager_pick(self):
        # psi tries the expansion first and sums the connection series only
        # when it can win; the result must equal summing both and taking
        # the smaller budget, bit for bit.
        def eager(a, c, x):
            candidates = []
            if x <= kernel._CONNECTION_X_MAX:
                try:
                    candidates.append(psi_connection(a, c, x))
                except EvaluationError:
                    pass
            candidates.append(kernel._asymptotic_auto(a, c, x))
            return min(candidates, key=lambda fv: fv.abs_error)

        rng = np.random.default_rng(20261018)
        n = 0
        while n < 2000:
            a = float(rng.uniform(-4.0, 0.0))
            c = float(rng.uniform(-5.0, 2.0))
            x = float(math.exp(rng.uniform(0.0, math.log(600.0))))
            if a == math.floor(a) or abs(c - round(c)) < 1e-3 or x <= 1.0:
                continue
            n += 1
            assert psi(ParameterPoint(a, c, x)) == eager(a, c, x), (a, c, x)

    def test_expansion_at_rounding_floor_skips_connection(self, monkeypatch):
        def summed(*args, **kwargs):
            raise AssertionError("connection series summed")

        monkeypatch.setattr(kernel, "psi_connection", summed)
        fv = psi(ParameterPoint(-1.3, -2.7, 300.0))
        assert fv.method == "asymptotic_large_x"
        assert fv.abs_error <= 2.0 * kernel.EPS * abs(fv.value)

    def test_positivity_on_random_samples(self):
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            a = float(rng.uniform(0.05, 6.0))
            c = float(rng.uniform(-6.0, 0.99))
            x = float(10.0 ** rng.uniform(-3, 2.3))
            assert psi(ParameterPoint(a, c, x)).value > 0.0


class TestDoubleRange:
    """psi beyond the largest double raises a typed error on every route."""

    @pytest.mark.parametrize("a,c,x,route", [
        (0.5, 3.0, 1e-200, "quadrature scale"),
        (0.5, 3.0, 5e-155, "quadrature scale times sum"),
        (-0.5, 2.5, 1e-250, "connection series, x^(1-c)"),
        (-60.5, 0.5, 1e6, "expansion, x^-a")])
    def test_exceeds_the_double_range(self, a, c, x, route):
        with pytest.raises(DoubleRangeError) as exc:
            psi(ParameterPoint(a, c, x))
        assert str(exc.value) == f"psi(a={a}, c={c}, x={x}) exceeds the double range"

    def test_near_the_top_of_the_range_still_delivers(self):
        # psi(-0.5, 2.5, x) ~ Gamma(1.5)/Gamma(-0.5) x^-1.5 = -7.9e300 here
        fv = psi(ParameterPoint(-0.5, 2.5, 1e-201))
        assert abs(fv.value - hyperu40(-0.5, 2.5, 1e-201)) <= fv.abs_error

    def test_connection_overflow_where_the_terms_cancel_is_a_route_failure(self):
        # x^(1-c) = 200^151.5 overflows, but its factor Gamma(c-1)/Gamma(a)
        # is about 1e-266: the series fails as a route, and psi(-0.5, -150.5,
        # 200), about 18.7, comes from the expansion
        with pytest.raises(EvaluationError) as exc:
            psi_connection(-0.5, -150.5, 200.0)
        assert type(exc.value) is EvaluationError
        assert psi(ParameterPoint(-0.5, -150.5, 200.0)).method == "asymptotic_large_x"

    def test_gamma_quotient_beyond_the_double_range_is_a_route_failure(self):
        # B = Gamma(c-1)/Gamma(a) is about 1e377: the series fails as a
        # route with a typed error, and x < 1 leaves psi no other route
        a, c, x = -37.30799822046213, 184.17402383913083, 6.851833336446353e-67
        with pytest.raises(EvaluationError) as exc:
            psi_connection(a, c, x)
        assert str(exc.value) == (f"Gamma({c - 1.0})/Gamma({a}) "
                                  "is outside the double range")
        with pytest.raises(EvaluationError, match="no usable evaluation route"):
            psi(ParameterPoint(a, c, x))

    @pytest.mark.parametrize("a,x", [(-3.0, 1e103), (-200.0, 1e3)])
    def test_terminating_series_overflow(self, a, x):
        with pytest.raises(EvaluationError) as exc:
            psi(ParameterPoint(a, 0.5, x))
        assert "terminating series overflows the double range" in str(exc.value)


class TestErrorBranches:
    """Typed errors of branches that no other test reaches, each with its
    message."""

    @pytest.mark.parametrize("call,message", [
        # lnGamma(a) overflows in _beyond_gamma_floor, so the nodes' exponents
        # are refused as leaving the double range, not shown beyond it
        (lambda: psi(ParameterPoint(1e306, 2e306, 1.0)),
         "the trapezoid exponents of psi(a=1e+306, c=2e+306, x=1.0) leave the double range"),
        (lambda: psi(ParameterPoint(2.0, 3.0, 7.458340731200295e-155)),
         "psi(a=2.0, c=3.0, x=7.458340731200295e-155) has no finite value and budget "
         "on the trapezoid route"),
        # each term of M(1, c, x) at x just below c is the last times about
        # 1 - (n + 100)/1e9: 10,000 terms leave the sum far from settled
        (lambda: _m_series(1.0, 1e9 + 0.5, 999999900.0, 1e-15),
         "Kummer series did not converge within 10000 terms "
         "(a=1.0, c=1000000000.5, x=999999900.0)"),
        # through the connection formula a Gamma quotient leaves the range first
        (lambda: psi_connection(1.0, 1e9 + 0.5, 999999900.0),
         "Gamma(999999999.5)/Gamma(1.0) is outside the double range"),
        (lambda: psi_connection(-0.5, -150.5, 200.0),
         "connection formula overflow at a=-0.5, c=-150.5, x=200.0")],
        ids=["exponents", "settled", "m_series_terms", "connection_gamma",
             "connection_overflow"])
    def test_raises_its_typed_error(self, call, message):
        with pytest.raises(EvaluationError) as exc:
            call()
        assert type(exc.value) is EvaluationError
        assert str(exc.value) == message


# each finite extreme: a from +1e308 to -1e308 (-1e20 and -1e308 are
# integers, so psi takes the terminating polynomial there) and a = 1e-300
# and 1e-190, where a x underflows, c = +-1e308, +-1e20 and +-0.5, x from
# 1e-300 to 1e300: 180 points
EXTREME_POINTS = [(a, c, x)
                  for a in (1e308, 1e200, 1e20, 0.5, 1e-190, 1e-300, -0.5, -1e6 - 0.5,
                            -1e20, -1e308)
                  for c in (1e308, -1e308, 1e20, -1e20, 0.5, -0.5)
                  for x in (1e-300, 1.0, 1e300)]


def _fuzz_points(n=1000, seed=1075_33):
    """n seeded triples: |a| log-uniform in [5e-324, 1e3], a fifth of them
    subnormal, c log-uniform in +-[1e-3, 1e4], x log-uniform in [1e-300,
    1e300], signs at random."""
    rng = np.random.default_rng(seed)

    def log_uniform(lo, hi):
        return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))

    points = []
    for i in range(n):
        a = log_uniform(5e-324, kernel._TINY) if i % 5 == 0 else log_uniform(kernel._TINY, 1e3)
        c = log_uniform(1e-3, 1e4)
        points.append((a * float(rng.choice([-1.0, 1.0])), c * float(rng.choice([-1.0, 1.0])),
                       log_uniform(1e-300, 1e300)))
    return points


def _sweep_pair(rng, lo, hi, most):
    """A pair of the extreme sweep: a = 10^U(lo, hi), c = +-10^U(-3, 308)
    and 2 to ``most`` distinct x = 10^U(-300, 300)."""
    a = 10 ** rng.uniform(lo, hi)
    c = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-3, 308)
    n, xs = rng.randint(2, most), []
    while len(xs) < n:
        x = 10 ** rng.uniform(-300, 300)
        if x not in xs:
            xs.append(x)
    return a, c, xs


def _overflow_pairs():
    """The ten pairs, a from 1.7e302 to 5.5e304, of the sweep's 3,000 from
    random.Random(45) with a = 10^U(-300, 308) where the rounding sum of a
    pass overflowed, and 200 seeded pairs with a = 10^U(296, 306) and 2 to
    6 x, 25 of them with such a pass."""
    rng = random.Random(45)
    pairs = [_sweep_pair(rng, -300, 308, 14) for _ in range(3000)]
    cases = [pairs[i] for i in (455, 522, 893, 1019, 1422, 1443, 2201, 2264, 2422, 2787)]
    rng = random.Random(1409_45)
    return cases + [_sweep_pair(rng, 296, 306, 6) for _ in range(200)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (EvaluationError, RegionError) as exc:
        return exc


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def untyped_or_infinite(fn, points):
    """The points where fn(ParameterPoint(a, c, x)) raises an error other
    than EvaluationError and RegionError, takes over 2 s or returns a value
    or budget that is not finite (psi_quotients' tuple: any of them)."""
    old = signal.signal(signal.SIGALRM, _alarm)
    bad = []
    try:
        for a, c, x in points:
            signal.setitimer(signal.ITIMER_REAL, 2.0)
            try:
                got = fn(ParameterPoint(a, c, x))
            except (EvaluationError, RegionError):
                continue
            except Exception as exc:    # any other type is a failure
                bad.append((a, c, x, repr(exc)))
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            fv, *quotients = got if type(got) is tuple else (got,)
            if not all(math.isfinite(v) and math.isfinite(e)
                       for v, e in [fv[:2], *quotients]):
                bad.append((a, c, x, got))
    finally:
        signal.signal(signal.SIGALRM, old)
    return bad


class TestExtremeParameters:
    @pytest.mark.parametrize("fn", [psi, kernel.psi_quotients], ids=["psi", "psi_quotients"])
    def test_typed_error_or_finite_value_within_2s(self, fn):
        # each call used to raise an untyped OverflowError (from math.lgamma,
        # math.ceil(inf) in _left_nodes or the trapezoid's node count), run
        # on for ever (the terminating polynomial at a = -1e20) or return a
        # NaN or infinite budget
        assert untyped_or_infinite(fn, EXTREME_POINTS) == []

    @pytest.mark.parametrize("fn", [psi, kernel.psi_quotients,
                                    lambda p: turanian_ratio(SECOND, p)],
                             ids=["psi", "psi_quotients", "ratio-second"])
    def test_seeded_fuzz_typed_error_or_finite_value_within_2s(self, fn):
        # subnormal a used to end in a ZeroDivisionError, a false
        # DoubleRangeError or a NaN budget
        assert untyped_or_infinite(fn, _fuzz_points()) == []

    @pytest.mark.parametrize("a,c,x", [
        (5e-324, 3.5, 1e-5), (1e-318, 3.5, 1e-5), (1e-312, 0.5, 1.0),
        (-4.9933301694917e-311, 0.5261279034598146, 9.919739284624609e-89)])
    def test_subnormal_a_raises(self, a, c, x):
        # these gave a ZeroDivisionError, a value 6.6e6 times outside its
        # budget, a false DoubleRangeError and a NaN budget
        for fn in (psi, kernel.psi_quotients):
            with pytest.raises(EvaluationError, match="a is subnormal") as exc:
                fn(ParameterPoint(a, c, x))
            assert type(exc.value) is EvaluationError

    @pytest.mark.parametrize("c", [1e305, 3e305, 1e306])
    @pytest.mark.parametrize("a", [0.5, 5.0])
    def test_huge_c_is_beyond_the_double_range(self, a, c):
        # psi >= Gamma(c-1) / Gamma(a) at x = 1 lies beyond the double
        # range.  At c = 3e305 and 1e306 the nodes' exponents pw
        # log1p(e^w/x) overflowed in the pass: an untyped RuntimeWarning
        # under the test settings, "has no finite value and budget" without
        # them; they now raise before it
        for fn in (psi, kernel.psi_quotients):
            with pytest.raises(DoubleRangeError, match="exceeds the double range"):
                fn(ParameterPoint(a, c, 1.0))

    def test_node_exponents_beyond_the_double_range_raise(self):
        # psi(0.5, -5e307, 1) is about |c|^-a, a double, but not the
        # exponents pw log1p(e^w/x) of its nodes: an EvaluationError, not a
        # DoubleRangeError.  At x = 10 they are doubles and psi delivers
        for fn in (psi, kernel.psi_quotients):
            with pytest.raises(EvaluationError, match="exponents of psi") as exc:
                fn(ParameterPoint(0.5, -5e307, 1.0))
            assert type(exc.value) is EvaluationError
        fv = psi(ParameterPoint(0.5, -5e307, 10.0))
        assert fv.value == pytest.approx(5e307 ** -0.5, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_each_x_fails_alone_where_a_pass_sum_overflows(self):
        # in 35 of these pairs the rounding sum of a pass at some x
        # overflows; as a numpy RuntimeWarning made an error, it stopped
        # the pass of every x of the pair, and psi at that x.  Each x raises
        # its own typed error, as it does read alone, and psi fails there
        # as its record does
        failed = 0
        for a, c, xs in _overflow_pairs():
            for x, got in zip(xs, kernel.pair_quotients(a, c, xs)):
                alone = kernel.pair_quotients(a, c, (x,))[0]
                value = _outcome(psi, ParameterPoint(a, c, x))
                if isinstance(got, Exception):
                    assert isinstance(got, (EvaluationError, RegionError)), (a, c, x, got)
                    assert (type(alone), str(alone)) == (type(got), str(got)), (a, c, x)
                    assert type(value) is type(got), (a, c, x)
                    failed += 1
                else:
                    assert alone == got and value == got[0], (a, c, x)
        assert failed > 800
        with pytest.raises(EvaluationError, match="underflows"):
            psi(ParameterPoint(1.7133185347424188e+302, -1.2360138296703366e+75,
                               4.189046206866047e+113))

    def test_a_budget_that_is_not_finite_ends_the_passes(self, monkeypatch):
        # the first pass's relative budget here is not finite, and no
        # halving mends it: psi and its record end after that pass, where
        # they ran all five, and raise as they did
        passes = []
        trapezoid = kernel._trapezoid
        monkeypatch.setattr(kernel, "_trapezoid", lambda a, pw, h, points: passes.append(h)
                            or trapezoid(a, pw, h, points))
        p = ParameterPoint(1.7133185347424188e+302, -1.2360138296703366e+75,
                           4.189046206866047e+113)
        for fn in (psi, kernel.psi_quotients):
            passes.clear()
            with pytest.raises(EvaluationError, match=r"underflows the double range "
                                                      r"\(got 0\.0\)$") as exc:
                fn(p)
            assert type(exc.value) is EvaluationError
            assert passes == [2.0 ** -3]

    def test_terminating_polynomial_keeps_its_values(self):
        # the running products stop at a zero factor (c a nonpositive
        # integer) or at the end of the double range; the values stand
        for m in range(1, 9):
            for c in (-3.0, -0.5, 2.5):
                for x in (0.5, 3.0):
                    fv = psi(ParameterPoint(-float(m), c, x))
                    assert abs(fv.value - hyperu40(-float(m), c, x)) <= fv.abs_error


def _psi_points_sample(n=3000, seed=1409):
    """n seeded (a, c, x) drawn as the psi-points benchmark draws them: a
    uniform in [-4, 6], 10% from the integers -3..0; c uniform in [-5, 2],
    10% from the integers -5..2; x log-uniform in [1e-2, 1e3]."""
    rng = random.Random(f"psi-bits:{seed}")
    lo, hi = math.log(1e-2), math.log(1e3)
    points = []
    for _ in range(n):
        a = float(rng.randint(-3, 0)) if rng.random() < 0.1 else rng.uniform(-4.0, 6.0)
        c = float(rng.randint(-5, 2)) if rng.random() < 0.1 else rng.uniform(-5.0, 2.0)
        points.append((a, c, math.exp(rng.uniform(lo, hi))))
    return points


def _record_pairs(n=200, seed=1409):
    """n seeded (a, c, xs) with 1 to 6 x each: every other pair drawn as
    ``_psi_points_sample`` draws its points, the rest as ``_pair_cases``
    draws its seeded pairs, a log-uniform in [1e-8, 60], c uniform in
    [-300, 60] and x log-uniform in [1e-6, 1e5]."""
    rng = random.Random(f"record-bits:{seed}")
    lo, hi = math.log(1e-2), math.log(1e3)
    pairs = []
    for i in range(n):
        if i % 2:
            a = float(rng.randint(-3, 0)) if rng.random() < 0.1 else rng.uniform(-4.0, 6.0)
            c = float(rng.randint(-5, 2)) if rng.random() < 0.1 else rng.uniform(-5.0, 2.0)
            xs = [math.exp(rng.uniform(lo, hi)) for _ in range(rng.randint(1, 6))]
        else:
            a = math.exp(rng.uniform(math.log(1e-8), math.log(60.0)))
            c = rng.uniform(-300.0, 60.0)
            xs = [10.0 ** rng.uniform(-6.0, 5.0) for _ in range(rng.randint(1, 6))]
        pairs.append((a, c, xs))
    return pairs


def _digest(results):
    """sha256 of each result as its bits: a FunctionValue's value and
    budget in hex, method and flags, a record's quotients in hex too, an
    exception's type name and message."""
    digest = hashlib.sha256()
    for got in results:
        if isinstance(got, Exception):
            bits = (type(got).__name__, str(got))
        else:
            f0, *quotients = got if type(got) is tuple else (got,)
            bits = (f0.value.hex(), f0.abs_error.hex(), f0.method, f0.flags,
                    *(v.hex() for q in quotients for v in q))
        digest.update(repr(bits).encode())
    return digest.hexdigest()


class TestPinnedBits:
    """Every bit of psi and of the records, pinned: a change that makes
    either cheaper must leave each value, budget, method, flag and error
    message as it is."""

    def test_psi_on_every_route(self):
        points = _psi_points_sample() + EXTREME_POINTS
        results, routes = [], Counter()
        for a, c, x in points:
            try:
                fv = psi(ParameterPoint(a, c, x))
            except Exception as exc:    # the type and message are pinned
                results.append(exc)
                routes[type(exc).__name__] += 1
                continue
            results.append(fv)
            route = fv.method
            if a < 0.0 and a == math.floor(a):
                route = "terminating"
            elif a < 0.0 and x > 1.0:
                route += " at the a < 0 pick"
            routes[route] += 1
        assert {"quadrature", "connection_series", "terminating",
                "asymptotic_large_x at the a < 0 pick", "connection_series at the a < 0 pick",
                "EvaluationError", "DoubleRangeError"} <= set(routes), routes
        assert _digest(results) == (
            "5c2044ff9359152b5bfa2b254651db2278257c8acbca60f1a3d756c972c8316b")

    def test_records_of_pairs(self):
        results = [got for a, c, xs in _record_pairs() for got in kernel.pair_quotients(a, c, xs)]
        kinds = {(got[0].method, got[0].flags) for got in results if type(got) is tuple}
        assert {("quadrature", ()), ("quadrature", ("tolerance_not_met",)),
                ("connection_series", ()), ("asymptotic_large_x", ())} <= kinds
        assert any(isinstance(got, Exception) for got in results)
        assert _digest(results) == (
            "1be624182b29601ba86583c559ba794620cca782701dd0cc1c5bdbb9fcfbceb9")


class TestKernelInvariants:
    def test_ode_residual_sample(self):
        # x f'' + (c-x) f' - a f = 0 under central differences, h = 1e-4 x
        for (a, c, x) in ((1.5, -0.5, 1.0), (3.0, 0.25, 5.0), (0.5, -4.5, 0.5)):
            h = 1e-4 * x
            f = [psi_quadrature(ParameterPoint(a, c, xx)).value
                 for xx in (x - h, x, x + h)]
            d1 = (f[2] - f[0]) / (2.0 * h)
            d2 = (f[2] - 2.0 * f[1] + f[0]) / (h * h)
            resid = x * d2 + (c - x) * d1 - a * f[1]
            scale = abs(x * d2) + abs((c - x) * d1) + abs(a * f[1])
            assert abs(resid) <= 1e-4 * scale

    def test_derivative_identity_sample(self):
        # d/dx psi(a,c,x) = -a psi(a+1, c+1, x)
        for (a, c, x) in ((2.0, -2.5, 1.0), (0.5, 0.25, 2.0)):
            h = 1e-4 * max(x, 0.1)
            fp = psi_quadrature(ParameterPoint(a, c, x + h)).value
            fm = psi_quadrature(ParameterPoint(a, c, x - h)).value
            fd = (fp - fm) / (2.0 * h)
            target = -a * psi(ParameterPoint(a + 1.0, c + 1.0, x)).value
            assert abs(fd - target) <= 1e-6 * abs(target) + 1e-9

    def test_small_x_monotone_convergence(self):
        # psi(a,c,x) -> Gamma(1-c)/Gamma(a-c+1), deviations shrinking
        a, c = 1.5, -0.5
        with mpmath.workdps(40):
            limit = float(mpmath.exp(mpmath.loggamma(1.0 - c)
                                     - mpmath.loggamma(a - c + 1.0)))
        devs = [abs(psi_quadrature(ParameterPoint(a, c, x)).value - limit)
                for x in (1e-2, 1e-4, 1e-6)]
        assert devs[0] > devs[1] > devs[2]

    def test_asymptotic_consistency_scaled_difference_bounded(self):
        # (psi - x^-a (1 + alpha1/x)) x^2 / x^-a -> alpha2 as x grows, with
        # alpha1 = a(c-a-1) and alpha2 = a(a+1)(a+1-c)(a+2-c)/2
        a, c = 1.0, -1.5
        alpha1 = a * (c - a - 1.0)
        alpha2 = 0.5 * a * (a + 1.0) * (a + 1.0 - c) * (a + 2.0 - c)
        devs = []
        for x in (1e2, 1e3, 1e4):
            v = psi_quadrature(ParameterPoint(a, c, x)).value
            scaled = (v / x ** (-a) - 1.0 - alpha1 / x) * x * x
            devs.append(abs(scaled - alpha2))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-2 * alpha2

    def test_cross_method_agreement_grid(self):
        # subset here; the acceptance suite runs the full >= 200-point grid
        for a in (0.5, 2.0):
            for c in (-2.5, 0.25):
                for x in (0.05, 0.5, 2.0):
                    q = psi_quadrature(ParameterPoint(a, c, x))
                    k = psi_connection(a, c, x)
                    assert abs(q.value - k.value) <= max(
                        1e-8 * abs(q.value), q.abs_error + k.abs_error)

"""Kernel tests: each evaluation route against independent oracles.

Oracles used here:
  * closed forms   psi(a, a+1, x) = x^-a,  psi(0, c, x) = 1,
                   psi(-1, c, x) = x - c,  M(a, a, x) = e^x,
                   M(1, 2, x) = (e^x - 1)/x,  M(-1, c, x) = 1 - x/c
  * error-function forms via math.erf/erfc:
                   psi(1/2, 1/2, x) = sqrt(pi) e^x erfc(sqrt(x))
  * upper incomplete gamma via scipy.special.gammaincc:
                   psi(1, b, x) = e^x x^(1-b) Gamma(b-1, x)
  * frozen 50-digit reference values for generic parameter points
  * cross-method agreement between the quadrature and connection routes
  * mpmath.hyperu at 40 digits, as |value - ref| <= abs_error.
"""

import math

import numpy as np
import pytest
from scipy.special import gammaincc, gammaln

from tricomi_turan import kernel
from tricomi_turan.kernel import (EvaluationError, ParameterPoint,
                                  RegionError, _asymptotic_auto, _m_series,
                                  asymptotic_threshold, log_gamma, psi,
                                  psi_connection, psi_quadrature)

SQRT_PI = math.sqrt(math.pi)

# 50-digit reference values for spot checks at generic parameters
PSI_REFS = {
    (2.0, -2.5, 3.0): 0.017158595638471754438,
    (0.5, 0.25, 0.7): 0.79019337644482946054,
    (2.5, -1.5, 1.25): 0.017911335158752790552,
    (-0.75, -5.5, 200.0): 54.324954886873698567,
    (-1.25, 0.75, 0.5): -0.63067231144028590727,
}


def hyperu40(a, c, x):
    """U(a, c, x) by mpmath at 40 digits; the float arguments enter exactly."""
    import mpmath
    with mpmath.workdps(40):
        return float(mpmath.hyperu(mpmath.mpf(a), mpmath.mpf(c), mpmath.mpf(x)))


def m_series(a, c, x):
    return _m_series(a, c, x, 1e-15)


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


class TestKummerM:
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
        expected = math.exp(x + (1.0 - b) * math.log(x)
                            + gammaln(b - 1.0)) * gammaincc(b - 1.0, x)
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
        # the prefactor alone rounds by more than 1e-16 relative
        fv = psi_quadrature(ParameterPoint(2.0, -2.5, 3.0), 1e-16)
        assert fv.flags == ("tolerance_not_met",)
        assert abs(fv.value - PSI_REFS[(2.0, -2.5, 3.0)]) <= fv.abs_error

    def test_oracle_sample(self):
        # a log-uniform in [1e-8, 1e-3] (the endpoint factor s^(a-1) is at
        # its sharpest), uniform in [1e-3, 6], and a = 20, 30; c uniform in
        # [-5, 2]; x log-uniform in [1e-2, asymptotic_threshold]
        rng = np.random.default_rng(20261018)
        a_values = ([float(10.0 ** rng.uniform(-8, -3)) for _ in range(40)]
                    + [float(rng.uniform(1e-3, 6.0)) for _ in range(100)]
                    + [20.0, 30.0] * 5)
        for a in a_values:
            c = float(rng.uniform(-5.0, 2.0))
            x = float(math.exp(rng.uniform(math.log(1e-2),
                                           math.log(asymptotic_threshold(a, c)))))
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
        ref = psi_quadrature(ParameterPoint(1.0, 1.0, 100.0), 1e-13)
        assert abs(fv.value - ref.value) <= fv.abs_error + ref.abs_error


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

    def test_huge_x_dispatches_to_asymptotics(self):
        fv = psi(ParameterPoint(0.25, 0.5, 500.0))  # threshold 50*(1.75)^2 = 153
        assert fv.method == "asymptotic_large_x"
        assert fv.value == pytest.approx(500.0 ** -0.25, rel=1e-3)

    def test_asymptotic_underflow_raises(self):
        # psi(200, 0.5, 1e7) ~ 1e7^-200 = 1e-1400, beyond asymptotic_threshold
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

        kernel._psi_cached.cache_clear()
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


class TestKernelInvariants:
    def test_ode_residual_sample(self):
        # x f'' + (c-x) f' - a f = 0 under central differences, h = 1e-4 x
        for (a, c, x) in ((1.5, -0.5, 1.0), (3.0, 0.25, 5.0), (0.5, -4.5, 0.5)):
            h = 1e-4 * x
            f = [psi_quadrature(ParameterPoint(a, c, xx), 1e-13).value
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
            fp = psi_quadrature(ParameterPoint(a, c, x + h), 1e-13).value
            fm = psi_quadrature(ParameterPoint(a, c, x - h), 1e-13).value
            fd = (fp - fm) / (2.0 * h)
            target = -a * psi(ParameterPoint(a + 1.0, c + 1.0, x)).value
            assert abs(fd - target) <= 1e-6 * abs(target) + 1e-9

    def test_small_x_monotone_convergence(self):
        # psi(a,c,x) -> Gamma(1-c)/Gamma(a-c+1), deviations shrinking
        a, c = 1.5, -0.5
        limit = math.exp(gammaln(1.0 - c) - gammaln(a - c + 1.0))
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
            v = psi_quadrature(ParameterPoint(a, c, x), 1e-13).value
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

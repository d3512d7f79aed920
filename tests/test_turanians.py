"""Turanian values, normalized ratios, and their limit constants."""

import math

import pytest

from tricomi_turan.kernel import ParameterPoint, RegionError
from tricomi_turan.turanians import (Direction, Normalization, SharpnessLimit,
                                     TuranianKind, sharpness_scan, turanian,
                                     turanian_ratio)

BOTH = TuranianKind.BOTH_SHIFT
FIRST = TuranianKind.FIRST_SHIFT
SECOND = TuranianKind.SECOND_SHIFT


class TestTuranian:
    def test_closed_form_zero(self):
        # psi(1,2,2) = 1/2, psi(0,1,2) = 1, psi(2,3,2) = 1/4: difference is 0
        fv = turanian(BOTH, ParameterPoint(1.0, 2.0, 2.0))
        assert abs(fv.value) <= max(fv.abs_error, 1e-12)

    def test_both_shift_negative(self):
        fv = turanian(BOTH, ParameterPoint(1.0, 0.5, 1.0))
        assert fv.value < 0.0 and abs(fv.value) > fv.abs_error

    def test_first_shift_positive(self):
        fv = turanian(FIRST, ParameterPoint(2.0, 0.5, 1.0))
        assert fv.value > fv.abs_error

    def test_second_shift_negative(self):
        fv = turanian(SECOND, ParameterPoint(2.0, 0.5, 1.0))
        assert fv.value < 0.0 and abs(fv.value) > fv.abs_error

    def test_sign_pattern_on_samples(self):
        import numpy as np
        rng = np.random.default_rng(7)
        for _ in range(60):
            a = float(rng.uniform(0.1, 5.0))
            c = float(rng.uniform(-5.0, 0.9))
            x = float(10.0 ** rng.uniform(-2, 2))
            p = ParameterPoint(a, c, x)
            assert turanian(BOTH, p).value < 0.0
            assert turanian(FIRST, p).value > 0.0
            assert turanian(SECOND, p).value < 0.0

    def test_matches_ratio_times_psi_squared(self):
        from tricomi_turan.kernel import psi
        p = ParameterPoint(2.0, -2.5, 1.5)
        direct = turanian(BOTH, p)
        via_ratio = turanian_ratio(BOTH, p)
        ps = psi(p).value
        recon = via_ratio.value * ps * ps
        assert abs(direct.value - recon) <= direct.abs_error + \
            via_ratio.abs_error * ps * ps

    # 1 - U(a-da,c-dc,x) U(a+da,c+dc,x) / U(a,c,x)^2 with mpmath.hyperu at 40
    # digits, at (50, -0.5, 100), where psi = 1.2e-108 and psi^3 underflows
    @pytest.mark.parametrize("kind,ref", [
        (BOTH, -0.001567315242275835017611163),
        (FIRST, 0.008351014454130273022541844),
        (SECOND, -0.001521665283762946619039964),
    ])
    def test_ratio_where_psi_cubed_underflows(self, kind, ref):
        fv = turanian_ratio(kind, ParameterPoint(50.0, -0.5, 100.0))
        assert abs(fv.value - ref) <= fv.abs_error <= 1e-8 * abs(ref)


class TestRatioLimits:
    def test_both_shift_small_x(self):
        # ratio -> 1/c as x -> 0 for a > 0 > c
        fv = turanian_ratio(BOTH, ParameterPoint(2.0, -2.0, 1e-6))
        assert fv.value == pytest.approx(-0.5, abs=1e-4)

    def test_first_shift_small_x(self):
        # ratio -> 1/(1+a-c); here 1/4
        fv = turanian_ratio(FIRST, ParameterPoint(2.0, -1.0, 1e-6))
        assert fv.value == pytest.approx(0.25, abs=1e-4)

    def test_second_shift_small_x(self):
        # ratio -> a/(c(1+a-c)); here 2/(-2*5) = -0.2
        fv = turanian_ratio(SECOND, ParameterPoint(2.0, -2.0, 1e-6))
        assert fv.value == pytest.approx(-0.2, abs=1e-4)

    def test_zeta_large_x(self):
        # x^2 * ratio -> c - a - 1
        p = ParameterPoint(1.0, 0.0, 1000.0)
        fv = turanian_ratio(BOTH, p)
        assert p.x * p.x * fv.value == pytest.approx(-2.0, abs=0.05)


class TestSharpnessLimit:
    def test_zeta_closed_form(self):
        lim = SharpnessLimit.closed_form(BOTH, Direction.X_TO_INFINITY,
                                         Normalization.RATIO_TIMES_X2, 1.0, 0.0)
        assert lim.limit_value == -2.0

    def test_zero_limits_closed_forms(self):
        a, c = 2.0, -2.0
        lim = SharpnessLimit.closed_form(BOTH, Direction.X_TO_ZERO,
                                         Normalization.RATIO, a, c)
        assert lim.limit_value == pytest.approx(1.0 / c)
        lim = SharpnessLimit.closed_form(FIRST, Direction.X_TO_ZERO,
                                         Normalization.RATIO, a, c)
        assert lim.limit_value == pytest.approx(0.2)
        lim = SharpnessLimit.closed_form(SECOND, Direction.X_TO_ZERO,
                                         Normalization.RATIO, a, c)
        assert lim.limit_value == pytest.approx(-0.2)

    def test_plain_ratio_vanishes_at_infinity(self):
        lim = SharpnessLimit.closed_form(SECOND, Direction.X_TO_INFINITY,
                                         Normalization.RATIO, 2.0, -2.0)
        assert lim.limit_value == 0.0

    def test_region_validation(self):
        with pytest.raises(RegionError):
            SharpnessLimit.closed_form(BOTH, Direction.X_TO_ZERO,
                                       Normalization.RATIO, 2.0, 0.5)
        with pytest.raises(RegionError):
            SharpnessLimit.closed_form(FIRST, Direction.X_TO_INFINITY,
                                       Normalization.RATIO_TIMES_X2, 2.0, -2.0)


class TestSharpnessScan:
    def test_zeta_scan_decreasing(self):
        lim = SharpnessLimit.closed_form(BOTH, Direction.X_TO_INFINITY,
                                         Normalization.RATIO_TIMES_X2, 1.0, 0.0)
        scan = sharpness_scan(lim, 1.0, 0.0, (10.0, 100.0, 1000.0))
        assert scan.eventually_decreasing
        assert scan.points[-1].deviation < 0.05 * 2.0

    def test_both_ratio_scan_to_zero(self):
        lim = SharpnessLimit.closed_form(BOTH, Direction.X_TO_ZERO,
                                         Normalization.RATIO, 2.0, -2.0)
        scan = sharpness_scan(lim, 2.0, -2.0, (0.1, 0.01, 0.001))
        assert scan.eventually_decreasing
        assert scan.points[-1].deviation < 0.01 * 0.5

    def test_plain_ratio_scan_to_infinity(self):
        lim = SharpnessLimit.closed_form(BOTH, Direction.X_TO_INFINITY,
                                         Normalization.RATIO, 2.0, -2.0)
        scan = sharpness_scan(lim, 2.0, -2.0)
        assert scan.eventually_decreasing

    def test_rejects_wrongly_ordered_sequence(self):
        lim = SharpnessLimit.closed_form(BOTH, Direction.X_TO_ZERO,
                                         Normalization.RATIO, 2.0, -2.0)
        with pytest.raises(RegionError):
            sharpness_scan(lim, 2.0, -2.0, (0.001, 0.01, 0.1))

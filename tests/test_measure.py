"""Weight density, moment identities, and Stieltjes-type representations."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from tricomi_turan import suites
from tricomi_turan.kernel import EvaluationError, ParameterPoint, RegionError
from tricomi_turan.measure import (MOMENT_IDENTITIES, WeightDensity,
                                   _neg_axis_core, phi, phi_moment,
                                   stieltjes_first_shift, stieltjes_ratio)
from tricomi_turan.turanians import TuranianKind, turanian_ratio

RECORDED = Path(__file__).resolve().parents[1] / "perfbench" / "recorded.json"

# psi(a, c, t e^(i pi)) on the principal branch, 50-digit connection formula
PSI_NEG_AXIS_REFS = {
    (1.5, -0.5, 2.0): complex(-0.41978220188821506579, -0.537430667646613927),
    (2.0, -2.5, 4.0): complex(-0.2267621513564570295, -0.070355029994613514136),
}


def neg_axis_core40(a, c, t):
    """e^-t |U(a, c, t e^(i pi))|^-2 by mpmath at 40 digits."""
    import mpmath
    with mpmath.workdps(40):
        u = mpmath.hyperu(mpmath.mpf(a), mpmath.mpf(c), mpmath.mpc(-t, 0))
        return float(mpmath.exp(-mpmath.mpf(t)) / abs(u) ** 2)


class TestWeightDensity:
    def test_region_validation(self):
        with pytest.raises(RegionError):
            WeightDensity(-1.0, -2.5)
        with pytest.raises(RegionError):
            WeightDensity(2.0, 1.5)

    def test_prefactor(self):
        d = WeightDensity(2.0, -2.5)
        # 1/(Gamma(3) Gamma(5.5))
        expected = 1.0 / (2.0 * 52.34277778455352)
        assert d.prefactor == pytest.approx(expected, rel=1e-10)

    def test_nonnegative_on_random_samples(self):
        d = WeightDensity(2.0, -2.5)
        rng = np.random.default_rng(11)
        for _ in range(50):
            t = float(10.0 ** rng.uniform(-3, 1.8))
            assert phi(d, t).value >= 0.0

    def test_rejects_nonpositive_t(self):
        with pytest.raises(RegionError):
            phi(WeightDensity(2.0, -2.5), 0.0)

    @pytest.mark.parametrize("a,c", [(0.25, 0.75), (2.0, -2.5), (5.0, -4.5)])
    def test_core_matches_hyperu(self, a, c):
        # e^-t |psi(a, c, t e^(i pi))|^-2 from the real-arithmetic core and
        # from mpmath.hyperu at 40 digits
        ts = np.logspace(-6, 2.2, 60)
        core, rel = _neg_axis_core(WeightDensity(a, c), ts)
        for t, value, r in zip(ts, core, rel):
            assert abs(value - neg_axis_core40(a, c, float(t))) <= value * r, t

    @pytest.mark.parametrize("key,expected", sorted(PSI_NEG_AXIS_REFS.items()))
    def test_core_at_negative_axis_reference(self, key, expected):
        a, c, t = key
        core, rel = _neg_axis_core(WeightDensity(a, c), np.array([t]))
        ref = math.exp(-t) / abs(expected) ** 2
        assert abs(core[0] - ref) <= core[0] * rel[0] <= 1e-12 * ref

    def test_scalar_density_uses_core(self):
        d = WeightDensity(2.0, -2.5)
        core, _ = _neg_axis_core(d, np.array([0.7]))
        expected = d.prefactor * 0.7 ** 2.5 * core[0]
        assert phi(d, 0.7).value == pytest.approx(expected, rel=1e-14)


class TestMoments:
    @pytest.mark.parametrize("power,expected", [
        (0, 1.0),
        (1, 5.5),          # 1 + a - c
        (-1, 0.4),         # -1/c
        (-2, 0.48),        # (c-a)/(c^2 (c+1))
    ])
    def test_closed_forms_at_reference_point(self, power, expected):
        d = WeightDensity(2.0, -2.5)
        fv = phi_moment(d, power)
        assert fv.value == pytest.approx(expected, abs=1e-6 + fv.abs_error)
        assert MOMENT_IDENTITIES[power].closed_form(2.0, -2.5) == \
            pytest.approx(expected)

    def test_first_moment_other_point(self):
        d = WeightDensity(3.0, -1.5)
        fv = phi_moment(d, 1)
        assert fv.value == pytest.approx(5.5, abs=1e-6 + fv.abs_error)

    def test_second_inverse_moment_region_enforced(self):
        with pytest.raises(RegionError):
            phi_moment(WeightDensity(2.0, -0.5), -2)  # needs c < -1
        with pytest.raises(RegionError):
            phi_moment(WeightDensity(0.5, -2.5), -2)  # needs a > 1

    def test_inverse_moment_region_enforced(self):
        with pytest.raises(RegionError):
            phi_moment(WeightDensity(2.0, 0.5), -1)  # needs c < 0

    def test_unsupported_power(self):
        with pytest.raises(RegionError):
            phi_moment(WeightDensity(2.0, -2.5), 2)

    def test_moment_grid(self):
        for (a, c) in ((0.5, -0.5), (1.5, -4.5), (5.0, -1.5)):
            d = WeightDensity(a, c)
            for power in (0, 1, -1):
                if not MOMENT_IDENTITIES[power].region(a, c):
                    continue
                fv = phi_moment(d, power)
                closed = MOMENT_IDENTITIES[power].closed_form(a, c)
                assert fv.value == pytest.approx(closed, abs=1e-6 + fv.abs_error)


class TestEdgeCases:
    """Points where the endpoint power, the peak width or QUADPACK round-off
    once made the integrals delicate; each value must lie within its
    abs_error, and abs_error within 1e-8 of the value."""

    @pytest.mark.parametrize("a,c,power", [
        (1.0, 0.95, 0),     # beta = 0.05: the head carries most of the mass
        (2.0, -1.05, -2),   # beta = 0.05 again, for the second inverse moment
        (1e-3, -0.5, 0),
        (12.0, -0.5, 1),    # narrow peak near t = 2a + beta
    ])
    def test_moment_against_closed_form(self, a, c, power):
        fv = phi_moment(WeightDensity(a, c), power)
        ref = MOMENT_IDENTITIES[power].closed_form(a, c)
        assert abs(fv.value - ref) <= fv.abs_error
        assert fv.abs_error <= 1e-8 * abs(ref)

    # 1 - U(a-1,c',x) U(a+1,c'',x) / U(a,c,x)^2 with mpmath.hyperu at 40 digits
    @pytest.mark.parametrize("kind,a,c,x,ref", [
        ("first", 1.0, 0.95, 0.5, 0.540310411182050753051551497515),
        ("both", 5.0, -4.5, 200.0, -0.000224995749340067928588359485506),
        ("first", 2.0, -4.5, 0.01, 0.133332128624460426884051216223),
        ("first", 5.0, -4.5, 0.01, 0.0952368504396099552034144559508),
    ])
    def test_ratio_against_pinned_reference(self, kind, a, c, x, ref):
        rep = stieltjes_ratio if kind == "both" else stieltjes_first_shift
        fv = rep(WeightDensity(a, c), x)
        assert abs(fv.value - ref) <= fv.abs_error
        assert fv.abs_error <= 1e-8 * abs(ref)

    @pytest.mark.parametrize("c", [-1.9999, -2.0001])
    def test_near_integer_c_budget_covers_gamma_rounding(self, c):
        # Gamma(c-1) sits 1e-4 from a pole, so the rounding of c-1 moves B by
        # ~1e-12, and the two connection terms cancel by ~3e3 on top
        fv = phi_moment(WeightDensity(2.0, c), 1)
        assert abs(fv.value - (3.0 - c)) <= fv.abs_error

    def test_out_of_range_raises_typed_errors(self):
        with pytest.raises(EvaluationError):
            phi_moment(WeightDensity(400.0, -0.5), 0)   # Gamma ratios underflow
        with pytest.raises(EvaluationError):
            phi(WeightDensity(2.0, -2.0), 1.0)         # integer c


class TestDefaultGrid:
    def test_verdicts_as_recorded(self):
        recorded = json.loads(RECORDED.read_text())["default-run"]
        summary, rows = suites.run(suites.RunConfig())
        assert summary.n_rows == len(rows) == recorded["rows"]
        assert list(summary.counts) == list(suites.SUITES)
        for suite, counts in recorded["counts"].items():
            assert summary.counts[suite] == {"pass": 0, "fail": 0,
                                             "inconclusive": 0, **counts}
        assert summary.gating_fails == recorded["gating_fails"]
        assert summary.advisory_fails == recorded["advisory_fails"]
        assert summary.empty_regions == []


class TestStieltjesRepresentations:
    @pytest.mark.parametrize("a,c,x", [
        (2.0, -2.5, 1.0), (2.0, -2.5, 0.01), (0.25, -0.5, 5.0),
        (5.0, -4.5, 50.0), (1.5, 0.75, 2.0),
    ])
    def test_matches_direct_both_shift_ratio(self, a, c, x):
        d = WeightDensity(a, c)
        rep = stieltjes_ratio(d, x)
        direct = turanian_ratio(TuranianKind.BOTH_SHIFT, ParameterPoint(a, c, x))
        assert abs(rep.value - direct.value) <= rep.abs_error + direct.abs_error

    @pytest.mark.parametrize("a,c,x", [
        (2.0, -1.5, 1.0), (3.0, -4.5, 0.5), (1.5, 0.25, 10.0),
    ])
    def test_matches_direct_first_shift_ratio(self, a, c, x):
        d = WeightDensity(a, c)
        rep = stieltjes_first_shift(d, x)
        direct = turanian_ratio(TuranianKind.FIRST_SHIFT, ParameterPoint(a, c, x))
        assert abs(rep.value - direct.value) <= rep.abs_error + direct.abs_error

    def test_bracket(self):
        # -1/(2x) < value < 0 for a > 0, c < 1
        d = WeightDensity(2.0, -2.5)
        for x in (0.1, 1.0, 10.0):
            v = stieltjes_ratio(d, x).value
            assert -0.5 / x < v < 0.0

    def test_first_shift_bracket(self):
        # 0 < value < 1/(1+a-c) for a > 1 > c
        a, c = 2.0, -1.5
        d = WeightDensity(a, c)
        for x in (0.1, 1.0, 10.0):
            v = stieltjes_first_shift(d, x).value
            assert 0.0 < v < 1.0 / (1.0 + a - c)

    def test_x2_scaling_approaches_limit(self):
        # x^2 * value -> c - a - 1 along x = 100, 1000
        a, c = 2.0, -2.5
        d = WeightDensity(a, c)
        zeta = c - a - 1.0
        devs = [abs(x * x * stieltjes_ratio(d, x).value - zeta)
                for x in (100.0, 1000.0)]
        assert devs[1] < devs[0]
        assert devs[1] < 0.02 * abs(zeta)

    def test_first_shift_small_x_limit(self):
        a, c = 2.0, -1.5
        d = WeightDensity(a, c)
        v = stieltjes_first_shift(d, 1e-3).value
        assert v == pytest.approx(1.0 / (1.0 + a - c), rel=1e-4)

    def test_x2_scaled_transform_strictly_decreasing(self):
        d = WeightDensity(2.0, -2.5)
        vals = [x * x * stieltjes_ratio(d, x).value
                for x in (0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))

    def test_rejects_nonpositive_x(self):
        with pytest.raises(RegionError):
            stieltjes_ratio(WeightDensity(2.0, -2.5), -1.0)

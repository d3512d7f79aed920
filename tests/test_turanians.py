"""Turanian values, normalized ratios, and their limit constants."""

import functools
import math
import random

import mpmath
import pytest

from tricomi_turan import kernel, turanians
from tricomi_turan.bounds import _TARGET_KIND, CATALOG, LIMITS
from tricomi_turan.kernel import EvaluationError, ParameterPoint, RegionError, psi
from tricomi_turan.turanians import (SCAN_TO_INFINITY, SCAN_TO_ZERO, TuranianKind,
                                     sharpness_scan, turanian, turanian_ratio)

BOTH = TuranianKind.BOTH_SHIFT
FIRST = TuranianKind.FIRST_SHIFT
SECOND = TuranianKind.SECOND_SHIFT


def large_x(a, c):
    """50 (1 + |a| + |c|)^2: the samplers below take x past it as large."""
    return 50.0 * (1.0 + abs(a) + abs(c)) ** 2


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

    # the same references at a = 100 and 150, x = 1, where psi = 6.5e-167
    # and 1.2e-273, so psi^2 underflows
    @pytest.mark.parametrize("a,kind,ref", [
        (100.0, BOTH, -0.04514240611895195844676521279),
        (100.0, FIRST, 0.009405407319371894556260443985),
        (100.0, SECOND, -0.04447527696448468812489183526),
        (150.0, BOTH, -0.03756738379061855991030586954),
        (150.0, FIRST, 0.006351914656179817103309861459),
        (150.0, SECOND, -0.03719542949566194050525333618),
    ])
    def test_ratio_where_psi_squared_underflows(self, a, kind, ref):
        fv = turanian_ratio(kind, ParameterPoint(a, -0.5, 1.0))
        assert abs(fv.value - ref) <= fv.abs_error <= 1e-8 * abs(ref)

    @pytest.mark.parametrize("x", [0.5, 0.5000001, 0.7])
    def test_first_shift_where_psi_vanishes(self, x):
        # psi(-1, c, x) = x - c is 0 at x = c = 0.5, and with psi(0, c, x) = 1
        # and psi(-2, c, x) = x^2 - 2(c+1)x + c(c+1), D_a(-1, c, x) = 2x - c
        fv = turanian(FIRST, ParameterPoint(-1.0, 0.5, x))
        assert abs(fv.value - (2.0 * x - 0.5)) <= fv.abs_error <= 1e-14

    @pytest.mark.parametrize("kind", list(TuranianKind))
    def test_turanian_where_psi_squared_underflows_raises(self, kind):
        # the raw difference of products would read 0.0 +- 0.0 here
        with pytest.raises(EvaluationError, match="underflow"):
            turanian(kind, ParameterPoint(100.0, -0.5, 1.0))


def _bits(fv):
    return fv.value.hex(), fv.abs_error.hex(), fv.method, fv.flags


class TestCache:
    """No record is kept: a ratio read again is formed from a fresh record,
    to the same bits, and a point that raises raises on every call."""

    @pytest.mark.parametrize("kind", list(TuranianKind))
    def test_cached_value_equals_a_fresh_computation(self, kind):
        p = ParameterPoint(2.0, -2.5, 1.5)
        first = turanian_ratio(kind, p)
        assert _bits(turanian_ratio(kind, p)) == _bits(first)

    def test_a_raising_point_raises_on_every_call(self):
        # psi(200, 0.5, 1) = 2.8e-386 underflows: so does the ratio
        p = ParameterPoint(200.0, 0.5, 1.0)
        for _ in range(2):
            with pytest.raises(EvaluationError, match="underflows"):
                turanian_ratio(SECOND, p)


def _oracle_points():
    """400 seeded points: 360 with a uniform in [0.05, 8], c uniform in
    [-5, 0.95] and x log-uniform in [1e-2, 300], then 40 with a uniform in
    [0.05, 1] and integer c in [-5, 0], where psi at a - 1 < 0 has no route
    for x <= 1."""
    rng = random.Random("turanian-oracle")
    lo, hi = math.log(1e-2), math.log(300.0)
    return ([(rng.uniform(0.05, 8.0), rng.uniform(-5.0, 0.95),
              math.exp(rng.uniform(lo, hi))) for _ in range(360)]
            + [(rng.uniform(0.05, 1.0), float(rng.randint(-5, 0)),
                math.exp(rng.uniform(lo, hi))) for _ in range(40)])


class TestOracle:
    """Each ratio kind and its lower quotient, ``shift_quotient(p, -da,
    -dc)``, against mpmath.hyperu at 40 digits, from U at all seven
    shifts: |value - ref| <= abs_error."""

    def test_ratios_and_lower_quotients_within_their_budgets(self):
        outside = []
        with mpmath.workdps(40):
            for a, c, x in _oracle_points():
                u = functools.lru_cache(maxsize=None)(
                    lambda da, dc: mpmath.hyperu(mpmath.mpf(a) + da, mpmath.mpf(c) + dc,
                                                 mpmath.mpf(x)))
                p = ParameterPoint(a, c, x)
                for kind in TuranianKind:
                    da, dc = kind.shifts
                    q_ref = u(-da, -dc) / u(0, 0)
                    r = turanian_ratio(kind, p)
                    q = turanians.shift_quotient(p, -da, -dc)[1:]
                    for value, err, ref in ((r.value, r.abs_error,
                                             1 - q_ref * u(da, dc) / u(0, 0)),
                                            (*q, q_ref)):
                        if not abs(value - float(ref)) <= err:
                            outside.append((kind, p, value, err, float(ref)))
        assert outside == []


# the points (a+da, c+dc) at which the raw Turanian of each kind reads psi
_READS = [(BOTH, {(0, 0), (1, 0), (1, 1)}),
          (FIRST, {(0, 0), (1, 0)}),
          (SECOND, {(0, 0), (1, 0), (0, 1)})]


class TestShiftPoints:
    """The region here is a > 0, at every x: there a ratio reads no psi at
    a shifted point, as one trapezoid pass gives psi and its quotients.
    At a <= 0 a ratio of any kind reads psi at (a, c), (a+1, c) and
    (a+1, c+1), the record of r and s, and never at (a, c+1).  A raw
    Turanian reads psi everywhere at the points of ``_READS``, as its kind
    needs."""

    @staticmethod
    def _reads(monkeypatch, public, kind, p):
        # the record reads psi through kernel.psi, the raw Turanian through
        # turanians.psi; records holds (a, c, the x) of each call of the
        # records' quadrature, and steps (h, the x) of each trapezoid pass
        seen, records, steps = [], [], []
        quadrature, trapezoid = kernel._pair_quadrature, kernel._trapezoid

        def counted(a, c, xs):
            records.append((a, c, tuple(xs)))
            return quadrature(a, c, xs)

        def stepped(a, pw, h, points):
            steps.append((h, tuple(point[0] for point in points)))
            return trapezoid(a, pw, h, points)

        monkeypatch.setattr(kernel, "psi", lambda q: seen.append(q) or psi(q))
        monkeypatch.setattr(turanians, "psi", lambda q: seen.append(q) or psi(q))
        monkeypatch.setattr(kernel, "_pair_quadrature", counted)
        monkeypatch.setattr(kernel, "_trapezoid", stepped)
        public(kind, p)
        return seen, records, steps

    @pytest.mark.parametrize("kind,shifts", _READS)
    def test_in_the_region_one_pass_and_no_shifted_psi(self, monkeypatch, kind, shifts):
        # the ratio reads one record, one pass per h, h halved from the
        # first step; the raw Turanian reads psi at its points.
        # psi(-0.5, -2, 0.03) has no route, and 400 lies past
        # large_x(0.5, -1) = 312.5
        for x in (0.03, 400.0):
            p = ParameterPoint(0.5, -1.0, x)
            seen, records, steps = self._reads(monkeypatch, turanian_ratio, kind, p)
            assert set(seen) <= {p}
            assert records == [(0.5, -1.0, (x,))]
            assert steps and steps == [(kernel._STEP / 2 ** k, (x,)) for k in range(len(steps))]
            seen, records, _ = self._reads(monkeypatch, turanian, kind, p)
            assert records == []
            assert set(seen) == {ParameterPoint(0.5 + da, -1.0 + dc, x) for da, dc in shifts}

    @pytest.mark.parametrize("kind,shifts", _READS)
    def test_a_ratio_reads_psi_at_its_point_and_above(self, monkeypatch, kind, shifts):
        # outside the region: a <= 0
        a, c, x = -0.5, 0.25, 2.0
        p = ParameterPoint(a, c, x)
        for public, reads in ((turanian_ratio, {(0, 0), (1, 0), (1, 1)}),
                              (turanian, shifts)):
            seen, records, _ = self._reads(monkeypatch, public, kind, p)
            assert records == []
            assert set(seen) == {ParameterPoint(a + da, c + dc, x)
                                 for da, dc in reads}


def _pass_oracle_points():
    """320 seeded points with a > 0: a log-uniform in [1e-3, 8], every
    fifth in [1e-3, 0.05] (169 lie below 0.05), c within 1e-3 of an
    integer in [-5, 2], x log-uniform in [1e-2, large_x(a, c)]."""
    rng = random.Random("pass-oracle")
    points = []
    for i in range(320):
        a = math.exp(rng.uniform(math.log(1e-3), math.log(0.05) if i % 5 == 0
                                 else math.log(8.0)))
        c = rng.randint(-5, 2) + rng.uniform(-1e-3, 1e-3)
        x = math.exp(rng.uniform(math.log(1e-2),
                                 math.log(large_x(a, c))))
        points.append((a, c, x))
    return points


def _large_x_and_nonpositive_a_points():
    """200 seeded points, c = k + d with integer k in [-5, 1] and d in
    [0.02, 0.98]: every other point with a uniform in [-4, 0) and x
    log-uniform in [0.05, 600], the rest with a log-uniform in [0.05, 6]
    and x from 1 to 20 times large_x(a, c)."""
    rng = random.Random("outside-oracle")
    points = []
    for i in range(200):
        c = rng.randint(-5, 1) + rng.uniform(0.02, 0.98)
        if i % 2 == 0:
            a = rng.uniform(-4.0, 0.0)
            x = math.exp(rng.uniform(math.log(0.05), math.log(600.0)))
        else:
            a = math.exp(rng.uniform(math.log(0.05), math.log(6.0)))
            x = rng.uniform(1.0, 20.0) * large_x(a, c)
        points.append((a, c, x))
    return points


_SIX_SHIFTS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


class TestShiftQuotients:
    def test_quotients_within_their_budgets_against_mpmath(self):
        # r, s and 1 + a s against mpmath.hyperu at 40 digits: |value - ref|
        # <= err for each
        outside = []
        with mpmath.workdps(40):
            for a, c, x in _pass_oracle_points():
                A, C, X = mpmath.mpf(a), mpmath.mpf(c), mpmath.mpf(x)
                u0 = mpmath.hyperu(A, C, X)
                p = ParameterPoint(a, c, x)
                assert kernel.psi_quotients(p) is not None
                for da, dc in ((1, 0), (1, 1), (0, 1)):
                    _, q, err = turanians.shift_quotient(p, da, dc)
                    ref = float(mpmath.hyperu(A + da, C + dc, X) / u0)
                    if not abs(q - ref) <= err:
                        outside.append((a, c, x, da, dc, q, err, ref))
        assert outside == []

    def test_no_miss_at_large_x_and_a_nonpositive_a_miss_is_psis_own(self):
        # all six shifts against mpmath.hyperu at 40 digits.  At a > 0 and
        # large x the record is one trapezoid pass, and no quotient may lie
        # outside its budget (worst 0.33 of it).  At a <= 0 one of the 600
        # lies outside (1.29x), where the expansion's own budget falls
        # short (ROADMAP item 1): each such miss must sit at a point where
        # psi at (a, c), (a+1, c) or (a+1, c+1), the values the record
        # divides, is itself outside its budget
        def psi_outside(a, c, x):
            with mpmath.workdps(40):
                for da, dc in ((0, 0), (1, 0), (1, 1)):
                    fv = psi(ParameterPoint(a + da, c + dc, x))
                    ref = mpmath.hyperu(mpmath.mpf(a) + da, mpmath.mpf(c) + dc,
                                        mpmath.mpf(x))
                    if not abs(fv.value - float(ref)) <= fv.abs_error:
                        return True
            return False

        misses, checked = [], 0
        with mpmath.workdps(40):
            for a, c, x in _large_x_and_nonpositive_a_points():
                A, C, X = mpmath.mpf(a), mpmath.mpf(c), mpmath.mpf(x)
                u0 = mpmath.hyperu(A, C, X)
                for da, dc in _SIX_SHIFTS:
                    _, q, err = turanians.shift_quotient(ParameterPoint(a, c, x), da, dc)
                    ref = float(mpmath.hyperu(A + da, C + dc, X) / u0)
                    checked += 1
                    if not abs(q - ref) <= err:
                        misses.append((a, c, x, da, dc, q, err, ref))
        assert checked == 1200
        assert [m for m in misses if m[0] > 0.0] == []
        assert [m for m in misses if not psi_outside(*m[:3])] == []

    def test_second_lower_shift_is_the_ratios_lower_quotient(self):
        # (0, -1) gives psi(a, c-1)/psi = 1 - a r (DLMF 13.3.9), the lower
        # quotient of R_c = 1 - q(0, -1) q(0, 1), below and past
        # large_x(0.5, -1) = 312.5
        for a, c, x in ((2.0, -2.5, 1.5), (0.5, -1.0, 400.0)):
            p = ParameterPoint(a, c, x)
            f0, qm, _ = turanians.shift_quotient(p, 0, -1)
            _, r, _ = turanians.shift_quotient(p, 1, 0)
            _, qp, _ = turanians.shift_quotient(p, 0, 1)
            assert qm == 1.0 - a * r
            assert turanian_ratio(SECOND, p).value == 1.0 - qm * qp
            assert f0 == psi(p)

    @pytest.mark.parametrize("da,dc", [(2, 0), (0, 2), (1, -1), (0, 0), (-2, 0)])
    # "outside": past large_x(0.5, -1) = 312.5
    @pytest.mark.parametrize("a,c,x", [(2.0, -2.5, 1.5), (0.5, -1.0, 400.0)],
                             ids=["inside", "outside"])
    def test_any_other_shift_raises(self, a, c, x, da, dc):
        # only the six shifts of the Turanians are served: (2, 0) used to
        # return r
        with pytest.raises(ValueError, match="no quotient"):
            turanians.shift_quotient(ParameterPoint(a, c, x), da, dc)

    def test_a_raising_record_raises_on_every_call(self, monkeypatch):
        # psi(200, 0.5, 1) = 2.8e-386 underflows: so does the record.  No
        # record is kept, so the second call makes the passes of the first
        # again
        runs = []
        trapezoid = kernel._trapezoid
        monkeypatch.setattr(kernel, "_trapezoid",
                            lambda a, pw, h, points: runs[-1].append(h)
                            or trapezoid(a, pw, h, points))
        for _ in range(2):
            runs.append([])
            with pytest.raises(EvaluationError, match="underflows"):
                turanians.shift_quotient(ParameterPoint(200.0, 0.5, 1.0), 1, 1)
        assert runs[0] and runs[1] == runs[0]


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
    """The rows of LIMITS."""

    def test_rows_in_output_order(self):
        assert list(LIMITS) == [
            "zeta-limit", "zero-limit[both]", "vanish[both]",
            "zero-limit[first]", "vanish[first]",
            "zero-limit[second]", "vanish[second]"]
        assert all(lim.name == name for name, lim in LIMITS.items())

    def test_each_row_scans_its_own_sequence(self):
        for lim in LIMITS.values():
            assert lim.xs == (SCAN_TO_ZERO if lim.toward_zero else SCAN_TO_INFINITY)
        assert [n for n, lim in LIMITS.items() if lim.x2_scaled] == ["zeta-limit"]

    def test_zeta_closed_form(self):
        assert LIMITS["zeta-limit"].value(1.0, 0.0) == -2.0

    def test_zero_limits_closed_forms(self):
        a, c = 2.0, -2.0
        assert LIMITS["zero-limit[both]"].value(a, c) == pytest.approx(1.0 / c)
        assert LIMITS["zero-limit[first]"].value(a, c) == pytest.approx(0.2)
        assert LIMITS["zero-limit[second]"].value(a, c) == pytest.approx(-0.2)

    def test_plain_ratio_vanishes_at_infinity(self):
        assert LIMITS["vanish[second]"].value(2.0, -2.0) == 0.0

    def test_region_validation(self):
        assert not LIMITS["zero-limit[both]"].region(2.0, 0.5)
        # each region is the one where the limit's rate is stated
        assert not LIMITS["zero-limit[first]"].region(0.5, -2.5)
        assert not LIMITS["vanish[both]"].region(2.0, 1.5)
        with pytest.raises(RegionError):
            sharpness_scan(LIMITS["zero-limit[both]"], 2.0, 0.5)


class TestSharpnessScan:
    def test_zeta_scan_ends_within_its_rate(self):
        scan = sharpness_scan(LIMITS["zeta-limit"], 1.0, 0.0)
        assert [q.x for q in scan] == list(SCAN_TO_INFINITY)
        assert [q.rate for q in scan] == [2.0 * 2.0 * 4.0 / x for x in SCAN_TO_INFINITY]
        assert scan[-1].deviation < scan[-1].rate - scan[-1].budget

    def test_both_ratio_scan_to_zero(self):
        scan = sharpness_scan(LIMITS["zero-limit[both]"], 2.0, -2.0)
        assert [q.x for q in scan] == list(SCAN_TO_ZERO)
        assert all(q.deviation < q.rate - q.budget for q in scan)

    def test_plain_ratio_scan_to_infinity(self):
        scan = sharpness_scan(LIMITS["vanish[both]"], 2.0, -2.0)
        assert [q.x for q in scan] == list(SCAN_TO_INFINITY)
        assert all(q.deviation < q.rate - q.budget for q in scan)

    def test_budget_adds_rounding_of_limit_and_rate_to_the_ratios(self):
        lim = LIMITS["zero-limit[first]"]
        for q in sharpness_scan(lim, 3.0, -4.5):
            r = turanian_ratio(FIRST, ParameterPoint(3.0, -4.5, q.x))
            assert q.ratio == r.value
            assert q.budget == r.abs_error + kernel.EPS * (
                14.0 * abs(lim.value(3.0, -4.5)) + 5.0 * q.rate + 3.0 * q.deviation)


# the catalog bound each limit reads: its kind, region and rate |bound - L|
TWINS = {"zero-limit[both]": "T1U", "vanish[both]": "T1L", "zero-limit[first]": "T5L",
         "vanish[first]": "T3U", "zero-limit[second]": "T6U", "vanish[second]": "T6L"}


def _rate_points(lim, n: int = 20):
    """n seeded (a, c, x) in the limit's region: toward 0, a in (1, 6] and
    c in [-5, -1), x log-uniform in [1e-4, 0.1]; toward infinity, a
    log-uniform in [0.05, 6] and c in [-5, 1), x log-uniform in [10, 1e5]."""
    rng = random.Random(f"sharpness-rate:{lim.name}")
    lo, hi = (1e-4, 0.1) if lim.toward_zero else (10.0, 1e5)
    out = []
    for _ in range(n):
        if lim.toward_zero:
            a, c = 6.0 - 5.0 * rng.random(), rng.uniform(-5.0, -1.0)
        else:
            a, c = math.exp(rng.uniform(math.log(0.05), math.log(6.0))), rng.uniform(-5.0, 1.0)
        out.append((a, c, math.exp(rng.uniform(math.log(lo), math.log(hi)))))
    assert all(lim.region(a, c) for a, c, _ in out)
    return out


class TestSharpnessRates:
    @pytest.mark.parametrize("name", list(LIMITS))
    def test_rate_bounds_the_deviation_against_mpmath(self, name):
        # R = 1 - U(a-da, c-dc) U(a+da, c+dc)/U(a,c)^2 from 40-digit hyperu;
        # the shifts are taken in mpmath, since a + 1 rounds in doubles,
        # which moves x^2 R by up to 3% of the zeta rate at x = 1e5
        lim = LIMITS[name]
        da, dc = lim.kind.shifts
        worst = 0.0
        with mpmath.workdps(40):
            for a, c, x in _rate_points(lim):
                a_, c_ = mpmath.mpf(a), mpmath.mpf(c)
                u0 = mpmath.hyperu(a_, c_, x)
                ratio = 1 - (mpmath.hyperu(a_ - da, c_ - dc, x)
                             * mpmath.hyperu(a_ + da, c_ + dc, x) / (u0 * u0))
                scale = x * x if lim.x2_scaled else 1.0
                dev = float(abs(scale * ratio - lim.value(a, c)))
                worst = max(worst, dev / lim.rate(a, c, x))
        assert worst <= 1.0

    @pytest.mark.parametrize("name", list(TWINS))
    def test_rate_is_the_gap_of_its_catalog_bound(self, name):
        lim, twin = LIMITS[name], CATALOG[TWINS[name]]
        assert not lim.x2_scaled
        assert (lim.kind, lim.region) == (_TARGET_KIND[twin.target], twin.region)
        # the x->0 closed forms that the zero limits read off their bounds
        closed_forms = {"zero-limit[both]": lambda a, c: 1.0 / c,
                        "zero-limit[first]": lambda a, c: 1.0 / (1.0 + a - c),
                        "zero-limit[second]": lambda a, c: a / (c * (1.0 + a - c))}
        for a, c, x in _rate_points(lim):
            value = closed_forms[name](a, c) if lim.toward_zero else 0.0
            assert lim.value(a, c) == value                 # bit for bit
            assert lim.rate(a, c, x) == abs(twin.bound_fn(a, c, x) - value)

    def test_scan_ends_come_near_their_rates(self):
        # a loosened rate fails here: at every curated pair the deviation
        # at the end of the scan is at least 95% of the rate
        ends = [sharpness_scan(lim, a, c)[-1] for lim in LIMITS.values()
                for a, c in lim.pairs]
        assert len(ends) == 28
        assert all(0.95 <= q.deviation / q.rate <= 1.0 for q in ends)


def _wide_points(n: int):
    """n seeded points: a in [-50, 300] and c in [-200, 200], a third of
    each drawn from the integers, x log-uniform in [1e-300, 1e300]."""
    rng = random.Random("wide-domain")

    def draw(lo, hi):
        return float(rng.randint(lo, hi)) if rng.random() < 1 / 3 else rng.uniform(lo, hi)
    lo, hi = math.log(1e-300), math.log(1e300)
    return [(draw(-50, 300), draw(-200, 200), math.exp(rng.uniform(lo, hi)))
            for _ in range(n)]


class TestRobustness:
    def test_wide_domain_delivers_or_raises_a_typed_error(self):
        # the first point used to end in an untyped OverflowError from the
        # connection coefficient Gamma(c-1)/Gamma(a)
        points = [(-37.30799822046213, 184.17402383913083, 6.851833336446353e-67),
                  *_wide_points(500)]
        bad = []
        for a, c, x in points:
            p = ParameterPoint(a, c, x)
            for name, fn in [("psi", psi)] + [
                    (kind.name, functools.partial(turanian_ratio, kind))
                    for kind in TuranianKind]:
                try:
                    fv = fn(p)
                except (EvaluationError, RegionError):
                    continue
                except Exception as exc:    # any other type is a failure
                    bad.append((name, p, repr(exc)))
                    continue
                if not (math.isfinite(fv.value) and 0.0 <= fv.abs_error < math.inf):
                    bad.append((name, p, fv))
        assert bad == []

"""Weight density, moment identities, and Stieltjes-type representations."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from tricomi_turan import measure, suites
from tricomi_turan.kernel import (EvaluationError, ParameterPoint, RegionError,
                                  _m_series)
from tricomi_turan.measure import (MOMENT_IDENTITIES, WeightDensity,
                                   _kummer_sums, _neg_axis_core, phi,
                                   phi_moment, stieltjes)
from tricomi_turan.turanians import TuranianKind, turanian_ratio

BOTH = TuranianKind.BOTH_SHIFT
FIRST = TuranianKind.FIRST_SHIFT
SECOND = TuranianKind.SECOND_SHIFT

RECORDED = Path(__file__).resolve().parents[1] / "perfbench" / "recorded.json"

# psi(a, c, t e^(i pi)) on the principal branch, 50-digit connection formula
PSI_NEG_AXIS_REFS = {
    (1.5, -0.5, 2.0): complex(-0.41978220188821506579, -0.537430667646613927),
    (2.0, -2.5, 4.0): complex(-0.2267621513564570295, -0.070355029994613514136),
}


def stieltjes_both(d, x):
    return stieltjes(BOTH, d, x)


def seeded_pairs(seed, n):
    """n pairs (a, c), a in [0.1, 6], c in [-5, 0.95] at least 0.05 off an integer."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < n:
        a, c = rng.uniform(0.1, 6.0), rng.uniform(-5.0, 0.95)
        if abs(c - round(c)) >= 0.05:
            pairs.append((round(a, 4), round(c, 4)))
    return pairs


# seed 9 includes points where a Kummer budget of 2 EPS per unit of the
# absolute sum of the terms falls short of the rounding of the terms
SEEDED_PAIRS = seeded_pairs(9, 20)


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

    @pytest.mark.parametrize("a,c", [(0.25, 0.75), (2.0, -2.5), (5.0, -4.5)]
                             + SEEDED_PAIRS)
    def test_core_matches_hyperu(self, a, c):
        # e^-t |psi(a, c, t e^(i pi))|^-2 from the real-arithmetic core and
        # from mpmath.hyperu at 40 digits
        if (a, c) in SEEDED_PAIRS:
            ts = np.geomspace(1e-6, 150.0, 24)
        else:
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

    def test_core_at_a_node_does_not_depend_on_its_call(self):
        # every Kummer sum stops on its own, so a node's value is the same
        # bits alone and beside nodes that need 8 and about 150 terms
        d = WeightDensity(2.0, -2.5)
        ts = np.array([1e-12, 0.3, 7.0, 60.0])
        core, rel = _neg_axis_core(d, ts)
        for i in range(ts.size):
            alone, alone_rel = _neg_axis_core(d, ts[i:i + 1])
            assert alone[0] == core[i] and alone_rel[0] == rel[i]

    @pytest.mark.parametrize("alpha,gamma", [(-4.5, -2.5), (-1.0, 4.5),
                                             (-2.75, 0.25), (1.5, 2.5)])
    def test_kummer_sums_match_the_scalar_series(self, alpha, gamma):
        # the blocked summer against kernel._m_series, a term-by-term loop,
        # within the sum of their two budgets
        ts = np.geomspace(1e-8, 150.0, 40)
        sums, errs = _kummer_sums(np.array([alpha]), np.array([gamma]), ts)
        for t, value, err in zip(ts, sums[0], errs[0]):
            ref, ref_err = _m_series(alpha, gamma, float(t), 1e-16)
            assert abs(value - ref) <= err + ref_err, t

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
        fv = stieltjes(TuranianKind(kind), WeightDensity(a, c), x)
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

    # each used to end in an untyped error or a silently wrong value: t^139
    # overflows in the table (NaN), twice T^126 overflows in the tail bound
    # (NaN), the head cutoff (0.5/|r|)^(1/(1-c)) overflows (OverflowError),
    # x^2 underflows to 0 or overflows in 1/(x+t)^2 (ZeroDivisionError,
    # OverflowError), and t^-c underflows (0.0 +- 0.0)
    @pytest.mark.parametrize("fn,a,c,arg", [
        (phi_moment, 0.0005222921326088412, -138.36647372199363, 0),
        (stieltjes_both, 0.002854960844284682, -124.21858801130399, 5.996457846028542e-127),
        (stieltjes_both, 0.00022352864076403424, 0.9996427830785745, 1.0),
        (stieltjes_both, 12.0, 0.9997551433629278, 1.0211166805651979e-172),
        (stieltjes_both, 2.013562966892444, 0.9972884479354649, 6.073162224628772e+182),
        (phi, 0.0009544738347773529, -124.80668399016307, 1.5248017372701232e-216),
        # these four used to end in a numpy RuntimeWarning first: the Kummer
        # terms overflow in the running product, |psi|^-2 overflows, and the
        # head coefficients divide by an A^2 that underflows to 0
        (phi, 2.83945484647252, -7.39957633803421, 6.555282404372128e+221),
        (phi, 102.18764826666732, 0.9996471483625124, 5.849117304638293e-237),
        (phi, 0.002692672350626316, 0.9998331821818549, 6.924377374620989e+37),
        (phi_moment, 161.59543629407435, 0.908292938738712, 0)])
    def test_beyond_the_double_range_raises_typed_errors(self, fn, a, c, arg):
        with pytest.raises(EvaluationError):
            fn(WeightDensity(a, c), arg)

    # these used to end in a numpy RuntimeWarning, invalid values in the
    # budget of psi on the negative axis, where 1/Gamma(a) is subnormal
    @pytest.mark.parametrize("c", [-0.5, 0.5])
    @pytest.mark.parametrize("a", [5e-324, 1e-320, 1e-310])
    @pytest.mark.parametrize("fn,arg", [(phi, 1.0), (phi_moment, 0), (stieltjes_both, 1.0)],
                             ids=["phi", "phi_moment", "stieltjes"])
    def test_subnormal_a_raises(self, fn, arg, a, c):
        with pytest.raises(EvaluationError, match="a is subnormal") as exc:
            fn(WeightDensity(a, c), arg)
        assert type(exc.value) is EvaluationError


# typed errors of branches that no other test reaches, each with its message
@pytest.mark.parametrize("call,message", [
    (lambda: phi_moment(WeightDensity(1.0, 0.9999), 0),
     r"endpoint expansion of phi does not converge for c=0\.9999$"),
    (lambda: phi_moment(WeightDensity(30.0, 0.999), 0),
     r"\|psi\| indistinguishable from 0 on the negative axis at t=15\.955"),
    # M(1 - a, 2 - c, t) = M(0.5, 1.5, 800) overflows
    (lambda: phi(WeightDensity(1.0, 0.5), 800.0),
     r"Kummer series overflow on the negative axis up to t=800\.0$"),
    # the terms of M(1, 1e9 + 0.5, t) at t near 1e9 stay near 1 past the
    # term limit; a density at such parameters overflows its other sum first
    (lambda: _kummer_sums(np.array([1.0]), np.array([1e9 + 0.5]), np.array([999999900.0])),
     r"Kummer series did not converge within 10000 terms up to t=999999900\.0$")],
    ids=["head_diverges", "psi_zero", "kummer_overflow", "kummer_terms"])
def test_error_branch_raises_its_typed_error(call, message):
    with pytest.raises(EvaluationError, match=message) as exc:
        call()
    assert type(exc.value) is EvaluationError


def test_panel_rule_constants_are_leggauss_bit_for_bit():
    from numpy.polynomial.legendre import leggauss
    (x, w), (xc, wc) = leggauss(16), leggauss(8)
    assert measure._PANEL_NODES.tobytes() == np.concatenate([x, xc]).tobytes()
    assert measure._PANEL_WEIGHTS.tobytes() == np.concatenate([w, -wc]).tobytes()


class TestDefaultGrid:
    def test_tables_take_few_core_calls(self, monkeypatch):
        # panels start near their final width, so a table takes one pass
        # over its nodes and about one more over the panels it halves
        calls = []
        core = measure._neg_axis_core

        def counted(d, t):
            calls.append(t.size)
            return core(d, t)

        monkeypatch.setattr(measure, "_neg_axis_core", counted)
        densities = [WeightDensity(a, c) for a in suites.DEFAULT_GRID_A
                     for c in suites.DEFAULT_GRID_C]
        for d in densities:
            measure._phi_table(d)
        assert len(densities) == 42
        assert len(calls) <= 2.5 * len(densities)

    def test_one_table_serves_moments_and_stieltjes(self, monkeypatch):
        # a density builds its table on first use and keeps it
        built, build = [], measure._phi_table
        monkeypatch.setattr(measure, "_phi_table", lambda d: built.append(d) or build(d))
        d = WeightDensity(2.0, -2.5)
        for power in MOMENT_IDENTITIES:
            phi_moment(d, power)
        for kind, x in ((TuranianKind.BOTH_SHIFT, 1.0), (TuranianKind.FIRST_SHIFT, 5.0)):
            stieltjes(kind, d, x)
        assert built == [d]
        assert d.table is d.table

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
        rep = stieltjes(BOTH, d, x)
        direct = turanian_ratio(TuranianKind.BOTH_SHIFT, ParameterPoint(a, c, x))
        assert abs(rep.value - direct.value) <= rep.abs_error + direct.abs_error

    @pytest.mark.parametrize("a,c,x", [
        (2.0, -1.5, 1.0), (3.0, -4.5, 0.5), (1.5, 0.25, 10.0),
    ])
    def test_matches_direct_first_shift_ratio(self, a, c, x):
        d = WeightDensity(a, c)
        rep = stieltjes(FIRST, d, x)
        direct = turanian_ratio(TuranianKind.FIRST_SHIFT, ParameterPoint(a, c, x))
        assert abs(rep.value - direct.value) <= rep.abs_error + direct.abs_error

    @pytest.mark.parametrize("kind", [BOTH, FIRST])
    @pytest.mark.parametrize("a,c", [(2.0, -2.5), (0.25, 0.75), (5.0, -4.5)])
    def test_a_column_has_the_bits_of_each_x_read_alone(self, a, c, kind):
        # the phi side at a pair's x is one array expression over them: each
        # x's value and error are those of its x alone, up to the first x
        # that raises (x^2 leaves the normal range at 1e-160 for both
        # shifts), whose error is that x's
        xs = (200.0, 0.01, 3.7, 1e-160, 1.0)
        d = WeightDensity(a, c)
        column = measure.stieltjes_column(kind, d, xs)
        for x, value, err in zip(xs, column.values, column.errors):
            alone = stieltjes(kind, d, x)
            assert (value.hex(), err.hex()) == (alone.value.hex(), alone.abs_error.hex())
        if kind is BOTH:
            assert len(column.values) == 3
            with pytest.raises(EvaluationError) as exc:
                stieltjes(kind, d, xs[3])
            assert type(column.error) is EvaluationError
            assert str(column.error) == str(exc.value)
        else:
            assert len(column.values) == len(xs) and column.error is None

    def test_bracket(self):
        # -1/(2x) < value < 0 for a > 0, c < 1
        d = WeightDensity(2.0, -2.5)
        for x in (0.1, 1.0, 10.0):
            v = stieltjes(BOTH, d, x).value
            assert -0.5 / x < v < 0.0

    def test_first_shift_bracket(self):
        # 0 < value < 1/(1+a-c) for a > 1 > c
        a, c = 2.0, -1.5
        d = WeightDensity(a, c)
        for x in (0.1, 1.0, 10.0):
            v = stieltjes(FIRST, d, x).value
            assert 0.0 < v < 1.0 / (1.0 + a - c)

    def test_x2_scaling_approaches_limit(self):
        # x^2 * value -> c - a - 1 along x = 100, 1000
        a, c = 2.0, -2.5
        d = WeightDensity(a, c)
        zeta = c - a - 1.0
        devs = [abs(x * x * stieltjes(BOTH, d, x).value - zeta)
                for x in (100.0, 1000.0)]
        assert devs[1] < devs[0]
        assert devs[1] < 0.02 * abs(zeta)

    def test_first_shift_small_x_limit(self):
        a, c = 2.0, -1.5
        d = WeightDensity(a, c)
        v = stieltjes(FIRST, d, 1e-3).value
        assert v == pytest.approx(1.0 / (1.0 + a - c), rel=1e-4)

    def test_x2_scaled_transform_strictly_decreasing(self):
        d = WeightDensity(2.0, -2.5)
        vals = [x * x * stieltjes(BOTH, d, x).value
                for x in (0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))

    def test_rejects_nonpositive_x(self):
        for kind in TuranianKind:
            with pytest.raises(RegionError):
                stieltjes(kind, WeightDensity(2.0, -2.5), -1.0)

    def test_second_shift_has_no_representation(self):
        with pytest.raises(ValueError, match="second-shift"):
            stieltjes(SECOND, WeightDensity(2.0, -2.5), 1.0)

"""Bound catalog checks, dominance claims, and auxiliary log-ratios."""

import math
import pickle
import random
from collections import Counter

import mpmath
import pytest

from tricomi_turan import bounds, kernel, suites, turanians
from tricomi_turan.bounds import (_STATUSES, AUXILIARY, CATALOG, DOMINANCE,
                                  PairGrid, VerificationRecord,
                                  catalog_document, check_bound,
                                  dominance_applicable, dominance_columns)
from tricomi_turan.kernel import (EPS, EvaluationError, FunctionValue,
                                  ParameterPoint, RegionError, psi)
from tricomi_turan.turanians import TuranianKind, turanian_ratio


class TestCatalogIntegrity:
    def test_expected_ids_present(self):
        expected = {"T1L", "T1U", "T2L", "P1L", "P1U", "T3L", "T3U", "T5L",
                    "P2L", "P2U", "T6L", "T6U", "P3L", "P3U", "P4U",
                    "P4U_probe", "S1", "S2", "S2H", "I1", "I2", "I3", "I4"}
        assert set(CATALOG) == expected

    def test_advisory_entries(self):
        assert not CATALOG["S2"].gating
        assert not CATALOG["S2H"].gating
        assert not CATALOG["P4U_probe"].gating
        assert CATALOG["P4U"].gating and CATALOG["S1"].gating

    def test_catalog_document_fields(self):
        doc = catalog_document()
        assert len(doc) == len(CATALOG)
        for row in doc:
            assert {"id", "target", "side", "region", "anchor", "gating"} \
                <= set(row)

    def test_dominance_ids(self):
        assert set(DOMINANCE) == {f"D{i}" for i in range(1, 9)}

    def test_ratio_bounds_derive_both_sides_from_bound_fn(self):
        # lower: bound_fn < R of the target's kind; upper: R < bound_fn
        kinds = {"ratio_both": "both", "ratio_first": "first",
                 "ratio_second": "second"}
        ratio_specs = [s for s in CATALOG.values() if s.bound_fn is not None]
        assert len(ratio_specs) == 16
        for spec in ratio_specs:
            a, c = next((a, c) for a, c in ((1.5, -2.5), (0.5, -0.5))
                        if spec.region(a, c))
            p = ParameterPoint(a, c, 0.7)
            rec = check_bound(spec.id, p)
            closed, ratio = ((rec.lhs, rec.rhs) if spec.side == "lower"
                             else (rec.rhs, rec.lhs))
            assert closed.value == spec.bound_fn(a, c, 0.7), spec.id
            assert closed.method == "closed_form"
            assert ratio.value == turanian_ratio(TuranianKind(kinds[spec.target]),
                                                 p).value
            side = spec.lhs if spec.side == "lower" else spec.rhs
            assert side.at(PairGrid(a, c, (0.7,))) == closed

    def test_dominance_compares_the_checked_closed_forms(self):
        for did, dom in DOMINANCE.items():
            p = next(ParameterPoint(a, c, x) for a, c in ((1.5, -2.5), (3.0, -1.5))
                     for x in (0.05, 0.5, 2.0, 20.0)
                     if dominance_applicable(did, ParameterPoint(a, c, x)))
            _, claimed, other, *_ = dominance_columns(dom, PairGrid(p.a, p.c, (p.x,)))
            for bid, values in ((dom.claimed, claimed), (dom.other, other)):
                rec = check_bound(bid, p)
                assert values == [(rec.lhs if CATALOG[bid].side == "lower" else rec.rhs).value]


# the ratio bounds, each checked against its closed form bound_fn
RATIO_BOUND_IDS = [row[0] for row in bounds._RATIO_BOUNDS]

# points where a ratio bound's closed form misses its 4 EPS|v| budget, as
# the closed form cancels near its zero, with the measured miss (the error
# over the budget); seen over 3,000 probe points per bound
CLOSED_FORM_MISSES = {
    "T1L": ((0.015215777392237263, 0.9997984394083801, 0.35204799032293627), 2.5),
    "T1U": ((1.8082360636128365, -24.71162025432706, 11.340540706477425), 11),
    "T3L": ((0.38352896960663807, -13.024475560633384, 26.046545092675778), 140),
    "T5L": ((2.7274690684916454, -19.95269543809148, 18.17406915487569), 22),
    "T6U": ((2.7428017221719156, -512.9781781998663, 253.7365382866448), 50),
}


class TestCheckBound:
    def test_t1l_spec_point(self):
        rec = check_bound("T1L", ParameterPoint(1.0, 0.0, 1.0))
        assert rec.status == "pass"
        assert rec.lhs.value == -2.0
        assert -2.0 < rec.rhs.value < 0.0  # bracketed by T1L and P1U

    def test_p3l_near_sharpness(self):
        rec = check_bound("P3L", ParameterPoint(2.0, -2.0, 1e-6))
        assert rec.status in ("pass", "inconclusive")
        assert rec.lhs.value == pytest.approx(-0.2)

    def test_i4_spec_point(self):
        rec = check_bound("I4", ParameterPoint(1.0, -1.0, 2.0))
        assert rec.status == "pass"

    def test_region_violation_is_not_fail(self):
        with pytest.raises(RegionError):
            check_bound("T1U", ParameterPoint(0.5, -2.5, 1.0))  # needs a > 1

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            check_bound("nope", ParameterPoint(1.0, 0.0, 1.0))

    def test_i_family_raises_where_ln_g0_leaves_the_double_range(self):
        # lnGamma(a - c + 1) overflows at a - c + 1 = 3e305.  Where the record
        # at (1, -3e305, x) delivers (x = 1e8), I2's rhs and the x->0+ limits
        # of I1, I3 and I4 raise ln G0's error; where it fails too (x =
        # 0.001), all four raise the record's error, as at any x whose
        # record fails
        for x, record_fails, message in (
                (1e8, False, r"^log Gamma\(3e\+305\) is beyond"),
                (0.001, True, r"^the trapezoid nodes of psi\(a=1\.0, c=-3e\+305, "
                              r"x=0\.001\) reach beyond the double range$")):
            p = ParameterPoint(1.0, -3e305, x)
            record = kernel.pair_quotients(p.a, p.c, (p.x,))[0]
            assert isinstance(record, Exception) is record_fails
            for bid in ("I1", "I2", "I3", "I4"):
                with pytest.raises(EvaluationError, match=message):
                    check_bound(bid, p)

    @pytest.mark.parametrize("a,c,x", [
        pytest.param(10.0, -1.0004, 34.0, id="exponent-250"),
        pytest.param(0.6660894000856069, -1.004609858712429, 76.10205991538348,
                     id="exponent-327")])
    def test_i3_holds_just_below_c_minus_one(self, a, c, x):
        # (G0 psi)^(c/(a(c+1))) underflows here (about 1e-2227 at the first
        # point), and forming it aborted whole runs; g(x) < g(0+) forms no
        # power
        rec = check_bound("I3", ParameterPoint(a, c, x))
        assert rec.status == "pass"
        assert rec.margin > 1e6 * rec.budget

    # R_c - lhs by mpmath.hyperu at 40 digits at (100, -0.5, 1), where psi =
    # 6.5e-167: a product of two psi values underflows, and forming one
    # aborted whole runs; the checks divided by psi^2 form none
    @pytest.mark.parametrize("bid,status,ref", [
        pytest.param("S1", "pass", 0.0594592680628105443739556, id="S1"),
        pytest.param("S2", "fail", -0.04447527696448468812489184, id="S2"),
        pytest.param("S2H", "pass", 0.04601828623821997286143831, id="S2H")])
    def test_s_family_delivers_where_psi_products_underflow(self, bid, status, ref):
        rec = check_bound(bid, ParameterPoint(100.0, -0.5, 1.0))
        assert rec.status == status
        assert abs(rec.margin - ref) <= rec.budget

    @pytest.mark.parametrize("a,c,x", [
        pytest.param(2.0, -2.5, 1.5, id="2.0--2.5-1.5"),
        pytest.param(0.5, -1.0, 0.03, id="0.5--1.0-0.03"),
        # x past 50 (1 + |a| + |c|)^2, 1512.5 and 312.5
        pytest.param(2.0, -2.5, 2000.0, id="2.0--2.5-2000.0"),
        pytest.param(0.5, -1.0, 400.0, id="0.5--1.0-400.0")])
    def test_no_bound_reads_psi_below_its_point(self, monkeypatch, a, c, x):
        # every bound's region has a > 0, where one trapezoid pass gives
        # psi's quotients at every x, so no bound reads psi at a shifted
        # point: S1 takes psi(a, c-1)/psi as 1 - a r (DLMF 13.3.9), R_c its
        # upper quotient psi(a, c+1)/psi as 1 + a s, and the Turanians
        # their lower shifts from r
        seen = []
        for module in (kernel, turanians):
            monkeypatch.setattr(module, "psi", lambda q: seen.append(q) or psi(q))
        p = ParameterPoint(a, c, x)
        checked = [bid for bid, spec in CATALOG.items() if spec.region(a, c)]
        for bid in checked:
            check_bound(bid, p)
        assert len(checked) >= 15
        assert set(seen) <= {p}

    @pytest.mark.parametrize("bid,da,dc,power", [
        pytest.param("S1", 0, -1, 0, id="S1"), pytest.param("S2", 1, 1, 1, id="S2"),
        pytest.param("S2H", 1, 1, 0, id="S2H")])
    def test_s_family_lhs_within_its_budget_against_mpmath(self, bid, da, dc, power):
        # -(1/x) U(a,c,x)^power U(a+da,c+dc,x)/U(a,c,x) by mpmath.hyperu at 40
        # digits on 90 seeded points of the claim's region: a third with
        # c > 1 and x < 1, where psi - a psi(a+1,c) cancels in S1, a third
        # at integer c
        spec, rng = CATALOG[bid], random.Random(f"{bid}-oracle")
        lo, hi = math.log(1e-2), math.log(300.0)
        outside = []
        with mpmath.workdps(40):
            for i in range(90):
                a = rng.uniform(0.05 if bid == "S1" else 1.05, 8.0)
                x = math.exp(rng.uniform(lo, hi))
                if i % 3 == 0:
                    c_hi = min(a + (2.0 if bid == "S1" else 1.0), 3.0)
                    c, x = rng.uniform(1.0, c_hi), math.exp(rng.uniform(lo, 0.0))
                else:
                    c = float(rng.randint(-5, 1)) if i % 3 == 1 else rng.uniform(-5.0, 1.0)
                assert spec.region(a, c)
                A, C, X = mpmath.mpf(a), mpmath.mpf(c), mpmath.mpf(x)
                u0 = mpmath.hyperu(A, C, X)
                ref = float(-u0 ** power * mpmath.hyperu(A + da, C + dc, X) / u0 / X)
                lhs = spec.lhs.at(bounds.PairGrid(a, c, (x,)))
                if not abs(lhs.value - ref) <= lhs.abs_error:
                    outside.append((a, c, x, lhs, ref))
        assert outside == []

    @pytest.mark.parametrize("bid", [
        pytest.param(bid, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason=f"4 EPS|v| misses by {CLOSED_FORM_MISSES[bid][1]}x where the "
                   "closed form cancels near its zero")) if bid in CLOSED_FORM_MISSES
        else bid for bid in RATIO_BOUND_IDS])
    def test_closed_form_within_its_budget(self, bid):
        # |closed_form - ref| <= abs_error, ref the bound_fn on 40-digit mpf
        # arguments (the closed forms are plain arithmetic), on 300 seeded
        # points of the bound's region: a log-uniform in [0.01, 20], c
        # either 1 - 10^u, u in [-2, 3], or uniform in [-10, 10], x
        # log-uniform in [1e-3, 1e3]; plus the bound's known miss, if any
        spec, rng = CATALOG[bid], random.Random(f"{bid}-closed-form")
        points = [CLOSED_FORM_MISSES[bid][0]] if bid in CLOSED_FORM_MISSES else []
        while len(points) < 301:
            a, x = 10.0 ** rng.uniform(-2.0, 1.3), 10.0 ** rng.uniform(-3.0, 3.0)
            c = 1.0 - 10.0 ** rng.uniform(-2.0, 3.0) if rng.random() < 0.5 else \
                rng.uniform(-10.0, 10.0)
            if spec.region(a, c):
                points.append((a, c, x))
        side, outside = spec.lhs if spec.side == "lower" else spec.rhs, []
        with mpmath.workdps(40):
            for a, c, x in points:
                fv = side.at(PairGrid(a, c, (x,)))
                ref = spec.bound_fn(mpmath.mpf(a), mpmath.mpf(c), mpmath.mpf(x))
                if not abs(fv.value - ref) <= fv.abs_error:
                    outside.append((a, c, x, fv, ref))
        assert outside == []

    @pytest.mark.parametrize("bid", ["T1L", "T2L", "P1L", "P1U", "T3L", "T3U",
                                     "P2L", "P2U", "T6L", "P3L", "P3U", "P4U",
                                     "S1", "I1", "I2", "I4"])
    def test_gating_bounds_pass_on_samples(self, bid):
        spec = CATALOG[bid]
        for (a, c) in ((0.25, -0.5), (1.5, -2.5), (2.0, -4.5), (5.0, 0.25),
                       (2.0, 0.75)):
            if not spec.region(a, c):
                continue
            for x in (0.05, 1.0, 20.0):
                rec = check_bound(bid, ParameterPoint(a, c, x))
                assert rec.status != "fail", (bid, a, c, x, rec.margin)

    @pytest.mark.parametrize("bid", ["T1U", "T5L", "T6U", "I3"])
    def test_restricted_region_bounds_pass(self, bid):
        for (a, c) in ((1.5, -2.5), (2.0, -4.5), (3.0, -1.5)):
            if not CATALOG[bid].region(a, c):
                continue
            for x in (0.05, 1.0, 20.0):
                rec = check_bound(bid, ParameterPoint(a, c, x))
                assert rec.status != "fail", (bid, a, c, x, rec.margin)

    def test_s2_as_quoted_fails_at_large_x(self):
        # the quoted inhomogeneous form loses to the Turanian beyond
        # moderate x; it is catalogued as printed and reported, not gated
        rec = check_bound("S2", ParameterPoint(2.0, 0.25, 50.0))
        assert rec.status == "fail"
        assert abs(rec.margin) > rec.budget * 100.0

    def test_s2_holds_at_small_x(self):
        rec = check_bound("S2", ParameterPoint(2.0, 0.25, 0.01))
        assert rec.status == "pass"

    def test_s2_homogeneous_variant_also_fails_for_a_gt_1(self):
        rec = check_bound("S2H", ParameterPoint(2.0, 0.75, 10.0))
        assert rec.status == "fail"

    def test_p4u_probe_small_a(self):
        rec = check_bound("P4U_probe", ParameterPoint(0.5, -0.5, 1.0))
        assert rec.status in ("pass", "inconclusive")
        with pytest.raises(RegionError):
            check_bound("P4U_probe", ParameterPoint(2.0, -0.5, 1.0))

    def test_bracket_consistency(self):
        # wherever a lower and an upper spec both apply, lower < upper
        pairs = (("T1L", "P1U"), ("P2L", "P2U"), ("T3L", "T3U"),
                 ("P1L", "T1U"), ("P3L", "T6U"))
        for lo_id, up_id in pairs:
            lo, up = CATALOG[lo_id], CATALOG[up_id]
            for (a, c) in ((1.5, -2.5), (2.0, -4.5)):
                if not (lo.region(a, c) and up.region(a, c)):
                    continue
                for x in (0.1, 1.0, 10.0):
                    bl = lo.bound_fn(a, c, x)
                    bu = up.bound_fn(a, c, x)
                    assert bl < bu, (lo_id, up_id, a, c, x)


    @pytest.mark.parametrize("bid", ["T1L", "T6L"])
    def test_closed_form_beyond_the_double_range_raises(self, bid):
        # x^2 underflows to 0 below x ~ 1.5e-162
        with pytest.raises(EvaluationError) as exc:
            check_bound(bid, ParameterPoint(0.5, 0.5, 1e-200))
        assert str(exc.value) == (f"closed form of {bid} is not a finite double "
                                  "at (a=0.5, c=0.5, x=1e-200)")


@pytest.mark.parametrize("margin,budget,status", [
    (2.0, 1.0, "pass"), (1.0, 1.0, "inconclusive"), (0.5, 1.0, "inconclusive"),
    (0.0, 0.0, "inconclusive"), (-1.0, 1.0, "inconclusive"), (-2.0, 1.0, "fail")])
def test_status_is_inconclusive_where_the_margin_is_within_its_budget(margin, budget, status):
    assert bounds._STATUSES[bounds._status_codes((margin,), (budget,))[0]] == status


class TestVerificationRecord:
    REC = check_bound("T1L", ParameterPoint(1.0, 0.0, 1.0))

    def test_fields(self):
        assert VerificationRecord._fields == (
            "bound_id", "point", "lhs", "rhs", "margin", "budget", "status",
            "anchor")
        assert self.REC.point == ParameterPoint(1.0, 0.0, 1.0)

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            self.REC.status = "fail"

    def test_pickle_round_trip(self):
        back = pickle.loads(pickle.dumps(self.REC))
        assert back == self.REC and type(back) is VerificationRecord
        assert type(back.point) is ParameterPoint and type(back.lhs) is FunctionValue

    def test_repr(self):
        rec = VerificationRecord(
            "P1U", ParameterPoint(2.0, -2.5, 0.1),
            FunctionValue(-0.5, 1e-14, "quadrature"),
            FunctionValue(0.0, 0.0, "closed_form"), 0.5, 1e-14, "pass", "negativity")
        assert repr(rec) == (
            "VerificationRecord(bound_id='P1U', point=ParameterPoint(a=2.0, c=-2.5, "
            "x=0.1), lhs=FunctionValue(value=-0.5, abs_error=1e-14, "
            "method='quadrature', flags=()), rhs=FunctionValue(value=0.0, "
            "abs_error=0.0, method='closed_form', flags=()), margin=0.5, "
            "budget=1e-14, status='pass', anchor='negativity')")

    def test_equal_records_hash_equal(self):
        again = check_bound("T1L", ParameterPoint(1.0, 0.0, 1.0))
        assert again == self.REC and hash(again) == hash(self.REC)


class TestDominance:
    def test_d1_spec_point(self):
        _, (claimed,), (other,), _, _, (code,) = dominance_columns(
            DOMINANCE["D1"], PairGrid(1.0, -1.0, (2.0,)))
        assert _STATUSES[code] == "pass"
        assert claimed == pytest.approx(-0.75)   # T1L value
        assert other == pytest.approx(-1.0)      # P1L value

    def test_d3_spec_point(self):
        _, (claimed,), _, _, _, (code,) = dominance_columns(
            DOMINANCE["D3"], PairGrid(1.0, -1.0, (1.0,)))
        assert _STATUSES[code] == "pass"
        assert claimed == pytest.approx(-0.5)

    def test_d5_spec_point(self):
        _, (claimed,), (other,), _, _, (code,) = dominance_columns(
            DOMINANCE["D5"], PairGrid(2.0, 0.5, (10.0,)))
        assert _STATUSES[code] == "pass"
        assert claimed == pytest.approx(0.2)
        assert other == pytest.approx(0.4)

    def test_threshold_not_met_raises(self):
        # D3 needs x > -c/2 = 0.5: an x below it has no row
        assert not dominance_applicable("D3", ParameterPoint(1.0, -1.0, 0.25))
        assert dominance_columns(DOMINANCE["D3"], PairGrid(1.0, -1.0, (0.25,)))[0] == []

    def test_all_claims_pass_where_applicable(self):
        for did in DOMINANCE:
            for (a, c) in ((1.5, -2.5), (2.0, -4.5), (3.0, -1.5), (1.0, -0.5)):
                for x in (0.05, 0.5, 2.0, 20.0):
                    p = ParameterPoint(a, c, x)
                    if not dominance_applicable(did, p):
                        continue
                    *_, (code,) = dominance_columns(DOMINANCE[did], PairGrid(a, c, (x,)))
                    assert _STATUSES[code] == "pass", (did, a, c, x)


class TestAuxiliaryLogRatios:
    def test_f_increasing(self):
        (lo,), (hi,) = (PairGrid(1.0, -1.0, (x,)).auxiliary("f").values for x in (1.0, 2.0))
        assert hi > lo

    def test_g_decreasing(self):
        (lo,), (hi,) = (PairGrid(1.0, -2.0, (x,)).auxiliary("g").values for x in (1.0, 2.0))
        assert hi < lo

    def test_h_increasing(self):
        (lo,), (hi,) = (PairGrid(1.0, -1.0, (x,)).auxiliary("h").values for x in (1.0, 2.0))
        assert hi > lo

    def test_h_small_x_value(self):
        # h(0+) = log(Gamma(1-c)/Gamma(-c)) = log(-c) = 0 at c = -1; the
        # approach is O(x log x) here, so only ask for the right ballpark
        (value,) = PairGrid(1.0, -1.0, (1e-4,)).auxiliary("h").values
        assert abs(value) < 5e-3

    def test_cached_value_equals_a_fresh_computation(self):
        # no record is kept: each pair forms its own, to the same bits
        first = PairGrid(2.0, -2.5, (1.5,)).auxiliary("g")
        assert PairGrid(2.0, -2.5, (1.5,)).auxiliary("g") == first

    def test_regions(self):
        # the regions in which the suites read each auxiliary
        assert not AUXILIARY["f"].region(1.0, 0.5)    # needs c < 0
        assert not AUXILIARY["g"].region(1.0, -0.5)   # needs c < -1
        assert not AUXILIARY["h"].region(-1.0, -0.5)  # needs a > 0

    def test_monotone_signs_table(self):
        assert {k: aux.sign for k, aux in AUXILIARY.items()} == \
            {"f": 1.0, "g": -1.0, "h": 1.0}

    @pytest.mark.parametrize("bid", ["I1", "I3", "I4"])
    def test_log_bound_approaches_its_limit(self, bid):
        # the auxiliary tends to its x -> 0+ limit, so the two sides of the
        # bound close in as x shrinks
        devs = []
        for x in (0.1, 0.01, 0.001):
            rec = check_bound(bid, ParameterPoint(1.5, -1.5, x))
            devs.append(abs(rec.rhs.value - rec.lhs.value))
        assert devs[0] > devs[1] > devs[2]

    def test_log_bounds_read_their_auxiliary_against_its_limit(self):
        p, pair = ParameterPoint(1.5, -2.5, 0.7), PairGrid(1.5, -2.5, (0.7,))
        for bid, which in (("I1", "f"), ("I3", "g"), ("I4", "h")):
            spec, rec = CATALOG[bid], check_bound(bid, p)
            aux, limit = ((rec.rhs, rec.lhs) if AUXILIARY[which].sign > 0
                          else (rec.lhs, rec.rhs))
            assert spec.side == ("lower" if AUXILIARY[which].sign > 0 else "upper")
            closed = spec.lhs if spec.side == "lower" else spec.rhs
            assert aux == pair.one(pair.auxiliary(which))
            assert limit == closed.at(pair) and limit.method == "closed_form"
        assert CATALOG["I4"].lhs.at(pair).value == pytest.approx(math.log(2.5), rel=1e-14)

    def test_log_ratios_and_limits_within_their_budgets_against_mpmath(self):
        # f, g, h and their x -> 0+ limits by mpmath.hyperu and
        # mpmath.loggamma at 40 digits on 150 seeded points, c in
        # [-6, -0.001]; the float arguments enter exactly
        rng = random.Random("aux-oracle")
        outside, checked = [], 0
        with mpmath.workdps(40):
            for _ in range(150):
                a = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
                c = rng.uniform(-6.0, -1e-3)
                x = math.exp(rng.uniform(math.log(0.01), math.log(200.0)))
                A, C, X = mpmath.mpf(a), mpmath.mpf(c), mpmath.mpf(x)
                lu0 = mpmath.log(mpmath.hyperu(A, C, X))
                lup = mpmath.log(mpmath.hyperu(A + 1, C + 1, X))
                lg0 = mpmath.loggamma(A - C + 1) - mpmath.loggamma(1 - C)
                lg1 = mpmath.loggamma(A - C + 1) - mpmath.loggamma(-C)
                weights = {"f": (1 / A, 1 / (A + 1)),
                           "g": (C / (A * (C + 1)), 1 / (A + 1)), "h": (1, 1)}
                pair = PairGrid(a, c, (x,))
                for which, bid in (("f", "I1"), ("g", "I3"), ("h", "I4")):
                    spec = CATALOG[bid]
                    if not spec.region(a, c):
                        continue
                    w0, wp = weights[which]
                    for got, ref in (
                            (pair.one(pair.auxiliary(which)), w0 * lu0 - wp * lup),
                            ((spec.lhs if spec.side == "lower" else spec.rhs).at(pair),
                             wp * lg1 - w0 * lg0)):
                        checked += 1
                        if not abs(got.value - float(ref)) <= got.abs_error:
                            outside.append((which, a, c, x, got, float(ref)))
        assert checked >= 800
        assert outside == []


class TestTotality:
    def test_every_check_delivers_unless_psi_raises(self):
        # 1,500 seeded points with a in [0.05, 20] and 300 with a in [20,
        # 150], where psi products underflow, c = k + d with integer k in
        # [-6, 2] and |d| in [1e-3, 0.5]: every catalog claim and every
        # auxiliary whose region holds returns its record, or raises
        # EvaluationError only where psi itself raises at one of the three
        # points it reads, (a, c), (a+1, c) and (a+1, c+1)
        rng = random.Random("totality")

        def log_uniform(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        def psi_raises(a, c, x):
            for da, dc in ((0, 0), (1, 0), (1, 1)):
                try:
                    psi(ParameterPoint(a + da, c + dc, x))
                except EvaluationError:
                    return True
            return False

        bad, checked = [], 0
        for a_lo, a_hi in [(0.05, 20.0)] * 1500 + [(20.0, 150.0)] * 300:
            d = log_uniform(1e-3, 0.5) * rng.choice((-1.0, 1.0))
            a, c = log_uniform(a_lo, a_hi), rng.randint(-6, 2) + d
            x = log_uniform(0.01, 200.0)
            p = ParameterPoint(a, c, x)
            checks = [(bid, lambda bid=bid: check_bound(bid, p))
                      for bid, spec in CATALOG.items() if spec.region(a, c)]
            pair = PairGrid(a, c, (x,))
            checks += [(w, lambda w=w: pair.one(pair.auxiliary(w)))
                       for w, aux in AUXILIARY.items() if aux.region(a, c)]
            for name, check in checks:
                checked += 1
                try:
                    check()
                except EvaluationError as exc:
                    if not psi_raises(a, c, x):
                        bad.append((name, a, c, x, repr(exc)))
                except Exception as exc:     # any other type is a defect
                    bad.append((name, a, c, x, repr(exc)))
        assert checked > 20000
        assert bad == []

    def test_every_s_and_auxiliary_side_is_finite_or_raises_a_typed_error(self):
        # 400 seeded points, a log-uniform in [1e-8, 200], c in [-50, 4]
        # and x log-uniform in [1e-300, 1e3]: at each point in its region,
        # S1, S2, S2H and f, g and h return finite values and errors (and a
        # finite margin and budget) or raise EvaluationError; the S2 and
        # S2H lhs used to read -inf as x -> 0, a verdict of margin inf
        rng = random.Random("finite-sides")

        def log_uniform(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        bad, checked = [], 0
        for _ in range(400):
            a, c, x = log_uniform(1e-8, 200.0), rng.uniform(-50.0, 4.0), log_uniform(1e-300, 1e3)
            checks = [(bid, lambda bid=bid: check_bound(bid, ParameterPoint(a, c, x)))
                      for bid in ("S1", "S2", "S2H") if CATALOG[bid].region(a, c)]
            pair = PairGrid(a, c, (x,))
            checks += [(w, lambda w=w: pair.one(pair.auxiliary(w)))
                       for w, aux in AUXILIARY.items() if aux.region(a, c)]
            for name, check in checks:
                checked += 1
                try:
                    got = check()
                except EvaluationError:
                    continue
                except Exception as exc:     # any other type is a defect
                    bad.append((name, a, c, x, repr(exc)))
                    continue
                if name in CATALOG:
                    numbers = (got.lhs.value, got.lhs.abs_error, got.rhs.value,
                               got.rhs.abs_error, got.margin, got.budget)
                else:
                    numbers = (got.value, got.abs_error)
                if not all(map(math.isfinite, numbers)):
                    bad.append((name, a, c, x, numbers))
        assert checked > 1500
        assert bad == []

    @pytest.mark.parametrize("a", [5e-324, 1e-320, 1e-310])
    @pytest.mark.parametrize("c", [-1.5, -2.5])
    def test_the_i_family_at_a_subnormal_a_raises_psis_error(self, a, c):
        # g's weight c/(a(c+1)) used to divide by an a(c+1) that underflows
        # to 0 (a ZeroDivisionError), and I1's x->0+ limit to read nan
        p = ParameterPoint(a, c, 1.0)
        checks = [lambda bid=bid: check_bound(bid, p) for bid in ("I1", "I2", "I3", "I4")]
        pair = PairGrid(a, c, (1.0,))
        checks += [lambda w=w: pair.one(pair.auxiliary(w)) for w in AUXILIARY]
        for check in checks:
            with pytest.raises(EvaluationError, match="a is subnormal"):
                check()


def _stratified(rng, lo, hi, n, accept=None):
    """n values uniform in [lo, hi], one in each of n equal strata (as the
    dense-bounds benchmark draws its grid)."""
    width, out = (hi - lo) / n, []
    for i in range(n):
        while True:
            v = lo + (i + rng.random()) * width
            if accept is None or accept(v):
                break
        out.append(v)
    return tuple(out)


def _dense_grid(seed):
    """The dense-bounds benchmark's grid at ``seed``: 10 a in [0.1, 6], 10 c
    in [-5, 0.95] at least 1e-3 off the integers, 12 x log-uniform in
    [0.01, 200]."""
    rng = random.Random(f"dense-bounds:{seed}")
    grid_a = _stratified(rng, 0.1, 6.0, 10)
    grid_c = _stratified(rng, -5.0, 0.95, 10, lambda v: abs(v - round(v)) >= 1e-3)
    grid_x = tuple(math.exp(w) for w in _stratified(rng, math.log(0.01), math.log(200.0), 12))
    return grid_a, grid_c, grid_x


_KINDS = {kind.name: kind for kind in TuranianKind}


def _columns(pair):
    """Each quantity of the pair context whose region holds at the pair:
    name -> its column."""
    a, c = pair.a, pair.c
    out = {name: pair.ratios(kind) for name, kind in _KINDS.items()}
    out.update((bid, CATALOG[bid].lhs.column(pair)) for bid in ("S1", "S2", "S2H")
               if CATALOG[bid].region(a, c))
    if CATALOG["I2"].region(a, c):
        out["I2"] = CATALOG["I2"].rhs.column(pair)
    out.update((w, pair.auxiliary(w)) for w, aux in AUXILIARY.items() if aux.region(a, c))
    return out


def _reference(name, p):
    """The quantity ``name`` at p by the per-point arithmetic on Python
    floats, from the record pair_quotients(a, c, (x,)): (value, error)."""
    a, c, x = p
    ((f0, (r, er), (s, es)),) = kernel.pair_quotients(a, c, (x,))
    if name in _KINDS:
        kind = _KINDS[name]
        da, dc = kind.shifts
        qm, em = turanians._lower(kind, a, c, x, 1.0, 0.0, r, er)
        qp, ep = {(1, 0): (r, er), (1, 1): (s, es)}.get(
            (da, dc)) or turanians._one_plus_a_s(a, c, x, (r, er), (s, es))
        value = 1.0 - qm * qp
        return value, (abs(qp) * em + abs(qm) * ep + 3.0 * EPS * abs(qm * qp)
                       + EPS * abs(value))
    if name in ("S1", "S2", "S2H"):
        q, eq = turanians._lower(turanians.SECOND, a, c, x, 1.0, 0.0, r, er) \
            if name == "S1" else (s, es)
        f, ef = (f0.value, f0.abs_error) if name == "S2" else (1.0, 0.0)
        value = -f * q / x
        return value, ((abs(f) * eq + abs(q) * ef) / x + 2.0 * EPS * abs(value)
                       + (bounds._TINY if abs(value) < bounds._TINY else 0.0))
    if name == "I2":
        q = 1.0 / s
        eq = q * (es / s + EPS)
        lg, lg_err = bounds._lg_ratio(a - c + 1.0, 1.0 - c)
        expo = 1.0 / a
        try:
            pw = math.exp(expo * (lg + math.log(f0.value)))
        except OverflowError:
            pw = math.inf
        pw_err = (abs(pw * expo) * (f0.abs_error / abs(f0.value) + lg_err)
                  + 4.0 * EPS * abs(pw) + (bounds._TINY if pw < bounds._TINY else 0.0))
        value = q - pw / c
        return value, eq + pw_err / abs(c) + 4.0 * EPS * abs(value)
    l0, ls = math.log(f0.value), math.log(s)
    w0, wp = AUXILIARY[name].weights(a, c)
    value = (w0 - wp) * l0 - wp * ls
    return value, (abs(w0 - wp) * f0.abs_error / f0.value + abs(wp) * es / s
                   + 2.0 * EPS * (abs(w0 * l0) + abs(wp * l0) + abs(wp * ls) + abs(value)))


class TestPairGrid:
    @pytest.mark.parametrize("grid", ["default"] + [f"dense-{seed}" for seed in range(1, 5)])
    def test_columns_equal_the_one_x_case_bit_for_bit(self, grid):
        # the three ratio kinds, S1, S2, S2H, I2's rhs and f, g and h at
        # every x of every pair of the grid: each element of a pair's
        # column has the value, error and method of the one-x case, which
        # has those of the per-point arithmetic on Python floats
        if grid == "default":
            grid_a, grid_c, grid_x = (suites.DEFAULT_GRID_A, suites.DEFAULT_GRID_C,
                                      suites.DEFAULT_GRID_X)
        else:
            grid_a, grid_c, grid_x = _dense_grid(int(grid.split("-")[1]))
        checked = Counter()
        for a in grid_a:
            for c in grid_c:
                pair = bounds.PairGrid(a, c, grid_x)
                columns = _columns(pair)
                for i, x in enumerate(grid_x):
                    one = bounds.PairGrid(a, c, (x,))
                    method = pair.records.f0[i].method
                    for name, got in _columns(one).items():
                        column = columns[name]
                        assert column.error is None and got.error is None, (name, a, c, x)
                        fv = one.one(got)
                        assert (column.values[i].hex(), column.errors[i].hex(), method) == (
                            fv.value.hex(), fv.abs_error.hex(), fv.method), (name, a, c, x)
                        assert (fv.value.hex(), fv.abs_error.hex()) == tuple(
                            v.hex() for v in _reference(name, ParameterPoint(a, c, x))), (
                            name, a, c, x)
                        checked[name] += 1
        points = len(grid_a) * len(grid_c) * len(grid_x)
        assert set(checked) == {*_KINDS, "S1", "S2", "S2H", "I2", *AUXILIARY}
        assert checked["S1"] == checked["h"] == points

    def test_a_record_raising_at_an_interior_x_stops_each_column_there(self):
        # psi(100, -0.5, 1e4) underflows, psi(100, -0.5, x) at x = 1 and 10
        # does not: every column holds the value at x = 1 and then raises
        # the record's error, and taken in increasing x an auxiliary holds
        # the values at x = 1 and 10
        xs = (1.0, 1e4, 10.0)
        pair = bounds.PairGrid(100.0, -0.5, xs)
        (raised,) = kernel.pair_quotients(100.0, -0.5, (1e4,))
        assert isinstance(raised, EvaluationError) and "underflows" in str(raised)
        columns = _columns(pair)
        assert set(columns) == {*_KINDS, "S1", "S2", "S2H", "I2", "f", "h"}
        for name, column in columns.items():
            assert type(column.error) is EvaluationError, name
            assert str(column.error) == str(raised), name
            first = _reference(name, ParameterPoint(100.0, -0.5, 1.0))
            assert (column.values, column.errors) == ([first[0]], [first[1]]), name
        for which in ("f", "h"):
            by_x = pair.auxiliary(which, [0, 2, 1])
            assert str(by_x.error) == str(raised)
            refs = [_reference(which, ParameterPoint(100.0, -0.5, x)) for x in (1.0, 10.0)]
            assert (by_x.values, by_x.errors) == ([v for v, _ in refs], [e for _, e in refs])
        for name, kind in _KINDS.items():
            with pytest.raises(EvaluationError, match="underflows"):
                turanian_ratio(kind, ParameterPoint(100.0, -0.5, 1e4))

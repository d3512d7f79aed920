"""Suite records, run-configuration checks and the runner."""

import ast
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import pickle
import random
import re
import tracemalloc
from collections import Counter
from collections.abc import Sequence
from pathlib import Path

import mpmath
import pytest

from tricomi_turan import bounds, kernel, measure, suites, turanians
from tricomi_turan.kernel import EvaluationError, ParameterPoint, psi, psi_connection
from tricomi_turan.suites import ConfigError, ReportRow, RunConfig

SMALL_GRID = {"grid_a": (0.5, 2.0), "grid_c": (-2.5, 0.25),
              "grid_x": (0.1, 1.0, 20.0)}


class TestRunConfig:
    @pytest.mark.parametrize("grid", [{"grid_x": (math.nan, 1.0)},
                                      {"grid_a": (math.inf,)},
                                      {"grid_c": (-math.inf, 0.5)}])
    def test_rejects_non_finite_grid_values(self, grid):
        with pytest.raises(ConfigError):
            RunConfig(**grid)

    @pytest.mark.parametrize("grid", [{"grid_a": (1.0, 2.0, 1.0)},
                                      {"grid_c": (-2.5, -2.5)},
                                      {"grid_x": (0.1, 1.0, 0.1)}])
    def test_rejects_a_repeated_grid_value(self, grid):
        with pytest.raises(ConfigError, match=r"^grid [acx] repeats a value"):
            RunConfig(**grid)

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_tolerance(self, tol):
        # as it rejects every tolerance: no suite takes one
        with pytest.raises(TypeError, match="tolerances"):
            RunConfig(tolerances={"stieltjes": tol})

    @pytest.mark.parametrize("setting,message", [
        ({"suites": ("bounds", "nope")}, "unknown suite names: ['nope']"),
        ({"grid_x": (1.0, 0.0)}, "grid x values must be positive"),
        ({"grid_x": (-0.5,)}, "grid x values must be positive"),
        ({"fmt": "xml"}, "unknown report format 'xml'"),
        ({"jobs": 0}, "jobs must be >= 1")])
    def test_rejects_an_unknown_name_or_a_non_positive_value(self, setting, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(**setting)

    def test_dominance_takes_no_tolerance(self):
        # nor does any other suite: each row allows its own budget only
        assert not hasattr(RunConfig(), "tol")
        for suite in suites.REGISTRY.values():
            assert not hasattr(suite, "tolerance")


def test_crosscheck_points_take_the_quadrature_route_of_psi():
    # every point of the default grid at which the suite holds
    cfg, crosscheck = RunConfig(), suites.REGISTRY["kernel_crosscheck"]
    points = [ParameterPoint(a, c, x) for a in cfg.grid_a for c in cfg.grid_c
              if crosscheck.applies(None, a, c) for x in suites.CROSSCHECK_X]
    assert len(points) > 100
    assert {psi(p).method for p in points} == {"quadrature"}


class TestRun:
    def test_jobs_two_rows_equal_jobs_one(self):
        s1, one = suites.run(RunConfig(jobs=1, **SMALL_GRID))
        s2, two = suites.run(RunConfig(jobs=2, **SMALL_GRID))
        assert {r.suite for r in one} == set(suites.SUITES)
        assert two == one
        # rows are held as columns and built as they are read
        assert all(type(r) is ReportRow for r in two)
        assert csv_text(two, s2) == csv_text(one, s1)

    @staticmethod
    def raise_at(monkeypatch, name, failing, calls=None):
        """Make the rows of suite ``name`` raise EvaluationError(message)
        at the (claim, a) -> message entries of ``failing``; a claim of
        None stands for every claim of the suite.  Each evaluation of a
        claim at a pair appends its (claim, a) to ``calls``, when given."""
        suite = suites.REGISTRY[name]

        def evaluate(arg, pair):
            claim = next(k for k, v in suite.claims.items() if v is arg)
            if calls is not None:
                calls.append((claim, pair.a))
            message = failing.get((claim, pair.a), failing.get((None, pair.a)))
            if message:
                raise EvaluationError(message)
            return suite.evaluate(arg, pair)

        monkeypatch.setitem(suites.REGISTRY, name,
                            dataclasses.replace(suite, evaluate=evaluate))

    FAILING_GRID = {"grid_a": (2.0, 3.0), "grid_c": (-2.5,), "grid_x": (0.1, 1.0)}

    def test_jobs_raise_the_error_of_the_first_failing_task(self, monkeypatch):
        # bounds fails at the second (a, c) pair and dominance at the first:
        # the first failing pair raises, though bounds comes first in task order
        self.raise_at(monkeypatch, "bounds", {(None, 3.0): "bounds at a=3.0"})
        self.raise_at(monkeypatch, "dominance", {(None, 2.0): "dominance at a=2.0"})
        cfg = {"suites": ("bounds", "dominance"), **self.FAILING_GRID}
        for jobs in (1, 2):
            with pytest.raises(EvaluationError, match=r"^dominance at a=2\.0$"):
                suites.run(RunConfig(jobs=jobs, **cfg))

    @pytest.mark.parametrize("failing,message", [
        # T1L comes first in claim order but fails at the later pair
        ({("T1L", 3.0): "T1L at a=3.0", ("T2L", 2.0): "T2L at a=2.0"},
         r"^T2L at a=2\.0$"),
        # at one failing pair, the claim earlier in task order raises
        ({("T1L", 2.0): "T1L at a=2.0", ("T2L", 2.0): "T2L at a=2.0"},
         r"^T1L at a=2\.0$")], ids=["later-pair", "same-pair"])
    def test_the_first_failing_pair_raises(self, monkeypatch, failing, message):
        self.raise_at(monkeypatch, "bounds", failing)
        for jobs in (1, 2):
            with pytest.raises(EvaluationError, match=message):
                suites.run(RunConfig(jobs=jobs, suites=("bounds",), **self.FAILING_GRID))

    def test_no_pair_after_the_first_failing_one_is_evaluated(self, monkeypatch):
        # the blocks run one by one in this process, whatever jobs is, and
        # the failing one raises at its first task
        calls = []
        self.raise_at(monkeypatch, "bounds", {(None, 3.0): "bounds at a=3.0"}, calls)
        for jobs in (1, 2):
            calls.clear()
            with pytest.raises(EvaluationError, match=r"^bounds at a=3\.0$"):
                suites.run(RunConfig(jobs=jobs, suites=("bounds",), grid_a=(2.0, 3.0, 5.0),
                                     grid_c=(-2.5,), grid_x=(0.1, 1.0)))
            assert calls[-1] == ("T1L", 3.0)
            assert Counter(a for _, a in calls) == {2.0: len(calls) - 1, 3.0: 1}

    def test_rows_are_a_read_only_sequence_of_report_rows(self):
        _, rows = suites.run(RunConfig(**SMALL_GRID))
        listed, n = list(rows), len(rows)
        assert isinstance(rows, Sequence) and n == len(listed) > 100
        assert [rows[i] for i in range(n)] == listed
        assert rows[-1] == listed[-1] and rows[-n] == listed[0]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                rows[i]
        assert rows[3:40:7] == listed[3:40:7] and rows[::-1] == listed[::-1]
        assert list(rows) == rows and rows == list(rows) and rows == rows
        assert rows != listed[:-1] and rows != listed[::-1]
        with pytest.raises(TypeError):
            rows[0] = listed[0]
        for r in rows:
            assert type(r) is ReportRow
            assert all(type(v) is float for v in r[2:9])
            assert all(type(v) is str for v in (*r[:2], *r[9:]))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_are_held_in_under_96_bytes_each(self, jobs):
        # the rows' retained heap: a, c, x, lhs, rhs, margin and budget as
        # doubles and the status as a byte, about 60 B a row; held as
        # named tuples of floats they took 214 B
        cfg = RunConfig(suites=("bounds", "dominance", "monotonicity"), jobs=jobs)
        suites.run(cfg)         # the caches fill here, not in the run traced
        tracemalloc.start()
        try:
            _, rows = suites.run(cfg)
            held, n = tracemalloc.get_traced_memory()[0], len(rows)
            del rows
            freed = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert n >= 2000
        assert (held - freed) / n <= 96


# pairs one integer step apart (the shifted psi of (1, -2.5) is psi at the
# grid pair (2, -1.5)) and two sharpness pairs on the grid
MIXED_GRID = {"grid_a": (1.0, 2.0), "grid_c": (-2.5, -1.5),
              "grid_x": (0.05, 1.0, 5.0)}
# 0 < a < 1 and 0 < c < 1, which MIXED_GRID misses, with a sharpness pair
# on the grid and x from near 0 to large
OPEN_UNIT_GRID = {"grid_a": (0.5, 3.0), "grid_c": (-4.5, 0.25),
                  "grid_x": (0.01, 2.0, 150.0)}


def node(a, c, x):
    """psi at a node of the finite-difference suites."""
    return psi(ParameterPoint(a, c, x)).value


def reference_fields(r: ReportRow, grid_x) -> tuple:
    """The fields of row r that the public per-point function of its claim
    gives at the row's point."""
    p = ParameterPoint(r.a, r.c, r.x) if r.x > 0.0 else None
    if r.suite in ("bounds", "dominance"):
        check = bounds.check_bound if r.suite == "bounds" else bounds.check_dominance
        rec = check(r.claim, p)
        return (rec.lhs.value, rec.rhs.value, rec.margin, rec.budget,
                rec.status, rec.anchor)
    if r.suite == "monotonicity":
        xs = sorted(grid_x)
        which = r.claim.split("-")[0]
        lo, hi = (bounds.auxiliary_log_ratio(which, r.a, r.c, x)
                  for x in (xs[xs.index(r.x) - 1], r.x))
        return lo.value, hi.value
    if r.suite == "moments":
        ident, _ = suites.REGISTRY["moments"].claims[r.claim]
        mv = measure.phi_moment(measure.WeightDensity(r.a, r.c), ident.power)
        return mv.value, ident.closed_form(r.a, r.c)
    if r.suite == "stieltjes":
        kind, _ = suites.REGISTRY["stieltjes"].claims[r.claim]
        d = measure.WeightDensity(r.a, r.c)
        rep = measure.stieltjes(kind, d, r.x)
        return turanians.turanian_ratio(kind, p).value, rep.value
    if r.suite == "sharpness":
        end = turanians.sharpness_scan(bounds.LIMITS[r.claim], r.a, r.c)[-1]
        margin = end.rate - end.deviation
        return (end.x, end.deviation, end.rate, margin, end.budget,
                bounds._status(margin, end.budget))
    if r.suite == "kernel_crosscheck":
        return psi(p).value, psi_connection(r.a, r.c, r.x).value
    assert r.suite in ("derivative", "ode_residual")
    h = 1e-4 * max(r.x, 0.1)
    if r.x - h <= 0.0:
        h = 0.5 * r.x
    h = (r.x + h) - r.x           # the nodes x - h and x + h are exact
    fm, f0, fp = (node(r.a, r.c, x) for x in (r.x - h, r.x, r.x + h))
    d1 = (fp - fm) / (2.0 * h)
    if r.suite == "derivative":
        return d1, -r.a * node(r.a + 1.0, r.c + 1.0, r.x)
    d2 = (fp - 2.0 * f0 + fm) / (h * h)
    return abs(r.x * d2 + (r.c - r.x) * d1 - r.a * f0),


def row_fields(r: ReportRow) -> tuple:
    """The fields of r that ``reference_fields`` gives."""
    if r.suite in ("bounds", "dominance"):
        return r.lhs, r.rhs, r.margin, r.budget, r.status, r.anchor
    if r.suite == "sharpness":
        # every limit reports the deviation at the end of its scan, held
        # against its rate there
        return r.x, r.lhs, r.rhs, r.margin, r.budget, r.status
    if r.suite == "ode_residual":
        return r.lhs,
    return r.lhs, r.rhs


class TestPairBlocks:
    def test_rows_match_their_per_point_functions_in_grid_order(self):
        for cfg in (MIXED_GRID, OPEN_UNIT_GRID):
            self.check_rows_of(cfg)

    @staticmethod
    def check_rows_of(cfg):
        runs = [suites.run(RunConfig(jobs=jobs, **cfg))[1] for jobs in (1, 2, 3)]
        rows = runs[0]
        assert runs[1] == rows and runs[2] == rows
        assert {r.suite for r in rows} == set(suites.SUITES)

        by_claim: dict = {}
        for r in rows:
            by_claim.setdefault((r.suite, r.claim), []).append(r)
        grid = [(a, c) for a in cfg["grid_a"] for c in cfg["grid_c"]]
        for (suite, claim), claim_rows in by_claim.items():
            pairs = [(r.a, r.c) for r in claim_rows]
            if suite == "sharpness":
                # the limit's curated pairs, in their list order, though
                # the blocks of those on the grid run first
                assert pairs == list(bounds.LIMITS[claim].pairs)
            else:
                # grid pairs, in grid order
                visited = [p for i, p in enumerate(pairs) if i == 0 or pairs[i - 1] != p]
                positions = iter(grid)
                assert all(p in positions for p in visited)
        # report order: (suite, claim), each claim's rows in one run and in
        # grid order (checked above)
        order = [(suites.SUITES.index(r.suite), r.claim) for r in rows]
        assert order == sorted(order)
        # T1L holds at every grid point: its rows run over the grid in order
        t1l = by_claim["bounds", "T1L"]
        assert [(r.a, r.c, r.x) for r in t1l] == [
            (a, c, x) for a, c in grid for x in cfg["grid_x"]]
        # a dominance claim has a row at exactly the points where it applies
        for dom_id in bounds.DOMINANCE:
            assert [(r.a, r.c, r.x) for r in by_claim.get(("dominance", dom_id), [])] == [
                (a, c, x) for a, c in grid for x in cfg["grid_x"]
                if bounds.dominance_applicable(dom_id, ParameterPoint(a, c, x))]

        for r in rows:
            assert row_fields(r) == reference_fields(r, cfg["grid_x"]), r


# a and c off the integers and off the default grid, x log-spaced in
# [0.01, 200]: every catalog claim holds at some pair, and every dominance
# claim meets and misses its threshold within its region
OFF_GRID = {"grid_a": (0.3, 0.9, 1.7, 4.2), "grid_c": (-3.7, -1.2, -0.4, 0.6),
            "grid_x": (0.01, 0.0725, 0.525, 3.8, 27.5, 200.0)}
DENSE_SUITES = ("bounds", "dominance", "monotonicity")


def test_dense_suites_rows_off_the_default_grid_are_pinned():
    # sha256 of the repr of every row, taken before the three suites were
    # evaluated as columns per (claim, pair): a change meant to keep every
    # output keeps it
    _, rows = suites.run(RunConfig(suites=DENSE_SUITES, **OFF_GRID))
    digest = hashlib.sha256()
    for r in rows:
        digest.update(repr(r).encode())
    assert (len(rows), digest.hexdigest()) == (
        1926, "469fdc126645963e808f0e8ccc8e522f060592cb9dea605027ef47d256a1be43")
    claims = {(r.suite, r.claim) for r in rows}
    assert all(("bounds", bid) in claims for bid in bounds.CATALOG)
    pairs = [(a, c) for a in OFF_GRID["grid_a"] for c in OFF_GRID["grid_c"]]
    for did, dom in bounds.DOMINANCE.items():
        assert {dom.threshold(a, c, x) for a, c in pairs if dom.region(a, c)
                for x in OFF_GRID["grid_x"]} == {False, True}, did
        assert ("dominance", did) in claims


@pytest.mark.parametrize("grid_x,message", [
    # T1L's rhs (the ratio) fails at its first x, where its record raises
    ((1.0, 1e-200), "record at x=1.0"),
    # T1L's lhs (x^2 underflows in its closed form) fails at its first x,
    # before the ratio fails at the second
    ((1e-200, 1.0), "closed form of T1L is not a finite double "
                    "at (a=0.5, c=0.5, x=1e-200)")], ids=["rhs-first", "lhs-first"])
def test_a_pair_raises_its_first_failing_task_in_x_order(monkeypatch, grid_x, message):
    records = kernel.pair_quotients

    def failing(a, c, xs):
        return [EvaluationError("record at x=1.0") if x == 1.0 else got
                for x, got in zip(xs, records(a, c, xs))]

    monkeypatch.setattr(turanians, "pair_quotients", failing)
    with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
        suites.run(RunConfig(suites=("bounds",), grid_a=(0.5,), grid_c=(0.5,),
                             grid_x=grid_x))


@pytest.mark.parametrize("suite", ["stieltjes", "monotonicity"])
def test_a_row_raises_its_failing_record_s_error(monkeypatch, suite):
    # the record at x = 2 raises: the stieltjes row there, whose phi side
    # delivers, and the monotonicity step to it raise the record's error
    records = kernel.pair_quotients

    def failing(a, c, xs):
        return [EvaluationError("record at x=2.0") if x == 2.0 else got
                for x, got in zip(xs, records(a, c, xs))]

    monkeypatch.setattr(turanians, "pair_quotients", failing)
    with pytest.raises(EvaluationError, match=r"^record at x=2\.0$"):
        suites.run(RunConfig(suites=(suite,), grid_a=(1.5,), grid_c=(-0.5,),
                             grid_x=(0.5, 2.0)))


AGREEMENT_SUITES = ("kernel_crosscheck", "ode_residual", "derivative",
                    "moments", "stieltjes")


def test_agreement_rows_allow_their_budget_only():
    # the margin is the budget less the observed difference, with no slack
    # on top; the budget is the row's own, never 0
    _, rows = suites.run(RunConfig(suites=AGREEMENT_SUITES, **SMALL_GRID))
    assert {r.suite for r in rows} == set(AGREEMENT_SUITES)
    for r in rows:
        assert r.budget > 0.0, r
        assert r.margin == r.budget - abs(r.lhs - r.rhs), r
        assert r.status == ("pass" if r.margin >= 0.0 else "fail"), r


class TestCentralDifference:
    def test_step_is_half_of_an_x_below_it(self, monkeypatch):
        # at x <= 1e-5, x - 1e-4 max(x, 0.1) is not positive: the step
        # becomes x/2, and the derivative rows still pass
        seen = []
        monkeypatch.setattr(suites, "psi", lambda p: seen.append(p.x) or psi(p))
        _, rows = suites.run(RunConfig(suites=("derivative",), grid_a=(1.5,),
                                       grid_c=(0.25,), grid_x=(1e-6, 1e-5)))
        assert [r.status for r in rows] == ["pass", "pass"]
        assert min(seen) == pytest.approx(5e-7, rel=1e-9)

    def test_within_its_budget_against_mpmath(self):
        # psi' = -a U(a+1, c+1, x) and psi'' = a(a+1) U(a+2, c+2, x) by
        # mpmath.hyperu at 40 digits, on 120 seeded points: a in (0, 6], c in
        # (-5, 1) at least 0.01 from an integer, x log-uniform in [0.1, 200]
        rng = random.Random("central-difference-oracle")
        outside = []
        with mpmath.workdps(40):
            for _ in range(120):
                a = 6.0 * (1.0 - rng.random())
                c = rng.uniform(-5.0, 1.0)
                while abs(c - round(c)) < 0.01:
                    c = rng.uniform(-5.0, 1.0)
                x = math.exp(rng.uniform(math.log(0.1), math.log(200.0)))
                A, C, X = mpmath.mpf(a), mpmath.mpf(c), mpmath.mpf(x)
                refs = (-A * mpmath.hyperu(A + 1, C + 1, X),
                        A * (A + 1) * mpmath.hyperu(A + 2, C + 2, X))
                for k, ref in enumerate(refs, 1):
                    d = suites._central_difference(a, c, x, k)
                    if not abs(d.value - float(ref)) <= d.abs_error:
                        outside.append((k, a, c, x, d, float(ref)))
        assert outside == []


@pytest.fixture(scope="module")
def default_run():
    return suites.run(RunConfig())


def test_default_run_verdicts_are_the_recorded_ones(default_run):
    # the figures perfbench records for the default run
    recorded = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                           / "recorded.json").read_text())["default-run"]
    summary, rows = default_run
    totals = (len(rows), summary.gating_fails, summary.advisory_fails)
    assert totals == (9398, 0, 246) == (
        recorded["rows"], recorded["gating_fails"], recorded["advisory_fails"])
    assert summary.n_rows == len(rows)
    # every suite has its counts, in report order, zero counts included
    assert list(summary.counts) == list(suites.SUITES)
    assert all(list(c) == ["pass", "fail", "inconclusive"]
               for c in summary.counts.values())
    assert {s: {k: n for k, n in c.items() if n}
            for s, c in summary.counts.items()} == recorded["counts"]
    assert summary.empty_regions == []


def test_bounds_suite_computes_each_ratio_once(monkeypatch):
    # up to seven catalog bounds read one Turanian ratio at a point (the
    # S-family the second-shift one), and the stieltjes suite reads two
    # kinds again: the suites that share a pair's context read the records
    # of a pair in one call, each (pair, x) once, and form each kind's
    # ratio column once per pair
    calls, reads, formed = Counter(), Counter(), Counter()
    records, form = turanians.pair_quotients, turanians.PairRecords._ratio_column

    def read(a, c, xs):
        calls[a, c] += 1
        reads.update(ParameterPoint(a, c, x) for x in xs)
        return records(a, c, xs)

    def counted(pair, kind):
        formed[kind, pair.a, pair.c] += 1
        return form(pair, kind)

    monkeypatch.setattr(turanians, "pair_quotients", read)
    monkeypatch.setattr(turanians.PairRecords, "_ratio_column", counted)
    shared = ("stieltjes", "bounds", "dominance", "monotonicity")
    _, rows = suites.run(RunConfig(suites=shared, **SMALL_GRID))
    kinds = {f"ratio_{kind.value}": kind for kind in turanians.TuranianKind}
    needs = {spec.id: kinds[spec.target] for spec in bounds.CATALOG.values()
             if spec.target in kinds}
    needs.update(dict.fromkeys(("S1", "S2", "S2H"), turanians.TuranianKind.SECOND_SHIFT))
    needs.update((claim, kind) for claim, (kind, _) in suites.REGISTRY["stieltjes"].claims.items())
    needed = {(needs[r.claim], r.a, r.c) for r in rows if r.claim in needs}
    grid = [ParameterPoint(a, c, x) for a in SMALL_GRID["grid_a"]
            for c in SMALL_GRID["grid_c"] for x in SMALL_GRID["grid_x"]]
    assert formed == Counter(needed) and set(formed.values()) == {1}
    assert reads == Counter(grid) and set(reads.values()) == {1}
    assert calls == Counter({(p.a, p.c) for p in grid})
    assert {r.suite for r in rows} == set(shared)
    assert sum(r.claim in needs for r in rows) > len(needed) * len(SMALL_GRID["grid_x"])


def _cold_default_run(monkeypatch):
    """Run the default grid from a cold psi cache; return the misses of the
    psi cache and the (a, c) of each phi table built."""
    built, build = [], measure._phi_table
    monkeypatch.setattr(measure, "_phi_table", lambda d: built.append((d.a, d.c)) or build(d))
    kernel._psi_cached.cache_clear()
    suites.run(RunConfig())
    return kernel._psi_cached.cache_info().misses, tuple(built)


def test_default_run_computes_no_psi_point_or_phi_table_twice(monkeypatch):
    # psi's cache is bounded by the longest reuse a run shows: its misses
    # equal those of an unbounded cache in its place, so no point is
    # computed twice; a phi table is its pair's density's own, built once
    bounded, built = _cold_default_run(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(kernel, "_psi_cached",
                  functools.lru_cache(maxsize=None)(kernel._psi_cached.__wrapped__))
        unbounded, built_unbounded = _cold_default_run(m)
    assert (bounded, len(built)) == (unbounded, len(built_unbounded)) == (2191, 42)
    assert len(set(built)) == len(built)
    assert kernel._psi_cached.cache_info().maxsize == 2048


def test_each_pair_forms_one_density_and_builds_its_table_once(monkeypatch):
    # the moments and the stieltjes suites read a pair's phi table through
    # the pair's one density: one WeightDensity per pair, one table each
    formed, built = Counter(), Counter()
    post_init, build = measure.WeightDensity.__post_init__, measure._phi_table

    def counted(d):
        formed[d.a, d.c] += 1
        post_init(d)

    monkeypatch.setattr(measure.WeightDensity, "__post_init__", counted)
    monkeypatch.setattr(measure, "_phi_table",
                        lambda d: built.update([(d.a, d.c)]) or build(d))
    _, rows = suites.run(RunConfig(suites=("moments", "stieltjes"), **SMALL_GRID))
    pairs = [(a, c) for a in SMALL_GRID["grid_a"] for c in SMALL_GRID["grid_c"]]
    assert {(r.suite, r.a, r.c) for r in rows} == {
        (suite, a, c) for suite in ("moments", "stieltjes") for a, c in pairs}
    assert formed == built == Counter(pairs)


@pytest.mark.parametrize("a,c,error", [(2.0, 1.5, kernel.RegionError),
                                       (1e308, 0.5, EvaluationError)])
def test_a_density_that_raises_is_formed_again_on_the_next_read(monkeypatch, a, c, error):
    formed, post_init = [], measure.WeightDensity.__post_init__
    monkeypatch.setattr(measure.WeightDensity, "__post_init__",
                        lambda d: formed.append(d) or post_init(d))
    pair = bounds.PairGrid(a, c, (1.0,))
    for n in (1, 2):
        with pytest.raises(error):
            pair.density
        assert len(formed) == n


def _memos(path: Path) -> list:
    """The functions of the module at ``path`` that functools.lru_cache or
    functools.cache wraps, by name (None where one is not a decorator)."""
    tree = ast.parse(path.read_text())
    modules, names = {"functools"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(al.asname or al.name for al in node.names if al.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update(al.asname or al.name for al in node.names
                         if al.name in ("lru_cache", "cache"))

    def uses(node) -> int:
        return sum(isinstance(n, ast.Name) and n.id in names
                   or isinstance(n, ast.Attribute) and n.attr in ("lru_cache", "cache")
                   and isinstance(n.value, ast.Name) and n.value.id in modules
                   for n in ast.walk(node))

    decorated = [fn.name for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for dec in fn.decorator_list if uses(dec)]
    return decorated + [None] * (uses(tree) - len(decorated))


def test_the_only_memo_left_is_the_psi_memo():
    # a pair's values live in its PairGrid and a phi table in its density;
    # kernel._psi_cached stays while perfbench's tracer rebuilds it
    src = Path(suites.__file__).resolve().parent
    memos = {path.name: _memos(path) for path in sorted(src.glob("*.py"))}
    assert {name: found for name, found in memos.items() if found} == {
        "kernel.py": ["_psi_cached"]}


def test_bounds_and_monotonicity_make_one_pass_per_point(monkeypatch):
    # from a cold psi cache: one call of the records' quadrature per (a, c)
    # pair of the grid, all at a > 0, for the records at all its x, and no
    # quadrature of psi alone, so none at a shifted point; one trapezoid
    # pass per (pair, h), h halved from the first step, each x in one pass
    # per h, the first pass at every x
    quadratures, passes, psi_alone = [], [], []
    quadrature, trapezoid = kernel._pair_quadrature, kernel._trapezoid

    def counted(a, c, xs):
        quadratures.append((a, c, tuple(xs)))
        passes.append([])
        return quadrature(a, c, xs)

    def stepped(a, pw, h, points):
        passes[-1].append((h, [point[0] for point in points]))
        return trapezoid(a, pw, h, points)

    monkeypatch.setattr(kernel, "_pair_quadrature", counted)
    monkeypatch.setattr(kernel, "_trapezoid", stepped)
    monkeypatch.setattr(kernel, "_quadrature", lambda *args: psi_alone.append(args))
    kernel._psi_cached.cache_clear()
    suites.run(RunConfig(suites=("bounds", "monotonicity"), **SMALL_GRID))
    xs = SMALL_GRID["grid_x"]
    pairs = [(a, c) for a in SMALL_GRID["grid_a"] for c in SMALL_GRID["grid_c"]]
    assert all(a > 0.0 for a, c in pairs)
    assert sorted(quadratures) == sorted((a, c, xs) for a, c in pairs)
    assert psi_alone == []
    for steps in passes:
        assert [h for h, _ in steps] == [kernel._STEP / 2 ** k for k in range(len(steps))]
        assert steps[0][1] == list(xs)
        assert all(len(set(x)) == len(x) for _, x in steps)
        assert all(set(later) <= set(x) for (_, x), (_, later) in zip(steps, steps[1:]))


def test_a_repeated_suite_name_lists_each_empty_region_once():
    grid = {"grid_a": (0.5,), "grid_c": (0.5,), "grid_x": (1.0,)}
    once, rows = suites.run(RunConfig(suites=("bounds",), **grid))
    twice, rows_twice = suites.run(RunConfig(suites=("bounds", "bounds"), **grid))
    assert len(once.empty_regions) == 14
    assert twice.empty_regions == once.empty_regions
    assert rows_twice == rows


@pytest.mark.parametrize("suite,grid_x,notes", [
    # (2, -2.5) lies in every auxiliary's region, but one x makes no step
    ("monotonicity", (1e300,), {f"monotonicity/{w}-monotone: a single grid x makes no step"
                                for w in "fgh"}),
    # in the regions of D1, D3, D5 and D7, whose thresholds x^2 > c(c-a-1),
    # x > -c/2 and x > 2(1+a-c) no x meets (x^2 underflows to 0)
    ("dominance", (1e-170,), {f"dominance/{d}: no grid x in its region meets its threshold"
                              for d in ("D1", "D3", "D5", "D7")}),
    ("ode_residual", (0.01,), {"ode_residual/kummer-ode: no grid x is at least 0.1"})],
    ids=["monotonicity", "dominance", "ode_residual"])
def test_a_claim_without_rows_in_its_region_notes_why(suite, grid_x, notes):
    summary, _ = suites.run(RunConfig(suites=(suite,), grid_a=(2.0,), grid_c=(-2.5,),
                                      grid_x=grid_x))
    assert set(summary.empty_regions) == notes
    assert len(summary.empty_regions) == len(notes)


def csv_text(rows, summary, timestamp=False):
    """The CSV report of ``rows``, written by ``_write_csv`` into a string."""
    buf = io.StringIO()
    suites._write_csv(buf, rows, summary, timestamp=timestamp)
    return buf.getvalue()


def json_text(rows, summary):
    """The JSON report of ``rows``, written by ``_write_json`` into a string."""
    buf = io.StringIO()
    suites._write_json(buf, rows, summary)
    return buf.getvalue()


def rows_to_csv_reference(rows, summary):
    """The csv.writer form of the CSV report (timestamp off)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(suites._CSV_COLUMNS)
    for r in rows:
        w.writerow([r.suite, r.claim, *(f"{v:.17g}" for v in r[2:9]),
                    r.status, r.anchor])
    for note in summary.empty_regions:
        buf.write(f"# note: {note}\n")
    return buf.getvalue()


class TestRowsToCsv:
    def test_equals_csv_writer_on_a_run(self):
        summary, rows = suites.run(RunConfig(**SMALL_GRID))
        assert csv_text(rows, summary) == rows_to_csv_reference(rows, summary)

    @pytest.mark.parametrize("text", ["a,b", 'say "x"', "cr\rhere", "lf\nhere",
                                      "", '"', ",", " padded ", "é"])
    def test_equals_csv_writer_on_awkward_strings(self, text):
        summary = suites.RunSummary({}, 0, 0, ["x: no grid point"], 2)
        rows = [ReportRow(text, "T1L", 0.1, -0.0, 1e-300, math.inf, -math.inf,
                          math.nan, 5e-324, "pass", text),
                ReportRow("bounds", text, 1.0, 2.0, 3.0, 1.0 / 3.0, 2.0, 3.0,
                          4.0, text, "anchor")]
        assert csv_text(rows, summary) == rows_to_csv_reference(rows, summary)

    def test_timestamp_line_comes_first(self):
        summary = suites.RunSummary({}, 0, 0, [], 0)
        text = csv_text([], summary, timestamp=True)
        first, rest = text.split("\n", 1)
        assert first.startswith("# generated ")
        assert rest == rows_to_csv_reference([], summary)


def rows_to_json_reference(rows, summary):
    """The report as ``json.dump`` writes the whole document at once."""
    doc = {"rows": [dict(zip(suites._CSV_COLUMNS, r)) for r in rows],
           "summary": dataclasses.asdict(summary)}
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


class TestRowsToJson:
    def test_equals_json_dump_on_the_default_run(self, default_run):
        summary, rows = default_run
        assert json_text(rows, summary) == rows_to_json_reference(rows, summary)

    def test_equals_json_dump_without_rows(self):
        summary = suites.RunSummary({}, 0, 0, ["x/y: no grid point lies in its region"], 0)
        assert json_text([], summary) == rows_to_json_reference([], summary)

    @pytest.mark.parametrize("text", ['say "x"', "back\\slash", "lf\nhere", "tab\t",
                                      "\x00\x1f", "", "é", "\u2603", "{0}"])
    def test_equals_json_dump_on_awkward_values(self, text):
        summary = suites.RunSummary({"bounds": {"pass": 2}}, 0, 0, [text], 2)
        rows = [ReportRow(text, "T1L", 0.1, -0.0, 1e-300, math.inf, -math.inf,
                          math.nan, 5e-324, "pass", text),
                ReportRow("bounds", text, 1, 2.0, 3.0, 1.0 / 3.0, 2.0, 3.0,
                          4.0, text, "anchor")]
        assert json_text(rows, summary) == rows_to_json_reference(rows, summary)

    def test_is_written_in_bounded_memory(self, tmp_path):
        # a row at a time: held as dicts, the default run's 9,398 rows
        # peak at about 4.5 MB
        summary, rows = suites.run(RunConfig(suites=("bounds",), **SMALL_GRID))
        rows = list(rows) * (9000 // len(rows) + 1)
        path = tmp_path / "report.json"
        tracemalloc.start()
        try:
            suites.write_report(str(path), "json", rows, summary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 2_000_000
        assert peak < 500_000


def test_default_run_report_bytes_are_pinned(default_run):
    # sha256 of the default run's CSV report past its timestamp line and of
    # its JSON report, verified with numpy 2.4.6 and Python 3.11.7: a
    # change meant to keep every output keeps these bytes
    summary, rows = default_run
    assert [hashlib.sha256(text.encode()).hexdigest()
            for text in (csv_text(rows, summary), json_text(rows, summary))] == [
        "8d72d13d54e07b8ec922496fc243e26396c108b934c7b5b835cce055d3b79952",
        "9cd57d31fe07a6efc9a6338b4a22001a220e3193dbfc495a385b57f9cffe498f"]


class TestWriteReport:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_file_equals_the_string_form(self, tmp_path, fmt):
        summary, rows = suites.run(RunConfig(suites=("bounds", "moments"),
                                             **SMALL_GRID))
        path = tmp_path / f"report.{fmt}"
        suites.write_report(str(path), fmt, rows, summary)
        text = path.read_text(encoding="utf-8")
        if fmt == "csv":
            first, text = text.split("\n", 1)
            assert first.startswith("# generated ")
            assert text == csv_text(rows, summary)
        else:
            assert text == json_text(rows, summary)

    def test_csv_is_written_in_bounded_memory(self, tmp_path):
        # 20,000 rows with the catalog's anchors make a report of about
        # 4.4 MB; it goes into its file as it is formatted, so no copy of
        # the text is held (with a copy the peak is near 10 MB)
        rng = random.Random(25)
        claims = list(bounds.CATALOG)
        rows = [ReportRow("bounds", claims[i % len(claims)], rng.uniform(0, 5),
                          rng.uniform(-5, 1), rng.uniform(0, 200),
                          rng.uniform(-1, 1), rng.uniform(-1, 1),
                          rng.uniform(-1, 1), rng.uniform(0, 1e-12), "pass",
                          bounds.CATALOG[claims[i % len(claims)]].anchor)
                for i in range(20_000)]
        summary = suites.RunSummary({}, 0, 0, [], len(rows))
        path = tmp_path / "report.csv"
        tracemalloc.start()
        try:
            suites.write_report(str(path), "csv", rows, summary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 4_000_000
        assert peak < 1_000_000


class TestReportRow:
    ROW = ReportRow("bounds", "T1L", 2.0, -2.5, 0.1, -350.0, -0.19, 349.8,
                    1e-13, "pass", "anchor text")

    def test_fields_are_the_csv_columns(self):
        assert ReportRow._fields == suites._CSV_COLUMNS == (
            "suite", "claim", "a", "c", "x", "lhs", "rhs", "margin", "budget",
            "status", "anchor")
        with pytest.raises(TypeError):
            ReportRow(*self.ROW, 3)

    def test_pickle_round_trip(self):
        assert pickle.loads(pickle.dumps(self.ROW)) == self.ROW

    def test_fields_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            self.ROW.margin = 0.0

    def test_repr_names_every_field(self):
        # the dense-bounds benchmark digest hashes this form
        assert repr(self.ROW) == (
            "ReportRow(suite='bounds', claim='T1L', a=2.0, c=-2.5, x=0.1, "
            "lhs=-350.0, rhs=-0.19, margin=349.8, budget=1e-13, "
            "status='pass', anchor='anchor text')")

    def test_json_rows_hold_the_csv_columns_only(self):
        summary = suites.RunSummary({}, 0, 0, [], 1)
        doc = json.loads(json_text([self.ROW], summary))
        assert doc["rows"] == [dict(zip(suites._CSV_COLUMNS, self.ROW))]

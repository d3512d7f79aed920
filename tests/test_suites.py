"""Suite records, run-configuration checks and the process-pool runner."""

import csv
import io
import json
import math
import pickle

import pytest

from tricomi_turan import bounds, kernel, suites, turanians
from tricomi_turan.kernel import EvaluationError, asymptotic_threshold
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

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_tolerance(self, tol):
        with pytest.raises(ConfigError):
            RunConfig(tolerances={"stieltjes": tol})

    def test_zero_tolerance_only_where_the_suite_allows_it(self):
        assert RunConfig(tolerances={"stieltjes": 0.0}).tol("stieltjes") == 0.0
        with pytest.raises(ConfigError, match="must be finite and positive"):
            RunConfig(tolerances={"moments": 0.0})

    def test_dominance_takes_no_tolerance(self):
        # nor do bounds and monotonicity, whose checks read psi at kernel.PSI_TOL
        for name in ("dominance", "bounds", "monotonicity"):
            assert suites.REGISTRY[name].tolerance is None
            with pytest.raises(ConfigError, match=f"the {name} suite takes no tolerance"):
                RunConfig(tolerances={name: 1e-12})


def test_crosscheck_points_take_the_quadrature_route_of_psi():
    assert max(suites.CROSSCHECK_X) < asymptotic_threshold(0.0, 0.0)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count asked
    for and maps in this process, so it starts no process."""

    def __init__(self, asked):
        self.asked = asked

    def __call__(self, max_workers):
        self.asked.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestRun:
    def test_jobs_two_rows_equal_jobs_one(self):
        s1, one = suites.run(RunConfig(jobs=1, **SMALL_GRID))
        s2, two = suites.run(RunConfig(jobs=2, **SMALL_GRID))
        assert {r.suite for r in one} == set(suites.SUITES)
        assert two == one
        # rows cross the pool as plain tuples, which equal rows too
        assert all(type(r) is ReportRow for r in two)
        assert (suites.rows_to_csv(two, s2, timestamp=False)
                == suites.rows_to_csv(one, s1, timestamp=False))

    def test_jobs_raise_the_error_of_the_first_failing_task(self, monkeypatch):
        # bounds fails at the second (a, c) pair and dominance at the first,
        # whose block the pool maps first; jobs=1 meets the bounds task first
        evaluate = suites._eval_task

        def failing(task):
            if (task[0], task[3]) in {("bounds", 3.0), ("dominance", 2.0)}:
                raise EvaluationError(f"{task[0]} at a={task[3]}")
            return evaluate(task)

        monkeypatch.setattr(suites, "_eval_task", failing)
        monkeypatch.setattr(suites, "ProcessPoolExecutor", RecordingPool([]))
        cfg = {"suites": ("bounds", "dominance"), "grid_a": (2.0, 3.0),
               "grid_c": (-2.5,), "grid_x": (0.1, 1.0)}
        for jobs in (1, 2):
            with pytest.raises(EvaluationError, match=r"^bounds at a=3\.0$"):
                suites.run(RunConfig(jobs=jobs, **cfg))

    @pytest.mark.parametrize("grid_c,asked", [((-2.5, 0.25), [2]), ((-2.5,), [])])
    def test_workers_capped_by_grid_pairs(self, monkeypatch, grid_c, asked):
        # one block per (a, c) pair: a 1x2 grid asks for 2 workers, and a
        # single pair runs in-process
        recorded = []
        monkeypatch.setattr(suites, "ProcessPoolExecutor", RecordingPool(recorded))
        cfg = {"suites": ("bounds", "dominance"), "grid_a": (2.0,),
               "grid_c": grid_c, "grid_x": (0.1, 1.0, 20.0)}
        _, eight = suites.run(RunConfig(jobs=8, **cfg))
        assert recorded == asked
        _, one = suites.run(RunConfig(jobs=1, **cfg))
        assert eight == one


def test_bounds_suite_computes_each_ratio_once():
    # up to six catalog bounds read one Turanian ratio at a point; from
    # cold caches each (kind, point) the catalog needs is computed once
    # and every other ratio bound check is served by the cache
    turanians._ratio_cached.cache_clear()
    kernel._psi_cached.cache_clear()
    _, rows = suites.run(RunConfig(suites=("bounds",), **SMALL_GRID))
    kinds = {f"ratio_{kind.value}": kind for kind in turanians.TuranianKind}
    needed = {(kinds[spec.target], a, c, x)
              for spec in bounds.CATALOG.values() if spec.target in kinds
              for a in SMALL_GRID["grid_a"] for c in SMALL_GRID["grid_c"]
              if spec.region(a, c) for x in SMALL_GRID["grid_x"]}
    checks = sum(bounds.CATALOG[r.claim].target in kinds for r in rows)
    info = turanians._ratio_cached.cache_info()
    assert info.misses == len(needed)
    assert info.hits == checks - len(needed) > 0


def test_a_repeated_suite_name_lists_each_empty_region_once():
    grid = {"grid_a": (0.5,), "grid_c": (0.5,), "grid_x": (1.0,)}
    once, rows = suites.run(RunConfig(suites=("bounds",), **grid))
    twice, rows_twice = suites.run(RunConfig(suites=("bounds", "bounds"), **grid))
    assert len(once.empty_regions) == 14
    assert twice.empty_regions == once.empty_regions
    assert rows_twice == rows


def rows_to_csv_reference(rows, summary):
    """The csv.writer form of ``rows_to_csv`` (timestamp off)."""
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
        assert suites.rows_to_csv(rows, summary, timestamp=False) == (
            rows_to_csv_reference(rows, summary))

    @pytest.mark.parametrize("text", ["a,b", 'say "x"', "cr\rhere", "lf\nhere",
                                      "", '"', ",", " padded ", "é"])
    def test_equals_csv_writer_on_awkward_strings(self, text):
        summary = suites.RunSummary({}, 0, 0, ["x: no grid point"], 2)
        rows = [ReportRow(text, "T1L", 0.1, -0.0, 1e-300, math.inf, -math.inf,
                          math.nan, 5e-324, "pass", text, 0),
                ReportRow("bounds", text, 1.0, 2.0, 3.0, 1.0 / 3.0, 2.0, 3.0,
                          4.0, text, "anchor", 1)]
        assert suites.rows_to_csv(rows, summary, timestamp=False) == (
            rows_to_csv_reference(rows, summary))

    def test_timestamp_line_comes_first(self):
        summary = suites.RunSummary({}, 0, 0, [], 0)
        text = suites.rows_to_csv([], summary)
        first, rest = text.split("\n", 1)
        assert first.startswith("# generated ")
        assert rest == rows_to_csv_reference([], summary)


class TestReportRow:
    ROW = ReportRow("bounds", "T1L", 2.0, -2.5, 0.1, -350.0, -0.19, 349.8,
                    1e-13, "pass", "anchor text", 3)

    def test_fields_are_the_csv_columns_then_idx(self):
        assert ReportRow._fields == suites._CSV_COLUMNS + ("idx",)
        assert ReportRow(*self.ROW[:11]).idx == 0

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
            "status='pass', anchor='anchor text', idx=3)")

    def test_json_rows_hold_the_csv_columns_only(self):
        summary = suites.RunSummary({}, 0, 0, [], 1)
        doc = json.loads(suites.rows_to_json([self.ROW], summary))
        assert doc["rows"] == [dict(zip(suites._CSV_COLUMNS, self.ROW[:11]))]

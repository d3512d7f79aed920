"""Suite records, run-configuration checks and the process-pool runner."""

import math

import pytest

from tricomi_turan import suites
from tricomi_turan.kernel import EvaluationError, asymptotic_threshold
from tricomi_turan.suites import ConfigError, RunConfig

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
        with pytest.raises(ConfigError):
            RunConfig(tolerances={"bounds": 0.0})

    def test_dominance_takes_no_tolerance(self):
        assert suites.REGISTRY["dominance"].tolerance is None
        with pytest.raises(ConfigError):
            RunConfig(tolerances={"dominance": 1e-3})


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

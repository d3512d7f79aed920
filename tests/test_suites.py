"""Suite records, run-configuration checks and the process-pool runner."""

import math

import pytest

from tricomi_turan import suites
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


class TestRun:
    def test_jobs_two_rows_equal_jobs_one(self):
        _, one = suites.run(RunConfig(jobs=1, **SMALL_GRID))
        _, two = suites.run(RunConfig(jobs=2, **SMALL_GRID))
        assert {r.suite for r in one} == set(suites.SUITES)
        assert two == one

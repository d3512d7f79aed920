"""Batch verification suites over parameter grids, with report output.

A :class:`RunConfig` selects suites, grids, tolerances and output; ``run``
executes every selected suite deterministically (fixed grid order, fixed
quadrature) and returns a :class:`RunSummary` plus one :class:`ReportRow`
per (claim, point).  A row is a named tuple, cheap to build; its fields
are the report columns, in order, then the grid index.  With
``jobs > 1`` a process pool gets one block of tasks per (a, c) grid
pair, so that the worker holding a pair computes each shifted psi value
and each phi table of that pair once; at most one worker per pair is
started, and a single pair runs in-process.  Rows cross the pool as
plain tuples, which pickle several times faster than named tuples, and
are made rows again on arrival.  Rows are sorted afterwards by
(suite, claim, grid index), and a failing run raises the error of its
first failing task in that order, so neither the report nor the error
depends on ``jobs``.

Each suite is one :class:`Suite` record in ``REGISTRY``, in report order
(``SUITES`` is the tuple of their names).  The record lists the suite's
claims once, each with the argument its tasks need (a catalog entry, a
moment identity, a Turanian kind); the sharpness suite's claims are the
rows of ``turanians.LIMITS``.  A record holds the default tolerance, or
None for a suite that takes none; and it names the builder of the
suite's tasks and the evaluator of one task.  A task is a plain tuple
(suite, claim, grid index, a, c, ...) so that a process pool can send it;
the evaluator receives the task and the argument of its claim.

Row conventions: every row is oriented so that ``margin >= 0`` (beyond
``budget``) means the check holds; for inequality rows lhs/rhs are the
two sides, for agreement rows lhs/rhs are the two values being compared
and the margin is the allowance minus the observed difference.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import lru_cache
from typing import Callable, NamedTuple

from . import bounds as bounds_mod
from . import measure as measure_mod
from .kernel import (INTEGER_C_GUARD, ParameterPoint, asymptotic_threshold,
                     psi, psi_connection, psi_quadrature)
from .turanians import LIMITS, TuranianKind, sharpness_scan, turanian_ratio

DEFAULT_GRID_A = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
DEFAULT_GRID_C = (-4.5, -2.5, -1.5, -0.5, 0.25, 0.75)
DEFAULT_GRID_X = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0)

# The connection series loses ~ e^x * x^(2a-c) * EPS to cancellation on the
# positive axis, so the two-method comparison is meaningful only at small x.
CROSSCHECK_X = (0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)

# Central differences at h = 1e-4 x turn quadrature noise into ~ noise/x in
# the residual; below x ~ 0.1 that swamps the 1e-4 allowance.
ODE_MIN_X = 0.1

# Curated (a, c) pairs for the sharpness scans.  The x -> 0 limits converge
# like K(a,c) * x with K growing as c -> -1 and |c - a| -> inf; these pairs
# keep the deviation at x = 1e-3 below 1% of the limit with >= 4x margin.
SHARPNESS_PAIRS_ZERO = ((1.5, -2.5), (2.0, -2.5), (2.0, -4.5), (3.0, -4.5))
SHARPNESS_PAIRS_INF = ((1.0, 0.5), (1.0, -1.5), (2.0, -2.5), (3.0, -4.5))

# the x^2-scaled both-shift ratio at x = 1000 lies within this fraction of
# its limit c-a-1; the sharpness tolerance applies to the x -> 0 limits
ZETA_LIMIT_FRACTION = 0.05

_DIFFERENCE_TOL = 1e-13  # quadrature tolerance for finite-difference suites


class ConfigError(ValueError):
    """Invalid run configuration."""


class ReportRow(NamedTuple):
    suite: str
    claim: str
    a: float
    c: float
    x: float
    lhs: float
    rhs: float
    margin: float
    budget: float
    status: str
    anchor: str
    idx: int = 0  # grid index within (suite, claim); not exported


@dataclass
class RunSummary:
    counts: dict                      # suite -> {"pass": n, "fail": n, "inconclusive": n}
    gating_fails: int
    advisory_fails: int
    empty_regions: list
    n_rows: int

    @property
    def exit_code(self) -> int:
        return 1 if self.gating_fails else 0


PASS, FAIL, INCONCLUSIVE = bounds_mod.PASS, bounds_mod.FAIL, bounds_mod.INCONCLUSIVE


@dataclass(frozen=True)
class Suite:
    """One verification suite; see the module docstring."""

    name: str
    claims: dict                       # claim -> its argument, in report order
    tolerance: float | None            # default; None: the suite takes none
    tasks: Callable[[RunConfig, Suite], list]
    evaluate: Callable[[tuple, object], ReportRow]
    zero_tolerance: bool = False       # a tolerance of 0 is valid


# ---------------------------------------------------------------------------
# task evaluators: (task, argument of its claim) -> ReportRow
# ---------------------------------------------------------------------------

def _task_crosscheck(task, _):
    suite, claim, idx, a, c, x, tol_rel = task
    # x <= max(CROSSCHECK_X) lies below asymptotic_threshold, so psi takes
    # the quadrature route, and caches it for the Turanians of this point
    q = psi(ParameterPoint(a, c, x))
    k = psi_connection(a, c, x)
    diff = abs(q.value - k.value)
    allowance = max(tol_rel * abs(q.value), q.abs_error + k.abs_error)
    margin = allowance - diff
    return ReportRow(suite, claim, a, c, x, q.value, k.value, margin,
                     allowance, PASS if margin >= 0.0 else FAIL,
                     "quadrature and connection-series values agree", idx)


@lru_cache(maxsize=8192)
def _difference_node(a: float, c: float, x: float) -> float:
    """psi_quadrature at a node of the central differences.  Cached, since
    for x >= ODE_MIN_X the ode_residual and derivative suites both step
    h = 1e-4 x and so evaluate the same nodes x +- h, and the derivative's
    target psi(a+1, c+1, x) is the ode_residual's centre node at the grid
    pair (a+1, c+1)."""
    return psi_quadrature(ParameterPoint(a, c, x), _DIFFERENCE_TOL).value


def _task_ode(task, _):
    suite, claim, idx, a, c, x, tol = task
    h = 1e-4 * x
    f0 = _difference_node(a, c, x)
    fp = _difference_node(a, c, x + h)
    fm = _difference_node(a, c, x - h)
    d1 = (fp - fm) / (2.0 * h)
    d2 = (fp - 2.0 * f0 + fm) / (h * h)
    resid = x * d2 + (c - x) * d1 - a * f0
    scale = abs(x * d2) + abs((c - x) * d1) + abs(a * f0)
    allowance = tol * scale
    margin = allowance - abs(resid)
    return ReportRow(suite, claim, a, c, x, abs(resid), allowance, margin, 0.0,
                     PASS if margin >= 0.0 else FAIL,
                     "Kummer ODE residual under central differences", idx)


def _task_derivative(task, _):
    suite, claim, idx, a, c, x, tol = task
    h = 1e-4 * max(x, 0.1)
    if x - h <= 0.0:
        h = 0.5 * x
    fp = _difference_node(a, c, x + h)
    fm = _difference_node(a, c, x - h)
    fd = (fp - fm) / (2.0 * h)
    # a > 0, so psi takes the quadrature route up to the threshold
    if x <= asymptotic_threshold(a + 1.0, c + 1.0):
        target = -a * _difference_node(a + 1.0, c + 1.0, x)
    else:
        target = -a * psi(ParameterPoint(a + 1.0, c + 1.0, x)).value
    allowance = tol * abs(target) + 1e-9
    margin = allowance - abs(fd - target)
    return ReportRow(suite, claim, a, c, x, fd, target, margin, allowance,
                     PASS if margin >= 0.0 else FAIL,
                     "d/dx psi(a,c,x) = -a psi(a+1,c+1,x)", idx)


def _task_moment(task, ident):
    suite, claim, idx, a, c, x, tol = task
    d = measure_mod.WeightDensity(a, c)
    mv = measure_mod.phi_moment(d, ident.power)
    closed = ident.closed_form(a, c)
    allowance = tol + mv.abs_error
    margin = allowance - abs(mv.value - closed)
    return ReportRow(suite, claim, a, c, x, mv.value, closed, margin,
                     mv.abs_error, PASS if margin >= 0.0 else FAIL,
                     f"moment power {ident.power} equals its closed form", idx)


def _task_stieltjes(task, arg):
    suite, claim, idx, a, c, x, slack = task
    kind, anchor = arg
    d = measure_mod.WeightDensity(a, c)
    if kind is TuranianKind.BOTH_SHIFT:
        rep = measure_mod.stieltjes_ratio(d, x)
    else:
        rep = measure_mod.stieltjes_first_shift(d, x)
    direct = turanian_ratio(kind, ParameterPoint(a, c, x))
    budget = rep.abs_error + direct.abs_error
    allowance = budget + slack
    margin = allowance - abs(rep.value - direct.value)
    return ReportRow(suite, claim, a, c, x, direct.value, rep.value, margin,
                     budget, PASS if margin >= 0.0 else FAIL, anchor, idx)


def _task_bound(task, _):
    suite, claim, idx, a, c, x = task
    rec = bounds_mod.check_bound(claim, ParameterPoint(a, c, x))
    return ReportRow(suite, claim, a, c, x, rec.lhs.value,
                     rec.rhs.value, rec.margin, rec.budget, rec.status,
                     rec.anchor, idx)


def _task_dominance(task, _):
    suite, claim, idx, a, c, x = task
    rec = bounds_mod.check_dominance(claim, ParameterPoint(a, c, x))
    return ReportRow(suite, claim, a, c, x, rec.lhs.value,
                     rec.rhs.value, rec.margin, rec.budget, rec.status,
                     rec.anchor, idx)


def _task_sharpness(task, lim):
    suite, claim, idx, a, c, frac = task
    scan = sharpness_scan(lim, a, c)
    last = scan.points[-1]
    if lim.toward_zero or lim.x2_scaled:
        # the endpoint lies within a fraction of |limit|; the zeta limit
        # has its own fraction and needs decreasing deviations too
        fraction = ZETA_LIMIT_FRACTION if lim.x2_scaled else frac
        allowance = fraction * abs(lim.value(a, c))
        margin = allowance - last.deviation
        if lim.x2_scaled and not scan.eventually_decreasing:
            margin = -abs(margin) - 1.0
        return ReportRow(suite, claim, a, c, last.x, last.deviation, allowance,
                         margin, last.budget, bounds_mod._status(margin, last.budget),
                         lim.anchor, idx)
    # plain ratios at infinity: the deviations decrease
    devs = [q.deviation for q in scan.points]
    worst = max(d2 - d1 for d1, d2 in zip(devs, devs[1:]))
    budget = 2.0 * max(q.budget for q in scan.points)
    margin = -worst
    return ReportRow(suite, claim, a, c, last.x, devs[-1], devs[0], margin,
                     budget, bounds_mod._status(margin, budget), lim.anchor, idx)


def _task_monotonicity(task, which):
    suite, claim, idx, a, c, x_lo, x_hi = task
    sign = bounds_mod.AUXILIARY[which].sign
    lo = bounds_mod.auxiliary_log_ratio(which, a, c, x_lo)
    hi = bounds_mod.auxiliary_log_ratio(which, a, c, x_hi)
    margin = sign * (hi.value - lo.value)
    budget = lo.abs_error + hi.abs_error
    direction = "increasing" if sign > 0 else "decreasing"
    return ReportRow(suite, claim, a, c, x_hi, lo.value, hi.value, margin,
                     budget, bounds_mod._status(margin, budget),
                     f"auxiliary log-ratio {which} is {direction}", idx)


def _eval_task(task):
    suite = REGISTRY[task[0]]
    return suite.evaluate(task, suite.claims[task[1]])


def _eval_block(tasks):
    """Rows of a block of tasks, as plain tuples, and the first task that
    fails with its error, or None."""
    rows = []
    for task in tasks:
        try:
            rows.append(tuple(_eval_task(task)))
        except Exception as exc:
            return rows, (task, exc)
    return rows, None


# ---------------------------------------------------------------------------
# task builders: (config, suite) -> task tuples; their order within a claim
# defines the grid index
# ---------------------------------------------------------------------------

def _off_integer(c: float) -> bool:
    return abs(c - round(c)) >= INTEGER_C_GUARD


def _grid_tasks(cfg, suite, applies, xs):
    """Tasks (suite, claim, idx, a, c, *x[, tol]): each claim at each grid
    (a, c) where ``applies(argument, a, c)`` holds, once per tuple x of
    ``xs``; the tolerance closes the task of a suite that takes one."""
    tol = () if suite.tolerance is None else (cfg.tol(suite.name),)
    out = []
    for claim, arg in suite.claims.items():
        idx = 0
        for a in cfg.grid_a:
            for c in cfg.grid_c:
                if not applies(arg, a, c):
                    continue
                for x in xs:
                    out.append((suite.name, claim, idx, a, c, *x, *tol))
                    idx += 1
    return out


def _tasks_crosscheck(cfg, s):
    return _grid_tasks(cfg, s, lambda _, a, c: a > 0.0 and _off_integer(c),
                       [(x,) for x in CROSSCHECK_X])


def _tasks_ode(cfg, s):
    return _grid_tasks(cfg, s, lambda _, a, c: a > 0.0,
                       [(x,) for x in cfg.grid_x if x >= ODE_MIN_X])


def _tasks_derivative(cfg, s):
    return _grid_tasks(cfg, s, lambda _, a, c: a > 0.0,
                       [(x,) for x in cfg.grid_x])


def _tasks_moments(cfg, s):
    # a moment has no x; its rows report x = 0
    return _grid_tasks(cfg, s, lambda ident, a, c: ident.region(a, c) and _off_integer(c),
                       [(0.0,)])


def _tasks_stieltjes(cfg, s):
    return _grid_tasks(cfg, s, lambda _, a, c: a > 0.0 and c < 1.0 and _off_integer(c),
                       [(x,) for x in cfg.grid_x])


def _tasks_bounds(cfg, s):
    return _grid_tasks(cfg, s, lambda spec, a, c: spec.region(a, c),
                       [(x,) for x in cfg.grid_x])


def _tasks_monotonicity(cfg, s):
    xs = sorted(cfg.grid_x)
    return _grid_tasks(cfg, s, lambda which, a, c: bounds_mod.AUXILIARY[which].region(a, c),
                       list(zip(xs, xs[1:])))


def _tasks_dominance(cfg, s):
    out = []
    for did in s.claims:
        idx = 0
        for a in cfg.grid_a:
            for c in cfg.grid_c:
                for x in cfg.grid_x:
                    if bounds_mod.dominance_applicable(did, ParameterPoint(a, c, x)):
                        out.append((s.name, did, idx, a, c, x))
                        idx += 1
    return out


def _tasks_sharpness(cfg, s):
    tol = cfg.tol(s.name)
    out = []
    for claim, lim in s.claims.items():
        pairs = SHARPNESS_PAIRS_ZERO if lim.toward_zero else SHARPNESS_PAIRS_INF
        out.extend((s.name, claim, idx, a, c, tol) for idx, (a, c) in enumerate(pairs))
    return out


# ---------------------------------------------------------------------------
# the suites, in report order
# ---------------------------------------------------------------------------

_BOTH, _FIRST = TuranianKind.BOTH_SHIFT, TuranianKind.FIRST_SHIFT

REGISTRY: dict[str, Suite] = {s.name: s for s in (
    # tolerance: relative agreement floor
    Suite("kernel_crosscheck", {"psi-two-methods": None}, 1e-8,
          _tasks_crosscheck, _task_crosscheck),
    # tolerance: residual / term scale
    Suite("ode_residual", {"kummer-ode": None}, 1e-4, _tasks_ode, _task_ode),
    # tolerance: relative (plus fixed 1e-9 absolute floor)
    Suite("derivative", {"dpsi-dx": None}, 1e-6, _tasks_derivative,
          _task_derivative),
    # tolerance: absolute, on top of the quadrature budget
    Suite("moments", {f"moment[{power}]": ident for power, ident
                      in measure_mod.MOMENT_IDENTITIES.items()},
          1e-6, _tasks_moments, _task_moment),
    # tolerance: extra absolute slack on top of the budgets
    Suite("stieltjes", {
        "both-shift": (_BOTH, "both-shift ratio equals -int t phi/(x+t)^2 dt"),
        "first-shift": (_FIRST, "first-shift ratio equals "
                                "(1 - int x^2 phi/(x+t)^2 dt)/(1+a-c)")},
          0.0, _tasks_stieltjes, _task_stieltjes, zero_tolerance=True),
    # margins against the budgets of psi values at kernel.PSI_TOL: no tolerance
    Suite("bounds", bounds_mod.CATALOG, None, _tasks_bounds, _task_bound),
    # closed forms: no tolerance
    Suite("dominance", bounds_mod.DOMINANCE, None, _tasks_dominance,
          _task_dominance),
    # tolerance: x -> 0 limits within this fraction of |limit|
    Suite("sharpness", LIMITS, 0.01, _tasks_sharpness, _task_sharpness),
    # margins against the budgets of psi values at kernel.PSI_TOL: no tolerance
    Suite("monotonicity", {f"{w}-monotone": w for w in bounds_mod.AUXILIARY},
          None, _tasks_monotonicity, _task_monotonicity),
)}

SUITES = tuple(REGISTRY)
_SUITE_RANK = {name: i for i, name in enumerate(SUITES)}

# claims whose failures are reported but never gate a run
ADVISORY_CLAIMS = frozenset(
    bid for bid, spec in bounds_mod.CATALOG.items() if not spec.gating)


def check_grid(grid: tuple[float, ...], name: str) -> None:
    """Raise :class:`ConfigError` unless the grid of ``name`` is nonempty
    and finite."""
    if not grid:
        raise ConfigError(f"grid for {name} is empty")
    if not all(math.isfinite(v) for v in grid):
        raise ConfigError(f"grid {name} values must be finite, got {grid}")


@dataclass
class RunConfig:
    suites: tuple[str, ...] = SUITES
    grid_a: tuple[float, ...] = DEFAULT_GRID_A
    grid_c: tuple[float, ...] = DEFAULT_GRID_C
    grid_x: tuple[float, ...] = DEFAULT_GRID_X
    tolerances: dict = field(default_factory=dict)
    out: str | None = None
    fmt: str = "csv"
    jobs: int = 1
    gate_advisory: bool = False

    def __post_init__(self):
        unknown = [s for s in self.suites if s not in REGISTRY]
        if unknown:
            raise ConfigError(f"unknown suite names: {unknown}")
        if not self.suites:
            raise ConfigError("no suites selected")
        for g, name in ((self.grid_a, "a"), (self.grid_c, "c"), (self.grid_x, "x")):
            check_grid(g, name)
        if any(x <= 0 for x in self.grid_x):
            raise ConfigError("grid x values must be positive")
        for k, v in self.tolerances.items():
            if k not in REGISTRY:
                raise ConfigError(f"tolerance for unknown suite {k!r}")
            suite = REGISTRY[k]
            if suite.tolerance is None:
                raise ConfigError(f"the {k} suite takes no tolerance")
            if not (math.isfinite(v) and (v > 0.0 or v == 0.0 and suite.zero_tolerance)):
                need = "nonnegative" if suite.zero_tolerance else "positive"
                raise ConfigError(f"tolerance for {k} must be finite and {need}, got {v}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown report format {self.fmt!r}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")

    def tol(self, suite: str) -> float:
        return self.tolerances.get(suite, REGISTRY[suite].tolerance)


# ---------------------------------------------------------------------------
# runner and report writers
# ---------------------------------------------------------------------------

def run(cfg: RunConfig) -> tuple[RunSummary, list[ReportRow]]:
    """Execute the configured suites; deterministic for a fixed config."""
    selected = [s for s in REGISTRY.values() if s.name in cfg.suites]
    tasks = [t for s in selected for t in s.tasks(cfg, s)]
    # a task holds its grid pair (a, c) at positions 3 and 4
    blocks: dict = {}
    if cfg.jobs > 1:
        for t in tasks:
            blocks.setdefault((t[3], t[4]), []).append(t)
    workers = min(cfg.jobs, len(blocks))
    if workers > 1:
        rows, failed = [], []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for block_rows, failure in pool.map(_eval_block, blocks.values()):
                rows += map(ReportRow._make, block_rows)
                if failure:
                    failed.append(failure)
        if failed:
            # raise what jobs=1 would: the error of the first failing task
            raise min(failed, key=lambda f: tasks.index(f[0]))[1]
    else:
        rows = [_eval_task(t) for t in tasks]
    rows.sort(key=lambda r: (_SUITE_RANK[r.suite], r.claim, r.idx))

    counts: dict = {}
    gating_fails = advisory_fails = 0
    seen_claims = set()
    for r in rows:
        suite_counts = counts.setdefault(r.suite, {PASS: 0, FAIL: 0, INCONCLUSIVE: 0})
        suite_counts[r.status] += 1
        seen_claims.add((r.suite, r.claim))
        if r.status == FAIL:
            advisory = r.claim in ADVISORY_CLAIMS and not cfg.gate_advisory
            if advisory:
                advisory_fails += 1
            else:
                gating_fails += 1

    empty = [f"{s.name}/{claim}: no grid point lies in its region"
             for s in selected for claim in s.claims
             if (s.name, claim) not in seen_claims]

    summary = RunSummary(counts, gating_fails, advisory_fails, empty, len(rows))
    if cfg.out:
        write_report(cfg.out, cfg.fmt, rows, summary)
    return summary, rows


_CSV_COLUMNS = ("suite", "claim", "a", "c", "x", "lhs", "rhs", "margin",
                "budget", "status", "anchor")


class _CsvField(dict):
    """A string -> its field in a CSV row, quoted as ``csv.writer`` quotes
    it, worked out once per distinct string."""

    def __missing__(self, s: str) -> str:
        buf = io.StringIO()
        # an empty second field: csv.writer quotes an empty field alone in a row
        csv.writer(buf, lineterminator="\n").writerow((s, ""))
        field = self[s] = buf.getvalue()[:-2]
        return field


def rows_to_csv(rows, summary: RunSummary, timestamp: bool = True) -> str:
    buf = io.StringIO()
    if timestamp:
        buf.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    buf.write(",".join(_CSV_COLUMNS) + "\n")
    q = _CsvField()
    # one formatted line per row; a %-template formats as fast but raised
    # the default run's peak RSS by about 0.3 MB
    for suite, claim, a, c, x, lhs, rhs, margin, budget, status, anchor, _ in rows:
        buf.write(f"{q[suite]},{q[claim]},{a:.17g},{c:.17g},{x:.17g},{lhs:.17g},"
                  f"{rhs:.17g},{margin:.17g},{budget:.17g},{q[status]},{q[anchor]}\n")
    for note in summary.empty_regions:
        buf.write(f"# note: {note}\n")
    return buf.getvalue()


def rows_to_json(rows, summary: RunSummary) -> str:
    doc = {
        # a row's fields are the CSV columns, in order, then idx, which
        # zip leaves out
        "rows": [dict(zip(_CSV_COLUMNS, r)) for r in rows],
        "summary": {
            "counts": summary.counts,
            "gating_fails": summary.gating_fails,
            "advisory_fails": summary.advisory_fails,
            "empty_regions": summary.empty_regions,
            "n_rows": summary.n_rows,
        },
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def write_report(path: str, fmt: str, rows, summary: RunSummary) -> None:
    text = rows_to_csv(rows, summary) if fmt == "csv" else rows_to_json(rows, summary)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def summary_lines(summary: RunSummary) -> list[str]:
    lines = []
    for suite, cnt in summary.counts.items():
        lines.append(f"{suite}: pass={cnt[PASS]} fail={cnt[FAIL]} "
                     f"inconclusive={cnt[INCONCLUSIVE]}")
    lines.append(f"total rows={summary.n_rows} gating_fails={summary.gating_fails} "
                 f"advisory_fails={summary.advisory_fails}")
    for note in summary.empty_regions:
        lines.append(f"note: {note}")
    return lines

"""Batch verification suites over parameter grids, with report output.

A :class:`RunConfig` selects suites, grids, tolerances and output; ``run``
executes every selected suite deterministically (fixed grid order, fixed
quadrature) and returns a :class:`RunSummary` plus one :class:`ReportRow`
per (claim, point).  Rows are ordered by (suite, claim, grid index)
regardless of how workers complete.

Each suite is one :class:`Suite` record in ``REGISTRY``, in report order
(``SUITES`` is the tuple of their names).  The record lists the suite's
claims once, each with the argument its tasks need (a catalog entry, a
moment identity, a Turanian kind); it holds the default tolerance, or
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
from operator import attrgetter
from typing import Callable

from . import bounds as bounds_mod
from . import measure as measure_mod
from .kernel import (INTEGER_C_GUARD, ParameterPoint, psi, psi_connection,
                     psi_quadrature)
from .turanians import (Direction, Normalization, SharpnessLimit,
                        TuranianKind, sharpness_scan, turanian_ratio)

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

_PSI_TOL = 1e-13  # quadrature tolerance for finite-difference suites


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(frozen=True)
class ReportRow:
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
    p = ParameterPoint(a, c, x)
    q = psi_quadrature(p, 1e-12)
    k = psi_connection(a, c, x)
    diff = abs(q.value - k.value)
    allowance = max(tol_rel * abs(q.value), q.abs_error + k.abs_error)
    margin = allowance - diff
    return ReportRow(suite, claim, a, c, x, q.value, k.value, margin,
                     allowance, PASS if margin >= 0.0 else FAIL,
                     "quadrature and connection-series values agree", idx)


def _task_ode(task, _):
    suite, claim, idx, a, c, x, tol = task
    h = 1e-4 * x
    f0 = psi_quadrature(ParameterPoint(a, c, x), _PSI_TOL).value
    fp = psi_quadrature(ParameterPoint(a, c, x + h), _PSI_TOL).value
    fm = psi_quadrature(ParameterPoint(a, c, x - h), _PSI_TOL).value
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
    fp = psi_quadrature(ParameterPoint(a, c, x + h), _PSI_TOL).value
    fm = psi_quadrature(ParameterPoint(a, c, x - h), _PSI_TOL).value
    fd = (fp - fm) / (2.0 * h)
    target = -a * psi(ParameterPoint(a + 1.0, c + 1.0, x), _PSI_TOL).value
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
    suite, claim, idx, a, c, x, tol = task
    rec = bounds_mod.check_bound(claim, ParameterPoint(a, c, x), tol)
    return ReportRow(suite, claim, a, c, x, rec.lhs.value,
                     rec.rhs.value, rec.margin, rec.budget, rec.status,
                     rec.anchor, idx)


def _task_dominance(task, _):
    suite, claim, idx, a, c, x = task
    rec = bounds_mod.check_dominance(claim, ParameterPoint(a, c, x))
    return ReportRow(suite, claim, a, c, x, rec.lhs.value,
                     rec.rhs.value, rec.margin, rec.budget, rec.status,
                     rec.anchor, idx)


def _task_sharpness(task, arg):
    suite, claim, idx, a, c, frac = task
    kind, direction = arg
    if direction == "zeta":
        lim = SharpnessLimit.closed_form(kind, Direction.X_TO_INFINITY,
                                         Normalization.RATIO_TIMES_X2, a, c)
        scan = sharpness_scan(lim, a, c)
        last = scan.points[-1]
        allowance = ZETA_LIMIT_FRACTION * abs(lim.limit_value)
        margin = allowance - last.deviation
        if not scan.eventually_decreasing:
            margin = -abs(margin) - 1.0
        return ReportRow(suite, claim, a, c, last.x, last.deviation, allowance,
                         margin, last.budget, bounds_mod._status(margin, last.budget),
                         "x^2-scaled both-shift ratio approaches c-a-1", idx)
    if direction == "zero":
        lim = SharpnessLimit.closed_form(kind, Direction.X_TO_ZERO,
                                         Normalization.RATIO, a, c)
        scan = sharpness_scan(lim, a, c)
        last = scan.points[-1]
        allowance = frac * abs(lim.limit_value)
        margin = allowance - last.deviation
        return ReportRow(suite, claim, a, c, last.x, last.deviation, allowance,
                         margin, last.budget, bounds_mod._status(margin, last.budget),
                         "plain ratio approaches its x->0 closed form", idx)
    # direction == "vanish": plain ratios tend to 0 at infinity
    lim = SharpnessLimit.closed_form(kind, Direction.X_TO_INFINITY,
                                     Normalization.RATIO, a, c)
    scan = sharpness_scan(lim, a, c)
    devs = [q.deviation for q in scan.points]
    worst = max(d2 - d1 for d1, d2 in zip(devs, devs[1:]))
    budget = 2.0 * max(q.budget for q in scan.points)
    margin = -worst
    return ReportRow(suite, claim, a, c, scan.points[-1].x, devs[-1], devs[0],
                     margin, budget, bounds_mod._status(margin, budget),
                     "plain ratio deviations from 0 decrease toward infinity", idx)


def _task_monotonicity(task, which):
    suite, claim, idx, a, c, x_lo, x_hi, tol = task
    sign = bounds_mod.AUXILIARY[which].sign
    lo = bounds_mod.auxiliary_log_ratio(which, a, c, x_lo, tol)
    hi = bounds_mod.auxiliary_log_ratio(which, a, c, x_hi, tol)
    margin = sign * (hi.value - lo.value)
    budget = lo.abs_error + hi.abs_error
    direction = "increasing" if sign > 0 else "decreasing"
    return ReportRow(suite, claim, a, c, x_hi, lo.value, hi.value, margin,
                     budget, bounds_mod._status(margin, budget),
                     f"auxiliary log-ratio {which} is {direction}", idx)


def _eval_task(task):
    suite = REGISTRY[task[0]]
    return suite.evaluate(task, suite.claims[task[1]])


# ---------------------------------------------------------------------------
# task builders: (config, suite) -> task tuples; their order within a claim
# defines the grid index
# ---------------------------------------------------------------------------

def _off_integer(c: float) -> bool:
    return abs(c - round(c)) >= INTEGER_C_GUARD


def _grid_tasks(cfg, suite, applies, xs):
    """Tasks (suite, claim, idx, a, c, *x, tol): each claim at each grid
    (a, c) where ``applies(argument, a, c)`` holds, once per tuple x of
    ``xs``."""
    tol = cfg.tol(suite.name)
    out = []
    for claim, arg in suite.claims.items():
        idx = 0
        for a in cfg.grid_a:
            for c in cfg.grid_c:
                if not applies(arg, a, c):
                    continue
                for x in xs:
                    out.append((suite.name, claim, idx, a, c, *x, tol))
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
    for claim, (_, direction) in s.claims.items():
        pairs = SHARPNESS_PAIRS_ZERO if direction == "zero" else SHARPNESS_PAIRS_INF
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
    # tolerance: psi evaluation tolerance inside the checks
    Suite("bounds", bounds_mod.CATALOG, 1e-12, _tasks_bounds, _task_bound),
    # closed forms: no tolerance
    Suite("dominance", bounds_mod.DOMINANCE, None, _tasks_dominance,
          _task_dominance),
    # tolerance: x -> 0 limits within this fraction of |limit|
    Suite("sharpness", {"zeta-limit": (_BOTH, "zeta")}
          | {f"zero-limit[{k.value}]": (k, "zero") for k in TuranianKind}
          | {f"vanish[{k.value}]": (k, "vanish") for k in TuranianKind},
          0.01, _tasks_sharpness, _task_sharpness),
    # tolerance: psi evaluation tolerance
    Suite("monotonicity", {f"{w}-monotone": w for w in bounds_mod.AUXILIARY},
          1e-12, _tasks_monotonicity, _task_monotonicity),
)}

SUITES = tuple(REGISTRY)

# claims whose failures are reported but never gate a run
ADVISORY_CLAIMS = frozenset(
    bid for bid, spec in bounds_mod.CATALOG.items() if not spec.gating)


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
            if not g:
                raise ConfigError(f"grid for {name} is empty")
            if not all(math.isfinite(v) for v in g):
                raise ConfigError(f"grid {name} values must be finite, got {g}")
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
    tasks = [t for s in REGISTRY.values() if s.name in cfg.suites
             for t in s.tasks(cfg, s)]
    if cfg.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = list(pool.map(_eval_task, tasks, chunksize=16))
    else:
        rows = [_eval_task(t) for t in tasks]
    rows.sort(key=lambda r: (SUITES.index(r.suite), r.claim, r.idx))

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

    empty = []
    for suite in cfg.suites:
        for claim in REGISTRY[suite].claims:
            if (suite, claim) not in seen_claims:
                empty.append(f"{suite}/{claim}: no grid point lies in its region")

    summary = RunSummary(counts, gating_fails, advisory_fails, empty, len(rows))
    if cfg.out:
        write_report(cfg.out, cfg.fmt, rows, summary)
    return summary, rows


_CSV_COLUMNS = ("suite", "claim", "a", "c", "x", "lhs", "rhs", "margin",
                "budget", "status", "anchor")
_row_values = attrgetter(*_CSV_COLUMNS)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def rows_to_csv(rows, summary: RunSummary, timestamp: bool = True) -> str:
    buf = io.StringIO()
    if timestamp:
        buf.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_CSV_COLUMNS)
    for r in rows:
        w.writerow([r.suite, r.claim, _fmt(r.a), _fmt(r.c), _fmt(r.x),
                    _fmt(r.lhs), _fmt(r.rhs), _fmt(r.margin), _fmt(r.budget),
                    r.status, r.anchor])
    for note in summary.empty_regions:
        buf.write(f"# note: {note}\n")
    return buf.getvalue()


def rows_to_json(rows, summary: RunSummary) -> str:
    doc = {
        "rows": [dict(zip(_CSV_COLUMNS, _row_values(r))) for r in rows],
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

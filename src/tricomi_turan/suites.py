"""Batch verification suites over parameter grids, with report output.

A :class:`RunConfig` selects suites, grids, tolerances and output; ``run``
executes every selected suite deterministically (fixed grid order, fixed
quadrature) and returns a :class:`RunSummary` plus one :class:`ReportRow`
per (claim, point).  Rows are ordered by (suite, claim, grid index)
regardless of how workers complete.

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

from . import bounds as bounds_mod
from . import measure as measure_mod
from .kernel import (EvaluationError, ParameterPoint, RegionError,
                     psi, psi_connection, psi_quadrature)
from .turanians import (Direction, Normalization, SharpnessLimit,
                        TuranianKind, sharpness_scan, turanian_ratio)

SUITES = ("kernel_crosscheck", "ode_residual", "derivative", "moments",
          "stieltjes", "bounds", "dominance", "sharpness", "monotonicity")

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

SCAN_TO_ZERO = (1.0, 0.1, 0.01, 0.001)
SCAN_TO_INFINITY = (10.0, 100.0, 1000.0)

DEFAULT_TOLERANCES = {
    "kernel_crosscheck": 1e-8,   # relative agreement floor
    "ode_residual": 1e-4,        # residual / term scale
    "derivative": 1e-6,          # relative (plus fixed 1e-9 absolute floor)
    "moments": 1e-6,             # absolute, on top of the quadrature budget
    "stieltjes": 0.0,            # extra absolute slack on top of budgets
    "bounds": 1e-12,             # psi evaluation tolerance inside checks
    "dominance": 0.0,            # closed forms; no tolerance needed
    "sharpness": 0.01,           # x->0 limits within this fraction of |limit|
    "monotonicity": 1e-12,       # psi evaluation tolerance
}

_PSI_TOL = 1e-13  # quadrature tolerance for finite-difference suites


class ConfigError(ValueError):
    """Invalid run configuration."""


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
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suite names: {unknown}")
        if not self.suites:
            raise ConfigError("no suites selected")
        for g, name in ((self.grid_a, "a"), (self.grid_c, "c"), (self.grid_x, "x")):
            if not g:
                raise ConfigError(f"grid for {name} is empty")
        if any(x <= 0 for x in self.grid_x):
            raise ConfigError("grid x values must be positive")
        for k, v in self.tolerances.items():
            if k not in SUITES:
                raise ConfigError(f"tolerance for unknown suite {k!r}")
            if not v > 0.0 and k not in ("stieltjes", "dominance"):
                raise ConfigError(f"tolerance for {k} must be positive")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown report format {self.fmt!r}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")

    def tol(self, suite: str) -> float:
        return self.tolerances.get(suite, DEFAULT_TOLERANCES[suite])


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


# ---------------------------------------------------------------------------
# task evaluators (module-level so a process pool can pickle them)
# ---------------------------------------------------------------------------

def _task_crosscheck(args):
    suite, claim, idx, a, c, x, tol_rel = args
    p = ParameterPoint(a, c, x)
    q = psi_quadrature(p, 1e-12)
    k = psi_connection(a, c, x)
    diff = abs(q.value - k.value)
    allowance = max(tol_rel * abs(q.value), q.abs_error + k.abs_error)
    margin = allowance - diff
    return ReportRow(suite, claim, a, c, x, q.value, float(k.value), margin,
                     allowance, PASS if margin >= 0.0 else FAIL,
                     "quadrature and connection-series values agree", idx)


def _task_ode(args):
    suite, claim, idx, a, c, x, tol = args
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


def _task_derivative(args):
    suite, claim, idx, a, c, x, tol = args
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


def _task_moment(args):
    suite, claim, idx, a, c, power, tol = args
    d = measure_mod.WeightDensity(a, c)
    mv = measure_mod.phi_moment(d, power)
    closed = measure_mod.MOMENT_IDENTITIES[power].closed_form(a, c)
    allowance = tol + mv.abs_error
    margin = allowance - abs(mv.value - closed)
    return ReportRow(suite, claim, a, c, 0.0, mv.value, closed, margin,
                     mv.abs_error, PASS if margin >= 0.0 else FAIL,
                     f"moment power {power} equals its closed form", idx)


def _task_stieltjes(args):
    suite, claim, idx, a, c, x, slack = args
    d = measure_mod.WeightDensity(a, c)
    p = ParameterPoint(a, c, x)
    if claim.startswith("both"):
        rep = measure_mod.stieltjes_ratio(d, x)
        direct = turanian_ratio(TuranianKind.BOTH_SHIFT, p)
        anchor = "both-shift ratio equals -int t phi/(x+t)^2 dt"
    else:
        rep = measure_mod.stieltjes_first_shift(d, x)
        direct = turanian_ratio(TuranianKind.FIRST_SHIFT, p)
        anchor = "first-shift ratio equals (1 - int x^2 phi/(x+t)^2 dt)/(1+a-c)"
    budget = rep.abs_error + direct.abs_error
    allowance = budget + slack
    margin = allowance - abs(rep.value - direct.value)
    return ReportRow(suite, claim, a, c, x, direct.value, rep.value, margin,
                     budget, PASS if margin >= 0.0 else FAIL, anchor, idx)


def _task_bound(args):
    suite, claim, idx, a, c, x, tol = args
    rec = bounds_mod.check_bound(claim, ParameterPoint(a, c, x), tol)
    return ReportRow(suite, claim, a, c, x, float(rec.lhs.value),
                     float(rec.rhs.value), rec.margin, rec.budget, rec.status,
                     rec.anchor, idx)


def _task_dominance(args):
    suite, claim, idx, a, c, x = args
    rec = bounds_mod.check_dominance(claim, ParameterPoint(a, c, x))
    return ReportRow(suite, claim, a, c, x, float(rec.lhs.value),
                     float(rec.rhs.value), rec.margin, rec.budget, rec.status,
                     rec.anchor, idx)


def _task_sharpness(args):
    suite, claim, idx, a, c, payload = args
    kind_tag, direction_tag, frac = payload
    kind = TuranianKind(kind_tag)
    if direction_tag == "zeta":
        lim = SharpnessLimit.closed_form(kind, Direction.X_TO_INFINITY,
                                         Normalization.RATIO_TIMES_X2, a, c)
        scan = sharpness_scan(lim, a, c, SCAN_TO_INFINITY)
        last = scan.points[-1]
        allowance = frac * abs(lim.limit_value)
        margin = allowance - last.deviation
        if not scan.eventually_decreasing:
            margin = -abs(margin) - 1.0
        return ReportRow(suite, claim, a, c, last.x, last.deviation, allowance,
                         margin, last.budget, bounds_mod._status(margin, last.budget),
                         "x^2-scaled both-shift ratio approaches c-a-1", idx)
    if direction_tag == "zero":
        lim = SharpnessLimit.closed_form(kind, Direction.X_TO_ZERO,
                                         Normalization.RATIO, a, c)
        scan = sharpness_scan(lim, a, c, SCAN_TO_ZERO)
        last = scan.points[-1]
        allowance = frac * abs(lim.limit_value)
        margin = allowance - last.deviation
        return ReportRow(suite, claim, a, c, last.x, last.deviation, allowance,
                         margin, last.budget, bounds_mod._status(margin, last.budget),
                         "plain ratio approaches its x->0 closed form", idx)
    # direction_tag == "vanish": plain ratios tend to 0 at infinity
    lim = SharpnessLimit.closed_form(kind, Direction.X_TO_INFINITY,
                                     Normalization.RATIO, a, c)
    scan = sharpness_scan(lim, a, c, SCAN_TO_INFINITY)
    devs = [q.deviation for q in scan.points]
    worst = max(d2 - d1 for d1, d2 in zip(devs, devs[1:]))
    budget = 2.0 * max(q.budget for q in scan.points)
    margin = -worst
    return ReportRow(suite, claim, a, c, scan.points[-1].x, devs[-1], devs[0],
                     margin, budget, bounds_mod._status(margin, budget),
                     "plain ratio deviations from 0 decrease toward infinity", idx)


def _task_monotonicity(args):
    suite, claim, idx, a, c, x_lo, x_hi, tol = args
    which = claim.split("-")[0]
    sign = bounds_mod.AUX_MONOTONE_SIGN[which]
    lo = bounds_mod.auxiliary_log_ratio(which, a, c, x_lo, tol)
    hi = bounds_mod.auxiliary_log_ratio(which, a, c, x_hi, tol)
    margin = sign * (hi.value - lo.value)
    budget = lo.abs_error + hi.abs_error
    direction = "increasing" if sign > 0 else "decreasing"
    return ReportRow(suite, claim, a, c, x_hi, lo.value, hi.value, margin,
                     budget, bounds_mod._status(margin, budget),
                     f"auxiliary log-ratio {which} is {direction}", idx)


_EVALUATORS = {
    "kernel_crosscheck": _task_crosscheck,
    "ode_residual": _task_ode,
    "derivative": _task_derivative,
    "moments": _task_moment,
    "stieltjes": _task_stieltjes,
    "bounds": _task_bound,
    "dominance": _task_dominance,
    "sharpness": _task_sharpness,
    "monotonicity": _task_monotonicity,
}


def _eval_task(task):
    suite = task[0]
    return _EVALUATORS[suite](task)


# ---------------------------------------------------------------------------
# task enumeration (order defines the report order)
# ---------------------------------------------------------------------------

def _build_tasks(cfg: RunConfig):
    tasks = []
    for suite in SUITES:
        if suite not in cfg.suites:
            continue
        builder = _BUILDERS[suite]
        tasks.extend(builder(cfg))
    return tasks


def _tasks_crosscheck(cfg):
    tol = cfg.tol("kernel_crosscheck")
    out = []
    idx = 0
    for a in cfg.grid_a:
        for c in cfg.grid_c:
            if not (a > 0.0 and abs(c - round(c)) >= 1e-6):
                continue
            for x in CROSSCHECK_X:
                out.append(("kernel_crosscheck", "psi-two-methods", idx,
                            a, c, x, tol))
                idx += 1
    return out


def _tasks_ode(cfg):
    tol = cfg.tol("ode_residual")
    out = []
    idx = 0
    for a in cfg.grid_a:
        for c in cfg.grid_c:
            if a <= 0.0:
                continue
            for x in cfg.grid_x:
                if x < ODE_MIN_X:
                    continue
                out.append(("ode_residual", "kummer-ode", idx, a, c, x, tol))
                idx += 1
    return out


def _tasks_derivative(cfg):
    tol = cfg.tol("derivative")
    out = []
    idx = 0
    for a in cfg.grid_a:
        for c in cfg.grid_c:
            if a <= 0.0:
                continue
            for x in cfg.grid_x:
                out.append(("derivative", "dpsi-dx", idx, a, c, x, tol))
                idx += 1
    return out


def _tasks_moments(cfg):
    tol = cfg.tol("moments")
    out = []
    for power in (1, 0, -1, -2):
        ident = measure_mod.MOMENT_IDENTITIES[power]
        idx = 0
        for a in cfg.grid_a:
            for c in cfg.grid_c:
                if not ident.region(a, c) or abs(c - round(c)) < 1e-6:
                    continue
                out.append(("moments", f"moment[{power}]", idx, a, c, power, tol))
                idx += 1
    return out


def _tasks_stieltjes(cfg):
    slack = cfg.tol("stieltjes")
    out = []
    for claim in ("both-shift", "first-shift"):
        idx = 0
        for a in cfg.grid_a:
            for c in cfg.grid_c:
                if not (a > 0.0 and c < 1.0) or abs(c - round(c)) < 1e-6:
                    continue
                for x in cfg.grid_x:
                    out.append(("stieltjes", claim, idx, a, c, x, slack))
                    idx += 1
    return out


def _tasks_bounds(cfg):
    tol = cfg.tol("bounds")
    out = []
    for bid in bounds_mod.CATALOG:
        spec = bounds_mod.CATALOG[bid]
        idx = 0
        for a in cfg.grid_a:
            for c in cfg.grid_c:
                if not spec.region(a, c):
                    continue
                for x in cfg.grid_x:
                    out.append(("bounds", bid, idx, a, c, x, tol))
                    idx += 1
    return out


def _tasks_dominance(cfg):
    out = []
    for did in bounds_mod.DOMINANCE:
        idx = 0
        for a in cfg.grid_a:
            for c in cfg.grid_c:
                for x in cfg.grid_x:
                    p = ParameterPoint(a, c, x)
                    if not bounds_mod.dominance_applicable(did, p):
                        continue
                    out.append(("dominance", did, idx, a, c, x))
                    idx += 1
    return out


def _tasks_sharpness(cfg):
    frac = cfg.tol("sharpness")
    out = []
    idx = 0
    for (a, c) in SHARPNESS_PAIRS_INF:
        out.append(("sharpness", "zeta-limit", idx, a, c, ("both", "zeta", 0.05)))
        idx += 1
    for kind in ("both", "first", "second"):
        idx = 0
        for (a, c) in SHARPNESS_PAIRS_ZERO:
            out.append(("sharpness", f"zero-limit[{kind}]", idx, a, c,
                        (kind, "zero", frac)))
            idx += 1
    for kind in ("both", "first", "second"):
        idx = 0
        for (a, c) in SHARPNESS_PAIRS_INF:
            out.append(("sharpness", f"vanish[{kind}]", idx, a, c,
                        (kind, "vanish", 0.0)))
            idx += 1
    return out


def _tasks_monotonicity(cfg):
    tol = cfg.tol("monotonicity")
    out = []
    xs = sorted(cfg.grid_x)
    for which in ("f", "g", "h"):
        region, _ = bounds_mod._AUX_REGIONS[which]
        idx = 0
        for a in cfg.grid_a:
            for c in cfg.grid_c:
                if not region(a, c):
                    continue
                for x_lo, x_hi in zip(xs, xs[1:]):
                    out.append(("monotonicity", f"{which}-monotone", idx,
                                a, c, x_lo, x_hi, tol))
                    idx += 1
    return out


_BUILDERS = {
    "kernel_crosscheck": _tasks_crosscheck,
    "ode_residual": _tasks_ode,
    "derivative": _tasks_derivative,
    "moments": _tasks_moments,
    "stieltjes": _tasks_stieltjes,
    "bounds": _tasks_bounds,
    "dominance": _tasks_dominance,
    "sharpness": _tasks_sharpness,
    "monotonicity": _tasks_monotonicity,
}

# claims whose failures are reported but never gate a run
ADVISORY_CLAIMS = frozenset(
    bid for bid, spec in bounds_mod.CATALOG.items() if not spec.gating)


# ---------------------------------------------------------------------------
# runner and report writers
# ---------------------------------------------------------------------------

def run(cfg: RunConfig) -> tuple[RunSummary, list[ReportRow]]:
    """Execute the configured suites; deterministic for a fixed config."""
    tasks = _build_tasks(cfg)
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
        for claim in _expected_claims(suite, cfg):
            if (suite, claim) not in seen_claims:
                empty.append(f"{suite}/{claim}: no grid point lies in its region")

    summary = RunSummary(counts, gating_fails, advisory_fails, empty, len(rows))
    if cfg.out:
        write_report(cfg.out, cfg.fmt, rows, summary)
    return summary, rows


def _expected_claims(suite: str, cfg: RunConfig):
    if suite == "bounds":
        return list(bounds_mod.CATALOG)
    if suite == "dominance":
        return list(bounds_mod.DOMINANCE)
    if suite == "moments":
        return [f"moment[{p}]" for p in (1, 0, -1, -2)]
    if suite == "stieltjes":
        return ["both-shift", "first-shift"]
    if suite == "monotonicity":
        return [f"{w}-monotone" for w in ("f", "g", "h")]
    if suite == "sharpness":
        return (["zeta-limit"] + [f"zero-limit[{k}]" for k in ("both", "first", "second")]
                + [f"vanish[{k}]" for k in ("both", "first", "second")])
    if suite == "kernel_crosscheck":
        return ["psi-two-methods"]
    if suite == "ode_residual":
        return ["kummer-ode"]
    if suite == "derivative":
        return ["dpsi-dx"]
    return []


_CSV_COLUMNS = ("suite", "claim", "a", "c", "x", "lhs", "rhs", "margin",
                "budget", "status", "anchor")


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
        "rows": [
            {"suite": r.suite, "claim": r.claim, "a": r.a, "c": r.c, "x": r.x,
             "lhs": r.lhs, "rhs": r.rhs, "margin": r.margin, "budget": r.budget,
             "status": r.status, "anchor": r.anchor}
            for r in rows
        ],
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

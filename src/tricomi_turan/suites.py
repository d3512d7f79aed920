"""Batch verification suites over parameter grids, with report output.

A :class:`RunConfig` selects suites, grids and output; ``run``
executes every selected suite deterministically (fixed grid order, fixed
quadrature) and returns a :class:`RunSummary` plus a :class:`ReportRows`
of one :class:`ReportRow` per (claim, point), a named tuple of the report
columns.  Where the config names a report file, ``run`` writes the report
(CSV or JSON) into it as it is formatted, so the whole text is never held.

The unit of work is the (a, c) pair.  The block of a pair evaluates, in
task order (suite, claim), every selected claim that holds there, at
each of its suite's x values at once, so each psi value and each phi
table of that pair is computed once, and the records of psi and its
quotients at all its x in one call (``kernel.pair_quotients``).  The
blocks run in-process, one after another, in run order: the grid's pairs
in (a, c) order, then the sharpness limits' curated pairs off the grid;
grid values are distinct, so no pair repeats.  A block returns the rows
of each (suite, claim) as columns, a list for each of x, lhs, rhs,
margin, budget and the status code; ``run`` extends each claim's arrays,
of doubles for a, c, x, lhs, rhs, margin and budget and of bytes for the
status, by them and puts a sharpness limit's rows in the order of its
pairs by one reorder.  The claims, by (suite, claim name), make the
report; each holds its one anchor once, and each row is built as it is
read.  A failing run raises the error of its first failing pair in run
order, the first failing task there in task order, and evaluates no
later pair; within a claim at a pair, the first failing x raises, and at
one x its lhs fails before its rhs, but for a stieltjes row, whose phi
side (its rhs) fails before the ratio.  Claims whose failures are
advisory (the catalog's non-gating bounds) never gate a run; their
failures are counted apart.

Each suite is one :class:`Suite` record in ``REGISTRY``, in report order
(``SUITES`` is the tuple of their names).  The record lists the suite's
claims once, in task order, each with the argument its rows need (a
catalog entry, a dominance claim, a moment identity or Turanian kind or
auxiliary with its anchor text, formed once, or that text alone) and
how the claim's anchor is read from it; the report puts them in name
order.  The sharpness suite's claims are the rows of
``bounds.LIMITS``, each with its own (a, c) pairs; a row holds the
deviation from the limit at the end of its scan against the limit's
rate bound there, as an inequality row.  A record holds the test of
whether a claim holds at a pair (a dominance claim where both of its
bounds hold; its threshold in x is tested per row) and the evaluator of
a claim's rows at a pair, ``evaluate(argument, pair)``, which returns
them as columns.  Every suite reads the pair through one context, a
``bounds.PairGrid`` over the grid's x, which a block builds once: it
reads the records of the pair's x in one call, forms each Turanian
kind's ratio column and each auxiliary log-ratio column once, and holds
the pair's weight density, whose phi table is built once, for every
claim that reads them.  The catalog and dominance claims take their rows
from ``bounds.bound_columns`` and ``bounds.dominance_columns``, which
apply the verdict rules of ``check_bound`` and ``check_dominance`` to
whole columns; a monotonicity claim takes its auxiliary's column in
increasing x.  The other suites state one row per item they take from
the pair (``CROSSCHECK_X``, the grid's x from ``ODE_MIN_X`` on, the
grid's x, or one x = 0 for a moment or a sharpness scan), by the row
function of the claim, behind one adapter, ``_per_point``; a stieltjes
row holds the phi side of its x, by ``measure.stieltjes`` on the pair's
density, against the ratio column there.  No suite takes a tolerance.

Row conventions: every row is oriented so that ``margin >= 0`` (beyond
``budget``) means the check holds; for inequality rows lhs/rhs are the
two sides (log values for I1, I3 and I4), for agreement rows lhs/rhs are
the two values being compared and the margin is the budget minus the
observed difference.  An agreement row's budget sums the error budgets
of its two sides; those of the central differences (ode_residual,
derivative) bound the Taylor remainder through
psi^(k) = (-1)^k (a)_k psi(a+k, c+k, x), DLMF 13.3(ii).
"""

from __future__ import annotations

import csv
import io
import json
import math
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from itertools import accumulate, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, eq, itemgetter
from typing import Callable, NamedTuple, Sequence

from . import bounds as bounds_mod
from . import measure as measure_mod
from .kernel import (EPS, INTEGER_C_GUARD, FunctionValue, ParameterPoint, psi,
                     psi_connection)
from .turanians import TuranianKind, sharpness_scan

DEFAULT_GRID_A = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0)
DEFAULT_GRID_C = (-4.5, -2.5, -1.5, -0.5, 0.25, 0.75)
DEFAULT_GRID_X = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 200.0)

# The connection series loses ~ e^x * x^(2a-c) * EPS to cancellation on the
# positive axis, so the two-method comparison is meaningful only at small x.
CROSSCHECK_X = (0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)

# Central differences at h = 1e-4 x turn the error e of a psi value into
# ~ e/h^2 in the second difference; below x ~ 0.1 that rounding part of the
# budget dwarfs the residual, so the rows would check nothing.
ODE_MIN_X = 0.1


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


@dataclass
class RunSummary:
    counts: dict                      # suite -> {"pass": n, "fail": n, "inconclusive": n}
    gating_fails: int
    advisory_fails: int
    empty_regions: list
    n_rows: int                       # the length of the run's ReportRows

    @property
    def exit_code(self) -> int:
        return 1 if self.gating_fails else 0


PASS, FAIL, INCONCLUSIVE = bounds_mod.PASS, bounds_mod.FAIL, bounds_mod.INCONCLUSIVE
_STATUSES = bounds_mod._STATUSES    # a row holds its status as its index here


@dataclass(frozen=True)
class Suite:
    """One verification suite; see the module docstring.  Every claim's
    rows at an (a, c) pair come from one evaluator shape,
    ``evaluate(argument, pair)``, the pair a ``bounds.PairGrid`` over the
    grid's x that the pair's block shares with every suite."""

    name: str
    claims: dict                       # claim -> its argument, in task order
    applies: Callable[[object, float, float], bool]  # (argument, a, c)
    evaluate: Callable[[object, bounds_mod.PairGrid], tuple]  # see the evaluators below
    anchor: Callable[[object], str]    # a claim's anchor text, from its argument
    pairs: Callable[[object], tuple] | None = None  # a claim's own; None: the grid's
    # why a claim that holds at some pair may still have no row there
    no_rows: str = "no grid x gives it a row"


# ---------------------------------------------------------------------------
# column evaluators: (argument, pair) -> the claim's rows at the pair, a
# bounds.PairGrid, as the columns x, lhs, rhs, margin, budget and status
# code (an index into _STATUSES); per-point suites state one row per item
# they take from the pair, which ``_per_point`` turns into columns
# ---------------------------------------------------------------------------

def _per_point(row, items):
    """The column evaluator of ``row``, (argument, pair, item) -> the
    fields of a row after (suite, claim, a, c) and before its anchor, at
    each item of ``items(pair)``."""
    def evaluate(arg, pair):
        rows = [row(arg, pair, item) for item in items(pair)]
        *values, status = zip(*rows) if rows else [()] * 6
        return (*map(list, values), list(map(_STATUSES.index, status)))
    return evaluate


def _agreement(x, lhs, rhs, budget):
    margin = budget - abs(lhs - rhs)
    return x, lhs, rhs, margin, budget, PASS if margin >= 0.0 else FAIL


def _row_crosscheck(_, pair, x):
    # the suite holds at a > 0 only, where psi takes the quadrature route;
    # kernel.pair_quotients holds the same value at this point, from its
    # own trapezoid pass
    q = psi(ParameterPoint(pair.a, pair.c, x))
    k = psi_connection(pair.a, pair.c, x)
    return _agreement(x, q.value, k.value, q.abs_error + k.abs_error)


def _central_difference(a: float, c: float, x: float, k: int) -> FunctionValue:
    """psi^(k)(a,c,x), k = 1 or 2 and a > 0, by the central difference of
    psi at x - h, x + h (and x for k = 2), h about 1e-4 max(x, 0.1) and
    rounded so that the nodes are exact; they are read through psi, so
    they share its cache.  psi^(j) = (-1)^j (a)_j psi(a+j, c+j, x), whose
    magnitude decreases as x grows, so the Taylor remainder is at most
    h^2/(6k) (a)_(k+2) psi(a+k+2, c+k+2, x-h).  The budget adds the nodes'
    errors, (e+ + e-)/(2h) for k = 1 and (e+ + 2 e0 + e-)/h^2 for k = 2,
    and EPS-level rounding of the difference."""
    h = 1e-4 * max(x, 0.1)
    if x - h <= 0.0:
        h = 0.5 * x
    h = (x + h) - x
    fm, fp = psi(ParameterPoint(a, c, x - h)), psi(ParameterPoint(a, c, x + h))
    if k == 1:
        value = (fp.value - fm.value) / (2.0 * h)
        noise = (fp.abs_error + fm.abs_error
                 + EPS * (abs(fp.value) + abs(fm.value))) / (2.0 * h)
    else:
        f0 = psi(ParameterPoint(a, c, x))
        value = (fp.value - 2.0 * f0.value + fm.value) / (h * h)
        noise = (fp.abs_error + 2.0 * f0.abs_error + fm.abs_error + 2.0 * EPS
                 * (abs(fp.value) + 2.0 * abs(f0.value) + abs(fm.value))) / (h * h)
    tail = psi(ParameterPoint(a + k + 2.0, c + k + 2.0, x - h))
    remainder = (h * h / (6.0 * k) * math.prod(a + j for j in range(k + 2))
                 * (tail.value + tail.abs_error))
    return FunctionValue(value, noise + 2.0 * EPS * abs(value) + remainder,
                         "central_difference")


def _row_ode(_, pair, x):
    a, c = pair.a, pair.c
    d1, d2 = (_central_difference(a, c, x, k) for k in (1, 2))
    f0 = psi(ParameterPoint(a, c, x))
    resid = x * d2.value + (c - x) * d1.value - a * f0.value
    scale = abs(x * d2.value) + abs((c - x) * d1.value) + abs(a * f0.value)
    budget = (x * d2.abs_error + abs(c - x) * d1.abs_error + a * f0.abs_error
              + 4.0 * EPS * scale)
    return _agreement(x, abs(resid), 0.0, budget)


def _row_derivative(_, pair, x):
    a, c = pair.a, pair.c
    d1 = _central_difference(a, c, x, 1)
    shifted = psi(ParameterPoint(a + 1.0, c + 1.0, x))
    target = -a * shifted.value
    return _agreement(x, d1.value, target,
                      d1.abs_error + a * shifted.abs_error + EPS * abs(target))


def _row_moment(arg, pair, x):
    ident, _ = arg
    mv = measure_mod.phi_moment(pair.density, ident.power)
    closed = ident.closed_form(pair.a, pair.c)
    # the closed forms are rational in a and c: five roundings at most
    return _agreement(x, mv.value, closed, mv.abs_error + 5.0 * EPS * abs(closed))


def _row_stieltjes(arg, pair, i):
    # the pair's ratio at its i-th x, held against the phi side there,
    # which fails before the ratio
    kind, _ = arg
    d, ratios, x = pair.density, pair.ratios(kind), pair.xs[i]
    rep = measure_mod.stieltjes(kind, d, x)
    if i == len(ratios.values):
        raise ratios.error
    return _agreement(x, ratios.values[i], rep.value, rep.abs_error + ratios.errors[i])


def _row_sharpness(lim, pair, _):
    # the deviation at the end of the scan, held against the limit's rate
    end = sharpness_scan(lim, pair.a, pair.c)[-1]
    margin = end.rate - end.deviation
    return (end.x, end.deviation, end.rate, margin, end.budget,
            bounds_mod._status(margin, end.budget))


def _monotonicity_columns(arg, pair):
    # the pair's auxiliary column in increasing x; a row is the step from
    # one x to the next, so one x makes none
    which, _ = arg
    if len(pair.xs) < 2:
        return [], [], [], [], [], []
    order = sorted(range(len(pair.xs)), key=pair.xs.__getitem__)
    values, errors, error = pair.auxiliary(which, order)
    if error is not None:
        raise error
    sign = bounds_mod.AUXILIARY[which].sign
    margins = [sign * (hi - lo) for lo, hi in zip(values, values[1:])]
    budgets = [lo + hi for lo, hi in zip(errors, errors[1:])]
    return ([pair.xs[i] for i in order[1:]], values[:-1], values[1:], margins, budgets,
            bounds_mod._status_codes(margins, budgets))


def _off_integer(c: float) -> bool:
    return abs(c - round(c)) >= INTEGER_C_GUARD


# ---------------------------------------------------------------------------
# the suites, in report order
# ---------------------------------------------------------------------------

_BOTH, _FIRST = TuranianKind.BOTH_SHIFT, TuranianKind.FIRST_SHIFT
_OWN, _SECOND, _SPEC = str, itemgetter(1), attrgetter("anchor")

REGISTRY: dict[str, Suite] = {s.name: s for s in (
    Suite("kernel_crosscheck", {"psi-two-methods": "quadrature and connection-series "
                                                   "values agree"},
          lambda _, a, c: a > 0.0 and _off_integer(c),
          _per_point(_row_crosscheck, lambda pair: CROSSCHECK_X), _OWN),
    Suite("ode_residual", {"kummer-ode": "Kummer ODE residual under central differences"},
          lambda _, a, c: a > 0.0,
          _per_point(_row_ode, lambda pair: [x for x in pair.xs if x >= ODE_MIN_X]), _OWN,
          no_rows=f"no grid x is at least {ODE_MIN_X}"),
    Suite("derivative", {"dpsi-dx": "d/dx psi(a,c,x) = -a psi(a+1,c+1,x)"},
          lambda _, a, c: a > 0.0, _per_point(_row_derivative, attrgetter("xs")), _OWN),
    Suite("moments", {f"moment[{power}]": (ident, f"moment power {power} equals its "
                                                  "closed form")
                      for power, ident in measure_mod.MOMENT_IDENTITIES.items()},
          lambda arg, a, c: arg[0].region(a, c) and _off_integer(c),
          # a moment takes no grid x; its row reports x = 0
          _per_point(_row_moment, lambda pair: (0.0,)), _SECOND),
    Suite("stieltjes", {
        "both-shift": (_BOTH, "both-shift ratio equals -int t phi/(x+t)^2 dt"),
        "first-shift": (_FIRST, "first-shift ratio equals "
                                "(1 - int x^2 phi/(x+t)^2 dt)/(1+a-c)")},
          lambda _, a, c: a > 0.0 and c < 1.0 and _off_integer(c),
          _per_point(_row_stieltjes, lambda pair: range(len(pair.xs))), _SECOND),
    Suite("bounds", bounds_mod.CATALOG,
          lambda spec, a, c: spec.region(a, c), bounds_mod.bound_columns, _SPEC),
    # the suite holds where both bounds' regions do; the threshold is per x
    Suite("dominance", bounds_mod.DOMINANCE, lambda spec, a, c: spec.region(a, c),
          bounds_mod.dominance_columns, _SPEC,
          no_rows="no grid x in its region meets its threshold"),
    # each limit is scanned once at each of its curated pairs, not at the grid's
    Suite("sharpness", bounds_mod.LIMITS, lambda lim, a, c: (a, c) in lim.pairs,
          _per_point(_row_sharpness, lambda pair: (0.0,)), _SPEC,
          pairs=lambda lim: lim.pairs),
    Suite("monotonicity", {
        f"{w}-monotone": (w, f"auxiliary log-ratio {w} is "
                             f"{'increasing' if aux.sign > 0 else 'decreasing'}")
        for w, aux in bounds_mod.AUXILIARY.items()},
          lambda arg, a, c: bounds_mod.AUXILIARY[arg[0]].region(a, c),
          _monotonicity_columns, _SECOND, no_rows="a single grid x makes no step"),
)}

SUITES = tuple(REGISTRY)
_SUITE_RANK = {name: i for i, name in enumerate(SUITES)}

# claims whose failures are reported but never gate a run
ADVISORY_CLAIMS = frozenset(
    bid for bid, spec in bounds_mod.CATALOG.items() if not spec.gating)


def check_grid(grid: tuple[float, ...], name: str) -> None:
    """Raise :class:`ConfigError` unless the grid of ``name`` is nonempty,
    finite and repeats no value."""
    if not grid:
        raise ConfigError(f"grid for {name} is empty")
    if not all(math.isfinite(v) for v in grid):
        raise ConfigError(f"grid {name} values must be finite, got {grid}")
    if len(set(grid)) < len(grid):
        raise ConfigError(f"grid {name} repeats a value, got {grid}")


@dataclass
class RunConfig:
    """What ``run`` does: the suites, in any order (the report keeps
    ``SUITES`` order), the a, c and x grids, each of distinct values, the
    report file (None: no report; the report is written into it as it is
    formatted) and its format.  ``jobs`` is checked (at least 1) but has
    no effect, and no command-line flag: the benchmark still passes it.
    The defaults are a run of every suite over the default grids."""

    suites: tuple[str, ...] = SUITES
    grid_a: tuple[float, ...] = DEFAULT_GRID_A
    grid_c: tuple[float, ...] = DEFAULT_GRID_C
    grid_x: tuple[float, ...] = DEFAULT_GRID_X
    out: str | None = None
    fmt: str = "csv"
    jobs: int = 1

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
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown report format {self.fmt!r}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")


# ---------------------------------------------------------------------------
# runner and report writers
# ---------------------------------------------------------------------------

def _empty_columns() -> tuple:
    """A claim's rows as arrays: of doubles for a, c, x, lhs, rhs, margin
    and budget, of bytes for the status code."""
    return (*(array("d") for _ in range(7)), array("B"))


class ReportRows(Sequence):
    """A run's rows: a read-only sequence of ReportRow, each built as it is read."""

    def __init__(self, claims: list):
        self._claims = claims          # (suite, claim, anchor, columns)
        self._starts = [0, *accumulate(len(cols[0]) for *_, cols in claims)]

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]        # from the end if negative; IndexError past it
        k = bisect_right(self._starts, i) - 1
        suite, claim, anchor, cols = self._claims[k]
        *values, code = (col[i - self._starts[k]] for col in cols)
        return ReportRow(suite, claim, *values, _STATUSES[code], anchor)

    def __iter__(self):
        for suite, claim, anchor, (*values, status) in self._claims:
            yield from map(ReportRow._make, zip(
                repeat(suite), repeat(claim), *values,
                map(_STATUSES.__getitem__, status), repeat(anchor)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and len(self) == len(other) and all(
            map(eq, self, other))


def _pair_block(cfg: RunConfig, a: float, c: float, names: list) -> dict:
    """Evaluate one (a, c) pair for ``names``, the selected suites with a
    claim there, in report order, through one context, a
    ``bounds.PairGrid`` over the grid's x.  Returns, keyed by (suite,
    claim), the rows of each claim that holds at the pair, in task order,
    as the columns of its evaluator; the first failing task raises its
    error."""
    rows: dict = {}
    pair = bounds_mod.PairGrid(a, c, cfg.grid_x)
    for name in names:
        s = REGISTRY[name]
        for claim, arg in s.claims.items():
            if s.applies(arg, a, c):
                rows[name, claim] = s.evaluate(arg, pair)
    return rows


def run(cfg: RunConfig) -> tuple[RunSummary, ReportRows]:
    """Execute the configured suites; deterministic for a fixed config.
    The (a, c) pairs run in-process in run order; each block's columns
    extend those of its claims, and the rows return as their
    :class:`ReportRows`.  Raises the first failing task's error in run order."""
    selected = [s for s in REGISTRY.values() if s.name in cfg.suites]
    # the units of work in run order, the grid's (a, c) pairs and then the
    # claims' own pairs off the grid, each with the suites that have a
    # claim there, in report order, since a block evaluates them in task order
    grid = [(a, c) for a in cfg.grid_a for c in cfg.grid_c]
    units: dict = {}
    for s in sorted(selected, key=lambda s: s.pairs is not None):
        pairs = grid if s.pairs is None else [
            pair for arg in s.claims.values() for pair in s.pairs(arg)]
        for pair in pairs:
            units.setdefault(pair, set()).add(s.name)

    held = {(s.name, claim): _empty_columns() for s in selected for claim in s.claims}
    holds = set()    # the claims that hold at some pair
    for (a, c), names in units.items():
        block = _pair_block(cfg, a, c, sorted(names, key=_SUITE_RANK.__getitem__))
        holds.update(block)
        for key, (xs, *cols) in block.items():
            n = len(xs)
            for col, more in zip(held[key], ([a] * n, [c] * n, xs, *cols)):
                col.fromlist(more)

    empty = [f"{name}/{claim}: " + (REGISTRY[name].no_rows if (name, claim) in holds
                                    else "no grid point lies in its region")
             for (name, claim), cols in held.items() if not cols[0]]
    claims: list = []
    counts: dict = {}
    gating_fails = advisory_fails = 0
    for s in selected:
        for claim in sorted(s.claims):
            cols = held[s.name, claim]
            if not cols[0]:
                continue
            if s.pairs is not None:
                # run order puts a claim's own pairs on the grid first;
                # its rows follow the order of its pairs, one reorder
                pairs, (a, c) = s.pairs(s.claims[claim]), cols[:2]
                order = sorted(range(len(a)), key=lambda i: pairs.index((a[i], c[i])))
                cols = tuple(array(v.typecode, map(v.__getitem__, order)) for v in cols)
            tally = Counter(map(_STATUSES.__getitem__, cols[-1]))
            suite_counts = counts.setdefault(s.name, {PASS: 0, FAIL: 0, INCONCLUSIVE: 0})
            for status, n in tally.items():
                suite_counts[status] += n
            if claim in ADVISORY_CLAIMS:
                advisory_fails += tally[FAIL]
            else:
                gating_fails += tally[FAIL]
            claims.append((s.name, claim, s.anchor(s.claims[claim]), cols))

    rows = ReportRows(claims)
    summary = RunSummary(counts, gating_fails, advisory_fails, empty, len(rows))
    if cfg.out is not None:
        write_report(cfg.out, cfg.fmt, rows, summary)
    return summary, rows


_CSV_COLUMNS = ReportRow._fields


class _Texts(dict):
    """A string -> its text by ``fn``, worked out once per distinct string."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, s: str) -> str:
        text = self[s] = self.fn(s)
        return text


def _csv_field(s: str) -> str:
    """s as a field of a CSV row, quoted as ``csv.writer`` quotes it."""
    buf = io.StringIO()
    # an empty second field: csv.writer quotes an empty field alone in a row
    csv.writer(buf, lineterminator="\n").writerow((s, ""))
    return buf.getvalue()[:-2]


def _write_csv(fh, rows, summary: RunSummary, timestamp: bool = True) -> None:
    """Write the CSV report to the text file ``fh`` a line at a time."""
    if timestamp:
        fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    fh.write(",".join(_CSV_COLUMNS) + "\n")
    q = _Texts(_csv_field)
    # one line per row by a %-template, about 10% faster than by an f-string
    for suite, claim, a, c, x, lhs, rhs, margin, budget, status, anchor in rows:
        fh.write("%s,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s\n" % (
            q[suite], q[claim], a, c, x, lhs, rhs, margin, budget, q[status], q[anchor]))
    for note in summary.empty_regions:
        fh.write(f"# note: {note}\n")


def _json_float(v: float) -> str:
    """A number as ``json.dumps`` writes it: a finite float by its repr,
    anything else (NaN, the infinities, an int) by ``json`` itself."""
    return float.__repr__(v) if isinstance(v, float) and math.isfinite(v) else json.dumps(v)


# one row as ``json.dumps(..., indent=1, sort_keys=True)`` nests it in the
# report's "rows" list: the keys in sorted order, each taking the value at
# its column's position
_JSON_ROW = "  {{\n" + ",\n".join(
    f"   {encode_basestring_ascii(k)}: {{{i}}}"
    for k, i in sorted((k, i) for i, k in enumerate(_CSV_COLUMNS))) + "\n  }}"


def _write_json(fh, rows, summary: RunSummary) -> None:
    """Write the JSON report to the text file ``fh`` a row at a time; the
    bytes are those of ``json.dump({"rows": [row dicts], "summary": ...},
    indent=1, sort_keys=True)`` and a newline."""
    q, f = _Texts(encode_basestring_ascii), _json_float
    fh.write('{\n "rows": [')
    sep = "\n"
    for suite, claim, a, c, x, lhs, rhs, margin, budget, status, anchor in rows:
        fh.write(sep + _JSON_ROW.format(q[suite], q[claim], f(a), f(c), f(x), f(lhs),
                                        f(rhs), f(margin), f(budget), q[status], q[anchor]))
        sep = ",\n"
    fh.write("]" if sep == "\n" else "\n ]")
    # the summary as json.dumps nests it in the report, after '{\n'
    fh.write(",\n" + json.dumps({"summary": asdict(summary)}, indent=1, sort_keys=True)[2:])
    fh.write("\n")


def write_report(path: str, fmt: str, rows, summary: RunSummary) -> None:
    """Write the report of ``rows`` in ``fmt`` ("csv" or "json") to the file
    ``path`` as it is formatted, so no copy of the whole text is held."""
    with open(path, "w", encoding="utf-8") as fh:
        (_write_csv if fmt == "csv" else _write_json)(fh, rows, summary)


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

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
table of that pair is computed once, the records of psi and its
quotients at all its x in one call (``kernel.pair_quotients``) and psi
at the points a suite reads in one call per shift (``kernel.pair_psi``).
The blocks run in-process, one after another, in run order: the grid's
pairs in (a, c) order, then the sharpness limits' curated pairs off the
grid; grid values are distinct, so no pair repeats.  A block returns the
rows of each (suite, claim) as columns, a list for each of x, lhs, rhs,
margin, budget and the status code; ``run`` extends each claim's arrays,
of doubles for a, c, x, lhs, rhs, margin and budget and of bytes for the
status, by them and puts a sharpness limit's rows in the order of its
pairs by one reorder.  The claims, by (suite, claim name), make the
report; each holds its one anchor once, and each row is built as it is
read.  A failing run raises the error of its first failing pair in run
order, the first failing task there in task order, and evaluates no
later pair; within a claim at a pair, the first failing x raises, and at
one x its lhs fails before its rhs, but for a stieltjes row, whose phi
side (its rhs) fails before the ratio (``bounds._first_error``).  Claims
whose failures are advisory (the catalog's non-gating bounds) never gate
a run; their failures are counted apart.

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
from ``bounds.bound_columns`` and ``bounds.dominance_columns``, whose
one-x case ``check_bound`` and ``check_dominance`` are; a monotonicity
claim takes its auxiliary's column in increasing x.  The crosscheck, ODE
and derivative suites take pair columns of psi (``_psi_columns``): each
states the points at which its row at x reads psi, at x of
``CROSSCHECK_X``, of the grid from ``ODE_MIN_X`` on and of the grid,
with the nodes and tails of their central differences; the pair
computes the points of all its rows first, one batched call per shift,
and holds them for its block (``PairGrid.read_psi``), and each row takes
its values from the pair.
A stieltjes claim holds the pair's phi-side column
(``measure.stieltjes_column`` on the pair's density) against its ratio
column.  The moments and sharpness evaluators state the one row of a
claim at a pair, a moment at x = 0 or the end of a sharpness scan.  The
agreement rule is stated once, in ``_agreements``: the crosscheck, ODE,
derivative, moments and stieltjes claims give it their rows as (x, lhs,
rhs, budget), and it forms the margin and the status code.  Every
evaluator returns status codes.  No suite takes a tolerance.

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
from operator import add, attrgetter, eq, itemgetter
from typing import Callable, NamedTuple, Sequence

from . import bounds as bounds_mod
from . import measure as measure_mod
from .kernel import EPS, INTEGER_C_GUARD, FunctionValue, psi_connection
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
# code (an index into _STATUSES); an agreement claim states its rows as
# (x, lhs, rhs, budget), which ``_agreements`` turns into columns
# ---------------------------------------------------------------------------

_PASS, _FAIL = map(_STATUSES.index, (PASS, FAIL))


def _agreements(rows) -> tuple:
    """The columns of the agreement rows (x, lhs, rhs, budget): margin =
    budget - |lhs - rhs|, pass where it is not negative, else fail."""
    xs, lhs, rhs, budgets = tuple(map(list, zip(*rows))) or ([], [], [], [])
    margins = [b - abs(l - r) for l, r, b in zip(lhs, rhs, budgets)]
    return xs, lhs, rhs, margins, budgets, [_PASS if m >= 0.0 else _FAIL for m in margins]


def _psi_columns(row, items, reads):
    """The column evaluator of ``row``, (a, c, x, h, *values) -> the
    agreement row (x, lhs, rhs, budget) at x, h its central-difference
    step (``_step``), at each x of ``items(pair)``, from the values of psi
    at the points (a', c', y) of ``reads(a, c, x, h)``, in their order.
    The pair computes the points of all the rows first, one batched call
    per (a', c') (``PairGrid.read_psi``); a row raises the error of its
    first point that raised."""
    def evaluate(_, pair):
        a, c, xs = pair.a, pair.c, items(pair)
        steps = list(map(_step, xs))
        points = [reads(a, c, x, h) for x, h in zip(xs, steps)]
        pair.read_psi(p for row_points in points for p in row_points)
        return _agreements(row(a, c, x, h, *map(pair.psi, row_points))
                           for x, h, row_points in zip(xs, steps, points))
    return evaluate


def _row_crosscheck(a, c, x, _, q):
    # the suite holds at a > 0 only, where psi takes the quadrature route;
    # kernel.pair_quotients holds the same value at this point, from its
    # own trapezoid pass
    k = psi_connection(a, c, x)
    return x, q.value, k.value, q.abs_error + k.abs_error


def _step(x: float) -> float:
    """The step h of the central differences at x: about 1e-4 max(x, 0.1),
    x/2 where x - h would not be positive, rounded so that the nodes x - h
    and x + h are exact."""
    h = 1e-4 * max(x, 0.1)
    if x - h <= 0.0:
        h = 0.5 * x
    return (x + h) - x


def _tail(a: float, c: float, x: float, h: float, k: int) -> tuple:
    """The point of the remainder of the central difference of order k at
    x, (a+k+2, c+k+2, x-h), each shift summed in that order: a + 3 can
    differ from (a + 1) + 2 in the last bit."""
    return a + k + 2.0, c + k + 2.0, x - h


def _central_difference(a: float, h: float, nodes, tail: FunctionValue) -> FunctionValue:
    """psi^(k)(a,c,x), k = 1 or 2 and a > 0, by the central difference of
    its ``nodes``, psi at x - h and x + h for k = 1, at x - h, x and x + h
    for k = 2, h from ``_step``.  psi^(j) = (-1)^j (a)_j psi(a+j, c+j, x),
    whose magnitude decreases as x grows, so the Taylor remainder is at
    most h^2/(6k) (a)_(k+2) ``tail``, psi at ``_tail``.  The budget adds
    the nodes' errors, (e+ + e-)/(2h) for k = 1 and (e+ + 2 e0 + e-)/h^2
    for k = 2, and EPS-level rounding of the difference."""
    k = len(nodes) - 1
    if k == 1:
        fm, fp = nodes
        value = (fp.value - fm.value) / (2.0 * h)
        noise = (fp.abs_error + fm.abs_error
                 + EPS * (abs(fp.value) + abs(fm.value))) / (2.0 * h)
    else:
        fm, f0, fp = nodes
        value = (fp.value - 2.0 * f0.value + fm.value) / (h * h)
        noise = (fp.abs_error + 2.0 * f0.abs_error + fm.abs_error + 2.0 * EPS
                 * (abs(fp.value) + 2.0 * abs(f0.value) + abs(fm.value))) / (h * h)
    remainder = (h * h / (6.0 * k) * math.prod(a + j for j in range(k + 2))
                 * (tail.value + tail.abs_error))
    return FunctionValue(value, noise + 2.0 * EPS * abs(value) + remainder,
                         "central_difference")


def _row_ode(a, c, x, h, fm, fp, tail1, f0, tail2):
    d1 = _central_difference(a, h, (fm, fp), tail1)
    d2 = _central_difference(a, h, (fm, f0, fp), tail2)
    resid = x * d2.value + (c - x) * d1.value - a * f0.value
    scale = abs(x * d2.value) + abs((c - x) * d1.value) + abs(a * f0.value)
    budget = (x * d2.abs_error + abs(c - x) * d1.abs_error + a * f0.abs_error
              + 4.0 * EPS * scale)
    return x, abs(resid), 0.0, budget


def _row_derivative(a, c, x, h, fm, fp, tail, shifted):
    d1 = _central_difference(a, h, (fm, fp), tail)
    target = -a * shifted.value
    return x, d1.value, target, d1.abs_error + a * shifted.abs_error + EPS * abs(target)


def _moment_columns(arg, pair):
    # a moment takes no grid x; its one row reports x = 0
    ident, _ = arg
    mv = measure_mod.phi_moment(pair.density, ident.power)
    closed = ident.closed_form(pair.a, pair.c)
    # the closed forms are rational in a and c: five roundings at most
    return _agreements([(0.0, mv.value, closed, mv.abs_error + 5.0 * EPS * abs(closed))])


def _stieltjes_columns(arg, pair):
    # the pair's ratio column held against the phi side, a column of the
    # pair's density; at an x the phi side fails before the ratio
    kind, _ = arg
    d, ratios = pair.density, pair.ratios(kind)
    side = measure_mod.stieltjes_column(kind, d, pair.xs)
    bounds_mod._first_error(pair.xs, side, ratios)
    return _agreements(zip(pair.xs, ratios.values, side.values,
                           map(add, side.errors, ratios.errors)))


def _sharpness_columns(lim, pair):
    # the deviation at the end of the scan, held against the limit's rate
    end = sharpness_scan(lim, pair.a, pair.c)[-1]
    margin = end.rate - end.deviation
    return ([end.x], [end.deviation], [end.rate], [margin], [end.budget],
            bounds_mod._status_codes((margin,), (end.budget,)))


def _monotonicity_columns(arg, pair):
    # the pair's auxiliary column in increasing x; a row is the step from
    # one x to the next, so one x makes none
    which, _ = arg
    if len(pair.xs) < 2:
        return [], [], [], [], [], []
    order = sorted(range(len(pair.xs)), key=pair.xs.__getitem__)
    values, errors, _ = column = pair.auxiliary(which, order)
    bounds_mod._first_error(order, column)
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
          _psi_columns(_row_crosscheck, lambda pair: CROSSCHECK_X,
                       lambda a, c, x, h: ((a, c, x),)), _OWN),
    Suite("ode_residual", {"kummer-ode": "Kummer ODE residual under central differences"},
          lambda _, a, c: a > 0.0,
          _psi_columns(_row_ode, lambda pair: [x for x in pair.xs if x >= ODE_MIN_X],
                       lambda a, c, x, h: ((a, c, x - h), (a, c, x + h), _tail(a, c, x, h, 1),
                                           (a, c, x), _tail(a, c, x, h, 2))),
          _OWN, no_rows=f"no grid x is at least {ODE_MIN_X}"),
    Suite("derivative", {"dpsi-dx": "d/dx psi(a,c,x) = -a psi(a+1,c+1,x)"},
          lambda _, a, c: a > 0.0,
          _psi_columns(_row_derivative, attrgetter("xs"),
                       lambda a, c, x, h: ((a, c, x - h), (a, c, x + h), _tail(a, c, x, h, 1),
                                           (a + 1.0, c + 1.0, x))), _OWN),
    Suite("moments", {f"moment[{power}]": (ident, f"moment power {power} equals its "
                                                  "closed form")
                      for power, ident in measure_mod.MOMENT_IDENTITIES.items()},
          lambda arg, a, c: arg[0].region(a, c) and _off_integer(c),
          _moment_columns, _SECOND),
    Suite("stieltjes", {
        "both-shift": (_BOTH, "both-shift ratio equals -int t phi/(x+t)^2 dt"),
        "first-shift": (_FIRST, "first-shift ratio equals "
                                "(1 - int x^2 phi/(x+t)^2 dt)/(1+a-c)")},
          lambda _, a, c: a > 0.0 and c < 1.0 and _off_integer(c), _stieltjes_columns,
          _SECOND),
    Suite("bounds", bounds_mod.CATALOG,
          lambda spec, a, c: spec.region(a, c), bounds_mod.bound_columns, _SPEC),
    # the suite holds where both bounds' regions do; the threshold is per x
    Suite("dominance", bounds_mod.DOMINANCE, lambda spec, a, c: spec.region(a, c),
          bounds_mod.dominance_columns, _SPEC,
          no_rows="no grid x in its region meets its threshold"),
    # each limit is scanned once at each of its curated pairs, not at the grid's
    Suite("sharpness", bounds_mod.LIMITS, lambda lim, a, c: (a, c) in lim.pairs,
          _sharpness_columns, _SPEC, pairs=lambda lim: lim.pairs),
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

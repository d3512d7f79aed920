"""Command-line driver.

Subcommands:

* ``run``        -- execute verification suites over grids, write a report
* ``eval``       -- single-point evaluation for debugging
* ``catalog``    -- dump the bound catalog
* ``sharpness``  -- print limit scans: one line per (a, c) pair and row of
  ``bounds.LIMITS`` whose region holds at the pair, in table order,
  with the deviation from the limit and its rate bound at each x

``run`` passes the settings given on the command line to its
:class:`RunConfig`; a setting not given keeps the RunConfig default, so
only a missing ``--suites`` means all suites.  Settings can come from a
file: an argument ``@FILE`` stands for the lines of FILE, one argument
per line (``--grid-a=0.5,1``), read in its place, and a later argument
wins, so ``run @FILE --suites sharpness`` overrides the file's
``--suites``.  Any argument that starts with ``@`` names such a file.
Blank lines and lines whose first non-space character is ``#`` are
skipped; any other line, stripped of its surrounding whitespace, is one
whole argument, so ``--format csv`` on one line is rejected as an
unrecognized argument.  A run evaluates its (a, c) pairs in turn.

Exit codes: every subcommand exits 2 when argparse rejects its arguments
(an unknown flag, a bad number or list, a settings file that cannot be
read).  ``run`` returns 0 (no gating fails), 1 (at least one fail),
2 (configuration or output error, a grid that repeats a value among
them) or 4 (a point that psi cannot evaluate, which aborts the run; the
error is that of the first failing (a, c) pair, the grid's pairs in
order before the sharpness limits' own).  ``eval`` returns 0 on
success, 2 for parse or configuration problems, 3 for region violations
and 4 for evaluation failures.  ``catalog`` returns 0, or 2 when
``--out`` cannot be written; ``sharpness`` returns 0, 2 when ``--out``
cannot be written, only one of ``--grid-a`` and ``--grid-c`` is given,
or a grid is empty, not finite or repeats a value, or 4 when a scan
meets a point that psi cannot evaluate, which aborts it with nothing
written (pairs outside a limit's region are skipped).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import suites as suites_mod
from .bounds import CATALOG, LIMITS, catalog_document, check_bound
from .kernel import EvaluationError, ParameterPoint, RegionError, psi
from .measure import WeightDensity, phi
from .turanians import TuranianKind, sharpness_scan, turanian, turanian_ratio

EXIT_OK, EXIT_CONFIG, EXIT_REGION, EXIT_EVAL = 0, 2, 3, 4


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad numeric list {text!r}: {exc}")


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="tricomi-turan",
                                  description=__doc__.splitlines()[0],
                                  fromfile_prefix_chars="@")
    # a settings file's blank and comment lines give no argument
    top.convert_arg_line_to_args = lambda line: (
        [] if (arg := line.strip())[:1] in ("", "#") else [arg])
    sub = top.add_subparsers(dest="command", required=True)

    # a setting not given is left out of the namespace: RunConfig holds the defaults
    p_run = sub.add_parser("run", help="run verification suites over grids",
                           description="An argument @FILE reads FILE's lines in "
                                       "its place, one argument per line, "
                                       "skipping blank and # lines; a later "
                                       "argument wins.",
                           argument_default=argparse.SUPPRESS)
    p_run.add_argument("--suites", type=_parse_names,
                       help="comma list of suites "
                            f"(default all: {','.join(suites_mod.SUITES)})")
    p_run.add_argument("--grid-a", type=_parse_floats, help="comma list of a values")
    p_run.add_argument("--grid-c", type=_parse_floats, help="comma list of c values")
    p_run.add_argument("--grid-x", type=_parse_floats, help="comma list of x values")
    p_run.add_argument("--out", help="report file path")
    p_run.add_argument("--format", choices=("csv", "json"), dest="fmt",
                       help="report format (default csv)")

    p_eval = sub.add_parser("eval", help="evaluate one quantity at one point")
    p_eval.add_argument("what", help="psi | turanian:KIND | ratio:KIND | phi | "
                                     "bound:ID   (KIND: both|first|second)")
    p_eval.add_argument("a", type=float)
    p_eval.add_argument("c", type=float)
    p_eval.add_argument("x", type=float, help="argument x (the density "
                                              "argument t for phi)")

    p_cat = sub.add_parser("catalog", help="dump the bound catalog")
    p_cat.add_argument("--format", choices=("json", "csv"), dest="fmt",
                       default="json")
    p_cat.add_argument("--out")

    p_sh = sub.add_parser("sharpness", help="print sharpness limit scans: the "
                                      "deviation from each limit and its "
                                      "rate bound at each x")
    p_sh.add_argument("--grid-a", type=_parse_floats,
                      help="comma list of a values (default curated pairs)")
    p_sh.add_argument("--grid-c", type=_parse_floats, help="comma list of c values")
    p_sh.add_argument("--out")
    return top


def _cmd_run(args) -> int:
    try:
        given = {k: v for k, v in vars(args).items() if k != "command"}
        summary, _rows = suites_mod.run(suites_mod.RunConfig(**given))
    except suites_mod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    for line in suites_mod.summary_lines(summary):
        print(line)
    return summary.exit_code


def eval_point(what: str, a: float, c: float, x: float) -> tuple[str, dict]:
    """Evaluate one target; returns (human line, machine dict)."""
    if what == "psi":
        fv = psi(ParameterPoint(a, c, x))
        label = f"psi(a={a:g}, c={c:g}, x={x:g})"
    elif what.startswith("turanian:") or what.startswith("ratio:"):
        op, _, kind_name = what.partition(":")
        try:
            kind = TuranianKind(kind_name)
        except ValueError:
            raise suites_mod.ConfigError(f"unknown Turanian kind {kind_name!r}")
        p = ParameterPoint(a, c, x)
        fv = turanian(kind, p) if op == "turanian" else turanian_ratio(kind, p)
        label = f"{op}[{kind_name}](a={a:g}, c={c:g}, x={x:g})"
    elif what == "phi":
        fv = phi(WeightDensity(a, c), x)
        label = f"phi(a={a:g}, c={c:g}, t={x:g})"
    elif what.startswith("bound:"):
        bid = what.split(":", 1)[1]
        if bid not in CATALOG:
            raise suites_mod.ConfigError(f"unknown bound id {bid!r}")
        rec = check_bound(bid, ParameterPoint(a, c, x))
        human = (f"bound {bid} at (a={a:g}, c={c:g}, x={x:g}): {rec.status} "
                 f"margin={rec.margin:.6g} budget={rec.budget:.6g}")
        machine = {"what": what, "a": a, "c": c, "x": x, "status": rec.status,
                   "lhs": rec.lhs.value, "rhs": rec.rhs.value,
                   "margin": rec.margin, "budget": rec.budget,
                   "anchor": rec.anchor}
        return human, machine
    else:
        raise suites_mod.ConfigError(f"unknown eval target {what!r}")
    human = f"{label} = {fv.value:.17g} +/- {fv.abs_error:.3g} [{fv.method}]"
    if fv.flags:
        human += " flags=" + ",".join(fv.flags)
    machine = {"what": what, "a": a, "c": c, "x": x, "value": fv.value,
               "abs_error": fv.abs_error, "method": fv.method,
               "flags": list(fv.flags)}
    return human, machine


def _cmd_eval(args) -> int:
    try:
        human, machine = eval_point(args.what, args.a, args.c, args.x)
    except suites_mod.ConfigError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegionError as exc:
        print(f"region error: {exc}", file=sys.stderr)
        return EXIT_REGION
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    print(human)
    print(json.dumps(machine, sort_keys=True))
    return EXIT_OK


def _cmd_catalog(args) -> int:
    doc = catalog_document()
    if args.fmt == "json":
        text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        cols = ["id", "target", "side", "region", "anchor", "gating"]
        w.writerow(cols)
        for row in doc:
            w.writerow([row[k] for k in cols])
        text = buf.getvalue()
    return _emit(text, args.out)


def _cmd_sharpness(args) -> int:
    try:
        if (args.grid_a is None) != (args.grid_c is None):
            raise suites_mod.ConfigError(
                "--grid-a and --grid-c must be given together")
        if args.grid_a is not None:
            suites_mod.check_grid(args.grid_a, "a")
            suites_mod.check_grid(args.grid_c, "c")
            pairs = [(a, c) for a in args.grid_a for c in args.grid_c]
        else:
            pairs = list(dict.fromkeys(pair for lim in LIMITS.values()
                                       for pair in lim.pairs))
    except suites_mod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    lines = []
    for (a, c) in pairs:
        for lim in LIMITS.values():
            try:
                scan = sharpness_scan(lim, a, c)
            except RegionError:
                continue
            except EvaluationError as exc:
                print(f"evaluation error: {exc}", file=sys.stderr)
                return EXIT_EVAL
            direction = "x_to_zero" if lim.toward_zero else "x_to_infinity"
            norm = "ratio_times_x2" if lim.x2_scaled else "ratio"
            seq = " ".join(f"x={q.x:g}:dev={q.deviation:.6g}:rate={q.rate:.6g}"
                           for q in scan)
            lines.append(f"{lim.kind.value} {direction} {norm} "
                         f"a={a:g} c={c:g} limit={lim.value(a, c):.10g} {seq}")
    return _emit("\n".join(lines) + "\n", args.out)


def _emit(text: str, out: str | None) -> int:
    """Write text to the file out, or to stdout when out is None."""
    if out is None:
        print(text, end="")
        return EXIT_OK
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "catalog":
        return _cmd_catalog(args)
    return _cmd_sharpness(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

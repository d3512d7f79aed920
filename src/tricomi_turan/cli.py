"""Command-line driver.

Subcommands:

* ``run``        -- execute verification suites over grids, write a report
* ``eval``       -- single-point evaluation for debugging
* ``catalog``    -- dump the bound catalog
* ``sharpness``  -- print limit scans: one line per (a, c) pair and row of
  ``turanians.LIMITS`` whose region holds at the pair, in table order

``run`` builds its :class:`RunConfig` from the values given by a flag or
by the ``--config`` file (a flag wins); a setting given by neither keeps
the RunConfig default, so only a missing ``suites`` means all suites.

Exit codes: ``run`` returns 0 (no gating fails), 1 (at least one fail),
2 (configuration or output error) or 4 (a point that psi cannot evaluate,
which aborts the run).  ``eval`` returns 0 on success, 2 for parse or
configuration problems, 3 for region violations and 4 for evaluation
failures.  ``catalog`` returns 0, or 2 when ``--out`` cannot be written;
``sharpness`` returns 0, 2 when ``--out`` cannot be written, only one of
``--grid-a`` and ``--grid-c`` is given, or a grid is empty or not finite,
or 4 when a scan meets a point that psi cannot evaluate, which aborts it
with nothing written (pairs outside a limit's region are skipped).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import suites as suites_mod
from .bounds import CATALOG, catalog_document, check_bound
from .kernel import EvaluationError, ParameterPoint, RegionError, psi
from .measure import WeightDensity, phi
from .turanians import (LIMITS, TuranianKind, sharpness_scan, turanian,
                        turanian_ratio)

EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_REGION, EXIT_EVAL = 0, 1, 2, 3, 4


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="tricomi-turan",
                                  description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run verification suites over grids")
    p_run.add_argument("--config", help="key=value config file; flags override it")
    p_run.add_argument("--suites", help="comma list of suites "
                                        f"(default all: {','.join(suites_mod.SUITES)})")
    p_run.add_argument("--grid-a", help="comma list of a values")
    p_run.add_argument("--grid-c", help="comma list of c values")
    p_run.add_argument("--grid-x", help="comma list of x values")
    p_run.add_argument("--out", help="report file path")
    p_run.add_argument("--format", choices=("csv", "json"), dest="fmt",
                       help="report format (default csv)")
    p_run.add_argument("--jobs", type=int,
                       help="worker processes (default 1), at most one per "
                            "(a, c) pair and per usable CPU; each gets whole "
                            "pairs, whose rows are merged in grid order, so "
                            "neither the report nor the error of a failing "
                            "run depends on it")
    p_run.add_argument("--gate-advisory", action="store_true", default=None,
                       help="count advisory-claim failures (S2 family, P4U probe) "
                            "toward the exit code")

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

    p_sh = sub.add_parser("sharpness", help="print sharpness limit scans")
    p_sh.add_argument("--grid-a", help="comma list of a values (default curated pairs)")
    p_sh.add_argument("--grid-c", help="comma list of c values")
    p_sh.add_argument("--out")
    return top


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise suites_mod.ConfigError(f"bad numeric list {text!r}: {exc}")


def _read_config_file(path: str) -> dict:
    settings = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise suites_mod.ConfigError(
                        f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                settings[key.strip()] = value.strip()
    except OSError as exc:
        raise suites_mod.ConfigError(f"cannot read config file: {exc}")
    return settings


_CONFIG_KEYS = {"suites", "grid-a", "grid-c", "grid-x", "out", "format",
                "jobs", "gate-advisory"}


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _build_run_config(args) -> suites_mod.RunConfig:
    """A RunConfig of the values given by a flag or the config file; the
    fields of RunConfig hold the defaults."""
    file_cfg = _read_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - _CONFIG_KEYS
    if unknown:
        raise suites_mod.ConfigError(f"unknown config keys: {sorted(unknown)}")

    def pick(flag_value, file_key, convert=str):
        """The flag if given, else the config-file value, else None; text
        (from either) is converted."""
        value = flag_value if flag_value is not None else file_cfg.get(file_key)
        if not isinstance(value, str):
            return value
        try:
            return convert(value)
        except suites_mod.ConfigError:
            raise
        except ValueError as exc:
            raise suites_mod.ConfigError(f"config key {file_key}: {exc}")

    given = {
        "suites": pick(args.suites, "suites", _parse_names),
        "grid_a": pick(args.grid_a, "grid-a", _parse_floats),
        "grid_c": pick(args.grid_c, "grid-c", _parse_floats),
        "grid_x": pick(args.grid_x, "grid-x", _parse_floats),
        "out": pick(args.out, "out"),
        "fmt": pick(args.fmt, "format"),
        "jobs": pick(args.jobs, "jobs", int),
        "gate_advisory": pick(args.gate_advisory, "gate-advisory", _parse_bool),
    }
    return suites_mod.RunConfig(**{k: v for k, v in given.items() if v is not None})


def _cmd_run(args) -> int:
    try:
        cfg = _build_run_config(args)
        summary, _rows = suites_mod.run(cfg)
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
    return EXIT_FAIL if summary.gating_fails else EXIT_OK


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
            grid_a, grid_c = _parse_floats(args.grid_a), _parse_floats(args.grid_c)
            suites_mod.check_grid(grid_a, "a")
            suites_mod.check_grid(grid_c, "c")
            pairs = [(a, c) for a in grid_a for c in grid_c]
        else:
            pairs = list(dict.fromkeys(suites_mod.SHARPNESS_PAIRS_INF
                                       + suites_mod.SHARPNESS_PAIRS_ZERO))
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
            seq = " ".join(f"x={q.x:g}:dev={q.deviation:.6g}"
                           for q in scan.points)
            lines.append(
                f"{lim.kind.value} {direction} {norm} "
                f"a={a:g} c={c:g} limit={lim.value(a, c):.10g} {seq} "
                f"decreasing={scan.eventually_decreasing}")
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

"""Command-line driver.

Subcommands:

* ``run``        -- execute verification suites over grids, write a report
* ``eval``       -- single-point evaluation for debugging
* ``catalog``    -- dump the bound catalog
* ``sharpness``  -- print limit scans

Exit codes: ``run`` returns 0 (no gating fails), 1 (at least one fail),
2 (configuration or output error) or 4 (a point that psi cannot evaluate,
which aborts the run).  ``eval`` returns 0 on success, 2 for parse or
configuration problems, 3 for region violations and 4 for evaluation
failures.  ``catalog`` returns 0, or 2 when ``--out`` cannot be written;
``sharpness`` returns 0, or 2 when ``--out`` cannot be written or only one
of ``--grid-a`` and ``--grid-c`` is given.
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
from .turanians import (Direction, Normalization, SharpnessLimit,
                        TuranianKind, sharpness_scan, turanian, turanian_ratio)

EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_REGION, EXIT_EVAL = 0, 1, 2, 3, 4

# suite -> the config key of its tolerance; the flag is "--" + key
_TOL_KEYS = {name: "tol-" + name.replace("_", "-")
             for name, suite in suites_mod.REGISTRY.items()
             if suite.tolerance is not None}


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
    for s, key in _TOL_KEYS.items():
        p_run.add_argument("--" + key, dest=f"tol_{s}", type=float,
                           help=f"tolerance for the {s} suite")
    p_run.add_argument("--out", help="report file path")
    p_run.add_argument("--format", choices=("csv", "json"), dest="fmt",
                       help="report format (default csv)")
    p_run.add_argument("--jobs", type=int, help="worker processes (default 1)")
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


def _build_run_config(args) -> suites_mod.RunConfig:
    file_cfg = _read_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - _CONFIG_KEYS - set(_TOL_KEYS.values())
    if unknown:
        raise suites_mod.ConfigError(f"unknown config keys: {sorted(unknown)}")

    def pick(flag_value, file_key, default, convert=str):
        """The flag if given, else the config-file value converted, else
        the default."""
        if flag_value is not None:
            return flag_value
        if file_key not in file_cfg:
            return default
        try:
            return convert(file_cfg[file_key])
        except ValueError as exc:
            raise suites_mod.ConfigError(f"config key {file_key}: {exc}")

    suites_raw = pick(args.suites, "suites", None)
    suites = (tuple(s.strip() for s in suites_raw.split(",") if s.strip())
              if suites_raw else suites_mod.SUITES)
    grid_a = pick(args.grid_a, "grid-a", None)
    grid_c = pick(args.grid_c, "grid-c", None)
    grid_x = pick(args.grid_x, "grid-x", None)
    tolerances = {}
    for s, key in _TOL_KEYS.items():
        v = pick(getattr(args, f"tol_{s}"), key, None, float)
        if v is not None:
            tolerances[s] = v
    return suites_mod.RunConfig(
        suites=suites,
        grid_a=_parse_floats(grid_a) if grid_a is not None else suites_mod.DEFAULT_GRID_A,
        grid_c=_parse_floats(grid_c) if grid_c is not None else suites_mod.DEFAULT_GRID_C,
        grid_x=_parse_floats(grid_x) if grid_x is not None else suites_mod.DEFAULT_GRID_X,
        tolerances=tolerances,
        out=pick(args.out, "out", None),
        fmt=pick(args.fmt, "format", "csv"),
        jobs=pick(args.jobs, "jobs", 1, int),
        gate_advisory=pick(args.gate_advisory, "gate-advisory", False, _parse_bool),
    )


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
            pairs = [(a, c) for a in _parse_floats(args.grid_a)
                     for c in _parse_floats(args.grid_c)]
        else:
            pairs = list(dict.fromkeys(suites_mod.SHARPNESS_PAIRS_INF
                                       + suites_mod.SHARPNESS_PAIRS_ZERO))
    except suites_mod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    lines = []
    for (a, c) in pairs:
        for kind in TuranianKind:
            for direction, norm in (
                    (Direction.X_TO_INFINITY, Normalization.RATIO_TIMES_X2),
                    (Direction.X_TO_ZERO, Normalization.RATIO),
                    (Direction.X_TO_INFINITY, Normalization.RATIO)):
                try:
                    lim = SharpnessLimit.closed_form(kind, direction, norm, a, c)
                    scan = sharpness_scan(lim, a, c)
                except (RegionError, EvaluationError):
                    continue
                seq = " ".join(f"x={q.x:g}:dev={q.deviation:.6g}"
                               for q in scan.points)
                lines.append(
                    f"{kind.value} {direction.value} {norm.value} "
                    f"a={a:g} c={c:g} limit={lim.limit_value:.10g} {seq} "
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

"""Benchmark of tricomi-turan: one command, three seeded workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload default-run|dense-bounds|psi-points \
        --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload's timed body untraced, each time in a fresh
process and so from a cold psi cache, as many times as fit in S seconds at
the nominal cost of one repetition (a count fixed by the arguments), and
prints the end-to-end metrics named in ``BENCHMARK.json``:

* ``setup_s``: importing ``tricomi_turan`` plus the first psi call, median
  over at least ``MIN_SETUPS`` fresh processes;
* ``wall_s``: the timed body, median over the repetitions;
* ``peak_rss_mb``: peak resident set of the body's process plus its largest
  child, median over the repetitions;
* ``delivered_share``: 1 - ``failed_share``, the share of attempted
  operations (grid rows, psi points) that returned a value.

The speed of a shared machine drifts by tens of percent over seconds to
minutes, so both times are rescaled to a fixed reference speed measured in
the same process (``workloads.SpeedProbe``); the raw seconds are reported
too.  The lines before the result report the figures that apply to one
workload only: ``gating_fails``, ``eval_p50_us``, ``eval_p99_us`` and
``budget_violation_share``, with ``failed_share`` and the verdict counts.

``--trace 1`` runs the workload once untraced and once with the layer
wrappers of ``tracer.py`` installed, both at jobs=1, and prints the
per-layer metrics with their self times and the tracing overhead; the spans
are written to ``.perfbench_out/``.

Both modes check the program's outputs and print, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import REP_NOMINAL_S, SPIN_NOMINAL_S, WORKLOADS  # noqa: E402

RUN_BUDGET_S = 170.0      # every child is killed past this point of the run
MIN_SETUPS = 9            # set-up samples behind the setup_s median
MAX_REPS = 25


class ChildFailed(RuntimeError):
    pass


def repetitions(workload: str, seconds: int) -> int:
    """How many repetitions fill ``seconds`` at the nominal cost of one.

    The count depends on the arguments only, never on the clock, so that
    runs with the same arguments attempt the same operations and see the
    same failures however fast the machine is at the time."""
    return max(1, min(MAX_REPS, int(seconds // REP_NOMINAL_S[workload])))


def spawn(job: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker; return (its rescaled set-up seconds, its result)."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{job} timed out")
    ready = result = None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if proc.returncode != 0 or ready is None or result is None:
        raise ChildFailed(f"{job} exited with {proc.returncode}")
    result["raw_setup_s"] = ready - started
    return result["raw_setup_s"] * SPIN_NOMINAL_S / result["setup_spin_s"], result


def untraced(workload: str, seed: int, seconds: int, deadline: float):
    """Returns (correct, attempted, failed, metrics, report)."""
    setups, reps = [], []
    for _ in range(repetitions(workload, seconds)):
        setup, res = spawn({"kind": "rep", "workload": workload, "seed": seed,
                            "check": not reps}, deadline)
        setups.append(setup)
        reps.append(res)
    while len(setups) < MIN_SETUPS:
        setups.append(spawn({"kind": "setup"}, deadline)[0])

    first = reps[0]
    report: dict = {"workload": workload, "seed": seed, "reps": len(reps),
                    "setup_s_each": setups}
    for key in ("wall_s", "raw_wall_s", "speed_samples"):
        report[key + "_each"] = [r[key] for r in reps]
    report["raw_wall_s"] = statistics.median(report["raw_wall_s_each"])
    if workload == "default-run":
        want = json.loads((HERE / "recorded.json").read_text())["default-run"]
        expected = want["rows"]
        correct = all(r["exit_code"] == 0 for r in reps)
        report["counts"] = {s: {"now": first["counts"].get(s, {}), "recorded": c}
                            for s, c in want["counts"].items()}
        report["verdicts_as_recorded"] = all(r["counts"] == want["counts"] for r in reps)
    elif workload == "dense-bounds":
        expected = first["expected_rows"]
        correct = all(r["digest"] == first["jobs1_digest"] for r in reps)
        report["jobs2_rows_equal_jobs1"] = correct
    else:
        expected = first["attempted"]
        oracle = first["oracle"]
        correct = (oracle["checked"] > 0 and oracle["gross"] == 0
                   and all(r["failures"] == first["failures"]
                           and r["routes"] == first["routes"] for r in reps))
        for key in ("eval_p50_us", "eval_p99_us"):
            report[key] = statistics.median(r[key] for r in reps)
        report["latency_samples_per_rep"] = first["latency_samples"]
        report["failures"] = first["failures"]
        report["routes"] = first["routes"]
        report["oracle"] = oracle
        report["budget_violation_share"] = oracle["violations"] / oracle["checked"]
    attempted = expected * len(reps)
    if workload == "psi-points":
        failed = sum(sum(r["failures"].values()) for r in reps)
    else:
        failed = sum(max(0, expected - r["rows"]) for r in reps)
        correct = correct and failed == 0
        report["rows"] = first["rows"]
        report["gating_fails"] = first["gating_fails"]
    report["failed_share"] = failed / attempted
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(report["wall_s_each"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "delivered_share": 1.0 - failed / attempted,
    }
    return correct, attempted, failed, metrics, report


def traced(workload: str, seed: int, deadline: float):
    """One untraced and one traced pass at jobs=1, plus (dense-bounds) an
    untraced jobs=2 repetition for the pool's parallel efficiency.
    Returns (correct, attempted, failed, metrics, report)."""
    job = {"kind": "pass", "workload": workload, "seed": seed}
    _, plain = spawn({**job, "traced": False}, deadline)
    _, trace = spawn({**job, "traced": True}, deadline)
    metrics = dict(trace["layers"])
    report = {"workload": workload, "seed": seed, "untraced_steps": plain["steps"],
              "traced_steps": trace["steps"], "not_wrapped": trace["missing"]}
    for step, t in plain["steps"].items():
        if step.startswith("suites."):
            metrics[step + "_s"] = t
    metrics["suites.write_report_s"] = metrics.get("suites.write_report.total_s", 0.0)
    metrics["trace.untraced_wall_s"] = plain["wall_s"]
    metrics["trace.traced_wall_s"] = trace["wall_s"]
    metrics["trace.overhead_s"] = trace["wall_s"] - plain["wall_s"]
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / plain["wall_s"]
    if workload == "psi-points":
        attempted, failed = trace["attempted"], trace["failed"]
        return plain["failed"] == failed, attempted, failed, metrics, report
    metrics["suites.jobs1_wall_s"] = plain["wall_s"]
    if workload == "dense-bounds":
        _, par = spawn({"kind": "rep", "workload": workload, "seed": seed,
                        "check": True}, deadline)
        metrics["suites.parallel_efficiency"] = plain["wall_s"] / (2.0 * par["wall_s"])
        expected = par["expected_rows"]
    else:
        expected = json.loads((HERE / "recorded.json").read_text())["default-run"]["rows"]
    failed = 2 * expected - plain["rows"] - trace["rows"]
    return failed == 0, 2 * expected, failed, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "tricomi_turan" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            correct, attempted, failed, values, report = traced(
                args.workload, args.seed, deadline)
        else:
            correct, attempted, failed, values, report = untraced(
                args.workload, args.seed, args.seconds, deadline)
    except ChildFailed as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        tmp = ROOT / ".perfbench_tmp"
        if tmp.is_dir() and not any(tmp.iterdir()):
            tmp.rmdir()

    print(json.dumps({"report": report}, sort_keys=True))
    # per-layer metrics of a layer the workload does not reach read 0
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0) if args.trace
                           else values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

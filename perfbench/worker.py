"""One benchmark process: set up, run one job, report one JSON line.

Usage: ``python3 perfbench/worker.py '<job as JSON>'``.  The job kinds are

* ``setup`` -- import ``tricomi_turan`` and make the first psi call only;
* ``rep``   -- one untraced run of a workload's timed body; with ``check``
               also the workload's output checks, after the timing;
* ``pass``  -- one trace-mode pass of a workload at jobs=1, with the layer
               wrappers installed or not.

The worker prints ``READY <monotonic clock>`` once set-up is done, so that
the parent can time set-up from process start, and ``RESULT <json>`` as its
last line.  Each process times one body, from a cold psi cache, as one CLI
invocation does.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
SETUP_SPINS = 20


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def set_up() -> float:
    """Import the program from this checkout and make the first psi call;
    return the mean ``spin`` time just after, the speed set-up ran at."""
    import tricomi_turan
    from tricomi_turan import kernel
    src = (ROOT / "src").resolve()
    if src not in Path(tricomi_turan.__file__).resolve().parents:
        raise SystemExit(f"tricomi_turan imported from {tricomi_turan.__file__}, "
                         f"not from {src}")
    kernel.psi(kernel.ParameterPoint(*workloads.SETUP_POINT))
    print(f"READY {time.monotonic()!r}", flush=True)
    return sum(workloads.spin() for _ in range(SETUP_SPINS)) / SETUP_SPINS


def _clear_cache():
    from tricomi_turan import kernel
    cache = getattr(kernel, "_psi_cached", None)
    if hasattr(cache, "cache_clear"):
        cache.cache_clear()


def _tmp_csv(tag: str) -> str:
    TMP.mkdir(exist_ok=True)
    return str(TMP / f"{tag}-{os.getpid()}.csv")


def _percentile(sorted_values, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _default_run():
    path = _tmp_csv("default-run")
    try:
        return workloads.run_default(path)
    finally:
        if os.path.exists(path):
            os.remove(path)


def rep(job: dict) -> dict:
    workload, seed = job["workload"], job["seed"]
    if workload == "psi-points":
        points = workloads.psi_points(seed)
    _clear_cache()
    with workloads.SpeedProbe() as probe:
        if workload == "default-run":
            wall, out = _default_run()
        elif workload == "dense-bounds":
            wall, out = workloads.run_dense(seed, workloads.DENSE_JOBS)
        else:
            wall, out = workloads.run_psi_points(points)
    res = {"wall_s": probe.rescale(wall), "raw_wall_s": wall,
           "speed_samples": len(probe.samples), "peak_rss_mb": peak_rss_mb()}
    if workload == "psi-points":
        lat = sorted(out.pop("lat_ns"))
        values = out.pop("values")
        res["eval_p50_us"] = _percentile(lat, 0.50) / 1e3
        res["eval_p99_us"] = _percentile(lat, 0.99) / 1e3
        res["latency_samples"] = len(lat)
        res["attempted"] = len(points)
    res.update(out)
    if not job["check"]:
        return res
    # checks run after the peak RSS is read and outside the timed body
    t0 = time.monotonic()
    if workload == "dense-bounds":
        from tricomi_turan import bounds
        res["expected_rows"] = workloads.dense_expected_rows(
            bounds, *workloads.dense_grid(seed))
        _clear_cache()
        res["jobs1_digest"] = workloads.run_dense(seed, 1)[1]["digest"]
    elif workload == "psi-points":
        idx = workloads.oracle_indices(seed, len(points))
        res["oracle"] = workloads.oracle_check(points, values, idx)
    res["check_s"] = time.monotonic() - t0
    return res


def trace_pass(job: dict) -> dict:
    """The workload at jobs=1 as consecutive steps, each timed on its own;
    with ``traced`` the layer wrappers record spans around every step."""
    from tricomi_turan import suites
    workload, seed = job["workload"], job["seed"]
    tracer = None
    if job["traced"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    steps: dict = {}
    res: dict = {}

    def step(name, fn):
        t0 = time.perf_counter()
        out = fn() if tracer is None else tracer.root(name, fn)
        steps[name] = time.perf_counter() - t0
        return out

    _clear_cache()
    with workloads.SpeedProbe() as probe:
        if workload == "psi-points":
            points = workloads.psi_points(seed)
            out = step("bench.psi-points", lambda: workloads.run_psi_points(points))[1]
            res["attempted"] = len(points)
            res["failed"] = sum(out["failures"].values())
        else:
            if workload == "default-run":
                names, grid = suites.SUITES, {}
            else:
                grid_a, grid_c, grid_x = workloads.dense_grid(seed)
                names = workloads.DENSE_SUITES
                grid = {"grid_a": grid_a, "grid_c": grid_c, "grid_x": grid_x}
            rows = 0
            for name in names:
                path = _tmp_csv(name) if workload == "default-run" else None
                cfg = suites.RunConfig(suites=(name,), out=path, jobs=1, **grid)
                try:
                    summary, _ = step(f"suites.{name}", lambda: suites.run(cfg))
                finally:
                    if path and os.path.exists(path):
                        os.remove(path)
                rows += summary.n_rows
            res["rows"] = rows
    res["steps"] = steps
    res["raw_wall_s"] = sum(steps.values())
    res["wall_s"] = probe.rescale(res["raw_wall_s"])
    if tracer is not None:
        tracer.uninstall()
        res["layers"] = tracer.metrics()
        res["missing"] = tracer.missing
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{workload}.npz")
    return res


def main() -> int:
    job = json.loads(sys.argv[1])
    res = {"setup_spin_s": set_up()}
    if job["kind"] == "rep":
        res.update(rep(job))
    elif job["kind"] == "pass":
        res.update(trace_pass(job))
    print("RESULT " + json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded inputs and timed bodies of the three benchmark workloads.

Every workload is a closed loop: one caller in one process issues the next
call only after the previous one returned.

* ``default-run``  -- ``cli.main(["run", "--out", ...])`` on the default grid
                      at jobs=1, the command users run.  The seed is unused:
                      the default grid is fixed by the program.
* ``dense-bounds`` -- ``suites.run`` over the bounds, dominance and
                      monotonicity suites on a seeded grid at jobs=2.
* ``psi-points``   -- ``kernel.psi(ParameterPoint(a, c, x))`` over a seeded
                      stream of distinct points, so the psi cache never hits.

The bodies resolve every program name through its module at call time, so
the wrappers that ``tracer`` installs see the same calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
import signal
import time
from collections import Counter

WORKLOADS = ("default-run", "dense-bounds", "psi-points")

DENSE_SUITES = ("bounds", "dominance", "monotonicity")
DENSE_SHAPE = (10, 10, 12)      # grid points in a, c and x
DENSE_JOBS = 2

PSI_POINTS = 20_000
ORACLE_SAMPLE = 400
ORACLE_DPS = 30

# Seconds of run time each untraced repetition is given, its process start,
# its share of the extra set-up samples and of the checks included, on the
# machine the baselines were taken on; ``run.repetitions`` divides the
# run's seconds by these.
REP_NOMINAL_S = {"default-run": 22.0, "dense-bounds": 7.0, "psi-points": 7.0}

# A fixed quadrature-route point: the first psi call that set-up pays for.
SETUP_POINT = (1.5, -0.5, 1.0)

# Thread CPU seconds of ``spin`` on the machine the baselines were taken on
# (a 2-core x86-64 virtual machine, Python 3.11).
SPIN_NOMINAL_S = 0.005
SPEED_PERIOD_S = 0.2


def spin() -> float:
    """Thread CPU seconds of a fixed pure-Python task that shares no code
    with the program.  CPU time, not wall time, so that a probe that waits
    for a core (while pool workers run) still reads the core's speed."""
    c0 = time.thread_time()
    s = 0.0
    for i in range(1, 20000):
        s += math.exp(-i * 1e-4) * math.log1p(i)
    return time.thread_time() - c0


class SpeedProbe:
    """Samples the machine's speed with ``spin`` every ``SPEED_PERIOD_S`` of
    wall time while a body runs, from a SIGALRM handler in the main thread.

    The speed of a shared machine drifts by tens of percent over seconds to
    minutes, so a body's time is reported rescaled to the speed at which
    ``spin`` takes ``SPIN_NOMINAL_S``: ``rescale`` removes the time the
    probe took itself and divides by the mean sample."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(spin())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.samples:
            self.samples.append(spin())

    def rescale(self, wall: float) -> float:
        mean = sum(self.samples) / len(self.samples)
        return (wall - self.spent) * SPIN_NOMINAL_S / mean


def _stratified(rng: random.Random, lo: float, hi: float, n: int, accept=None):
    """n values uniform in [lo, hi], one in each of n equal strata, so the
    spread between seeds comes from where points fall, not how many fall
    in each region."""
    width = (hi - lo) / n
    out = []
    for i in range(n):
        while True:
            v = lo + (i + rng.random()) * width
            if accept is None or accept(v):
                break
        out.append(v)
    return tuple(out)


def _off_integer(v: float) -> bool:
    return abs(v - round(v)) >= 1e-3


def dense_grid(seed: int):
    """(grid_a, grid_c, grid_x) for ``dense-bounds``.

    a uniform in [0.1, 6]; c uniform in [-5, 0.95] and at least 1e-3 from
    any integer, because ``run`` aborts on its first error and the
    integer-c defect is measured by ``psi-points``; x log-uniform in
    [0.01, 200].
    """
    rng = random.Random(f"dense-bounds:{seed}")
    na, nc, nx = DENSE_SHAPE
    grid_a = _stratified(rng, 0.1, 6.0, na)
    grid_c = _stratified(rng, -5.0, 0.95, nc, _off_integer)
    grid_x = tuple(math.exp(w) for w in
                   _stratified(rng, math.log(0.01), math.log(200.0), nx))
    return grid_a, grid_c, grid_x


def dense_expected_rows(bounds_mod, grid_a, grid_c, grid_x) -> int:
    """Rows the three dense suites must deliver, counted from the catalog
    regions and the auxiliary regions stated in ``auxiliary_log_ratio``."""
    from tricomi_turan.kernel import ParameterPoint
    rows = 0
    for spec in bounds_mod.CATALOG.values():
        rows += sum(spec.region(a, c) for a in grid_a for c in grid_c) * len(grid_x)
    for did in bounds_mod.DOMINANCE:
        rows += sum(bounds_mod.dominance_applicable(did, ParameterPoint(a, c, x))
                    for a in grid_a for c in grid_c for x in grid_x)
    aux_regions = (lambda a, c: a > 0.0 > c,             # f
                   lambda a, c: a > 0.0 and c < -1.0,    # g
                   lambda a, c: a > 0.0)                 # h
    for region in aux_regions:
        rows += sum(region(a, c) for a in grid_a for c in grid_c) * (len(grid_x) - 1)
    return rows


def psi_points(seed: int, n: int = PSI_POINTS):
    """n distinct (a, c, x) triples.

    a uniform in [-4, 6], 10% drawn from the integers -3..0; c uniform in
    [-5, 2], 10% drawn from the integers -5..2; x log-uniform in
    [1e-2, 1e3].  The integer shares are kept on purpose: they reach the
    terminating-series, integer-c and a <= 0 regions where psi fails today.
    """
    rng = random.Random(f"psi-points:{seed}")
    lo, hi = math.log(1e-2), math.log(1e3)
    seen = set()
    out = []
    while len(out) < n:
        a = float(rng.randint(-3, 0)) if rng.random() < 0.1 else rng.uniform(-4.0, 6.0)
        c = float(rng.randint(-5, 2)) if rng.random() < 0.1 else rng.uniform(-5.0, 2.0)
        x = math.exp(rng.uniform(lo, hi))
        if (a, c, x) not in seen:
            seen.add((a, c, x))
            out.append((a, c, x))
    return out


def oracle_indices(seed: int, n: int, k: int = ORACLE_SAMPLE):
    return sorted(random.Random(f"psi-oracle:{seed}").sample(range(n), k))


# ---------------------------------------------------------------------------
# timed bodies; each returns (wall seconds, outputs to check)
# ---------------------------------------------------------------------------

def run_default(out_path: str):
    from tricomi_turan import cli
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(["run", "--out", out_path])
    wall = time.perf_counter() - t0
    return wall, {"exit_code": code, **read_report(out_path)}


def read_report(path: str) -> dict:
    """Row count, per-suite verdict counts and gating fails of a CSV report."""
    from tricomi_turan import suites
    counts: dict = {}
    gating = 0
    rows = 0
    with open(path, encoding="utf-8") as fh:
        body = [line for line in fh if not line.startswith("#")]
    for rec in csv.DictReader(body):
        rows += 1
        suite_counts = counts.setdefault(rec["suite"], Counter())
        suite_counts[rec["status"]] += 1
        if rec["status"] == "fail" and rec["claim"] not in suites.ADVISORY_CLAIMS:
            gating += 1
    return {"rows": rows, "gating_fails": gating,
            "counts": {s: dict(c) for s, c in counts.items()}}


def run_dense(seed: int, jobs: int):
    from tricomi_turan import suites
    grid_a, grid_c, grid_x = dense_grid(seed)
    cfg = suites.RunConfig(suites=DENSE_SUITES, grid_a=grid_a, grid_c=grid_c,
                           grid_x=grid_x, jobs=jobs)
    t0 = time.perf_counter()
    summary, rows = suites.run(cfg)
    wall = time.perf_counter() - t0
    digest = hashlib.sha256()
    for r in rows:
        digest.update(repr(r).encode())
    return wall, {"rows": len(rows), "gating_fails": summary.gating_fails,
                  "counts": summary.counts, "digest": digest.hexdigest()}


def run_psi_points(points):
    """Evaluate every point once; failures of any exception type count."""
    from tricomi_turan import kernel
    psi, point = kernel.psi, kernel.ParameterPoint
    clock = time.perf_counter_ns
    lat_ns = []
    values = [None] * len(points)
    failures: Counter = Counter()
    routes: Counter = Counter()
    t0 = time.perf_counter()
    for i, (a, c, x) in enumerate(points):
        s = clock()
        try:
            fv = psi(point(a, c, x))
        except Exception as exc:  # every failure is counted, none is filtered
            failures[type(exc).__name__] += 1
            continue
        lat_ns.append(clock() - s)
        values[i] = (fv.value, fv.abs_error)
        routes[fv.method] += 1
    wall = time.perf_counter() - t0
    return wall, {"lat_ns": lat_ns, "values": values,
                  "failures": dict(failures), "routes": dict(routes)}


def oracle_check(points, values, indices, dps: int = ORACLE_DPS) -> dict:
    """Compare delivered values with ``mpmath.hyperu`` at ``dps`` digits.

    A value over its own ``abs_error`` is a budget violation, the known
    defect that ``budget_violation_share`` tracks.  A value off by more
    than 1e-6 relative and 1e3 times its budget is a gross error and makes
    the run incorrect.
    """
    import mpmath
    checked = violations = gross = 0
    worst = 0.0
    with mpmath.workdps(dps):
        for i in indices:
            if values[i] is None:
                continue
            a, c, x = points[i]
            value, abs_error = values[i]
            ref = float(mpmath.hyperu(a, c, x))
            diff = abs(value - ref)
            checked += 1
            if not math.isfinite(diff):
                violations += 1
                gross += 1
                worst = math.inf
                continue
            ratio = diff / abs_error if abs_error > 0.0 else (math.inf if diff else 0.0)
            worst = max(worst, ratio)
            if diff > abs_error:
                violations += 1
            if diff > 1e-6 * abs(ref) and ratio > 1e3:
                gross += 1
    return {"checked": checked, "violations": violations, "gross": gross,
            "worst_ratio": worst}

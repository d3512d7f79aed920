"""Outside-in layer trace of ``tricomi_turan``.

``Tracer.install`` replaces module attributes of the program with wrappers
that record a span per call: name, start, end and the enclosing span.  Each
name is wrapped in every module that resolves it at call time, because
``from .kernel import psi`` gives each importer its own binding: wrapping
``kernel.psi`` alone would miss the calls made through ``turanians.psi``.
Spans live in flat arrays in memory and are written out by ``save`` when
the run ends.  A layer's self time is its span duration minus the time its
child spans cover.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from functools import lru_cache

import numpy as np

KERNEL_ROUTES = ("quadrature", "connection_series", "asymptotic_large_x")
KERNEL_FAILURES = ("EvaluationError", "ZeroDivisionError")

# (module, attribute, span name); psi_connection and quad get their own
# wrappers below.
_PLAIN = (
    ("kernel", "psi", "kernel.psi"),
    ("turanians", "psi", "kernel.psi"),
    ("bounds", "psi", "kernel.psi"),
    ("suites", "psi", "kernel.psi"),
    ("kernel", "psi_quadrature", "kernel.psi_quadrature"),
    ("suites", "psi_quadrature", "kernel.psi_quadrature"),
    ("kernel", "_asymptotic_auto", "kernel.asymptotic"),
    ("turanians", "turanian_ratio", "turanians.turanian_ratio"),
    ("bounds", "turanian_ratio", "turanians.turanian_ratio"),
    ("suites", "turanian_ratio", "turanians.turanian_ratio"),
    ("turanians", "sharpness_scan", "turanians.sharpness_scan"),
    ("suites", "sharpness_scan", "turanians.sharpness_scan"),
    ("measure", "phi_moment", "measure.phi_moment"),
    ("measure", "stieltjes_ratio", "measure.stieltjes_ratio"),
    ("measure", "stieltjes_first_shift", "measure.stieltjes_first_shift"),
    ("bounds", "check_bound", "bounds.check_bound"),
    ("bounds", "check_dominance", "bounds.check_dominance"),
    ("bounds", "auxiliary_log_ratio", "bounds.auxiliary_log_ratio"),
    ("suites", "write_report", "suites.write_report"),
)
_CONNECTION = (("kernel", "psi_connection"), ("measure", "psi_connection"),
               ("suites", "psi_connection"))

LAYERS = ("kernel", "turanians", "measure", "bounds", "suites")


class Tracer:
    """Span recorder plus counters; ``install`` patches, ``uninstall``
    restores every patched attribute."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.psi_cache = None
        self.missing: list[str] = []
        self._patched: list[tuple] = []
        self._record = self._recorder()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _recorder(self):
        """The recording closure that every wrapper calls; it binds the span
        arrays to locals to keep the per-call cost low."""
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        def record(nid, fn, args, kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return record

    def root(self, name: str, fn):
        """Call ``fn()`` inside a span opened by the benchmark itself."""
        return self._record(self._id(name), fn, (), {})

    def _patch(self, module, attr: str, make):
        if not hasattr(module, attr):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._patched.append((module, attr, original))

    def _span(self, name: str):
        record, nid = self._record, self._id(name)

        def make(fn):
            def traced(*args, **kwargs):
                return record(nid, fn, args, kwargs)
            return traced
        return make

    def _connection(self, fn):
        record = self._record
        real = self._id("kernel.psi_connection.real")
        cplx = self._id("kernel.psi_connection.complex")

        def traced(a, c, z, *rest, **kwargs):
            return record(cplx if isinstance(z, complex) else real, fn,
                          (a, c, z) + rest, kwargs)
        return traced

    def _quad(self, fn):
        record, nid, counts = self._record, self._id("kernel.quad"), self.counts

        def traced(*args, **kwargs):
            out = record(nid, fn, args, kwargs)
            # with full_output QUADPACK returns (y, abserr, info[, message]);
            # the message is present exactly when ier > 0
            if len(out) >= 3 and isinstance(out[2], dict):
                counts["kernel.quad.neval"] += out[2].get("neval", 0)
                counts["kernel.quad.warnings"] += len(out) >= 4
            return out
        return traced

    def _cached_psi(self, cached):
        """Rebuild the psi cache around a counting evaluator, so that only
        misses count a route or a failure.  Exceptions are not cached, as
        before."""
        raw = getattr(cached, "__wrapped__", None)
        if raw is None or not hasattr(cached, "cache_info"):
            self.missing.append("kernel._psi_cached (lru_cache)")
            return cached
        counts = self.counts

        def evaluate(*args):
            try:
                fv = raw(*args)
            except Exception as exc:
                counts["kernel.failures." + type(exc).__name__] += 1
                raise
            counts["kernel.route." + fv.method] += 1
            return fv
        self.psi_cache = lru_cache(maxsize=cached.cache_info().maxsize)(evaluate)
        return self.psi_cache

    def install(self):
        from tricomi_turan import bounds, kernel, measure, suites, turanians
        modules = {"kernel": kernel, "turanians": turanians, "measure": measure,
                   "bounds": bounds, "suites": suites}
        for mod, attr, name in _PLAIN:
            self._patch(modules[mod], attr, self._span(name))
        for mod, attr in _CONNECTION:
            self._patch(modules[mod], attr, self._connection)
        self._patch(kernel, "quad", self._quad)
        self._patch(kernel, "_psi_cached", self._cached_psi)

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- results ------------------------------------------------------------

    def _arrays(self):
        return (np.frombuffer(self.span_name, dtype=np.int32),
                np.frombuffer(self.span_parent, dtype=np.int32),
                np.frombuffer(self.span_start, dtype=np.float64),
                np.frombuffer(self.span_end, dtype=np.float64))

    def metrics(self) -> dict:
        """calls, total_s, self_s, p50_us and p50_ms per span name; self
        time per layer; the counters; the psi cache hit ratio."""
        name, parent, start, end = self._arrays()
        n, k = len(name), len(self.names)
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=n) if n else np.zeros(0)
        self_t = dur - covered
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_t, minlength=k)
        out: dict = {"trace.spans": n}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        order = np.argsort(name, kind="stable")
        edges = np.searchsorted(name[order], np.arange(k + 1))
        for i, span in enumerate(self.names):
            p50 = float(np.median(dur[order[edges[i]:edges[i + 1]]])) if calls[i] else 0.0
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.total_s"] = float(total[i])
            out[f"{span}.self_s"] = float(own[i])
            out[f"{span}.p50_us"] = p50 * 1e6
            out[f"{span}.p50_ms"] = p50 * 1e3
            layer = span.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += float(own[i])
        for layer, t in layer_self.items():
            out[f"layer.{layer}.self_s"] = t
        out.update(self.counts)
        routes = sum(v for key, v in self.counts.items() if key.startswith("kernel.route."))
        out["kernel.route.other"] = routes - sum(
            self.counts["kernel.route." + r] for r in KERNEL_ROUTES)
        fails = sum(v for key, v in self.counts.items() if key.startswith("kernel.failures."))
        out["kernel.failures.total"] = fails
        out["kernel.failures.other"] = fails - sum(
            self.counts["kernel.failures." + f] for f in KERNEL_FAILURES)
        if self.psi_cache is not None:
            info = self.psi_cache.cache_info()
            lookups = info.hits + info.misses
            out["kernel.psi.cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
        integrals = sum(out.get(f"measure.{f}.calls", 0) for f in
                        ("phi_moment", "stieltjes_ratio", "stieltjes_first_shift"))
        if integrals:
            out["measure.psi_evals_per_integral"] = (
                out.get("kernel.psi_connection.complex.calls", 0) / integrals)
        return out

    def save(self, path) -> None:
        name, parent, start, end = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, start=start, end=end)

"""In-memory span tracing for the benchmark's traced run.

Spans are recorded around calls into mixbench's public functions. The
tracer rebinds each name in the namespace of the module that calls it
(``mixbench.harness.sample``, ``mixbench.estimators.top_eigenvector``, ...)
to a recording wrapper; no source file is edited and ``uninstall`` puts the
original functions back. A span holds its name, start, end, parent span,
thread and the seed of the replicate it belongs to. Spans stay in memory
until the run ends.

Every per-layer metric is a total per workload unit (one ``mixbench
simulate`` call per config, or one certification pass) averaged over the
traced units, or a rate or percentile over all traced spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int
    thread: int
    replicate: int | None
    attrs: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(fn, name):
    """Reader of one argument of ``fn``, by name, defaults applied."""
    sig = inspect.signature(fn)

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return read


def _checks(entries) -> dict:
    return {"checks": len(entries), "failed": sum(not e.get("holds", False) for e in entries)}


def _classifier(result) -> dict:
    clf = result[0] if isinstance(result, tuple) else result
    return {"degenerate": bool(clf.degenerate)}


def _attrs_for(module: str, span: str, fn):
    """What a span records beyond its times, read from the call and its result."""
    if module == "mixbench.harness" and span.startswith("estimators."):
        return lambda a, k, r: _classifier(r)
    if span.startswith("verify.suite_"):
        return lambda a, k, r: _checks(r)
    if span == "model.sample":
        return lambda a, k, r: {"bytes": 8 * r.points.size}
    if span == "estimators.sample_mean_cov":
        return lambda a, k, r: {"flops": 2 * (a[0] if a else k["data"]).n * r[1].shape[0] ** 2}
    if span == "estimators.top_eigenvector":
        return lambda a, k, r: {"flagged": not r[1]}
    if span == "bounds.kl_monte_carlo":
        n_samples = _arg(fn, "n_samples")
        return lambda a, k, r: {"samples": int(n_samples(a, k))}
    if span == "harness.run_experiment":
        threads = _arg(fn, "threads")
        return lambda a, k, r: {"threads": max(1, int(threads(a, k) or 1))}
    if span == "harness.emit_report":
        path = _arg(fn, "path")
        return lambda a, k, r: {"bytes": os.path.getsize(path(a, k))}
    return None


# (calling module, name bound in it, span name). The harness's call to
# ``sample`` opens a replicate: spans that follow in the same thread carry
# its seed until the next one.
BINDINGS = (
    ("mixbench.cli", "main", "cli.main"),
    ("mixbench.cli", "load_config", "harness.load_config"),
    ("mixbench.cli", "run_experiment", "harness.run_experiment"),
    ("mixbench.cli", "emit_report", "harness.emit_report"),
    ("mixbench.cli", "lower_bound_family", "packing.lower_bound_family"),
    ("mixbench.cli", "family_to_json_dict", "packing.family_to_json_dict"),
    ("mixbench.cli", "family_from_json_dict", "packing.family_from_json_dict"),
    ("mixbench.cli", "suite_fano", "verify.suite_fano"),
    ("mixbench.harness", "sample", "model.sample"),
    ("mixbench.harness", "pca_classifier", "estimators.pca_classifier"),
    ("mixbench.harness", "sparse_pca_classifier", "estimators.sparse_pca_classifier"),
    ("mixbench.harness", "oracle_support_pca", "estimators.oracle_support_pca"),
    ("mixbench.harness", "loss_exact_linear", "loss.loss_exact_linear"),
    ("mixbench.harness", "loss_monte_carlo", "loss.loss_monte_carlo"),
    ("mixbench.estimators", "sample_mean_cov", "estimators.sample_mean_cov"),
    ("mixbench.estimators", "top_eigenvector", "estimators.top_eigenvector"),
    ("mixbench.estimators", "screening", "estimators.screening"),
    ("mixbench.estimators", "pca_classifier", "estimators.pca_classifier"),
    ("mixbench.bounds", "sample", "model.sample"),
    ("mixbench.bounds", "mixture_log_density", "model.mixture_log_density"),
    ("mixbench.packing", "loss_exact_linear", "loss.loss_exact_linear"),
    ("mixbench.packing", "kl_monte_carlo", "bounds.kl_monte_carlo"),
    ("mixbench.packing", "sparse_code", "packing.sparse_code"),
    ("mixbench.packing", "vg_code", "packing.vg_code"),
    ("mixbench.verify", "suite_kl", "verify.suite_kl"),
    ("mixbench.verify", "suite_triangle", "verify.suite_triangle"),
    ("mixbench.verify", "suite_loss_sandwich", "verify.suite_loss_sandwich"),
    ("mixbench.verify", "suite_davis_kahan", "verify.suite_davis_kahan"),
    ("mixbench.verify", "kl_monte_carlo", "bounds.kl_monte_carlo"),
    ("mixbench.verify", "loss_exact_linear", "loss.loss_exact_linear"),
    ("mixbench.verify", "fano_check", "packing.fano_check"),
    ("mixbench.verify", "local_triangle_check", "packing.local_triangle_check"),
    ("mixbench.verify", "lower_bound_family", "packing.lower_bound_family"),
    ("mixbench.verify", "davis_kahan_check", "estimators.davis_kahan_check"),
)
REPLICATE_START = ("mixbench.harness", "sample")
REPLICATE_SCOPE = "harness.run_experiment"
# The sample -> fit -> score spans of one replicate.
REPLICATE_STAGES = (
    "model.sample",
    "estimators.pca_classifier",
    "estimators.sparse_pca_classifier",
    "estimators.oracle_support_pca",
    "loss.loss_exact_linear",
    "loss.loss_monte_carlo",
)


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._local.stack = self._main_stack if main else []
        return stack

    def _open(self) -> tuple[int, int, int | None]:
        """Push a new span; returns its id, its parent and its replicate."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool worker's outermost spans belong to what the main thread
            # has open, which is the call that started the pool.
            main = self._main_stack
            parent = main[-1] if main else 0
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, getattr(self._local, "replicate", None)

    def _close(self, sid, name, t0, t1, parent, replicate, attrs) -> None:
        self._stack().pop()
        self.spans.append(Span(sid, name, t0, t1, parent, threading.get_ident(), replicate, attrs))

    @contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself, such as one workload unit."""
        sid, parent, rep = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, t0, time.perf_counter(), parent, rep, attrs or None)

    def wrap(self, name: str, fn, attrs=None, starts_replicate: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_replicate:
                tracer._local.replicate = int(args[2] if len(args) > 2 else kwargs["seed"])
            sid, parent, rep = tracer._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(sid, name, t0, time.perf_counter(), parent, rep, {"error": type(exc).__name__})
                raise
            t1 = time.perf_counter()
            if name == REPLICATE_SCOPE:
                tracer._local.replicate = None
            tracer._close(sid, name, t0, t1, parent, rep, attrs(args, kwargs, result) if attrs else None)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            wrapped = self.wrap(span, fn, _attrs_for(module_name, span, fn), (module_name, attr) == REPLICATE_START)
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, path) -> None:
        """Write every span as one JSON line, times relative to the tracer's start."""
        with open(path, "w") as fh:
            for sp in self.spans:
                row = sp._asdict()
                row["start"] -= self._t0
                row["end"] -= self._t0
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class SpanIndex:
    """Spans grouped by name and by parent, with self times."""

    def __init__(self, spans):
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for sp in spans:
            self.by_name[sp.name].append(sp)
            self.children[sp.parent].append(sp)

    def self_time(self, sp: Span) -> float:
        kids = [(c.start, c.end) for c in self.children.get(sp.id, ())]
        return sp.duration - _union_length(kids, sp.start, sp.end)

    def busy(self, name: str) -> float:
        return sum(sp.duration for sp in self.by_name.get(name, ()))

    def self_total(self, name: str) -> float:
        return sum(self.self_time(sp) for sp in self.by_name.get(name, ()))

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def attr_sum(self, name: str, key: str) -> float:
        return sum((sp.attrs or {}).get(key, 0) for sp in self.by_name.get(name, ()))

    def durations(self, name: str) -> list[float]:
        return [sp.duration for sp in self.by_name.get(name, ())]


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(spans, units: int, overhead_s: float) -> dict:
    """Per-layer metrics of a traced run of ``units`` workload units."""
    ix = SpanIndex(spans)
    units = max(int(units), 1)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def per_unit(name, value, unit):
        put(name, value / units, unit)

    per_unit("model.sample.calls", ix.calls("model.sample"), "count")
    per_unit("model.sample.busy_s", ix.busy("model.sample"), "s")
    put("model.sample.gb_s", _rate(ix.attr_sum("model.sample", "bytes") / 1e9, ix.busy("model.sample")), "GB/s-computed")
    per_unit("model.mixture_log_density.calls", ix.calls("model.mixture_log_density"), "count")
    per_unit("model.mixture_log_density.busy_s", ix.busy("model.mixture_log_density"), "s")

    cov = "estimators.sample_mean_cov"
    per_unit(f"{cov}.busy_s", ix.busy(cov), "s")
    put(f"{cov}.gflop_s", _rate(ix.attr_sum(cov, "flops") / 1e9, ix.busy(cov)), "GFLOP/s-computed")
    eig = "estimators.top_eigenvector"
    per_unit(f"{eig}.calls", ix.calls(eig), "count")
    per_unit(f"{eig}.busy_s", ix.busy(eig), "s")
    put(f"{eig}.p50_us", _percentile(ix.durations(eig), 50) * 1e6, "us")
    per_unit(f"{eig}.flagged", ix.attr_sum(eig, "flagged"), "count")
    for fit in ("pca_classifier", "sparse_pca_classifier", "oracle_support_pca", "screening"):
        per_unit(f"estimators.{fit}.busy_s", ix.busy(f"estimators.{fit}"), "s")
        per_unit(f"estimators.{fit}.self_s", ix.self_total(f"estimators.{fit}"), "s")
    degenerate = sum(
        ix.attr_sum(f"estimators.{fit}", "degenerate")
        for fit in ("pca_classifier", "sparse_pca_classifier", "oracle_support_pca")
    )
    per_unit("estimators.degenerate", degenerate, "count")

    loss = "loss.loss_exact_linear"
    per_unit(f"{loss}.calls", ix.calls(loss), "count")
    per_unit(f"{loss}.busy_s", ix.busy(loss), "s")
    put(f"{loss}.p50_us", _percentile(ix.durations(loss), 50) * 1e6, "us")
    put(f"{loss}.p95_us", _percentile(ix.durations(loss), 95) * 1e6, "us")

    kl = "bounds.kl_monte_carlo"
    per_unit(f"{kl}.calls", ix.calls(kl), "count")
    per_unit(f"{kl}.busy_s", ix.busy(kl), "s")
    put(f"{kl}.samples_per_s", _rate(ix.attr_sum(kl, "samples"), ix.busy(kl)), "1/s")

    for fn in ("lower_bound_family", "fano_check", "local_triangle_check"):
        per_unit(f"packing.{fn}.busy_s", ix.busy(f"packing.{fn}"), "s")
        per_unit(f"packing.{fn}.self_s", ix.self_total(f"packing.{fn}"), "s")
    pairs = sum(
        1 for fano in ix.by_name.get("packing.fano_check", ()) for c in ix.children.get(fano.id, ()) if c.name == loss
    )
    per_unit("packing.fano_check.pairs", pairs, "count")

    run = "harness.run_experiment"
    per_unit(f"{run}.busy_s", ix.busy(run), "s")
    per_unit(f"{run}.self_s", ix.self_total(run), "s")
    capacity = staged = replicate_total = 0.0
    replicate_times = []
    for sp in ix.by_name.get(run, ()):
        capacity += sp.duration * sp.attrs["threads"] if sp.attrs else sp.duration
        groups = defaultdict(list)
        for c in ix.children.get(sp.id, ()):
            if c.name in REPLICATE_STAGES:
                staged += c.duration
                groups[(c.thread, c.replicate)].append(c)
        for group in groups.values():
            t = max(c.end for c in group) - min(c.start for c in group)
            replicate_times.append(t)
            replicate_total += t
    put("harness.coverage", _rate(staged, capacity), "ratio")
    put("harness.parallel_efficiency", _rate(replicate_total, capacity), "ratio")
    put("harness.replicate.p50_ms", _percentile(replicate_times, 50) * 1e3, "ms")
    put("harness.replicate.p95_ms", _percentile(replicate_times, 95) * 1e3, "ms")
    per_unit("harness.emit_report.busy_s", ix.busy("harness.emit_report"), "s")
    per_unit("harness.emit_report.bytes", ix.attr_sum("harness.emit_report", "bytes"), "B")

    checks = failed = 0
    for suite in ("suite_fano", "suite_kl", "suite_triangle", "suite_loss_sandwich", "suite_davis_kahan"):
        name = f"verify.{suite}"
        per_unit(f"{name}.busy_s", ix.busy(name), "s")
        checks += ix.attr_sum(name, "checks")
        failed += ix.attr_sum(name, "failed")
    per_unit("verify.checks", checks, "count")
    per_unit("verify.checks_failed", failed, "count")

    per_unit("cli.main.busy_s", ix.busy("cli.main"), "s")
    per_unit("cli.main.self_s", ix.self_total("cli.main"), "s")
    put("tracing_overhead_s", overhead_s, "s")
    return out


def span_report(spans, units: int) -> list[str]:
    """One line per span name: calls, busy and self time per unit."""
    ix = SpanIndex(spans)
    units = max(int(units), 1)
    lines = [f"{'span (per unit)':<40} {'calls':>10} {'busy_s':>10} {'self_s':>10}"]
    for name in sorted(ix.by_name):
        lines.append(
            f"{name:<40} {ix.calls(name) / units:>10.1f} {ix.busy(name) / units:>10.4f} {ix.self_total(name) / units:>10.4f}"
        )
    lines.append("gb_s and gflop_s are computed from array sizes (8*n*d bytes, 2*n*d^2 flops), not measured.")
    return lines

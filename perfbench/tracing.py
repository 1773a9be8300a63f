"""Span recorder for the traced run, and the per-layer metrics it yields.

Spans are recorded from the benchmark's own files: :func:`install`
replaces public functions of each layer of ``src/repro`` with wrappers
that record a span (name, start, end, parent span, request id) or, at
per-packet boundaries, only count calls.  Module-level functions are
wrapped where the *caller* looks them up (for example
``repro.hecate.objectives.max_min_fair``), because ``from x import f``
copies the binding and patching the defining module alone would miss
every call.

Spans are kept in memory.  The sweep's worker processes are forked from
the traced process, so they inherit the wrappers; each worker appends its
spans to a file of its own after every cell, and
:meth:`SpanRecorder.write` merges those files with the parent's spans
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# span record layout: [name, start_ns, end_ns, parent_index, request_id]
NAME, START, END, PARENT = range(4)


class SpanRecorder:
    """Spans, call counters, per-call samples and peaks, in memory."""

    def __init__(self, out_dir: Optional[str] = None) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self.peaks: Dict[str, int] = defaultdict(int)
        self.stack: List[int] = []
        self.request = ""
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ patching

    def span(
        self,
        owner: Any,
        attr: str,
        name: str,
        request_of: Optional[Callable[[tuple], str]] = None,
        before: Optional[Callable[[tuple], Any]] = None,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``request_of(args)`` names the request the call serves (it then
        applies to every span opened inside the call); ``before(args)``
        and ``after(args, token)`` run around the call to record counts
        that the call's own state shows."""
        original = getattr(owner, attr)
        rec = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            spans = rec.spans
            stack = rec.stack
            outer_request = rec.request
            if request_of is not None:
                rec.request = request_of(args)
            token = before(args) if before is not None else None
            record = [
                name,
                perf_counter_ns(),
                0,
                stack[-1] if stack else -1,
                rec.request,
            ]
            stack.append(len(spans))
            spans.append(record)
            try:
                return original(*args, **kwargs)
            finally:
                record[END] = perf_counter_ns()
                stack.pop()
                if after is not None:
                    after(args, token)
                rec.request = outer_request

        self._replace(owner, attr, original, wrapper)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls (for
        per-packet boundaries, where a span per call would dominate)."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, original, wrapper)

    def _replace(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- output

    def chunk(self) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "spans": self.spans,
            "counts": dict(self.counts),
            "values": dict(self.values),
            "peaks": dict(self.peaks),
        }

    def clear(self) -> None:
        self.spans = []
        self.counts.clear()
        self.values.clear()
        self.peaks.clear()
        self.stack = []

    def flush_worker(self) -> None:
        """Append this process's records to its own file and clear them
        (sweep workers, after each cell)."""
        assert self.out_dir is not None
        path = Path(self.out_dir) / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.chunk()) + "\n")
        self.clear()

    def write(self, path: str) -> None:
        """Write this process's records, then every worker file, to
        ``path`` as JSON lines (one chunk per line); worker files are
        removed once merged."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.chunk()) + "\n")
            if self.out_dir is not None:
                for worker in sorted(Path(self.out_dir).glob("worker-*.jsonl")):
                    fh.write(worker.read_text(encoding="utf-8"))
                    worker.unlink()


class Trace:
    """Merged records of one traced unit (parent plus workers)."""

    def __init__(self, chunks: Iterable[Dict[str, Any]]) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.values: Dict[str, List[float]] = defaultdict(list)
        self.peaks: Dict[str, int] = defaultdict(int)
        for chunk in chunks:
            base = len(self.spans)
            for span in chunk["spans"]:
                span = list(span)
                if span[PARENT] >= 0:
                    span[PARENT] += base
                self.spans.append(span)
            for key, value in chunk["counts"].items():
                self.counts[key] += value
            for key, value in chunk["values"].items():
                self.values[key].extend(value)
            for key, value in chunk["peaks"].items():
                self.peaks[key] = max(self.peaks[key], value)
        self.self_ns = self_times(self.spans)

    @classmethod
    def load(cls, path: str) -> "Trace":
        with open(path, encoding="utf-8") as fh:
            return cls(json.loads(line) for line in fh if line.strip())

    def durations_ms(self, name: str) -> List[float]:
        return [(s[END] - s[START]) / 1e6 for s in self.spans if s[NAME] == name]

    def self_ms(self, name: str) -> List[float]:
        return [
            self.self_ns[i] / 1e6
            for i, s in enumerate(self.spans)
            if s[NAME] == name
        ]


def self_times(spans: Sequence[Sequence[Any]]) -> List[int]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to the parent's interval and their union is
    taken, so time two children share is not subtracted twice."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0
        cursor = start
        for lo, hi in sorted(
            (max(spans[c][START], start), min(spans[c][END], end))
            for c in children.get(index, ())
        ):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


# ----------------------------------------------------------------- install


def _attr(path: str) -> Tuple[Any, str]:
    """``"pkg.mod.Class.attr"`` or ``"pkg.mod.attr"`` -> (owner, attr)."""
    owner_path, attr = path.rsplit(".", 1)
    try:
        return importlib.import_module(owner_path), attr
    except ModuleNotFoundError:
        module_path, cls = owner_path.rsplit(".", 1)
        return getattr(importlib.import_module(module_path), cls), attr


def install(rec: SpanRecorder) -> None:
    """Wrap every layer boundary the per-layer metrics read."""

    def span(path: str, name: str, **hooks: Any) -> None:
        rec.span(*_attr(path), name, **hooks)

    def count(path: str, name: str) -> None:
        rec.count(*_attr(path), name)

    counts, values, peaks = rec.counts, rec.values, rec.peaks

    # framework: the request a flow requester makes, retire, re-optimize
    span(
        "repro.framework.scheduler.Scheduler.submit",
        "framework.submit",
        request_of=lambda args: args[1].flow_name,
    )
    span(
        "repro.framework.controller.Controller.remove_flow",
        "framework.retire",
        request_of=lambda args: args[1],
    )
    span("repro.framework.controller.Controller.reoptimize_now", "framework.reopt")

    # bus: control-plane round trips
    count("repro.bus.MessageBus.request", "bus.request")

    # freertr: edge-router ACL/PBR state and the per-packet classifier
    span("repro.freertr.tunnel.EdgePolicy.add_access_list", "freertr.acl_add")
    span("repro.freertr.tunnel.EdgePolicy.remove_access_list", "freertr.acl_remove")

    def entries_peak(args: tuple, _token: Any) -> None:
        size = len(args[0].entries)
        if size > peaks["freertr.acl_entries"]:
            peaks["freertr.acl_entries"] = size

    span("repro.freertr.tunnel.EdgePolicy.bind", "freertr.bind", after=entries_peak)
    span("repro.freertr.tunnel.EdgePolicy.unbind", "freertr.unbind")
    count("repro.freertr.tunnel.EdgePolicy.classify", "freertr.classify")

    # hecate: recommendation, forecast cache, joint assignment
    span("repro.hecate.service.HecateService.recommend", "hecate.recommend")

    def forecast_before(args: tuple) -> Tuple[int, int]:
        return args[0].fits, args[0].forecast_cache_hits

    def forecast_after(args: tuple, token: Tuple[int, int]) -> None:
        counts["hecate.forecast_fits"] += args[0].fits - token[0]
        counts["hecate.forecast_hits"] += args[0].forecast_cache_hits - token[1]

    span(
        "repro.hecate.service.HecateService.forecast_path",
        "hecate.forecast",
        before=forecast_before,
        after=forecast_after,
    )
    for binding in (
        "repro.framework.controller.assign_flows",
        "repro.backends.fluid.assign_flows",
    ):
        span(binding, "hecate.assign_flows")

    # ml: the regressor behind each forecast
    span("repro.hecate.predictor.QoSPredictor.fit", "ml.fit")
    span("repro.hecate.predictor.QoSPredictor.forecast", "ml.forecast")

    # net: event loop, max-min solver, telemetry reads
    span("repro.net.sim.Simulator.run", "net.sim.run")

    def claimants(args: tuple) -> None:
        values["net.max_min_fair.claimants"].append(len(args[0]))

    for binding in (
        "repro.hecate.objectives.max_min_fair",
        "repro.scenarios.hybrid.max_min_fair_bounded",
    ):
        span(binding, "net.max_min_fair", before=claimants)
    for method in ("window", "window_since", "latest"):
        span(f"repro.net.telemetry.TimeSeriesDB.{method}", "net.telemetry.read")

    # polka: per-packet residue forwarding
    count("repro.polka.routing.PolkaNode.forward", "polka.forward")

    # scenarios: inputs and the per-epoch fluid solve
    span("repro.scenarios.runner.generate_traffic", "scenarios.traffic")
    span("repro.scenarios.runner.derive_tunnels", "scenarios.derive_tunnels")
    span(
        "repro.framework.service_mode.derive_tunnels_for_pairs",
        "scenarios.derive_tunnels",
    )
    for binding in (
        "repro.backends.fluid.solve_epochs",
        "repro.backends.hybrid.solve_epochs",
    ):
        span(binding, "scenarios.solve_epochs")

    # backends: execute / collect per backend
    for backend, cls_path in (
        ("fluid", "repro.backends.fluid.FluidBackend"),
        ("hybrid", "repro.backends.hybrid.HybridBackend"),
    ):
        for method in ("execute", "collect"):
            span(f"{cls_path}.{method}", f"backends.{backend}.{method}")

    # sweep: engine wall, cache writes, one span per cell in the worker
    span("repro.sweep.engine.SweepEngine.run", "sweep.run")
    span("repro.sweep.cache.ResultCache.put", "sweep.cache_put")
    _install_cell(rec)


def _install_cell(rec: SpanRecorder) -> None:
    """Wrap the sweep's cell entry point.  Pool workers look it up by
    name when they unpickle the task, so the wrapper keeps the
    original's module and qualified name.  A forked worker inherits the
    parent's records, so it clears them before each cell and flushes
    its own after it."""
    from repro.sweep import executors

    original = executors._execute_cell
    rec.span(
        executors,
        "_execute_cell",
        "sweep.cell",
        request_of=lambda args: args[0].label(),
    )
    traced = executors._execute_cell

    @functools.wraps(original)
    def cell(run):
        in_worker = os.getpid() != rec.pid
        if in_worker:
            rec.clear()
            rec.request = ""
        try:
            return traced(run)
        finally:
            if in_worker:
                rec.flush_worker()

    executors._execute_cell = cell
    rec._undo.append((executors, "_execute_cell", traced))


# ----------------------------------------------------------------- metrics

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("framework.submit.self_ms_p50", "ms", "lower"),
    ("framework.retire.ms_total", "ms", "lower"),
    ("framework.reopt.ms_total", "ms", "lower"),
    ("framework.reopt.solved_ratio", "ratio", "lower"),
    ("framework.migrations", "count", "lower"),
    ("bus.requests_per_placement", "ratio", "lower"),
    ("freertr.acl_add.ms_total", "ms", "lower"),
    ("freertr.acl_remove.ms_total", "ms", "lower"),
    ("freertr.bind.ms_total", "ms", "lower"),
    ("freertr.unbind.ms_total", "ms", "lower"),
    ("freertr.acl_entries_peak", "count", "lower"),
    ("freertr.classify.calls", "count", "lower"),
    ("hecate.recommend.self_ms_p50", "ms", "lower"),
    ("hecate.forecast.ms_total", "ms", "lower"),
    ("hecate.forecast_cache.hit_ratio", "ratio", "higher"),
    ("hecate.assign_flows.calls", "count", "lower"),
    ("hecate.assign_flows.ms_total", "ms", "lower"),
    ("ml.fit.calls", "count", "lower"),
    ("ml.fit.ms_total", "ms", "lower"),
    ("ml.forecast.ms_total", "ms", "lower"),
    ("net.sim.events", "count", "lower"),
    ("net.sim.run.self_ms_total", "ms", "lower"),
    ("net.max_min_fair.calls", "count", "lower"),
    ("net.max_min_fair.ms_total", "ms", "lower"),
    ("net.max_min_fair.claimants_p50", "count", "lower"),
    ("net.max_min_fair.claimants_max", "count", "lower"),
    ("net.telemetry.read.ms_total", "ms", "lower"),
    ("net.telemetry.samples", "count", "lower"),
    ("net.link.drops", "count", "lower"),
    ("polka.forward.calls", "count", "lower"),
    ("scenarios.traffic.ms", "ms", "lower"),
    ("scenarios.derive_tunnels.ms", "ms", "lower"),
    ("scenarios.solve_epochs.ms", "ms", "lower"),
    ("backends.fluid.execute.ms", "ms", "lower"),
    ("backends.fluid.collect.ms", "ms", "lower"),
    ("backends.hybrid.execute.ms", "ms", "lower"),
    ("backends.hybrid.collect.ms", "ms", "lower"),
    ("sweep.cache_put.ms_total", "ms", "lower"),
    ("sweep.worker_busy_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p50(samples: Sequence[float]) -> float:
    return float(statistics.median(samples)) if samples else 0.0


def layer_metrics(
    trace: Trace, unit_counts: Dict[str, float], overhead: float
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value of one traced unit.

    ``unit_counts`` holds what the unit's results report (placements,
    simulated events, telemetry samples, link drops, re-optimization
    counters, sweep jobs); ``overhead`` is traced ÷ untraced unit wall
    time."""

    def total(name: str) -> float:
        return sum(trace.durations_ms(name))

    def calls(name: str) -> int:
        return len(trace.durations_ms(name))

    solved = unit_counts.get("reopt_solved", 0)
    skipped = unit_counts.get("reopt_skipped", 0)
    hits = trace.counts["hecate.forecast_hits"]
    fits = trace.counts["hecate.forecast_fits"]
    sweep_ms = total("sweep.run")
    jobs = unit_counts.get("jobs", 1)
    metrics = {
        "framework.submit.self_ms_p50": _p50(trace.self_ms("framework.submit")),
        "framework.retire.ms_total": total("framework.retire"),
        "framework.reopt.ms_total": total("framework.reopt"),
        "framework.reopt.solved_ratio": _ratio(solved, solved + skipped),
        "framework.migrations": unit_counts.get("migrations", 0),
        "bus.requests_per_placement": _ratio(
            trace.counts["bus.request"], unit_counts.get("placements", 0)
        ),
        "freertr.acl_add.ms_total": total("freertr.acl_add"),
        "freertr.acl_remove.ms_total": total("freertr.acl_remove"),
        "freertr.bind.ms_total": total("freertr.bind"),
        "freertr.unbind.ms_total": total("freertr.unbind"),
        "freertr.acl_entries_peak": trace.peaks["freertr.acl_entries"],
        "freertr.classify.calls": trace.counts["freertr.classify"],
        "hecate.recommend.self_ms_p50": _p50(trace.self_ms("hecate.recommend")),
        "hecate.forecast.ms_total": total("hecate.forecast"),
        "hecate.forecast_cache.hit_ratio": _ratio(hits, hits + fits),
        "hecate.assign_flows.calls": calls("hecate.assign_flows"),
        "hecate.assign_flows.ms_total": total("hecate.assign_flows"),
        "ml.fit.calls": calls("ml.fit"),
        "ml.fit.ms_total": total("ml.fit"),
        "ml.forecast.ms_total": total("ml.forecast"),
        "net.sim.events": unit_counts.get("sim_events", 0),
        "net.sim.run.self_ms_total": sum(trace.self_ms("net.sim.run")),
        "net.max_min_fair.calls": calls("net.max_min_fair"),
        "net.max_min_fair.ms_total": total("net.max_min_fair"),
        "net.max_min_fair.claimants_p50": _p50(
            trace.values["net.max_min_fair.claimants"]
        ),
        "net.max_min_fair.claimants_max": max(
            trace.values["net.max_min_fair.claimants"], default=0
        ),
        "net.telemetry.read.ms_total": total("net.telemetry.read"),
        "net.telemetry.samples": unit_counts.get("telemetry_samples", 0),
        "net.link.drops": unit_counts.get("link_drops", 0),
        "polka.forward.calls": trace.counts["polka.forward"],
        "scenarios.traffic.ms": total("scenarios.traffic"),
        "scenarios.derive_tunnels.ms": total("scenarios.derive_tunnels"),
        "scenarios.solve_epochs.ms": total("scenarios.solve_epochs"),
        "backends.fluid.execute.ms": total("backends.fluid.execute"),
        "backends.fluid.collect.ms": total("backends.fluid.collect"),
        "backends.hybrid.execute.ms": total("backends.hybrid.execute"),
        "backends.hybrid.collect.ms": total("backends.hybrid.collect"),
        "sweep.cache_put.ms_total": total("sweep.cache_put"),
        "sweep.worker_busy_ratio": _ratio(
            sum(trace.durations_ms("sweep.cell")), jobs * sweep_ms
        ),
        "trace.overhead_ratio": overhead,
    }
    return {name: float(metrics[name]) for name, _, _ in PER_LAYER}

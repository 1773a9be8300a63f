"""The benchmark's four workloads, each built from a seed alone.

A workload *unit* is one complete, deterministic piece of work: one
service run, one hybrid scenario run, or one sweep.  A benchmark run
repeats units of the same seed, so every repeat must produce the same
result digest (``run.py`` checks it).

Every unit returns a :class:`UnitResult`.  Besides the admission
accounting, the output checks that failed and the sha256 digest of the
program's own result dictionary, it holds *checkpoint streams*: the host
clock read at program points that every repeat of the unit passes in the
same order.

- Service units: the start and the end of every ``Scheduler.submit``
  call, the request a flow requester makes.
- ``packet-hybrid-2k``: the moment the simulator has processed each
  further batch of events (one request), read by a sampling timer and
  interpolated.
- ``fluid-sweep``: where the cell runs, each cell's start, the end of
  its ``ScenarioRunner.setup()``, the start and end of every epoch's
  max-min solve, and the cell's end; one stream per cell.

Because the checkpoints fall at the same points of the same work in
every repeat, ``run.py`` can compare repeats interval by interval.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import heapq
import json
import os
import shutil
import signal
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Unit sizes.  ``full`` is what the benchmark measures; ``tiny`` only
#: exists so the benchmark's own tests can run every workload in seconds.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        # a burst above the 0.1 s batch's Poisson peak at 500 flows/s, so
        # no flow waits in the admission queue when the run ends
        "placement-churn": {
            "rate": 500.0,
            "duration": 12.0,
            "warmup": 5.0,
            "admission_burst": 128,
        },
        "selfdriving-rfr": {"rate": 200.0, "duration": 30.0, "warmup": 5.0},
        "packet-hybrid-2k": {"horizon": 3.0, "events_per_request": 50},
        # cells run one at a time: a second worker on a 2-vCPU host
        # measures the contention between the two, not the program.  A
        # cell's cost varies with its seed, so a unit holds six; they are
        # small so a run still repeats the unit about twenty times
        "fluid-sweep": {"cells": 6, "n_flows": 100, "jobs": 1},
    },
    "tiny": {
        "placement-churn": {
            "rate": 200.0,
            "duration": 3.0,
            "warmup": 1.0,
            "admission_burst": 128,
        },
        "selfdriving-rfr": {"rate": 40.0, "duration": 30.0, "warmup": 5.0},
        "packet-hybrid-2k": {"horizon": 1.0, "events_per_request": 100},
        # two workers, so the tests cover the forked-worker path
        "fluid-sweep": {"cells": 2, "n_flows": 100, "jobs": 2},
    },
}

WORKLOADS = tuple(SIZES["full"])

#: Set-up builds per unit in a timed run; the last build is the one that
#: runs.  A traced run builds once, so its layer totals cover exactly
#: the work the program does.
SETUP_REPEATS = 3

#: Period of the timer sampling the simulator's event count, seconds.
SAMPLE_PERIOD_S = 0.0005

#: Checkpoints filled by the hooks :func:`install_checkpoints` installs:
#: ``Scheduler.submit`` calls, and the sweep cell running in this process.
_SUBMITS: List[int] = []
_CELL: List[int] = []
#: Where sweep cells write their checkpoints; set once they are hooked.
_CELL_DIR: Optional[Path] = None

#: Calibration passes per call of :func:`calibrate`.
CALIBRATION_PASSES = 10

_perf = time.perf_counter_ns


@dataclass
class UnitResult:
    """What one workload unit measured and produced.

    ``streams`` maps a stream name to its checkpoint times (ns).
    ``requests`` says which intervals of a stream are requests: the
    ``(start, stop, step)`` of a slice over its intervals.  ``jobs`` is
    how many streams ran at once.  ``serial`` holds the streams of work
    that ran alone around them (a sweep's dispatch and collection), with
    no requests in them.  ``calibration_ms`` holds the calibration
    passes run right before the streams (sweep cells).  ``setup_s`` maps what was built (the workload's
    set-up, or a sweep cell) to each build's time."""

    setup_s: Dict[str, List[float]]
    run_s: float
    ops: int
    jobs: int
    streams: Dict[str, List[int]]
    requests: Tuple[int, Optional[int], int]
    serial: Dict[str, List[int]]
    calibration_ms: List[float]
    attempted: int
    failed: int
    digest: str
    problems: List[str] = field(default_factory=list)
    layer_counts: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def preload() -> None:
    """Import every module a unit uses, so no set-up time includes
    imports."""
    import repro.backends  # noqa: F401
    import repro.framework.service_mode  # noqa: F401
    import repro.scenarios.runner  # noqa: F401
    import repro.sweep  # noqa: F401


def calibrate() -> List[float]:
    """Times of :data:`CALIBRATION_PASSES` passes of a fixed pure-Python
    loop (dict updates and a heap, like the program's hot paths), ms.
    The fastest pass of a run tells how fast the host ran during it."""
    passes = []
    for _ in range(CALIBRATION_PASSES):
        start = _perf()
        heap: List[Tuple[int, int]] = []
        table: Dict[Tuple[int, int], float] = {}
        for i in range(3000):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0.0) + i * 0.5
            heapq.heappush(heap, (i * 7919 % 1000, i))
        while heap:
            heapq.heappop(heap)
        passes.append((_perf() - start) / 1e6)
    return passes


def digest_of(payload: Any) -> str:
    """sha256 of a result's ``to_dict()`` payload, canonical JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def install_checkpoints(scratch: str) -> None:
    """Install the hooks of a timed run.

    ``Scheduler.submit`` records its start and end.  In a sweep cell,
    each epoch's max-min solve records its start and end, and the
    cell's ``ScenarioRunner.setup()`` its end; the cell wrapper
    calibrates before the cell, in the process that runs it, and writes
    the cell's stream and passes to a file per process under
    ``scratch``, because cells may run in forked workers."""
    global _CELL_DIR
    import repro.scenarios.hybrid
    from repro.framework.scheduler import Scheduler
    from repro.scenarios.runner import ScenarioRunner
    from repro.sweep import executors

    submits = _SUBMITS
    submit = Scheduler.submit

    def timed_submit(self, request):
        submits.append(_perf())
        try:
            return submit(self, request)
        finally:
            submits.append(_perf())

    Scheduler.submit = timed_submit
    marks = _CELL

    def mark() -> None:
        marks.append(_perf())

    solve = repro.scenarios.hybrid.max_min_fair_bounded

    @functools.wraps(solve)
    def timed_solve(*args, **kwargs):
        mark()
        try:
            return solve(*args, **kwargs)
        finally:
            mark()

    repro.scenarios.hybrid.max_min_fair_bounded = timed_solve
    setup = ScenarioRunner.setup

    def timed_setup(self):
        try:
            return setup(self)
        finally:
            mark()

    ScenarioRunner.setup = timed_setup
    execute_cell = executors._execute_cell
    _CELL_DIR = Path(scratch)

    @functools.wraps(execute_cell)
    def cell(run):
        passes = calibrate()
        del marks[:]
        mark()
        try:
            return execute_cell(run)
        finally:
            mark()
            record = {"cell": run.label(), "marks": marks, "passes": passes}
            path = _CELL_DIR / f"cells-{os.getpid()}.jsonl"
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")

    executors._execute_cell = cell


def _timed_setup(build: Callable[[], Any], repeats: int) -> Tuple[Any, List[float]]:
    """Build ``repeats`` times; the last build and every build's time."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - start)
    return built, times


def _link_drops(network) -> int:
    return sum(
        link.stats_from(a).dropped_packets + link.stats_from(b).dropped_packets
        for link in network.links.values()
        for a, b in [link.endpoints()]
    )


# ----------------------------------------------------------- service units


def _service_unit(
    base: str, seed: int, params: Dict[str, float], model: str, repeats: int
) -> UnitResult:
    from repro.framework.service_mode import ServiceDriver
    from repro.scenarios import get_workload

    workload = get_workload(base)
    workload = workload.with_overrides(
        policy=dataclasses.replace(workload.policy, model=model),
        churn=dataclasses.replace(
            workload.churn,
            admission_burst=params.get(
                "admission_burst", workload.churn.admission_burst
            ),
        ),
    )
    driver, setup_s = _timed_setup(
        lambda: ServiceDriver(
            workload,
            rate=params["rate"],
            duration=params["duration"],
            warmup=params["warmup"],
            seed=seed,
        ),
        repeats,
    )
    del _SUBMITS[:]
    start = _perf()
    result = driver.run()
    end = _perf()
    problems = []
    if not result.reconciles():
        problems.append("service admission ledger does not reconcile")
    controller = driver.sdn.controller
    return UnitResult(
        setup_s={"build": setup_s},
        run_s=(end - start) / 1e9,
        ops=result.placed,
        jobs=1,
        streams={"run": [start, *_SUBMITS, end]},
        # interval 2i+1 runs from the start to the end of submit i
        requests=(1, None, 2),
        serial={},
        calibration_ms=[],
        attempted=result.offered,
        failed=result.rejected + result.place_failed + result.deferred_pending,
        digest=digest_of(result.to_dict()),
        problems=problems,
        layer_counts={
            "placements": result.placed,
            "sim_events": result.sim_events,
            "telemetry_samples": result.telemetry_samples,
            "link_drops": _link_drops(driver.sdn.network),
            "reopt_solved": controller.reopt_solved,
            "reopt_skipped": controller.reopt_skipped,
            "migrations": controller.migrations_total,
        },
    )


def placement_churn(seed: int, size: str = "full", repeats: int = 1) -> UnitResult:
    """``fat-tree-churn`` at a high Poisson rate, linear forecaster,
    re-optimizer off: admission -> placement -> teardown dominates."""
    return _service_unit(
        "fat-tree-churn", seed, SIZES[size]["placement-churn"], "linear", repeats
    )


def selfdriving_rfr(seed: int, size: str = "full", repeats: int = 1) -> UnitResult:
    """``ring-steady`` with the paper's random-forest forecaster and the
    5 s re-optimizer: telemetry -> RFR -> max-min -> migration."""
    return _service_unit(
        "ring-steady", seed, SIZES[size]["selfdriving-rfr"], "rfr", repeats
    )


# ----------------------------------------------------------- scenario units


def _batch_marks(samples: List[Tuple[int, int]], batch: int) -> List[int]:
    """Host times at which each further ``batch`` events had been
    processed, interpolated between ``(host ns, events)`` samples."""
    marks = []
    j = 0
    first, last = samples[0][1], samples[-1][1]
    for done in range(first + batch, last + 1, batch):
        while samples[j + 1][1] < done:
            j += 1
        (w0, e0), (w1, e1) = samples[j], samples[j + 1]
        marks.append(int(w0 + (w1 - w0) * (done - e0) / (e1 - e0)))
    return marks


def packet_hybrid(seed: int, size: str = "full", repeats: int = 1) -> UnitResult:
    """``scale-fat-tree-2k`` on the hybrid backend: packet-level TCP
    elephants over fluid mice, so the DES event loop does the work."""
    from repro.scenarios import get_scenario
    from repro.scenarios.runner import ScenarioRunner

    params = SIZES[size]["packet-hybrid-2k"]
    horizon = params["horizon"]
    # the warm-up holds nothing but a telemetry sweep over every link
    # each second; without it those sweeps stay well under 1 % of the
    # event batches, so they do not decide the p99
    scenario = get_scenario("scale-fat-tree-2k").with_overrides(
        horizon=horizon, warmup=0.0
    )
    runner, setup_s = _timed_setup(
        lambda: ScenarioRunner(scenario, backend="hybrid", seed=seed).setup(),
        repeats,
    )
    sim = runner.network.sim
    samples: List[Tuple[int, int]] = []

    def sample(_signum, _frame):
        samples.append((_perf(), sim.events_processed))

    previous = signal.signal(signal.SIGALRM, sample)
    start = _perf()
    samples.append((start, sim.events_processed))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    try:
        result = runner.run()  # validates the result before returning it
    except ValueError as exc:
        result, problems = None, [f"scenario validation failed: {exc}"]
    else:
        problems = []
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    end = _perf()
    samples.append((end, sim.events_processed))
    unit = UnitResult(
        setup_s={"build": setup_s},
        run_s=(end - start) / 1e9,
        ops=0,
        jobs=1,
        # interval 0 also solves the background, the last one holds the
        # remaining events and the collection; the others are requests
        streams={
            "run": [start, *_batch_marks(samples, params["events_per_request"]), end]
        },
        requests=(1, -1, 1),
        serial={},
        calibration_ms=[],
        attempted=1,
        failed=1,
        digest="",
        problems=problems,
    )
    if result is None:
        return unit
    controller = runner.sdn.controller
    return dataclasses.replace(
        unit,
        ops=result.sim_events,
        attempted=result.offered,
        failed=result.rejected,
        digest=digest_of(result.to_dict()),
        layer_counts={
            "placements": runner.placed,
            "sim_events": result.sim_events,
            "telemetry_samples": result.telemetry_samples,
            "link_drops": _link_drops(runner.network),
            "reopt_solved": controller.reopt_solved,
            "reopt_skipped": controller.reopt_skipped,
            "migrations": controller.migrations_total,
        },
    )


def sweep_seeds(seed: int, cells: int) -> Tuple[int, ...]:
    """The sweep's cell seeds, derived from the workload seed."""
    return tuple(cells * seed + i for i in range(cells))


def fluid_sweep(seed: int, size: str = "full", scratch: str = ".") -> UnitResult:
    """``SweepEngine`` over the ``scale-fat-tree-5k`` fabric with
    ``n_flows`` flows per cell, on the fluid backend, with a fresh empty
    ``ResultCache`` each unit.

    Set-up is each cell's ``ScenarioRunner.setup()`` (traffic generation
    and tunnel derivation) where the cell runs: the sweep builds nothing
    before it dispatches the cells."""
    from repro.scenarios import get_scenario
    from repro.sweep import ResultCache, SweepEngine, SweepSpec

    params = SIZES[size]["fluid-sweep"]
    traffic = get_scenario("scale-fat-tree-5k").traffic
    overrides = {
        "traffic": dataclasses.replace(traffic, n_flows=params["n_flows"])
    }
    jobs = min(params["jobs"], os.cpu_count() or 1)
    spec = SweepSpec(
        scenarios=("scale-fat-tree-5k",),
        seeds=sweep_seeds(seed, params["cells"]),
        backends=("fluid",),
        overrides=overrides,
    )
    cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=scratch)
    try:
        start = _perf()
        outcome = SweepEngine(spec, jobs=jobs, cache=ResultCache(cache_dir)).run()
        end = _perf()
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    streams: Dict[str, List[int]] = {}
    passes: List[float] = []
    for path in _CELL_DIR.glob("cells-*.jsonl") if _CELL_DIR else ():
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            streams[record["cell"]] = record["marks"]
            passes += record["passes"]
        path.unlink()
    problems = []
    if outcome.cache_hits != 0:
        problems.append(f"{outcome.cache_hits} cache hits on a fresh cache")
    if outcome.executed != len(outcome.runs):
        problems.append(
            f"{outcome.executed} of {len(outcome.runs)} cells executed"
        )
    labels = [run.label() for run in outcome.runs]
    serial = {}
    if _CELL_DIR and sorted(streams) != sorted(labels):
        problems.append("checkpoints missing for some sweep cells")
    elif streams:
        # the monotonic clock is shared by the worker processes
        serial = {
            "dispatch": [start, min(marks[0] for marks in streams.values())],
            "collect": [max(marks[-1] for marks in streams.values()), end],
        }
    return UnitResult(
        # interval 0 of a cell's stream ends with its set-up
        setup_s={
            label: [(marks[1] - marks[0]) / 1e9]
            for label, marks in streams.items()
            if len(marks) > 1
        },
        run_s=(end - start) / 1e9,
        ops=outcome.executed,
        jobs=jobs,
        streams=streams,
        # interval 0 is the set-up, 1 holds the joint assignments, then
        # epoch solves alternate with the work between them; the last
        # interval builds the result
        requests=(2, -1, 2),
        serial=serial,
        calibration_ms=passes,
        attempted=sum(r.offered for r in outcome.results),
        failed=sum(r.rejected for r in outcome.results),
        digest=digest_of([r.to_dict() for r in outcome.results]),
        problems=problems,
        layer_counts={
            "sim_events": sum(r.sim_events for r in outcome.results),
            "telemetry_samples": sum(
                r.telemetry_samples for r in outcome.results
            ),
            "link_drops": 0,  # the fluid backend simulates no packets
            "jobs": jobs,
        },
    )


UNITS: Dict[str, Callable[..., UnitResult]] = {
    "placement-churn": placement_churn,
    "selfdriving-rfr": selfdriving_rfr,
    "packet-hybrid-2k": packet_hybrid,
    "fluid-sweep": fluid_sweep,
}

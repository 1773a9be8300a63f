"""Repository benchmark: one workload, one seed, checked and measured.

    python3 perfbench/run.py --workload placement-churn --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root.  Each measurement runs in a fresh
``perfbench/child.py`` process.  With ``--trace 0`` the child repeats
units of the workload for ``--seconds`` and the end-to-end metrics are
printed.  With ``--trace 1`` one untraced and one traced unit run, each
in its own process, and the per-layer metrics plus the tracing overhead
are printed.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER, Trace, layer_metrics  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
)

_PLACEMENT = {
    "ops_per_s": "placements_per_s",
    "request_ms_p50": "place_ms_p50",
    "request_ms_p99": "place_ms_p99",
}

#: The names each workload gives the generic metrics, printed beside them.
LABELS: Dict[str, Dict[str, str]] = {
    "placement-churn": _PLACEMENT,
    "selfdriving-rfr": _PLACEMENT,
    "packet-hybrid-2k": {
        "ops_per_s": "sim_events_per_s",
        "request_ms_p50": "event_batch_ms_p50",
        "request_ms_p99": "event_batch_ms_p99",
    },
    "fluid-sweep": {
        "ops_per_s": "sweep_cells_per_s",
        "request_ms_p50": "solve_ms_p50",
        "request_ms_p99": "solve_ms_p99",
    },
}

#: Timings are scaled to a host on which the best calibration pass takes
#: this long: the fast speed of the 2-vCPU Xeon VM the benchmark was
#: built on.
REFERENCE_PASS_MS = 3.0

#: A child that runs longer than this is stopped and the run fails.
CHILD_TIMEOUT_S = 170.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def run_child(
    args: argparse.Namespace,
    scratch: str,
    mode: str,
    max_units: int = 0,
    trace_file: str = "",
) -> Dict[str, Any]:
    """Run one fresh child process and return its report."""
    out = os.path.join(scratch, f"{mode}.json")
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--size", args.size,
        "--mode", mode,
        "--max-units", str(max_units),
        "--out", out,
        "--scratch", scratch,
        "--trace-file", trace_file,
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # its own process group, so stopping it also stops the sweep's workers
    with subprocess.Popen(
        command, cwd=str(ROOT), env=env, start_new_session=True
    ) as child:
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException as exc:  # a timeout, or this process stopped
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise RuntimeError(
                    f"{mode} child exceeded {CHILD_TIMEOUT_S:g} s"
                ) from None
            raise
    if code != 0:
        raise RuntimeError(f"{mode} child exited with code {code}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def check_units(reports: List[Dict[str, Any]]) -> List[str]:
    """Output checks over every unit of every child: no unit reported a
    problem, and every unit of this seed produced the same digest."""
    problems = []
    digests = set()
    for report in reports:
        for unit in report["units"]:
            problems.extend(unit["problems"])
            digests.add(unit["digest"])
    if len(digests) != 1:
        problems.append(f"result digests differ across repeats: {sorted(digests)}")
    return problems


def best_intervals(
    units: List[Dict[str, Any]], key: str = "streams"
) -> Tuple[Dict[str, List[float]], List[str]]:
    """Each checkpoint interval's shortest duration over the repeats, ms.

    The units of a run repeat the same work, so interval ``k`` of a
    stream covers the same program steps in every repeat; its shortest
    duration is that work as fast as this host ran it during the run."""
    best: Dict[str, List[float]] = {}
    problems = []
    for name, first in units[0][key].items():
        repeats = [unit[key].get(name) for unit in units]
        if any(marks is None or len(marks) != len(first) for marks in repeats):
            problems.append(f"checkpoints of {name!r} differ across repeats")
            continue
        best[name] = [
            min(marks[k + 1] - marks[k] for marks in repeats) / 1e6
            for k in range(len(first) - 1)
        ]
    return best, problems


def end_to_end(
    report: Dict[str, Any],
) -> Tuple[Dict[str, float], List[str]]:
    """The end-to-end metrics of a timed run, and the checks that failed.

    Each timing is taken from the best-of-repeats checkpoint intervals,
    so a stretch in which the host ran slowly does not count when any
    repeat ran the same work faster.  Throughput is one unit's operations
    over the summed intervals; a sweep's cell intervals are divided by
    its worker count before the dispatch and collection around them are
    added.  A request is one interval: a ``Scheduler.submit`` call, a
    batch of simulated events, or one epoch solve of a sweep cell.  Set-up is the shortest build of each thing built, and the
    median over the things built (sweep cells).

    Every timing is then scaled by :data:`REFERENCE_PASS_MS` over the
    run's best calibration pass, which takes out the drift of the host's
    speed over minutes that no repeat within a run can see.  The passes
    are those run where the streams ran: before each sweep cell, or else
    in the measuring process between units."""
    units = report["units"]
    passes = [ms for u in units for ms in u["calibration_ms"]]
    scale = REFERENCE_PASS_MS / min(passes or report["calibration_ms"])
    unit = units[0]
    best, problems = best_intervals(units)
    serial, serial_problems = best_intervals(units, "serial")
    busy_ms = sum(sum(intervals) for intervals in best.values()) / unit["jobs"]
    busy_ms += sum(sum(intervals) for intervals in serial.values())
    window = slice(*unit["requests"])
    requests = [ms for intervals in best.values() for ms in intervals[window]]
    builds: Dict[str, List[float]] = {}
    for u in units:
        for name, times in u["setup_s"].items():
            builds.setdefault(name, []).extend(times)
    if not requests or not builds:
        raise RuntimeError("the run recorded no checkpoints")
    setup_s = statistics.median(min(times) for times in builds.values())
    return {
        "setup_s": setup_s * scale,
        "ops_per_s": unit["ops"] / (busy_ms * scale) * 1e3,
        "request_ms_p50": percentile(requests, 50) * scale,
        "request_ms_p99": percentile(requests, 99) * scale,
        "peak_rss_mb": report["peak_rss_mb"],
    }, problems + serial_problems


def unit_wall(report: Dict[str, Any]) -> float:
    """The last set-up build plus the measured phase of a run's first
    unit: the work the program does once.  (A sweep builds inside its
    cells, so its measured phase holds its set-up.)"""
    unit = report["units"][0]
    return unit["setup_s"].get("build", [0.0])[-1] + unit["run_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see perfbench/README.md)."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        default="full",
        choices=sorted(SIZES),
        help="unit size; 'tiny' exists for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is stopped too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "framework" / "service_mode.py").is_file():
        print(
            f"error: {ROOT / 'src' / 'repro'} not found; run the benchmark "
            "from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2

    out_root = ROOT / ".perfbench-out"
    out_root.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=str(out_root))
    try:
        if args.trace:
            trace_file = str(out_root / f"trace-{args.workload}.jsonl")
            plain = run_child(args, scratch, "plain", max_units=1)
            traced = run_child(args, scratch, "traced", 1, trace_file)
            reports = [plain, traced]
            trace = Trace.load(trace_file)
            metrics = layer_metrics(
                trace,
                traced["units"][0]["layer_counts"],
                unit_wall(traced) / unit_wall(plain),
            )
            units = {name: unit for name, unit, _ in PER_LAYER}
            problems = []
        else:
            reports = [run_child(args, scratch, "plain")]
            metrics, problems = end_to_end(reports[0])
            units = dict(END_TO_END)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems += check_units(reports)
    correct = not problems
    attempted = sum(u["attempted"] for r in reports for u in r["units"])
    failed = sum(u["failed"] for r in reports for u in r["units"])
    if not correct:
        failed = attempted

    system = reports[0]["system"]
    n_units = sum(len(r["units"]) for r in reports)
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"units={n_units} nproc={system['nproc']} cpu={system['cpu_model']!r} "
        f"python={system['python']} numpy={system['numpy']}"
    )
    print(f"  digest    sha256={reports[0]['units'][0]['digest']}")
    passes = [
        ms for u in reports[0]["units"] for ms in u["calibration_ms"]
    ] or reports[0]["calibration_ms"]
    print(
        f"  host      best calibration pass {min(passes):.4g} ms of "
        f"{len(passes)}; timings scaled to {REFERENCE_PASS_MS:g} ms"
    )
    labels = LABELS[args.workload]
    for name, unit in units.items():
        if name in metrics:
            label = labels.get(name, "")
            print(f"  {name:34s} {metrics[name]:14.6g} {unit:6s} {label}".rstrip())
    ratio = failed / attempted if attempted else 0.0
    print(f"  {'failed_ratio':34s} {ratio:14.6g} ratio  ({failed}/{attempted})")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

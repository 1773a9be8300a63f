"""One benchmark process: runs units of one workload and writes what they
measured as JSON.  ``run.py`` starts a fresh one per measurement, so warm
state and peak memory never carry over between workloads or between the
untraced and traced halves of a traced run.

    python3 perfbench/child.py --workload placement-churn --seed 1 \\
        --seconds 30 --mode plain --out result.json --scratch DIR
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per process, set before numpy is imported, so the
# process and its sweep workers never use more threads than cores.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_unit(workload: str, seed: int, size: str, repeats: int, scratch: str):
    unit = workloads.UNITS[workload]
    if workload == "fluid-sweep":
        return unit(seed, size, scratch=scratch)
    return unit(seed, size, repeats)


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any waited-for child (the
    sweep's workers are waited for when their pool shuts down)."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--mode", default="plain", choices=("plain", "traced"))
    parser.add_argument("--max-units", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    import numpy

    workloads.preload()
    recorder = None
    repeats = workloads.SETUP_REPEATS
    if args.mode == "traced":
        recorder = tracing.SpanRecorder(out_dir=args.scratch)
        tracing.install(recorder)
        repeats = 1
    else:
        workloads.install_checkpoints(args.scratch)

    units = []
    calibration = workloads.calibrate()
    start = time.perf_counter()
    while True:
        units.append(
            run_unit(args.workload, args.seed, args.size, repeats, args.scratch)
        )
        calibration += workloads.calibrate()
        elapsed = time.perf_counter() - start
        if args.max_units and len(units) >= args.max_units:
            break
        # start another unit only if it is expected to end in the budget
        if elapsed * (len(units) + 1) / len(units) > args.seconds:
            break
    if recorder is not None:
        recorder.uninstall()
        recorder.write(args.trace_file)

    report = {
        "units": [unit.to_dict() for unit in units],
        "peak_rss_mb": peak_rss_mb(),
        "calibration_ms": calibration,
        "system": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

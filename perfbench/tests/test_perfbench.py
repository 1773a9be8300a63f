"""The benchmark's own tests: metric coverage at a tiny size, the
best-of-repeats interval and self-time arithmetic, traced/untraced
digest equality, and refusal to run without the source tree."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import (  # noqa: E402
    END_TO_END,
    REFERENCE_PASS_MS,
    best_intervals,
    end_to_end,
)
from tracing import PER_LAYER, Trace, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    """Run the benchmark at tiny size; (exit code, stdout lines)."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def digest_line(lines):
    return next(line for line in lines if line.strip().startswith("digest"))


def test_benchmark_json_lists_the_metrics_the_code_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        END_TO_END
    )
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == list(PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_runs_report_every_metric_and_keep_the_digest(workload):
    code, plain = bench(workload, trace=0)
    assert code == 0
    result = json.loads(plain[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    code, traced = bench(workload, trace=1)
    assert code == 0
    result = json.loads(traced[-1])
    assert result["correct"] is True
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    # separate processes, traced and untraced: one result
    assert digest_line(plain) == digest_line(traced)


def test_best_intervals_take_each_interval_from_its_fastest_repeat():
    # checkpoints in ns; repeat 1 is slow early, repeat 2 slow late
    units = [
        {"streams": {"run": [0, 4_000_000, 5_000_000, 6_000_000]}},
        {"streams": {"run": [10, 2_000_010, 5_000_010, 9_000_010]}},
    ]
    best, problems = best_intervals(units)
    assert problems == []
    assert best == {"run": [2.0, 1.0, 1.0]}

    units[1]["streams"]["run"].append(9_500_000)
    assert best_intervals(units)[1] == ["checkpoints of 'run' differ across repeats"]


def test_end_to_end_reads_requests_throughput_and_setup_from_best_intervals():
    unit = {
        "ops": 3,
        "jobs": 1,
        # intervals 1 and 3 are requests (submit start -> end)
        "requests": [1, None, 2],
        "serial": {},
        "calibration_ms": [],
        "setup_s": {"build": [0.3, 0.2]},
    }
    report = {
        "peak_rss_mb": 100.0,
        # the host ran at half the reference speed: timings are halved
        "calibration_ms": [7.0, 2 * REFERENCE_PASS_MS],
        "units": [
            dict(unit, streams={"run": [0, 1_000_000, 3_000_000, 4_000_000, 8_000_000]}),
            dict(unit, streams={"run": [0, 2_000_000, 3_000_000, 7_000_000, 9_000_000]}),
        ],
    }
    metrics, problems = end_to_end(report)
    assert problems == []
    # best intervals: 1, 1, 1, 2 ms -> 5 ms for 3 operations
    assert metrics["ops_per_s"] == pytest.approx(1200.0)
    assert metrics["request_ms_p50"] == pytest.approx(0.75)
    assert metrics["setup_s"] == pytest.approx(0.1)
    assert metrics["peak_rss_mb"] == 100.0


def test_self_time_subtracts_the_union_of_clipped_children():
    # name, start, end, parent, request
    spans = [
        ["root", 0, 100, -1, "r"],
        ["a", 10, 30, 0, "r"],
        ["b", 20, 50, 0, "r"],  # overlaps a: 10..50 is covered once
        ["a.child", 12, 18, 1, "r"],
        ["late", 90, 120, 0, "r"],  # clipped to 90..100
        ["other", 200, 260, -1, "s"],
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 6, 30, 60]


def test_trace_merge_offsets_parent_indices_per_chunk():
    chunk = {
        "spans": [["cell", 0, 10, -1, "c"], ["inner", 2, 5, 0, "c"]],
        "counts": {"polka.forward": 2},
        "values": {},
        "peaks": {"freertr.acl_entries": 3},
    }
    trace = Trace([chunk, dict(chunk, peaks={"freertr.acl_entries": 5})])
    assert [s[3] for s in trace.spans] == [-1, 0, -1, 2]
    assert trace.self_ms("cell") == [7e-6, 7e-6]
    assert trace.counts["polka.forward"] == 4
    assert trace.peaks["freertr.acl_entries"] == 5


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code, lines = bench("placement-churn", trace=0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)

"""Command line of the benchmark.

Usage (from the repository root)::

    python -m benchmarks.perf [--workload NAME] [--seed S] [--seconds N]
                              [--trace [0|1]] [--out FILE]
    python -m benchmarks.perf compare A.json B.json

Without ``--workload`` all four workloads run, one after another.  Each
metric is printed on its own line with its unit; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``,
or its per-layer metrics with ``--trace``).  ``--out`` appends the runs,
with host facts and, for traced runs, the raw spans, to a JSON ledger
that ``compare`` reads.  The exit status is 0 when a result was printed,
and 2 when the benchmark could not run; ``compare`` exits with 1 when
any row is worse.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import asdict
from pathlib import Path

from benchmarks.perf import compare
from benchmarks.perf.harness import (
    WORKLOADS,
    HarnessError,
    RunResult,
    load_spec,
    run_workload,
)

#: Printed beside the declared metrics: the figures the workloads are
#: usually quoted in.
DETAIL_UNITS = {
    "error_rate": "failed/attempted",
    "sim_mips": "MIPS",
    "trials_per_s": "1/s",
}


def host_facts() -> dict:
    model = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def _print_run(result: RunResult, spec: dict) -> dict:
    """Print one run's metrics; returns them in the result-line form."""
    metrics = {}
    for metric in spec["per_layer" if result.traced else "end_to_end"]:
        value = result.metrics.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{result.workload:<12} {metric['name']:<40} {value:.6g} "
              f"{metric['unit']}")
    detail = result.detail
    for name, unit in DETAIL_UNITS.items():
        if name in detail:
            print(f"{result.workload:<12} {name:<40} {detail[name]:.6g} {unit}")
    print(f"{result.workload:<12} samples: {detail['jobs']} jobs, "
          f"{detail['passes']} passes, {detail['children']} children; "
          f"job_ms_p90 is p{detail['tail_percentile']}; host factor "
          f"{detail['host_factor']:.4f}; "
          f"{result.failed}/{result.attempted} operations failed")
    return metrics


def _append(path: str, results: list[RunResult]) -> None:
    ledger_path = Path(path)
    ledger = (
        json.loads(ledger_path.read_text()) if ledger_path.is_file()
        else {"schema": 1, "runs": []}
    )
    host = host_facts()
    for result in results:
        ledger["runs"].append({**asdict(result), "host": host})
    ledger_path.write_text(json.dumps(ledger, indent=1) + "\n")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="Run the repository benchmark (see benchmarks/perf/README.md).",
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1981)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: python -m benchmarks.perf compare A.json B.json",
                  file=sys.stderr)
            return 2
        return compare.main(argv[1], argv[2], spec)
    args = _parser().parse_args(argv)
    seconds = args.seconds or spec["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, seconds, bool(args.trace)))
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    printed = {result.workload: _print_run(result, spec) for result in results}
    if args.out:
        _append(args.out, results)
    attempted = sum(result.attempted for result in results)
    failed = sum(result.failed for result in results)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": printed[names[0]] if len(names) == 1 else printed,
    }
    print(json.dumps(line))
    return 0

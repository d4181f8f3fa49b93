"""Gate CI on engine-vs-engine speedup ratios.

Usage::

    python ci/check_perf.py BENCH_simulator.json [BENCH_multicore.json ...] \
        [ci/perf_baseline.json]

Reads one or more pytest-benchmark JSON reports (``pytest
benchmarks/... --benchmark-json BENCH_*.json``) and checks every named
entry in the baseline: each entry divides the mean times of two
benchmarks (``numerator`` over ``denominator``, both names resolved
through the baseline's ``benchmarks`` map, searched across every
report) and fails (exit 1) when the measured ratio has regressed more
than ``tolerance`` (fractional) below the committed ``speedup``.

Arguments are classified by content, not position: a JSON document
whose top-level ``benchmarks`` is an *object* is the baseline (default
``ci/perf_baseline.json``), anything else is a report, so the legacy
two-argument form keeps working.  Every benchmark the baseline names
must be present in some report.

Absolute times vary wildly across CI hosts; the *ratio* of two
interpreters timed in the same process does not, which is what makes
this check stable enough to gate merges on.
"""

from __future__ import annotations

import json
import sys


def mean_time(reports: list[dict], name: str) -> float | None:
    for report in reports:
        for bench in report.get("benchmarks", ()):
            if bench["name"] == name:
                return float(bench["stats"]["mean"])
    return None


def check_entry(entry: dict, times: dict[str, float]) -> str | None:
    """Check one baseline entry; returns a failure message or ``None``."""
    numerator = times[entry["numerator"]]
    denominator = times[entry["denominator"]]
    measured = numerator / denominator
    floor = entry["speedup"] * (1.0 - entry["tolerance"])
    print(
        f"{entry['name']}: {measured:.2f}x "
        f"({entry['numerator']} {numerator * 1e3:.1f}ms / "
        f"{entry['denominator']} {denominator * 1e3:.1f}ms); "
        f"baseline {entry['speedup']:.2f}x, floor {floor:.2f}x"
    )
    if measured < floor:
        return (
            f"{entry['name']} regressed more than {entry['tolerance']:.0%} "
            f"below baseline ({measured:.2f}x < {floor:.2f}x)"
        )
    return None


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__)
        return 2
    reports: list[dict] = []
    baseline: dict | None = None
    for path in argv:
        with open(path) as handle:
            doc = json.load(handle)
        if isinstance(doc.get("benchmarks"), dict):
            baseline = doc
        else:
            reports.append(doc)
    if baseline is None:
        with open("ci/perf_baseline.json") as handle:
            baseline = json.load(handle)
    if not reports:
        print("error: no benchmark reports given", file=sys.stderr)
        return 2

    times: dict[str, float] = {}
    for engine, bench_name in baseline["benchmarks"].items():
        mean = mean_time(reports, bench_name)
        if mean is None:
            raise SystemExit(
                f"error: benchmark {bench_name!r} not found in any report"
            )
        times[engine] = mean
    print(f"workload: {baseline['workload']}")
    failures = []
    for entry in baseline["entries"]:
        message = check_entry(entry, times)
        if message is not None:
            failures.append(message)
    for message in failures:
        print(f"FAIL: {message}")
    if failures:
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Compare two result ledgers (``--out`` files) under the benchmark's bounds.

Each (metric, workload) row reads ``better``, ``worse``, ``unchanged``
or ``unresolved``.  A row is unresolved when the spread between either
side's runs (interquartile range over median) exceeds the metric's
bound, unless every run of B reads better than every run of A.
Otherwise B's median is better or worse when it moved by more than the
bound in that direction.  ``error_rate`` rows compare the number of
failed operations.  Only untraced runs are compared.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from benchmarks.perf.stats import spread


def load_runs(path: str | Path) -> dict[str, list[dict]]:
    """Untraced runs of a ledger, by workload."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run["traced"]:
            runs[run["workload"]].append(run)
    return runs


def verdict(a: list[float], b: list[float], bound: float, higher: bool) -> str:
    """better / worse / unchanged / unresolved for B against A."""
    sign = 1 if higher else -1
    clearly_better = all(sign * (y - x) > 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound:
        return "better" if clearly_better else "unresolved"
    base = statistics.median(a)
    change = sign * (statistics.median(b) - base) / base
    if change > bound:
        return "better"
    if change < -bound:
        return "worse"
    return "unchanged"


def compare(a: dict[str, list[dict]], b: dict[str, list[dict]],
            spec: dict) -> list[tuple[str, str, str, str]]:
    """Rows of (workload, metric, verdict, medians A -> B)."""
    rows = []
    for workload in sorted(set(a) & set(b)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [run["metrics"][name] for run in a[workload]]
            vb = [run["metrics"][name] for run in b[workload]]
            rows.append((
                workload, name,
                verdict(va, vb, metric["bound"], metric["better"] == "higher"),
                f"{statistics.median(va):.6g} -> {statistics.median(vb):.6g} "
                f"{metric['unit']}",
            ))
        failed_a = sum(run["failed"] for run in a[workload])
        failed_b = sum(run["failed"] for run in b[workload])
        state = (
            "worse" if failed_b > failed_a
            else "better" if failed_b < failed_a else "unchanged"
        )
        rows.append((workload, "error_rate", state,
                     f"{failed_a} -> {failed_b} failed"))
    return rows


def main(path_a: str, path_b: str, spec: dict) -> int:
    """Print the comparison; exit status 1 when any row is worse."""
    rows = compare(load_runs(path_a), load_runs(path_b), spec)
    for workload, metric, state, medians in rows:
        print(f"{workload:<12} {metric:<14} {state:<11} {medians}")
    return 1 if any(state == "worse" for _, _, state, _ in rows) else 0

"""F4 - Call-related memory traffic vs number of register windows.

The sensitivity study behind the choice of 8 windows: sweep the window
count over measured benchmark call traces (plus a synthetic family of
locality-varying traces) and plot the spill traffic knee.
"""

from __future__ import annotations

from repro.evaluation.common import risc_records
from repro.evaluation.tables import Table, bar_chart
from repro.windows import simulate_windows
from repro.workloads import synthetic_call_trace

WINDOW_COUNTS = (2, 3, 4, 6, 8, 12, 16)


def run(names: tuple[str, ...] | None = None) -> Table:
    table = Table(
        title="F4: Spilled words per 100 calls vs window-file size",
        headers=["trace"] + [f"N={count}" for count in WINDOW_COUNTS],
        notes=["knee at 6-8 windows for real programs, matching the design point"],
    )
    for bench, record in risc_records(names).items():
        trace = list(record.call_trace)
        if not trace:
            continue
        row = [bench]
        for count in WINDOW_COUNTS:
            result = simulate_windows(trace, count)
            per_100 = 100.0 * result.spill_words / max(result.calls, 1)
            row.append(f"{per_100:.0f}")
        table.add_row(*row)
    for locality in (0.5, 0.7, 0.9):
        trace = synthetic_call_trace(20_000, locality=locality)
        row = [f"synthetic(loc={locality})"]
        for count in WINDOW_COUNTS:
            result = simulate_windows(trace, count)
            row.append(f"{100.0 * result.spill_words / max(result.calls, 1):.0f}")
        table.add_row(*row)
    return table


def chart(bench_trace: list[int], title: str = "spill words/call vs windows") -> str:
    points = []
    for count in WINDOW_COUNTS:
        result = simulate_windows(bench_trace, count)
        points.append((f"N={count}", result.spill_words / max(result.calls, 1)))
    return bar_chart(title, points)

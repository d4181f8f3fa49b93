"""T6 - Register-window overflow rates on the benchmark suite.

The paper argues eight windows absorb nearly all calls in real programs;
only pathologically recursive code (Ackermann) traps often.
"""

from __future__ import annotations

from repro.evaluation.common import risc_records
from repro.evaluation.tables import Table
from repro.windows import simulate_windows


def run(names: tuple[str, ...] | None = None,
        window_counts: tuple[int, ...] = (4, 8, 16)) -> Table:
    table = Table(
        title="T6: Window overflow rate (% of calls that trap)",
        headers=["benchmark", "calls", "max depth"]
        + [f"{count} windows" for count in window_counts],
        notes=["overflow handled by spilling one 16-register unit to memory"],
    )
    for bench, record in risc_records(names).items():
        trace = list(record.call_trace)
        calls = trace.count(1)
        row = [bench, calls]
        results = [simulate_windows(trace, count) for count in window_counts]
        row.insert(2, results[0].max_depth if results else 0)
        for result in results:
            row.append(f"{100.0 * result.overflow_rate:.1f}%")
        table.add_row(*row)
    return table


def overflow_rate(bench: str, num_windows: int = 8) -> float:
    """Overflow rate for one benchmark (bench-assertion helper)."""
    trace = list(risc_records((bench,))[bench].call_trace)
    return simulate_windows(trace, num_windows).overflow_rate

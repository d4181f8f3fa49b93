"""S1 - Static analysis cross-validated against dynamic execution.

Every benchmark binary goes through the :mod:`repro.analysis` pipeline,
then runs on the simulator; the static window-depth bound must dominate
the observed ``max_call_depth``, and a binary proved overflow-free must
finish with zero overflow traps.  The findings column is the lint
verdict - the compiler's output is expected to be clean, so any finding
here is a toolchain regression.
"""

from __future__ import annotations

from repro.workloads.cache import compile_cached
from repro.evaluation.tables import Table
from repro.isa.registers import NUM_WINDOWS
from repro.workloads import BENCHMARKS, benchmark


def run(names: tuple[str, ...] | None = None,
        num_windows: int = NUM_WINDOWS) -> Table:
    if names is None:
        names = tuple(bench.name for bench in BENCHMARKS)
    table = Table(
        title="S1: Static analysis vs dynamic execution",
        headers=["benchmark", "findings", "static bound", "dynamic depth",
                 f"overflow-free @{num_windows}w?", "overflows", "consistent"],
        notes=[
            "static bound from the binary call graph; 'rec' = recursion, unbounded",
            "consistency: bound >= observed depth, and proved-free programs never trap",
        ],
    )
    for name in names:
        compiled = compile_cached(benchmark(name).source)
        report = compiled.analyze(name=name, num_windows=num_windows)
        stats = compiled.profile(num_windows=num_windows).stats
        problems = report.depth.validate_against(
            stats.max_call_depth, stats.window_overflows, num_windows
        )
        bound = report.depth.depth_bound
        prediction = report.depth.bound_for(num_windows)
        table.add_row(
            name,
            len(report.findings),
            "rec" if bound is None else bound,
            stats.max_call_depth,
            "yes" if prediction["overflow_free"] else "no",
            stats.window_overflows,
            "OK" if not problems else "; ".join(problems),
        )
    return table

"""E1 (extension) - two-stage vs three-stage pipeline timing.

The paper's future-work direction (realised as RISC II): a third
pipeline stage with forwarding removes the blanket 2-cycle cost of
memory instructions at the price of an occasional load-use interlock.
This experiment replays traced benchmark executions under both timing
models.
"""

from __future__ import annotations

from repro.workloads.cache import compile_cached
from repro.cpu.pipeline3 import estimate_cycles
from repro.cpu.tracing import ExecutionTracer
from repro.evaluation.tables import Table
from repro.workloads import BENCHMARKS

TRACE_LIMIT = 120_000


def run(names: tuple[str, ...] | None = None) -> Table:
    benches = BENCHMARKS if names is None else [b for b in BENCHMARKS if b.name in names]
    table = Table(
        title="E1: Two-stage (RISC I) vs three-stage (RISC II-style) pipeline",
        headers=["benchmark", "instructions", "2-stage cycles", "3-stage cycles",
                 "load-use stalls", "speedup"],
        notes=[f"traces capped at {TRACE_LIMIT} instructions",
               "the third stage converts most 2-cycle memory ops into 1 cycle",
               "window-trap cycles excluded (identical under both models)"],
    )
    for bench in benches:
        compiled = compile_cached(bench.source)
        machine = compiled.make_machine()
        tracer = ExecutionTracer(machine, limit=TRACE_LIMIT)
        trace = tracer.run(compiled.program.entry)
        estimate = estimate_cycles(trace)
        table.add_row(
            bench.name, estimate.instructions, estimate.two_stage_cycles,
            estimate.three_stage_cycles, estimate.load_use_stalls,
            f"{estimate.speedup:.2f}x",
        )
    return table

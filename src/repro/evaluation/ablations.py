"""A1-A3 - Ablations of the paper's design choices.

* A1: register windows vs flat file + software save/restore.
* A2: compiler delay-slot filling vs NOP-filled slots.
* A3: window overlap size vs call-related memory traffic.
"""

from __future__ import annotations

from repro.workloads.cache import compile_cached
from repro.evaluation.common import FAST_SUBSET, risc_records
from repro.evaluation.tables import Table
from repro.windows import sweep_overlap
from repro.workloads import benchmark


def a1_windows(names: tuple[str, ...] = FAST_SUBSET) -> Table:
    table = Table(
        title="A1: Register windows vs flat register file (software save/restore)",
        headers=["benchmark", "cycles (windows)", "cycles (flat)", "slowdown",
                 "data refs (windows)", "data refs (flat)"],
        notes=["flat mode uses the same ISA with a callee-save convention"],
    )
    for name in names:
        bench = benchmark(name)
        windowed = compile_cached(bench.source, use_windows=True)
        flat = compile_cached(bench.source, use_windows=False)
        run_w, run_f = windowed.profile(), flat.profile()
        if run_w.result != run_f.result:
            raise AssertionError(f"{name}: ablation changed the result")
        table.add_row(
            name,
            run_w.stats.cycles,
            run_f.stats.cycles,
            f"{run_f.stats.cycles / run_w.stats.cycles:.2f}x",
            run_w.data_refs,
            run_f.data_refs,
        )
    return table


def a2_delay_slots(names: tuple[str, ...] = FAST_SUBSET) -> Table:
    table = Table(
        title="A2: Delay-slot filling vs NOP-filled slots",
        headers=["benchmark", "cycles (filled)", "cycles (nops)", "saved %",
                 "code bytes (filled)", "code bytes (nops)"],
    )
    for name in names:
        bench = benchmark(name)
        optimised = compile_cached(bench.source, optimize_delay_slots=True)
        plain = compile_cached(bench.source, optimize_delay_slots=False)
        run_o, run_p = optimised.profile(), plain.profile()
        if run_o.result != run_p.result:
            raise AssertionError(f"{name}: ablation changed the result")
        cycles_o, cycles_p = run_o.stats.cycles, run_p.stats.cycles
        saved = 100.0 * (cycles_p - cycles_o) / cycles_p
        table.add_row(name, cycles_o, cycles_p,
                      f"{saved:.1f}%", optimised.code_size_bytes, plain.code_size_bytes)
    return table


def a3_overlap(names: tuple[str, ...] | None = None) -> Table:
    overlaps = [0, 2, 4, 6, 8]
    table = Table(
        title="A3: Call-related memory words per call vs window overlap size",
        headers=["benchmark"] + [f"overlap={k}" for k in overlaps],
        notes=["small overlaps force argument copies through memory;",
               "large overlaps shrink per-window locals: 6 is the sweet spot"],
    )
    for bench, record in risc_records(names).items():
        trace = list(record.call_trace)
        if not trace:
            continue
        sweep = sweep_overlap(trace, overlaps)
        table.add_row(bench, *[f"{sweep[k]:.2f}" for k in overlaps])
    return table

"""T3 - Procedure call/return overhead per machine.

Measures the marginal cost of one call+return (instructions executed and
data memory references) by differencing two programs whose *only*
difference is whether the loop body invokes a 3-argument leaf procedure.
Both variants keep identical register pressure in the caller, so the
difference isolates: argument passing, the transfer itself, callee
prologue/epilogue, and the return - the costs the paper says register
windows remove.
"""

from __future__ import annotations

from repro.baselines import ALL_TRAITS, run_distinct
from repro.cc import compile_to_ir
from repro.cc.ciscgen import compile_for_cisc
from repro.evaluation.tables import Table
from repro.workloads.cache import compile_cached

CALLS = 200

_WITH_CALLS = """
int work(int a, int b, int c) {{
    return a + b + c;
}}

int main(void) {{
    int i;
    int acc = 0;
    for (i = 0; i < {count}; i = i + 1) {{
        acc = acc + work(i, acc, 3);
    }}
    return acc;
}}
"""

_WITHOUT_CALLS = """
int main(void) {{
    int i;
    int acc = 0;
    for (i = 0; i < {count}; i = i + 1) {{
        acc = acc + (i + acc + 3);
    }}
    return acc;
}}
"""


def _measure_risc(source: str) -> tuple[int, int]:
    profile = compile_cached(source).profile()
    return profile.stats.instructions, profile.data_refs


def _measure_cisc(source: str) -> dict[str, tuple[int, int]]:
    """Per machine: (instructions, data refs), one run per distinct program."""
    ir = compile_to_ir(source)
    runs = run_distinct([(traits, compile_for_cisc(ir, traits).program)
                         for traits in ALL_TRAITS])
    return {traits.name: (executor.instructions_executed,
                          executor.memory.stats.data_refs)
            for traits, __, executor in runs}


def run(calls: int = CALLS) -> Table:
    table = Table(
        title="T3: Procedure call/return overhead (marginal cost per call)",
        headers=["machine", "instructions/call", "data memory refs/call"],
        notes=[
            f"difference method over {calls} calls of a 3-argument leaf procedure",
            "RISC I passes args through the window overlap: ~zero memory traffic",
        ],
    )
    with_src = _WITH_CALLS.format(count=calls)
    without_src = _WITHOUT_CALLS.format(count=calls)
    with_instr, with_refs = _measure_risc(with_src)
    base_instr, base_refs = _measure_risc(without_src)
    table.add_row("RISC I", (with_instr - base_instr) / calls,
                  (with_refs - base_refs) / calls)
    with_cisc, base_cisc = _measure_cisc(with_src), _measure_cisc(without_src)
    for traits in ALL_TRAITS:
        with_instr, with_refs = with_cisc[traits.name]
        base_instr, base_refs = base_cisc[traits.name]
        table.add_row(traits.name, (with_instr - base_instr) / calls,
                      (with_refs - base_refs) / calls)
    return table

"""M1 - Dynamic instruction mix on RISC I.

The paper's design rests on measured instruction mixes: register-file
ALU operations dominate, memory operations are a modest minority (the
windows removed most of them), and control transfers are frequent but
cheap.  This experiment reports the executed-category percentages per
benchmark.
"""

from __future__ import annotations

from repro.workloads.cache import compile_cached
from repro.evaluation.tables import Table
from repro.workloads import BENCHMARKS

CATEGORIES = ("ALU", "LOAD", "STORE", "JUMP", "MISC")


def run(names: tuple[str, ...] | None = None) -> Table:
    benches = BENCHMARKS if names is None else [b for b in BENCHMARKS if b.name in names]
    table = Table(
        title="M1: Dynamic instruction mix on RISC I (percent of executed)",
        headers=["benchmark"] + [cat.lower() for cat in CATEGORIES],
        notes=["register windows keep loads+stores a minority even on "
               "pointer-chasing programs"],
    )
    for bench in benches:
        stats = compile_cached(bench.source).profile().stats
        total = stats.instructions
        row = [bench.name]
        for category in CATEGORIES:
            count = stats.by_category.get(category, 0)
            row.append(f"{100.0 * count / total:.1f}")
        table.add_row(*row)
    return table

"""E1 (extension) - two-stage vs three-stage pipeline timing.

The paper's future-work direction (realised as RISC II): a third
pipeline stage with forwarding removes the blanket 2-cycle cost of
memory instructions at the price of an occasional load-use interlock.
This experiment prices each benchmark's retired instruction stream
under both timing models.  The stream is read from the program's
profile (:meth:`CompiledRisc.profile
<repro.cc.compiler.CompiledRisc.profile>`), the one unobserved run on
the trace tier that every section shares: its dispatch path rebuilds
the pc at every step exactly, so no per-step observer runs.
"""

from __future__ import annotations

from array import array

from repro.asm import Program
from repro.cpu.machine import HaltReason
from repro.cpu.pipeline3 import estimate_cycles
from repro.cpu.runprofile import RunProfile
from repro.evaluation.tables import Table
from repro.isa.decode import decode
from repro.isa.formats import Instruction
from repro.workloads import BENCHMARKS
from repro.workloads.cache import compile_cached

TRACE_LIMIT = 120_000


def retired_stream(
    profile: RunProfile, program: Program, limit: int = TRACE_LIMIT
) -> tuple[array, dict[int, Instruction]]:
    """The first *limit* retired pcs of *profile*, a run of *program*,
    and the instruction at each of them.

    Raises :class:`RuntimeError` unless the run returned without a trap
    and without invalidating a trace: the instruction at a pc is decoded
    once, from the program image, which holds only while the code never
    changes.
    """
    if (
        profile.halted is not HaltReason.RETURNED
        or profile.stats.traps
        or profile.traces_invalidated
    ):
        raise RuntimeError(
            f"e1 needs a run that returns on unchanged code without a trap: "
            f"{profile.halted}, {profile.stats.traps} traps, "
            f"{profile.traces_invalidated} traces invalidated"
        )
    pcs = profile.pcs(limit)
    words = program.to_words()
    return pcs, {pc: decode(words[(pc - program.base) // 4]) for pc in set(pcs)}


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
        estimate = estimate_cycles(*retired_stream(compiled.profile(), compiled.program))
        table.add_row(
            bench.name, estimate.instructions, estimate.two_stage_cycles,
            estimate.three_stage_cycles, estimate.load_use_stalls,
            f"{estimate.speedup:.2f}x",
        )
    return table

"""Instruction-level RISC I executor with cycle accounting.

Models exactly what the paper's own evaluation simulator modelled:

* one machine cycle per instruction, two for loads/stores (the memory
  port steals the second pipeline stage);
* **delayed jumps**: every control transfer executes the following
  instruction (the delay slot) before the transfer takes effect;
* **register windows**: CALL decrements the current-window pointer, RET
  increments it; when the circular file of 8 windows fills up, an
  overflow trap spills the oldest window's 16 unique registers to a save
  stack in memory (and an underflow trap refills on the way back);
* full memory-traffic accounting, since the paper's argument rests on the
  data references saved by the windows.

The executor keeps a SPARC-style ``(pc, npc)`` pair: each step executes
the instruction at ``pc``; a taken jump replaces ``npc`` *after* the
current ``npc`` (the delay slot) has been promoted, which yields exactly
one delay slot per transfer.

Since the layered refactor (see ``docs/ARCHITECTURE.md``) this module is
a thin facade: the architectural state - registers/windows, PSW, memory,
precise traps, interrupts, checkpoint/rollback - lives in
:class:`~repro.cpu.state.ArchState`; instruction dispatch is a pluggable
:class:`~repro.cpu.engine.ExecutionEngine` (``engine="reference"`` for
the original oracle interpreter, ``engine="trace"`` for the superblock
trace compiler); and tools observe execution through the
:class:`~repro.cpu.observers.ObserverBus` at ``machine.observers``.
The historical names (:class:`TrapCause`, :class:`TrapRecord`,
:class:`ExecutionStats`, ...) are re-exported here unchanged.
"""

from __future__ import annotations

import time

from repro.common.memory import Memory
from repro.cpu.engine import ExecutionEngine, ReferenceEngine, create_engine
from repro.cpu.state import (  # noqa: F401  (re-exported compatibility names)
    CYCLE_TIME_NS,
    HALT_PC,
    TRAP_OVERHEAD_CYCLES,
    _ARITH_OPCODES,
    _is_nop,
    _memory_trap_cause,
    _TrapSignal,
    ArchState,
    ExecutionStats,
    HaltReason,
    MachineCheckpoint,
    TrapCause,
    TrapRecord,
    TrapVectorTable,
)
from repro.isa.decode import CachingDecoder
from repro.isa.formats import Instruction
from repro.isa.registers import NUM_WINDOWS

__all__ = [
    "CYCLE_TIME_NS",
    "HALT_PC",
    "TRAP_OVERHEAD_CYCLES",
    "ArchState",
    "ExecutionStats",
    "HaltReason",
    "MachineCheckpoint",
    "RiscMachine",
    "TrapCause",
    "TrapRecord",
    "TrapVectorTable",
]


class RiscMachine(ArchState):
    """A complete RISC I processor: architectural state plus an engine.

    Args:
        memory: backing store (code + data + window-save stack).
        num_windows: size of the circular window file (paper: 8).
        use_windows: False selects the A1 ablation - a flat register file
            where CALL/RET do not switch windows (software must save).
        record_call_trace: keep a +1/-1 call-depth trace for the window
            sweep analysis (cheap; on by default).  Recorded via the
            ``call``/``return`` observer events.
        decoder: instruction decoder; defaults to a private
            :class:`~repro.isa.decode.CachingDecoder` so cache contents
            and statistics never leak between machines.
        strict_traps: raise :class:`~repro.errors.TrapError` on an
            unvectored trap instead of halting.
        engine: execution backend - any tier of the registry in
            :mod:`repro.cpu.engines`: ``"reference"`` (default, the
            oracle interpreter) or ``"trace"`` (superblock traces
            compiled to generated source) - or an :class:`~repro.cpu.engine.ExecutionEngine`
            instance.
    """

    def __init__(
        self,
        memory: Memory | None = None,
        *,
        num_windows: int = NUM_WINDOWS,
        use_windows: bool = True,
        record_call_trace: bool = True,
        decoder: CachingDecoder | None = None,
        strict_traps: bool = False,
        engine: "str | ExecutionEngine" = "reference",
    ):
        super().__init__(
            memory,
            num_windows=num_windows,
            use_windows=use_windows,
            record_call_trace=record_call_trace,
            decoder=decoder,
            strict_traps=strict_traps,
        )
        self.engine: ExecutionEngine = create_engine(engine)

    @property
    def engine_name(self) -> str:
        """Name of the active execution engine (a tier name from
        :func:`repro.cpu.engines.engine_names`)."""
        return self.engine.name

    def _forget_code(self, pc: int) -> None:
        self.engine.forget_code(pc)

    def step(self) -> Instruction | None:
        """Execute one instruction; returns the decoded instruction.

        Returns ``None`` when the step ended in a trap instead of a
        completed instruction (the trap is described by
        :attr:`last_trap`); the machine is then either halted
        (:attr:`HaltReason.TRAPPED`) or redirected into a guest handler.
        """
        return self.engine.step(self)

    def run(
        self,
        entry: int = 0,
        max_steps: int = 20_000_000,
        *,
        max_cycles: int | None = None,
        wall_clock_limit: float | None = None,
    ) -> ExecutionStats:
        """Reset to *entry* and run until the entry procedure returns.

        Watchdog budgets make unattended runs (fault campaigns, fuzzing)
        safe against injected infinite loops: ``max_steps`` bounds
        dynamic instructions (:attr:`HaltReason.STEP_LIMIT`),
        ``max_cycles`` bounds simulated cycles
        (:attr:`HaltReason.CYCLE_LIMIT`), and ``wall_clock_limit``
        (seconds) bounds host time (:attr:`HaltReason.WALL_CLOCK_LIMIT`,
        checked every 1024 steps to keep the hot loop tight).
        """
        self.reset(entry)
        deadline = None
        if wall_clock_limit is not None:
            deadline = time.monotonic() + wall_clock_limit
        started = time.perf_counter()
        self.engine.run_loop(self, max_steps, max_cycles, deadline)
        self.last_run_wall_seconds = time.perf_counter() - started
        return self.stats

    def run_manifest(
        self,
        *,
        workload: str = "unnamed",
        seed: int | None = None,
        entry: int = 0,
        campaign: dict | None = None,
    ) -> "RunManifest":
        """The :class:`~repro.telemetry.manifest.RunManifest` of the
        last :meth:`run`.

        Call after the machine halts; *workload*/*seed* label the
        provenance, *campaign* links a fault-campaign fingerprint.  See
        ``docs/OBSERVABILITY.md`` for the document schema.
        """
        from repro.telemetry.manifest import capture_manifest

        return capture_manifest(
            self, workload=workload, seed=seed, entry=entry, campaign=campaign
        )


# Backwards-compatible module-level aliases for the engine layer.
__all__ += ["ExecutionEngine", "ReferenceEngine", "create_engine"]

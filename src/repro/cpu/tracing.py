"""Execution tracing: capture the dynamic instruction stream.

Feeds timing models that need more than aggregate counters - notably
the three-stage (RISC II-style) pipeline estimator, which must see
register dependencies between adjacent instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.machine import RiscMachine
from repro.isa.formats import Instruction
from repro.isa.opcodes import Category


@dataclass(frozen=True)
class TraceRecord:
    """One executed instruction with the facts timing models need."""

    # Declared by hand (not ``slots=True``, which needs Python 3.10): e1
    # holds up to 120k records, and dropping the per-record ``__dict__``
    # takes about 2 MB off its peak.
    __slots__ = ("pc", "inst", "taken_jump")

    pc: int
    inst: Instruction
    taken_jump: bool

    def __reduce__(self):
        # The default slot-state restore would assign to frozen fields.
        return (TraceRecord, (self.pc, self.inst, self.taken_jump))

    @property
    def is_memory(self) -> bool:
        """True for load/store instructions."""
        return self.inst.spec.category in (Category.LOAD, Category.STORE)

    @property
    def is_load(self) -> bool:
        """True for load instructions."""
        return self.inst.spec.category is Category.LOAD


@dataclass
class ExecutionTracer:
    """Run a machine while recording up to *limit* executed instructions.

    Observes the machine through the ``step`` event on its
    :class:`~repro.cpu.observers.ObserverBus` (fired once per completed
    instruction with the taken-jump flag); trapped steps complete no
    instruction and are not recorded.
    """

    machine: RiscMachine
    limit: int = 200_000
    records: list[TraceRecord] = field(default_factory=list)

    def _on_step(self, machine, pc: int, inst: Instruction, taken_jump: bool) -> None:
        if len(self.records) < self.limit:
            self.records.append(TraceRecord(pc=pc, inst=inst, taken_jump=taken_jump))

    def run(self, entry: int, max_steps: int = 5_000_000) -> list[TraceRecord]:
        """Execute from *entry* with tracing attached; returns the records."""
        bus = self.machine.observers
        bus.subscribe("step", self._on_step)
        try:
            self.machine.run(entry, max_steps=max_steps)
        finally:
            bus.unsubscribe("step", self._on_step)
        return self.records

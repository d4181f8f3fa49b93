"""Pluggable execution engines for the RISC I architectural state.

Layer 2 of the execution architecture: an :class:`ExecutionEngine` turns
an :class:`~repro.cpu.state.ArchState` into a running processor.  Two
backends ship, and both are legal per-core engines over a shared
memory (:mod:`repro.multicore`):

* ``"reference"`` - :class:`ReferenceEngine`, the original interpreter
  preserved as the semantic oracle.  It honours every observer event.
  Its :meth:`~ReferenceEngine.step` is the ``pre_step`` hooks followed
  by :meth:`~ReferenceEngine.step_body`, which the compiled tiers call
  for the steps they cannot run themselves: a latched interrupt, or a
  ``fetch_word`` observer.
* ``"trace"`` - :class:`~repro.cpu.traceengine.TraceEngine`, a
  superblock compiler that chains basic blocks across static control
  transfers into linear traces compiled to generated Python source,
  with deferred stats and write-invalidation for self-modifying code,
  eliminating the per-instruction dispatch overhead.  Whatever it runs
  one step at a time, observed steps included, goes through its inner
  :class:`~repro.cpu.fastengine.FastEngine`, which compiles each
  instruction word into a specialised closure and fires ``pre_step``/
  ``step`` observers itself.  Verified against the reference by the
  differential harness in :mod:`repro.cpu.equivalence`.

The tier registry lives in :mod:`repro.cpu.engines`.

Every engine must produce **bit-identical** architectural results:
the same :class:`~repro.cpu.state.ExecutionStats`, trap log, final
register/memory state, memory-traffic counters and console output for
any program.  ``tests/test_engine_equivalence.py`` enforces this on
every bundled workload.  Engine-*internal* counters (thunks compiled,
traces invalidated, ...) are exposed through
:meth:`ExecutionEngine.telemetry_snapshot` and land in the run
manifest's engine-specific section, never in the shared architectural
fields.

To add a backend: implement the :class:`ExecutionEngine` protocol,
register an :class:`~repro.cpu.engines.EngineSpec` in the tier
registry (:mod:`repro.cpu.engines`), and extend the equivalence
harness parametrisation - the harness, not code review, is what
qualifies an engine.
"""

from __future__ import annotations

import time
from typing import Protocol, runtime_checkable

from repro.common.bitops import MASK32
from repro.cpu.state import (
    HALT_PC,
    _ARITH_OPCODES,
    _is_nop,
    _memory_trap_cause,
    _TrapSignal,
    ArchState,
    HaltReason,
    TrapCause,
)
from repro.errors import DecodingError, MemoryFaultError, SimulationError
from repro.isa.conditions import cond_holds
from repro.isa.formats import Instruction
from repro.isa.opcodes import ALL_SPECS, Category, Opcode

#: Stat keys of each opcode's category and of the opcode itself, looked
#: up once per step.  Both are keyed by opcode: an ``Opcode`` hashes as
#: an int, where ``.name`` and a ``Category`` key's hash are Python-level
#: calls.
_CATEGORY_NAME = {op: spec.category.name for op, spec in ALL_SPECS.items()}
_OPCODE_NAME = {op: op.name for op in Opcode}


@runtime_checkable
class ExecutionEngine(Protocol):
    """What a backend must provide to drive an :class:`ArchState`.

    An engine instance is owned by exactly one machine; it may keep
    per-machine caches (the trace engine's traces and thunks) as long as
    :meth:`ArchState.restore` invalidates nothing it captured - the
    state core guarantees that ``regs._regs``, ``psw``, ``stats`` and
    ``memory`` are rewound in place, never rebound.
    """

    #: Registry name ("reference" or "trace").
    name: str

    def step(self, m: ArchState) -> Instruction | None:
        """Execute one instruction; None when the step ended in a trap."""
        ...

    def run_loop(
        self,
        m: ArchState,
        max_steps: int,
        max_cycles: int | None,
        deadline: float | None,
    ) -> int:
        """Run until halt or a watchdog budget expires (no reset).

        Returns the steps executed: one per reference-equivalent
        ``step()``, so a trapped step counts even though it retires no
        instruction.  ``max_steps`` and
        ``max_cycles`` halt at exactly the step boundary where the
        reference oracle would halt.
        """
        ...

    def forget_code(self, pc: int) -> None:
        """Drop whatever the engine compiled from the word at *pc* (a
        fetch pin on *pc* came or went)."""
        ...

    def telemetry_snapshot(self) -> dict:
        """Engine-internal counters for the run manifest (may be empty).

        These describe *how* a run was simulated (cache sizes, compiled
        units, invalidations) and are allowed to differ between
        backends; architectural counters belong on
        :class:`~repro.cpu.state.ExecutionStats` instead.
        """
        ...


class ReferenceEngine:
    """The original instruction-at-a-time interpreter (the oracle).

    Emits every observer event: ``pre_step`` at the top of the step,
    ``fetch_word`` as a filter over the fetched word (a mutated word
    bypasses the decode cache), and ``step`` after an instruction
    completes.
    """

    name = "reference"

    def telemetry_snapshot(self) -> dict:
        """The oracle keeps no caches; nothing engine-internal to report."""
        return {}

    def forget_code(self, pc: int) -> None:
        """The oracle compiles nothing; nothing to drop."""

    def step(self, m: ArchState) -> Instruction | None:
        """Execute one instruction; returns the decoded instruction.

        Returns ``None`` when the step ended in a trap instead of a
        completed instruction (the trap is described by
        :attr:`~repro.cpu.state.ArchState.last_trap`); the machine is
        then either halted (:attr:`HaltReason.TRAPPED`) or redirected
        into a guest handler.
        """
        if m.halted is not None:
            raise SimulationError(f"machine is halted ({m.halted.value})")
        for hook in m.observers.on_pre_step:
            hook(m)
        return self.step_body(m)

    def step_body(self, m: ArchState) -> Instruction | None:
        """Everything of :meth:`step` after the ``pre_step`` hooks.

        Forces the PSW and register pins, takes a latched interrupt,
        fetches (through any ``fetch_word`` filters, then the fetch
        pins), executes, and emits ``step``.  A
        compiled tier that has already run the ``pre_step`` hooks itself
        hands the rest of an observed step here.
        """
        bus = m.observers
        pinned = m.pinned
        if pinned:
            m._force_pins()
        if (
            m.pending_interrupt is not None
            and m.psw.interrupts_enabled
            and not m._pending_jump  # never split a jump from its delay slot
        ):
            try:
                m._take_interrupt()
            except _TrapSignal as sig:
                # The interrupt's window allocation trapped (save stack
                # exhausted); the interrupted program state is intact.
                m._trap(sig.cause, pc=m.pc, address=sig.address, message=str(sig))
                return None
        pc = m.pc
        try:
            word = m.memory.fetch_word(pc)
        except MemoryFaultError as exc:
            m._trap(
                _memory_trap_cause(exc),
                pc=pc,
                address=exc.address,
                message=f"instruction fetch: {exc}",
                in_delay_slot=m._pending_jump,
            )
            return None
        bypass_cache = False
        if bus.on_fetch_word:
            original = word
            for filt in bus.on_fetch_word:
                word = filt(pc, word) & MASK32
            bypass_cache = word != original
        if pinned:
            forced = m._fetch_pinned(pc, word)
            if forced != word:
                word = forced
                bypass_cache = True
        try:
            if bypass_cache:
                inst = m.decoder.decode_uncached(word)
            else:
                inst = m.decoder.decode(word)
        except DecodingError as exc:
            m._trap(
                TrapCause.ILLEGAL_INSTRUCTION,
                pc=pc,
                word=word,
                message=str(exc),
                in_delay_slot=m._pending_jump,
            )
            return None
        spec = inst.spec

        in_delay_slot = m._pending_jump
        m._pending_jump = False
        if in_delay_slot:
            m.stats.delay_slots += 1
            if _is_nop(inst):
                m.stats.delay_slot_nops += 1

        # Default sequencing; a taken transfer overwrites new_npc.
        new_pc = m.npc
        new_npc = m.npc + 4
        taken = False

        category = spec.category
        try:
            if category is Category.ALU:
                a = m.read_reg(inst.rs1)
                b = self._operand_s2(m, inst)
                result = m.alu.execute(inst.opcode, a, b, m.psw.c)
                if m.trap_on_overflow and result.v and inst.opcode in _ARITH_OPCODES:
                    raise _TrapSignal(
                        TrapCause.ARITHMETIC_OVERFLOW,
                        f"signed overflow in {inst.opcode.name}",
                    )
                m.write_reg(inst.dest, result.value)
                if inst.scc:
                    m.psw.set_flags(z=result.z, n=result.n, c=result.c, v=result.v)
            elif category is Category.LOAD:
                address = (m.read_reg(inst.rs1) + self._operand_s2(m, inst)) & MASK32
                m.write_reg(inst.dest, self._load(m, inst.opcode, address))
            elif category is Category.STORE:
                address = (m.read_reg(inst.rs1) + self._operand_s2(m, inst)) & MASK32
                self._store(m, inst.opcode, address, m.read_reg(inst.dest))
            elif category is Category.JUMP:
                target = self._execute_jump(m, inst, pc)
                if target is not None:
                    new_npc = target
                    m._pending_jump = True
                    m.stats.taken_jumps += 1
                    taken = True
            elif inst.opcode is Opcode.LDHI:
                m.write_reg(inst.dest, (inst.imm19 << 13) & MASK32)
            elif inst.opcode is Opcode.GTLPC:
                m.write_reg(inst.dest, m.lpc)
            elif inst.opcode is Opcode.GETPSW:
                m.write_reg(inst.dest, m.psw.pack())
            elif inst.opcode is Opcode.PUTPSW:
                value = (m.read_reg(inst.rs1) + self._operand_s2(m, inst)) & MASK32
                m.psw.unpack(value)
            else:  # pragma: no cover - every opcode is handled above
                raise SimulationError(f"unimplemented opcode {inst.opcode!r}")
        except MemoryFaultError as exc:
            m._trap(
                _memory_trap_cause(exc),
                pc=pc,
                word=word,
                address=exc.address,
                message=str(exc),
                in_delay_slot=in_delay_slot,
            )
            return None
        except _TrapSignal as sig:
            m._trap(
                sig.cause,
                pc=pc,
                word=word,
                address=sig.address,
                message=str(sig),
                in_delay_slot=in_delay_slot,
            )
            return None

        stats = m.stats
        stats.instructions += 1
        stats.cycles += spec.cycles
        stats.by_category[_CATEGORY_NAME[inst.opcode]] += 1
        stats.by_opcode[_OPCODE_NAME[inst.opcode]] += 1

        m.lpc = pc
        m.pc = new_pc
        m.npc = new_npc
        if m.pc == HALT_PC:
            m._set_halted(HaltReason.RETURNED)
        elif m.halt_address is not None and m.pc == m.halt_address:
            m._set_halted(HaltReason.EXPLICIT)
        if bus.on_step:
            for fn in bus.on_step:
                fn(m, pc, inst, taken)
        return inst

    def run_loop(
        self,
        m: ArchState,
        max_steps: int,
        max_cycles: int | None,
        deadline: float | None,
    ) -> int:
        """Step the oracle until halt or a step/cycle/deadline budget
        expires; returns the steps executed."""
        steps = 0
        while m.halted is None:
            self.step(m)
            steps += 1
            if m.halted is not None:
                break
            if steps >= max_steps:
                m._set_halted(HaltReason.STEP_LIMIT)
            elif max_cycles is not None and m.stats.cycles >= max_cycles:
                m._set_halted(HaltReason.CYCLE_LIMIT)
            elif (
                deadline is not None
                and steps % 1024 == 0
                and time.monotonic() > deadline
            ):
                m._set_halted(HaltReason.WALL_CLOCK_LIMIT)
        return steps

    # -- operand / memory / jump helpers -------------------------------------

    def _operand_s2(self, m: ArchState, inst: Instruction) -> int:
        if inst.imm:
            return inst.s2 & MASK32
        return m.read_reg(inst.s2 & 0x1F)

    def _execute_jump(self, m: ArchState, inst: Instruction, pc: int) -> int | None:
        """Execute a control-transfer; returns the target or None if not taken."""
        opcode = inst.opcode
        if opcode is Opcode.JMP:
            if cond_holds(inst.cond, *m.psw.flags()):
                return (m.read_reg(inst.rs1) + self._operand_s2(m, inst)) & MASK32
            return None
        if opcode is Opcode.JMPR:
            if cond_holds(inst.cond, *m.psw.flags()):
                return (pc + inst.imm19) & MASK32
            return None
        if opcode is Opcode.CALL:
            target = (m.read_reg(inst.rs1) + self._operand_s2(m, inst)) & MASK32
            m._enter_frame()
            m.write_reg(inst.dest, pc)  # written in the NEW window
            m.stats.calls += 1
            return target
        if opcode is Opcode.CALLR:
            target = (pc + inst.imm19) & MASK32
            m._enter_frame()
            m.write_reg(inst.dest, pc)
            m.stats.calls += 1
            return target
        if opcode is Opcode.RET:
            target = (m.read_reg(inst.rs1) + self._operand_s2(m, inst)) & MASK32
            m._exit_frame()
            m.stats.returns += 1
            return target
        if opcode is Opcode.CALLINT:
            m._enter_frame()
            m.write_reg(inst.dest, m.lpc)
            m.stats.calls += 1
            return None
        if opcode is Opcode.RETINT:
            target = (m.read_reg(inst.rs1) + self._operand_s2(m, inst)) & MASK32
            m._exit_frame()
            m.stats.returns += 1
            m.psw.interrupts_enabled = True  # interrupt return re-enables
            return target
        raise SimulationError(f"not a jump opcode: {opcode!r}")  # pragma: no cover

    def _load(self, m: ArchState, opcode: Opcode, address: int) -> int:
        if opcode is Opcode.LDL:
            return m.memory.load_word(address)
        if opcode is Opcode.LDSU:
            return m.memory.load_half(address)
        if opcode is Opcode.LDSS:
            return m.memory.load_half(address, signed=True) & MASK32
        if opcode is Opcode.LDBU:
            return m.memory.load_byte(address)
        if opcode is Opcode.LDBS:
            return m.memory.load_byte(address, signed=True) & MASK32
        raise SimulationError(f"not a load opcode: {opcode!r}")  # pragma: no cover

    def _store(self, m: ArchState, opcode: Opcode, address: int, value: int) -> None:
        if opcode is Opcode.STL:
            m.memory.store_word(address, value)
        elif opcode is Opcode.STS:
            m.memory.store_half(address, value)
        elif opcode is Opcode.STB:
            m.memory.store_byte(address, value)
        else:  # pragma: no cover
            raise SimulationError(f"not a store opcode: {opcode!r}")


def create_engine(engine: "str | ExecutionEngine") -> "ExecutionEngine":
    """Resolve an engine name through the tier registry.

    Thin re-export of :func:`repro.cpu.engines.create_engine`; the
    registry (:mod:`repro.cpu.engines`) is the single source of truth
    for the available tiers.
    """
    from repro.cpu.engines import create_engine as _create

    return _create(engine)

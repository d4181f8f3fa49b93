"""Architectural state core for the RISC I execution stack.

This module is layer 1 of the execution architecture (see
``docs/ARCHITECTURE.md``): everything the *ISA* defines - the windowed
register file, the PSW, memory, the ``(pc, npc)`` delayed-jump chain,
window overflow/underflow bookkeeping, the precise trap machinery,
interrupts, and checkpoint/rollback - with **no** instruction-dispatch
strategy.  How instructions are fetched, decoded and executed is layer
2, a pluggable :class:`~repro.cpu.engine.ExecutionEngine`; tools observe
the machine through layer 3, the :class:`~repro.cpu.observers.ObserverBus`.

Abnormal conditions go through a **precise trap architecture** rather
than escaping as Python exceptions: an illegal decode, a misaligned or
out-of-range access, window-save-stack exhaustion, an unbalanced return,
or (optionally) signed overflow produces a structured
:class:`TrapRecord` and either vectors to a guest handler registered in
the state's :class:`TrapVectorTable` or halts the machine with
:attr:`HaltReason.TRAPPED`.  Traps are precise: the faulting instruction
has no architectural effect (registers, memory, window state and the PC
chain are all as they were before its fetch).
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

from repro.common.bitops import MASK32
from repro.common.memory import Memory, MemoryCheckpoint
from repro.cpu.alu import Alu
from repro.cpu.observers import CallTraceRecorder, ObserverBus
from repro.cpu.psw import Psw
from repro.cpu.regfile import WindowedRegisterFile
from repro.errors import MemoryFaultError, TrapError
from repro.isa.decode import CachingDecoder
from repro.isa.formats import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import NUM_WINDOWS, REGS_PER_WINDOW_UNIQUE
from repro.telemetry.registry import NULL_REGISTRY, MetricsRegistry

#: PC value that means "the initial procedure returned" - outside memory.
HALT_PC = 0x7FFF_FF00
#: Default cycle time from the paper's NMOS design estimate.
CYCLE_TIME_NS = 400

#: Trap overhead beyond the 16 register stores/loads themselves.
TRAP_OVERHEAD_CYCLES = 4


class TrapCause(enum.IntEnum):
    """Architectural trap causes (the code a vectored handler receives)."""

    ILLEGAL_INSTRUCTION = 1
    MISALIGNED_ACCESS = 2
    OUT_OF_RANGE_ACCESS = 3
    WINDOW_OVERFLOW_STACK = 4
    WINDOW_UNDERFLOW_EMPTY = 5
    RET_NO_FRAME = 6
    ARITHMETIC_OVERFLOW = 7
    TIMER_INTERRUPT = 8
    DOORBELL_INTERRUPT = 9

    def describe(self) -> str:
        """Human-readable one-line description of the trap cause."""
        return _TRAP_DESCRIPTIONS[self]


_TRAP_DESCRIPTIONS = {
    TrapCause.ILLEGAL_INSTRUCTION: "illegal instruction",
    TrapCause.MISALIGNED_ACCESS: "misaligned memory access",
    TrapCause.OUT_OF_RANGE_ACCESS: "memory address out of range",
    TrapCause.WINDOW_OVERFLOW_STACK: "window-save stack exhausted",
    TrapCause.WINDOW_UNDERFLOW_EMPTY: "window underflow with empty save stack",
    TrapCause.RET_NO_FRAME: "RET with no active procedure frame",
    TrapCause.ARITHMETIC_OVERFLOW: "signed arithmetic overflow",
    TrapCause.TIMER_INTERRUPT: "timer device interrupt (asynchronous)",
    TrapCause.DOORBELL_INTERRUPT: "inter-core doorbell interrupt (asynchronous)",
}


@dataclass(frozen=True)
class TrapRecord:
    """Everything the machine knows about one trap, structured.

    Attributes:
        cause: the architectural :class:`TrapCause`.
        pc: address of the faulting instruction.
        npc: the next-PC at trap time (needed to reason about delay
            slots; a fault in a delay slot cannot be resumed from ``pc``
            alone).
        word: the faulting instruction word, when it was fetched.
        address: the faulting data address, for memory traps.
        cwp: current window pointer at trap time.
        cycle: machine cycle count at trap time.
        instruction_index: dynamic instruction count at trap time.
        in_delay_slot: the faulting instruction occupied a delay slot.
        vectored: a guest handler was dispatched (False = machine halted).
        message: human-readable detail.
    """

    cause: TrapCause
    pc: int
    npc: int
    word: int | None = None
    address: int | None = None
    cwp: int = 0
    cycle: int = 0
    instruction_index: int = 0
    in_delay_slot: bool = False
    vectored: bool = False
    message: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f"pc={self.pc:#x}"
        if self.address is not None:
            where += f" addr={self.address:#x}"
        if self.word is not None:
            where += f" word={self.word:#010x}"
        return f"trap {self.cause.name} ({self.message or self.cause.describe()}) at {where}"


class TrapVectorTable:
    """Configurable map from :class:`TrapCause` to guest handler address.

    A cause with no registered handler halts the machine with
    :attr:`HaltReason.TRAPPED`; a registered handler receives control in
    a fresh register window (the paper's interrupt convention: a forced
    CALL), with the cause code in ``r17``, the faulting address (or 0)
    in ``r18``, and the faulting PC recoverable via ``gtlpc``.
    """

    def __init__(self, vectors: dict[TrapCause, int] | None = None):
        self._vectors: dict[TrapCause, int] = dict(vectors or {})

    def set(self, cause: TrapCause, handler: int) -> None:
        """Install *handler* as the vector for *cause*."""
        self._vectors[cause] = handler

    def clear(self, cause: TrapCause) -> None:
        """Remove the vector for *cause*, if installed."""
        self._vectors.pop(cause, None)

    def handler(self, cause: TrapCause) -> int | None:
        """The installed handler address for *cause*, or ``None``."""
        return self._vectors.get(cause)

    def load(self, mapping: dict[TrapCause, int]) -> None:
        """Install several vectors at once."""
        self._vectors.update(mapping)

    def __len__(self) -> int:
        return len(self._vectors)


class _TrapSignal(Exception):
    """Internal control flow: a trap condition detected mid-execution.

    Never escapes an engine's step; converted to a :class:`TrapRecord`
    there.  The raising site must leave architectural state exactly as
    it was before the faulting instruction (precision is enforced by
    construction at each raise site).
    """

    def __init__(self, cause: TrapCause, message: str = "", address: int | None = None):
        self.cause = cause
        self.address = address
        super().__init__(message or cause.describe())


class HaltReason(enum.Enum):
    """Why a run stopped; stored on ``ArchState.halted``."""

    RETURNED = "initial procedure returned"
    STEP_LIMIT = "step limit reached"
    EXPLICIT = "halt address reached"
    TRAPPED = "unhandled trap"
    CYCLE_LIMIT = "cycle budget exhausted"
    WALL_CLOCK_LIMIT = "wall-clock budget exhausted"


@dataclass
class ExecutionStats:
    """Dynamic counters for one run."""

    instructions: int = 0
    cycles: int = 0
    calls: int = 0
    returns: int = 0
    taken_jumps: int = 0
    delay_slots: int = 0
    delay_slot_nops: int = 0
    window_overflows: int = 0
    window_underflows: int = 0
    max_call_depth: int = 0
    traps: int = 0
    by_category: Counter = field(default_factory=Counter)
    by_opcode: Counter = field(default_factory=Counter)
    by_trap_cause: Counter = field(default_factory=Counter)

    @property
    def spill_words(self) -> int:
        """Words moved by window overflow+underflow traps."""
        return (self.window_overflows + self.window_underflows) * REGS_PER_WINDOW_UNIQUE

    def time_ns(self, cycle_time_ns: float = CYCLE_TIME_NS) -> float:
        """Simulated wall time of the run at the given cycle time."""
        return self.cycles * cycle_time_ns

    def copy(self) -> "ExecutionStats":
        """A deep, independent copy (dict counters included)."""
        return ExecutionStats(
            instructions=self.instructions,
            cycles=self.cycles,
            calls=self.calls,
            returns=self.returns,
            taken_jumps=self.taken_jumps,
            delay_slots=self.delay_slots,
            delay_slot_nops=self.delay_slot_nops,
            window_overflows=self.window_overflows,
            window_underflows=self.window_underflows,
            max_call_depth=self.max_call_depth,
            traps=self.traps,
            by_category=Counter(self.by_category),
            by_opcode=Counter(self.by_opcode),
            by_trap_cause=Counter(self.by_trap_cause),
        )

    def restore_from(self, other: "ExecutionStats") -> None:
        """Overwrite every counter with *other*'s values, **in place**.

        Rollback must not rebind the stats object: the fast engine's
        pre-decoded closures capture it, so :meth:`ArchState.restore`
        rewinds the existing instance instead of replacing it.
        """
        self.instructions = other.instructions
        self.cycles = other.cycles
        self.calls = other.calls
        self.returns = other.returns
        self.taken_jumps = other.taken_jumps
        self.delay_slots = other.delay_slots
        self.delay_slot_nops = other.delay_slot_nops
        self.window_overflows = other.window_overflows
        self.window_underflows = other.window_underflows
        self.max_call_depth = other.max_call_depth
        self.traps = other.traps
        self.by_category.clear()
        self.by_category.update(other.by_category)
        self.by_opcode.clear()
        self.by_opcode.update(other.by_opcode)
        self.by_trap_cause.clear()
        self.by_trap_cause.update(other.by_trap_cause)

    def as_dict(self) -> dict:
        """Plain-dict view (counters included) for JSON export."""
        return {
            "instructions": self.instructions,
            "cycles": self.cycles,
            "calls": self.calls,
            "returns": self.returns,
            "taken_jumps": self.taken_jumps,
            "delay_slots": self.delay_slots,
            "delay_slot_nops": self.delay_slot_nops,
            "window_overflows": self.window_overflows,
            "window_underflows": self.window_underflows,
            "max_call_depth": self.max_call_depth,
            "traps": self.traps,
            "by_category": dict(self.by_category),
            "by_opcode": dict(self.by_opcode),
            "by_trap_cause": dict(self.by_trap_cause),
        }


@dataclass(frozen=True)
class MachineCheckpoint:
    """Full architectural snapshot taken by :meth:`ArchState.checkpoint`."""

    regs: tuple[int, ...]
    psw: tuple[bool, bool, bool, bool, bool, int, int]
    pc: int
    npc: int
    lpc: int
    halted: HaltReason | None
    pending_jump: bool
    resident_windows: int
    call_depth: int
    window_save_pointer: int
    pending_interrupt: int | None
    interrupts_taken: int
    stats: ExecutionStats
    call_trace_len: int
    trap_log_len: int
    memory: MemoryCheckpoint


#: ALU opcodes whose signed-overflow result can raise the arithmetic trap.
_ARITH_OPCODES = frozenset(
    {Opcode.ADD, Opcode.ADDC, Opcode.SUB, Opcode.SUBC, Opcode.SUBR, Opcode.SUBCR}
)


class ArchState:
    """Architectural state of one RISC I processor attached to a :class:`Memory`.

    Args:
        memory: backing store (code + data + window-save stack).
        num_windows: size of the circular window file (paper: 8).
        use_windows: False selects the A1 ablation - a flat register file
            where CALL/RET do not switch windows (software must save).
        record_call_trace: attach a
            :class:`~repro.cpu.observers.CallTraceRecorder` to the bus so
            the +1/-1 call-depth trace is available as ``call_trace``
            (cheap; on by default).
        decoder: instruction decoder; defaults to a private
            :class:`~repro.isa.decode.CachingDecoder` so decode-cache
            contents and statistics never leak between machines.  Pass a
            shared instance explicitly to amortise decoding across
            machines.
        strict_traps: raise :class:`~repro.errors.TrapError` (carrying
            the :class:`TrapRecord`) on an unvectored trap instead of
            halting.  Off by default: traps halt structurally.
        telemetry: a :class:`~repro.telemetry.registry.MetricsRegistry`
            the run loop records boundary metrics into; defaults to the
            no-op :data:`~repro.telemetry.registry.NULL_REGISTRY`, which
            costs nothing (telemetry is only touched at run boundaries,
            never per instruction).
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
        telemetry: MetricsRegistry | None = None,
    ):
        self.memory = memory if memory is not None else Memory()
        self.regs = WindowedRegisterFile(num_windows=num_windows, use_windows=use_windows)
        self.num_windows = num_windows
        self.use_windows = use_windows
        self.psw = Psw()
        self.alu = Alu()
        self.stats = ExecutionStats()
        self.decoder = decoder if decoder is not None else CachingDecoder()
        self.strict_traps = strict_traps
        self.telemetry = telemetry if telemetry is not None else NULL_REGISTRY
        #: host seconds of the most recent :meth:`RiscMachine.run` (None
        #: before the first run); feeds the manifest's ``host`` section.
        self.last_run_wall_seconds: float | None = None

        self.pc = 0
        self.npc = 4
        self.lpc = 0  # PC of the previously executed instruction (GTLPC)
        self.halted: HaltReason | None = None
        self.halt_address: int | None = None

        # Window bookkeeping: number of frames resident in the file and
        # the memory save stack for spilled windows.
        self.resident_windows = 1
        self.call_depth = 0
        self.window_save_pointer = self.memory.size  # grows downward
        self._pending_jump = False  # the *previous* instruction was a taken transfer

        # Interrupts: a handler address is latched by request_interrupt()
        # and taken at the next step boundary that is not a delay slot.
        self.pending_interrupt: int | None = None
        self.interrupts_taken = 0

        # Trap architecture.
        self.trap_vectors = TrapVectorTable()
        self.trap_log: list[TrapRecord] = []
        self.last_trap: TrapRecord | None = None
        self.trap_on_overflow = False  # opt-in arithmetic trap on signed overflow

        # Layer 3: the unified observer bus.  Tracing, profiling, the
        # debugger, window analysis and fault injection all attach here.
        self.observers = ObserverBus()
        self.record_call_trace = record_call_trace
        self._call_recorder: CallTraceRecorder | None = None
        if record_call_trace:
            self._call_recorder = CallTraceRecorder()
            self._call_recorder.attach(self.observers)

    # -- program setup ------------------------------------------------------

    def load_program(self, words: list[int], base: int = 0) -> None:
        """Copy a word image into memory starting at *base*."""
        self.memory.load_program(words, base)

    def reset(self, entry: int = 0) -> None:
        """Point the machine at *entry* with a fresh halt linkage.

        The initial window's r31 (the link register) is loaded so that the
        conventional ``ret r31, 8`` from the entry procedure lands on
        :data:`HALT_PC`.
        """
        self.pc = entry
        self.npc = entry + 4
        self.halted = None
        self.psw.cwp = 0
        self.regs.write(0, 31, HALT_PC - 8)
        self.resident_windows = 1
        self.call_depth = 1  # the entry procedure is frame 1
        # Record the entry activation so the trace balances its final return.
        if self._call_recorder is not None:
            self._call_recorder.trace[:] = [1]
        self.window_save_pointer = self.memory.size

    @property
    def call_trace(self) -> list[int]:
        """The +1/-1 call-depth trace (empty when recording is off).

        Recorded by a :class:`~repro.cpu.observers.CallTraceRecorder` on
        the observer bus - the same code path every other window-depth
        consumer uses.
        """
        if self._call_recorder is None:
            return []
        return self._call_recorder.trace

    # -- register access in the current window -------------------------------

    def read_reg(self, reg: int) -> int:
        """Read architectural register *reg* through the current window."""
        return self.regs.read(self.psw.cwp, reg)

    def write_reg(self, reg: int, value: int) -> None:
        """Write architectural register *reg* through the current window."""
        self.regs.write(self.psw.cwp, reg, value)

    # -- window traps ---------------------------------------------------------

    #: lowest address the window-save stack may reach before trapping
    window_stack_limit: int = 0

    def _spill_window(self, window: int) -> None:
        """Overflow trap body: push the frame-at-*window*'s LOCAL+HIGH unit."""
        new_pointer = self.window_save_pointer - 4 * REGS_PER_WINDOW_UNIQUE
        if new_pointer < self.window_stack_limit:
            raise _TrapSignal(
                TrapCause.WINDOW_OVERFLOW_STACK,
                f"window-save stack exhausted (limit {self.window_stack_limit:#x})",
                address=new_pointer,
            )
        self.window_save_pointer = new_pointer
        self.memory.store_words(new_pointer, self.regs.spill_unit(window), count=True)
        self.stats.window_overflows += 1
        self.stats.cycles += TRAP_OVERHEAD_CYCLES + 2 * REGS_PER_WINDOW_UNIQUE

    def _refill_window(self, window: int) -> None:
        """Underflow trap body: pop the LOCAL+HIGH unit back into *window*."""
        if self.window_save_pointer >= self.memory.size:
            raise _TrapSignal(
                TrapCause.WINDOW_UNDERFLOW_EMPTY,
                "window underflow with empty save stack",
                address=self.window_save_pointer,
            )
        values = self.memory.load_words(
            self.window_save_pointer, REGS_PER_WINDOW_UNIQUE, count=True
        )
        self.regs.set_spill_unit(window, values)
        self.window_save_pointer += 4 * REGS_PER_WINDOW_UNIQUE
        self.stats.window_underflows += 1
        self.stats.cycles += TRAP_OVERHEAD_CYCLES + 2 * REGS_PER_WINDOW_UNIQUE

    def _enter_window(self) -> None:
        """CALL path: allocate a new window, spilling the oldest if full."""
        self.call_depth += 1
        self.stats.max_call_depth = max(self.stats.max_call_depth, self.call_depth)
        if not self.use_windows:
            return
        new_cwp = (self.psw.cwp - 1) % self.num_windows
        if self.resident_windows == self.num_windows - 1:
            oldest = (new_cwp + self.resident_windows) % self.num_windows
            try:
                self._spill_window(oldest)
            except _TrapSignal:
                # Precise trap: undo the frame bookkeeping done above.
                self.call_depth -= 1
                raise
        else:
            self.resident_windows += 1
        self.psw.cwp = new_cwp
        # SWP mirrors the oldest resident frame's window (the paper's
        # saved-window pointer; GETPSW exposes it to software).
        self.psw.swp = (new_cwp + self.resident_windows - 1) % self.num_windows

    def _exit_window(self) -> None:
        """RET path: release the window, refilling the caller's if spilled."""
        if self.call_depth <= 0:
            raise _TrapSignal(TrapCause.RET_NO_FRAME, "RET with no active procedure frame")
        self.call_depth -= 1
        if not self.use_windows:
            return
        new_cwp = (self.psw.cwp + 1) % self.num_windows
        if self.call_depth == 0:
            # Final return from the entry procedure: nothing to restore.
            self.resident_windows = 1
        elif self.resident_windows == 1:
            try:
                self._refill_window(new_cwp)
            except _TrapSignal:
                self.call_depth += 1
                raise
        else:
            self.resident_windows -= 1
        self.psw.cwp = new_cwp
        self.psw.swp = (new_cwp + self.resident_windows - 1) % self.num_windows

    def _enter_frame(self) -> None:
        """Allocate a frame (may trap, precisely) and emit ``call``."""
        self._enter_window()
        if self.observers.on_call:
            self.observers.emit_call(self, self.call_depth)

    def _exit_frame(self) -> None:
        """Release a frame (may trap, precisely) and emit ``return``."""
        self._exit_window()
        if self.observers.on_return:
            self.observers.emit_return(self, self.call_depth)

    # -- interrupts -------------------------------------------------------------

    def request_interrupt(self, handler: int) -> None:
        """Latch an external interrupt; taken when enabled and safe.

        The paper's interrupt scheme: the hardware forces a CALL to a
        fixed location in a fresh window, and the handler recovers the
        interrupted PC with GTLPC and resumes with RETINT.
        """
        self.pending_interrupt = handler

    def _take_interrupt(self) -> None:
        handler = self.pending_interrupt
        self._enter_frame()  # may trap (save stack exhausted); precise
        self.pending_interrupt = None
        self.interrupts_taken += 1
        self.stats.calls += 1
        # GTLPC must return the interrupted instruction's address.
        self.lpc = self.pc
        self.psw.interrupts_enabled = False
        self.pc = handler
        self.npc = handler + 4

    # -- halting ----------------------------------------------------------------

    def _set_halted(self, reason: HaltReason) -> None:
        """Halt the machine and emit the ``halt`` event."""
        self.halted = reason
        if self.observers.on_halt:
            self.observers.emit_halt(self, reason)

    # -- traps ------------------------------------------------------------------

    def _trap(
        self,
        cause: TrapCause,
        *,
        pc: int,
        word: int | None = None,
        address: int | None = None,
        message: str = "",
        in_delay_slot: bool = False,
    ) -> None:
        """Record a trap and either vector to a guest handler or halt."""
        handler = self.trap_vectors.handler(cause)
        record = TrapRecord(
            cause=cause,
            pc=pc,
            npc=self.npc,
            word=word,
            address=address,
            cwp=self.psw.cwp,
            cycle=self.stats.cycles,
            instruction_index=self.stats.instructions,
            in_delay_slot=in_delay_slot,
            vectored=handler is not None,
            message=message or cause.describe(),
        )
        self.trap_log.append(record)
        self.last_trap = record
        self.stats.traps += 1
        self.stats.by_trap_cause[cause.name] += 1
        if self.observers.on_trap:
            self.observers.emit_trap(self, record)
        if handler is None:
            self._set_halted(HaltReason.TRAPPED)
            if self.strict_traps:
                raise TrapError(str(record), record=record)
            return
        # Vector: a forced CALL into a fresh window, like an interrupt.
        try:
            self._enter_frame()
        except _TrapSignal as nested:
            # Double fault: the handler window itself cannot be allocated.
            double = TrapRecord(
                cause=nested.cause,
                pc=pc,
                npc=self.npc,
                address=nested.address,
                cwp=self.psw.cwp,
                cycle=self.stats.cycles,
                instruction_index=self.stats.instructions,
                vectored=False,
                message=f"double fault while vectoring {cause.name}: {nested}",
            )
            self.trap_log.append(double)
            self.last_trap = double
            self.stats.traps += 1
            self.stats.by_trap_cause[nested.cause.name] += 1
            if self.observers.on_trap:
                self.observers.emit_trap(self, double)
            self._set_halted(HaltReason.TRAPPED)
            if self.strict_traps:
                raise TrapError(str(double), record=double) from None
            return
        self.stats.cycles += TRAP_OVERHEAD_CYCLES
        # Handler ABI: cause code in r17, faulting address (or 0) in r18;
        # GTLPC recovers the faulting PC.
        self.write_reg(17, int(cause))
        self.write_reg(18, (address or 0) & MASK32)
        self.lpc = pc
        self.psw.interrupts_enabled = False
        self._pending_jump = False
        self.pc = handler
        self.npc = handler + 4

    @property
    def result(self) -> int:
        """Value returned by the entry procedure.

        Convention: a procedure leaves its return value in its r26 (HIGH),
        which the caller sees as r10 (LOW).  After the final ``ret`` the
        window pointer has moved back to the caller, so the entry
        procedure's result is the current window's r10.
        """
        return self.read_reg(10)

    # -- public counter accessors ----------------------------------------------

    def decode_cache_stats(self) -> dict[str, int]:
        """Decode-cache counters of this machine's decoder, as a dict.

        Keys: ``hits``, ``misses``, ``entries``, ``evictions``,
        ``max_entries`` (see
        :meth:`~repro.isa.decode.CachingDecoder.cache_info`).  This is
        the public accessor the run manifest and
        :class:`~repro.evaluation.common.BenchmarkRecord` read; callers
        never need to reach through :attr:`decoder` directly.  With a
        deliberately *shared* decoder the counters aggregate over all
        sharing machines.
        """
        return self.decoder.cache_info()

    def counters_snapshot(self) -> dict:
        """Every public counter of this machine in one plain dict.

        Sections: ``stats`` (:meth:`ExecutionStats.as_dict` - identical
        across execution engines), ``memory`` (traffic counters plus
        console output length), ``decode_cache``
        (:meth:`decode_cache_stats` - engine-dependent), and the scalar
        ``interrupts_taken`` / ``traps_logged``.  This is the substrate
        :func:`repro.telemetry.manifest.capture_manifest` serialises;
        it is cheap (no copies of memory or registers) and safe to call
        mid-run.
        """
        mem = self.memory.stats
        return {
            "stats": self.stats.as_dict(),
            "memory": {
                "inst_reads": mem.inst_reads,
                "data_reads": mem.data_reads,
                "data_writes": mem.data_writes,
                "console_bytes": len(self.memory.console),
            },
            "decode_cache": self.decode_cache_stats(),
            "interrupts_taken": self.interrupts_taken,
            "traps_logged": len(self.trap_log),
        }

    # -- checkpoint / rollback --------------------------------------------------

    def checkpoint(self, *, track_memory_deltas: bool = False) -> MachineCheckpoint:
        """Snapshot the full architectural state for later :meth:`restore`.

        With ``track_memory_deltas`` the memory snapshot is a cheap write
        journal instead of a full image copy (see
        :meth:`~repro.common.memory.Memory.checkpoint`); the golden-vs-
        faulted differential runs rewind a 1 MiB machine thousands of
        times this way.
        """
        psw = self.psw
        return MachineCheckpoint(
            regs=tuple(self.regs._regs),
            psw=(psw.z, psw.n, psw.c, psw.v, psw.interrupts_enabled, psw.cwp, psw.swp),
            pc=self.pc,
            npc=self.npc,
            lpc=self.lpc,
            halted=self.halted,
            pending_jump=self._pending_jump,
            resident_windows=self.resident_windows,
            call_depth=self.call_depth,
            window_save_pointer=self.window_save_pointer,
            pending_interrupt=self.pending_interrupt,
            interrupts_taken=self.interrupts_taken,
            stats=self.stats.copy(),
            call_trace_len=len(self.call_trace),
            trap_log_len=len(self.trap_log),
            memory=self.memory.checkpoint(track_deltas=track_memory_deltas),
        )

    def restore(self, cp: MachineCheckpoint) -> None:
        """Rewind every architectural and accounting field to *cp*.

        The ``stats`` object, register list, PSW and memory are rewound
        **in place** (never rebound) so engine-internal references - the
        fast engine's pre-decoded closures capture them - stay valid
        across a rollback.
        """
        self.regs._regs[:] = cp.regs
        psw = self.psw
        psw.z, psw.n, psw.c, psw.v, psw.interrupts_enabled, psw.cwp, psw.swp = cp.psw
        self.pc = cp.pc
        self.npc = cp.npc
        self.lpc = cp.lpc
        self.halted = cp.halted
        self._pending_jump = cp.pending_jump
        self.resident_windows = cp.resident_windows
        self.call_depth = cp.call_depth
        self.window_save_pointer = cp.window_save_pointer
        self.pending_interrupt = cp.pending_interrupt
        self.interrupts_taken = cp.interrupts_taken
        self.stats.restore_from(cp.stats)
        if self._call_recorder is not None:
            del self._call_recorder.trace[cp.call_trace_len :]
        del self.trap_log[cp.trap_log_len :]
        self.last_trap = self.trap_log[-1] if self.trap_log else None
        self.memory.restore(cp.memory)


def _memory_trap_cause(exc: MemoryFaultError) -> TrapCause:
    if exc.kind == "misaligned":
        return TrapCause.MISALIGNED_ACCESS
    return TrapCause.OUT_OF_RANGE_ACCESS


def _is_nop(inst: Instruction) -> bool:
    """The canonical NOP is ``add r0, r0, #0``."""
    return (
        inst.opcode is Opcode.ADD
        and inst.dest == 0
        and inst.rs1 == 0
        and inst.imm
        and inst.s2 == 0
    )

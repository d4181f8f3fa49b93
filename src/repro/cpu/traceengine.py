"""Trace-compiling execution engine (superblocks across block boundaries).

Where :mod:`repro.cpu.fastengine` pays a closure call plus fetch,
dispatch and PC bookkeeping on every instruction, this backend compiles
linear *traces* that chain basic blocks across statically-resolvable
control transfers into one generated Python function ``exec``'d once
per trace:

* a taken ``JMPR`` with an always-true condition continues the trace at
  its target;
* a ``CALLR`` is inlined - including the window-allocation bookkeeping,
  which stays inside the trace while only the default call-trace
  recorder observes frames: an arm that needs no spill updates the
  shadowed window state, and one that does spills through the bound
  ``sp`` helper (:meth:`ArchState._spill_plain`, one ``pack_into``) -
  and the trace continues at the callee's entry.  A ``RET`` refills the
  same way (``rf``).  A frame op leaves the trace for ``_enter_frame``/
  ``_exit_frame`` only on save-stack exhaustion, a watched or non-RAM
  save-stack span, another frame observer, ``CALLINT``/``RETINT``, the
  final return, or in a trace that cannot shadow the window state;
  :meth:`TraceEngine.telemetry_snapshot` counts both kinds;
* a ``RET`` whose matching call was inlined earlier in the same trace
  is chained under a runtime guard (``target == call_site + 8``); a
  guard miss exits the trace *before* the RET executes, with exact
  architectural state;
* a conditional transfer keeps the trace going on the fall-through arm
  and compiles the taken arm as a *side exit*: delay slot executed,
  ``pc``/``npc`` stored, done;
* a trace visits each address at most once: a transfer back into code
  already in the trace (a loop back-edge, a recursive call) ends it,
  and the next dispatch enters the trace compiled at that address, so
  a loop body or a recursive callee is generated once, not unrolled.

Statistics are *deferred*: every static exit point of a trace is one
counter bump (``exit_hits[j] += 1``) plus a pending-cycles cell the run
loop's watchdog reads, and the full per-exit stat bundle (instructions,
cycles, per-category/per-opcode counts, taken jumps, delay slots,
calls, returns) - all statically known per exit - is reconciled into
``machine.stats`` lazily: at run-loop exit, before any single-step
fallback, and inside every trap unwind.  Register moves, operand
sums and memory addresses are constant-folded (``r0`` reads and
immediates are literals), so the common ALU instruction compiles to a
single masked - or unmasked, when provably clean - assignment.

Each trace begins and ends at reference-exact instruction boundaries,
so the admission rule is bit-identical architectural results against
:class:`~repro.cpu.engine.ReferenceEngine` on everything observable
(enforced by the all-tier differential sweep in
``tests/test_engine_equivalence.py``).  The invariants that keep it so:

* **exact watchdogs** - a trace never starts unless it could run to
  completion within the remaining ``max_steps``/``max_cycles`` budget
  (a conservative per-dispatch bound); the tail single-steps, so a run
  stops at exactly the reference's instruction;
* **exact early exits** - a mid-trace trap unwinds through
  :func:`_trace_trap_exit`, which reconciles deferred stats and replays
  the completed prefix's per-instruction counts with :func:`_credit`
  before dispatching the trap with reference ``pc``/``npc`` state;
  taken delay slots are marked statically in the trap index (traces
  duplicate slot code per arm), so ``in_delay_slot`` is exact even for
  conditional transfers;
* **exact boundary observers** - a frame op that leaves a trace
  because a ``call``/``return`` observer other than the call-trace
  recorder is attached credits the completed prefix as a trap there
  would, so the observer reads the reference's stats and ``pc``, and
  takes it back out afterwards (:func:`_observed_frame_op`);
* **write invalidation** - stores into compiled code invalidate every
  covering trace through the :class:`~repro.common.memory.Memory`
  write watch, which is one per memory and shared by every engine
  attached to it (``Memory.attach``), so a store by one core drops the
  traces of every core that cover the word; a trace that invalidates
  itself exits early with exact sequential state, and the next
  dispatch recompiles from the rewritten image;
* **shared memory** - the inline RAM paths stay out of a mapped device
  window (baked into the codegen, and mapping a device flushes
  compiled code), so device registers see every access; the trace tier
  is a legal per-core tier under :mod:`repro.multicore`;
* **stuck-at pins** - a pinned memory word shares that watch (the
  store re-applies the pin inside ``Memory``); under a pinned PSW or
  register a dispatch forces the pins and runs a trace only if its
  static PSW write mask and its register write set for the entry CWP
  miss them, and otherwise single-steps (``fallback_pinned``); a
  pinned instruction word is compiled as its fetch reads it, and
  pinning or unpinning it drops the traces that cover it;
* **rollback through the oracle path** - a checkpoint restore drops
  pending exit hits (the stats they would fold into were rewound) and
  keeps the compiled traces unless it rolled back one of their code
  words; a restore into the middle of a delay slot leaves the jump
  pending, and a pending delay slot, like a latched interrupt, an
  uncompilable entry or a watchdog tail, single-steps through an inner
  :class:`~repro.cpu.fastengine.FastEngine` (``step()`` always
  delegates); per-step observers run there too, a whole observed
  stretch at a time, and it hands a step to the reference oracle for a
  latched interrupt or a ``fetch_word`` observer;
* **no cycle outlives a run** - thunks bind the machine and its memory,
  so they exist only inside ``run_loop``; the engine holds its machine,
  and each trace its engine, by weak reference: a finished machine is
  freed by reference counting, as on every other tier.

With :attr:`TraceEngine.path` set to a list, ``run_loop`` logs which
trace each dispatch ran and how many of its steps completed; since a
trace never revisits an address, that rebuilds the PC at every step
boundary exactly, with no per-step observer (:mod:`repro.cpu.runprofile`).

``TRACE_CODEGEN_VERSION`` names the codegen scheme; bump it whenever
generated-trace semantics change so that any cache keyed on compiled
artefacts (:mod:`repro.workloads.cache`) can never serve stale traces
across revisions.
"""

from __future__ import annotations

import struct
import time
import weakref
from collections.abc import Callable
from typing import Any

from repro.common.bitops import MASK32, SIGN_BIT32
from repro.common.memory import CONSOLE_ADDRESS
from repro.cpu.fastengine import (
    FastEngine,
    _ADD_OPS,
    _COND_EXPR,
    _SUB_OPS,
    _SUM_EXPR,
)
from repro.cpu.state import (
    HALT_PC,
    _is_nop,
    _memory_trap_cause,
    _TrapSignal,
    ArchState,
    HaltReason,
    TrapCause,
)
from repro.errors import DecodingError, MemoryFaultError
from repro.isa.decode import decode
from repro.isa.formats import Instruction
from repro.isa.opcodes import Category, Opcode
from repro.isa.registers import (
    NUM_GLOBALS,
    REGS_PER_WINDOW_UNIQUE,
    VISIBLE_REGISTERS,
    physical_index,
)

#: Version of the trace codegen scheme.  Bump on ANY change to the
#: generated code's shape or semantics; caches keyed on compiled
#: artefacts include it so stale traces cannot survive a revision.
TRACE_CODEGEN_VERSION = 5

_M32 = MASK32
_SIGN = SIGN_BIT32
_TWO32 = 1 << 32

#: Longest trace (instruction count) compiled into one function.
_MAX_TRACE = 256

#: ``ix`` offset marking "trapped in a *taken* delay slot": slot code is
#: duplicated per arm, so taken-ness is known statically at each site.
_TK = 1 << 20

#: Budget slack per trace run beyond its static cycle total: one window
#: spill/refill + trap overhead, plus one spill or refill per frame op
#: (inlined or not, each charges ``TRAP_OVERHEAD_CYCLES + 32`` = 36 cycles
#: straight to ``stats.cycles``).
_CYCLE_MARGIN = 128
_FRAME_OP_MARGIN = 40

#: Opcodes that move the window pointers (CWP, SWP): the calls enter a
#: window and write their link register there, the returns leave one.
_CALL_OPS = frozenset((Opcode.CALL, Opcode.CALLR, Opcode.CALLINT))
_RET_OPS = frozenset((Opcode.RET, Opcode.RETINT))
_FRAME_OPS = _CALL_OPS | _RET_OPS

#: Visible registers a window underflow refills: LOCAL and HIGH.
_REFILLED = range(16, VISIBLE_REGISTERS)

#: PSW bits (packed layout, see repro.cpu.psw) an instruction may write:
#: the flags, the interrupt enable, the window pointers, all of them.
_PSW_FLAGS = 0x00F
_PSW_I = 0x010
_PSW_WINDOWS = 0x7E0
_PSW_ALL = 0x7FF


def _psw_writes(seq) -> int:
    """The PSW bits any instruction of a trace may write; a trap, which
    ends the dispatch, is not counted."""
    mask = 0
    for _addr, _word, inst in seq:
        op = inst.opcode
        if op is Opcode.PUTPSW:
            return _PSW_ALL
        if inst.spec.category is Category.ALU and inst.scc:
            mask |= _PSW_FLAGS
        if op in _FRAME_OPS:
            mask |= _PSW_WINDOWS
            if op is Opcode.RETINT or op is Opcode.CALLINT:
                mask |= _PSW_I
    return mask


def _reg_writes(words, cwp: int, nw: int, uw: bool) -> frozenset[int]:
    """The physical registers a trace of *words* entered at window *cwp*
    may write; a trap, which ends the dispatch, is not counted.

    Each destination maps through ``physical_index``, with the window
    moved at every frame op: a call writes its link register in the new
    window, and a return may refill the LOCAL and HIGH registers of the
    window it returns to.  ``PUTPSW`` may move the window anywhere, so
    it counts as writing every register.
    """
    out: set[int] = set()
    w = cwp
    for word in words:
        inst = decode(word)  # uncached: a trace may hold a pinned word
        op = inst.opcode
        if op is Opcode.PUTPSW:
            return frozenset(range(NUM_GLOBALS + nw * REGS_PER_WINDOW_UNIQUE))
        if op in _RET_OPS:
            if uw:
                w = (w + 1) % nw
                out.update(physical_index(w, reg, nw) for reg in _REFILLED)
            continue
        if op in _CALL_OPS:
            if uw:
                w = (w - 1) % nw
        elif inst.spec.category in (Category.STORE, Category.JUMP):
            continue
        if inst.dest:
            out.add(physical_index(w, inst.dest, nw) if uw else inst.dest)
    return frozenset(out)


#: Memory-access helpers bound as thunk default arguments, per opcode:
#: (default name, bound expression, call template).
_LOAD_BIND = {
    Opcode.LDL: ("f_ldl", "mem.load_word", "{f}(addr)"),
    Opcode.LDSU: ("f_ldsu", "mem.load_half", "{f}(addr)"),
    Opcode.LDSS: ("f_ldss", "mem.load_half", f"{{f}}(addr, signed=True) & {_M32}"),
    Opcode.LDBU: ("f_ldbu", "mem.load_byte", "{f}(addr)"),
    Opcode.LDBS: ("f_ldbs", "mem.load_byte", f"{{f}}(addr, signed=True) & {_M32}"),
}
_STORE_BIND = {
    Opcode.STL: ("f_stl", "mem.store_word"),
    Opcode.STS: ("f_sts", "mem.store_half"),
    Opcode.STB: ("f_stb", "mem.store_byte"),
}


class _Trace:
    """One compiled trace and the metadata its cold exits need."""

    __slots__ = (
        "start",
        "n",
        "addrs",
        "words",
        "meta",
        "cycles_bound",
        "psw_writes",
        "reg_writes",
        "live",
        "make",
        "thunk",
        "widx",
        "top",
        "eng",
        "exit_hits",
        "exit_recs",
        "ixs",
        "ixs_tk",
    )

    def __init__(self, start, addrs, words, meta, cycles_bound, psw_writes):
        self.start = start
        self.n = len(addrs)
        self.addrs = addrs
        #: per-instruction (category name, opcode name, cycles) replayed
        #: by :func:`_credit` on trap exits.
        self.meta = meta
        self.words = words
        self.cycles_bound = cycles_bound
        #: PSW bits the trace may write (see _psw_writes): it runs under
        #: a PSW pin only when none of them is pinned.
        self.psw_writes = psw_writes
        #: entry CWP -> the trace's register write set (see _reg_writes),
        #: built on the first dispatch under a register pin.
        self.reg_writes: dict[int, frozenset[int]] | None = None
        self.live = True
        #: the cached factory, and the thunk it built, which exists only
        #: while ``run_loop`` runs (a thunk binds the machine and memory).
        self.make: Any = None
        self.thunk: Any = None
        #: word indices this trace's code occupies, one per address
        #: (non-contiguous: traces hop across the image through chained
        #: transfers, but never revisit an address).
        self.widx = tuple(sorted(a >> 2 for a in addrs))
        #: weak reference to the owning engine (deferred-stat
        #: reconciliation on cold paths), which holds the trace.
        self.eng: Any = None
        #: per-exit-point hit counters, reconciled lazily against
        #: ``exit_recs`` (the static stat bundle of each exit).
        self.exit_hits: Any = None
        self.exit_recs: Any = None
        #: per-position (taken_jumps, delay_slots, delay_slot_nops,
        #: calls, returns) completed-prefix snapshots for trap unwinds;
        #: ``ixs_tk`` holds the taken-delay-slot variants.
        self.ixs: Any = None
        self.ixs_tk: Any = None


def _credit(m: ArchState, B: _Trace, done: int, fetches: int) -> None:
    """Replay exact per-instruction stats for the completed prefix.

    The hot path batches ``instructions``/``cycles``/``by_category``/
    ``by_opcode``/``inst_reads`` at trace exit; when a trace exits early
    after *done* completed instructions this reconciles the counters to
    what the reference engine would have accumulated step by step.
    """
    stats = m.stats
    by_cat = stats.by_category
    by_op = stats.by_opcode
    meta = B.meta
    cycles = 0
    for j in range(done):
        cat, opn, cyc = meta[j]
        by_cat[cat] += 1
        by_op[opn] += 1
        cycles += cyc
    stats.instructions += done
    stats.cycles += cycles
    m.memory.stats.inst_reads += fetches
    if done:
        m.lpc = B.addrs[done - 1]


def _credit_prefix(m: ArchState, T: _Trace, ix: int) -> int:
    """Bring ``machine.stats`` to the reference's values as instruction
    *ix* (``>= _TK``: a taken delay slot) starts executing: fold pending
    exit hits, then credit the completed prefix and the fetch of *ix*.
    Returns the trace position of *ix*."""
    eng = T.eng()
    if eng is not None:
        eng._reconcile()
    if ix >= _TK:
        ix -= _TK
        tj, ds, dn, cl, rt = T.ixs_tk[ix]
    else:
        tj, ds, dn, cl, rt = T.ixs[ix]
    _credit(m, T, ix, ix + 1)
    stats = m.stats
    stats.taken_jumps += tj
    stats.delay_slots += ds
    stats.delay_slot_nops += dn
    stats.calls += cl
    stats.returns += rt
    return ix


def _trace_trap_exit(m: ArchState, T: _Trace, ix: int, exc: Exception) -> int:
    """Cold path: instruction *ix* trapped; restore reference trap state.

    An ``ix >= _TK`` marks a taken delay slot (the transfer already
    wrote the taken ``npc``); any other index gets sequential ``npc``,
    including the slot position of an *untaken* conditional, which the
    reference does not treat as a delay slot.
    """
    in_slot = ix >= _TK
    ix = _credit_prefix(m, T, ix)
    addr = T.addrs[ix]
    m.pc = addr
    if not in_slot:
        m.npc = addr + 4
    if isinstance(exc, MemoryFaultError):
        cause = _memory_trap_cause(exc)
    else:
        cause = exc.cause
    m._trap(
        cause,
        pc=addr,
        word=T.words[ix],
        address=exc.address,
        message=str(exc),
        in_delay_slot=in_slot,
    )
    return ix + 1


_UPI = struct.Struct(">I").unpack_from
_PKI = struct.Struct(">I").pack_into

#: Slots of the engine's frame-op cell ``PL`` after its plain-observers
#: latch at 0: the spills and refills the inlined arms ran, then the
#: frame ops that left the trace, by reason (TraceEngine.telemetry_snapshot).
_PL_SPILL, _PL_REFILL = 1, 2
_PL_OUT_SPILL, _PL_OUT_REFILL, _PL_OUT_OBSERVER, _PL_OUT_OTHER = 3, 4, 5, 6


def _spill_arm(m: ArchState, c: int, PL: list) -> bool:
    """A CALL's inlined spill, window *c* entering a full file: store the
    oldest frame's unit through :meth:`ArchState._spill_plain`.  False,
    having done nothing, when the call must leave the trace (save stack
    exhausted, or its span not plain RAM or watched)."""
    if m._spill_plain((c - 2) % m.num_windows):
        PL[_PL_SPILL] += 1
        return True
    return False


def _refill_arm(m: ArchState, c: int, PL: list) -> bool:
    """A RET's inlined refill of window *c* + 1 through
    :meth:`ArchState._refill_plain`; False, having done nothing, when the
    return must leave the trace (save stack empty or not plain RAM)."""
    if m._refill_plain((c + 1) % m.num_windows):
        PL[_PL_REFILL] += 1
        return True
    return False


_STAT_FIELDS = (
    "instructions", "cycles", "taken_jumps", "delay_slots",
    "delay_slot_nops", "calls", "returns",
)


def _observed_frame_op(
    m: ArchState, T: _Trace, ix: int, frame_op: Callable[[], None]
) -> None:
    """Run *frame_op* so that its ``call``/``return`` observers see the
    reference's stats and ``pc``/``npc`` at instruction *ix*, then take
    the credited prefix back out: the trace's exit (or a trap unwind)
    credits it again."""
    stats = m.stats
    mem_stats = m.memory.stats
    eng = T.eng()
    if eng is not None:
        eng._reconcile()
    before = [getattr(stats, name) for name in _STAT_FIELDS]
    reads = mem_stats.inst_reads
    by_cat, by_op = dict(stats.by_category), dict(stats.by_opcode)
    pc, npc = m.pc, m.npc
    m.pc = T.addrs[_credit_prefix(m, T, ix)]
    if ix < _TK:  # a taken slot's npc is already the transfer's target
        m.npc = m.pc + 4
    credited = [
        getattr(stats, name) - value for name, value in zip(_STAT_FIELDS, before)
    ]
    reads = mem_stats.inst_reads - reads
    try:
        frame_op()
    finally:
        # Subtract what was credited: a spill or refill adds its own
        # cycles.  A frame op retires no instruction, so the per-kind
        # counts go back as they were.
        for name, delta in zip(_STAT_FIELDS, credited):
            setattr(stats, name, getattr(stats, name) - delta)
        mem_stats.inst_reads -= reads
        stats.by_category.clear()
        stats.by_category.update(by_cat)
        stats.by_opcode.clear()
        stats.by_opcode.update(by_op)
        m.pc, m.npc = pc, npc


def _enter_out(m: ArchState, PL: list, T: _Trace, ix: int) -> None:
    """A CALL that leaves the trace: count why, then ``_enter_frame``."""
    if not PL[0]:
        PL[_PL_OUT_OBSERVER] += 1
        _observed_frame_op(m, T, ix, m._enter_frame)
        return
    if m.use_windows and m.resident_windows == m.num_windows - 1:
        PL[_PL_OUT_SPILL] += 1
    else:
        PL[_PL_OUT_OTHER] += 1
    m._enter_frame()


def _exit_out(m: ArchState, PL: list, T: _Trace, ix: int) -> None:
    """A RET that leaves the trace: count why, then ``_exit_frame``."""
    if not PL[0]:
        PL[_PL_OUT_OBSERVER] += 1
        _observed_frame_op(m, T, ix, m._exit_frame)
        return
    if m.use_windows and m.call_depth > 1 and m.resident_windows == 1:
        PL[_PL_OUT_REFILL] += 1
    else:
        PL[_PL_OUT_OTHER] += 1
    m._exit_frame()


_TRACE_GLOBALS = {
    "_UPI": _UPI,
    "_PKI": _PKI,
    "_TrapSignal": _TrapSignal,
    "_OVF": TrapCause.ARITHMETIC_OVERFLOW,
    "_RETURNED": HaltReason.RETURNED,
    "_EXPLICIT": HaltReason.EXPLICIT,
    "_MemFault": MemoryFaultError,
    "_te": _trace_trap_exit,
    "_SP": _spill_arm,
    "_RF": _refill_arm,
    "_FE": _enter_out,
    "_FX": _exit_out,
}


class _TraceIR:
    """Scanner output: the linear instruction sequence plus codegen events.

    ``seq`` is the trace in *execution* order (addresses need not be
    contiguous or monotonic).  ``events`` drive codegen:

    * ``("straight", i)`` - plain instruction (also the "slot" of a
      never-taken conditional, which the reference executes normally);
    * ``("never", i)`` - a conditional transfer whose condition is
      statically false: stats only, no state change;
    * ``("cond", i, target)`` - conditional transfer; fall-through arm
      continues the trace, taken arm side-exits after running the slot
      ``seq[i+1]``.  ``target`` is the static target or ``None`` when
      register-relative (computed at runtime on the taken arm);
    * ``("jump", i, target)`` - always-taken static transfer, chained;
    * ``("call", i, target)`` - ``CALLR``, frame ops inlined, chained;
    * ``("ret", i, target)`` - ``RET`` whose matching call was inlined;
      guarded at runtime, frame ops inlined, chained;
    * ``("term", i)`` - trace-final transfer (dynamic target), compiled
      as a terminator that stores the computed ``pc``/``npc`` and exits;
    * ``("end", next_pc)`` - sequential or chain end of the trace.
    """

    __slots__ = ("seq", "events")

    def __init__(self, seq, events):
        self.seq = seq
        self.events = events


def _scan_trace(m: ArchState, pc: int) -> _TraceIR | None:
    """Build the trace IR starting at *pc* (None when *pc* is BAD).

    Each word is read as a fetch reads it, through the fetch pins; a
    word a pin changed is decoded bypassing the decode cache.
    """
    mem = m.memory
    size = mem.size
    buf = mem._bytes
    cached = m.decoder.decode
    pins = m.fetch_pins

    def fetch(address: int) -> tuple[int, Instruction]:
        word = int.from_bytes(buf[address : address + 4], "big")
        if pins:
            forced = m._fetch_pinned(address, word)
            if forced != word:
                return forced, m.decoder.decode_uncached(forced)
        return word, cached(word)

    halt_addr = m.halt_address
    seq: list[tuple[int, int, Instruction]] = []
    events: list[tuple] = []
    seen: set[int] = set()
    call_stack: list[int] = []
    addr = pc
    while True:
        if (
            len(seq) >= _MAX_TRACE
            or (seq and addr == halt_addr)
            or addr in seen
            or addr & 3
            or addr < 0
            or addr + 4 > size
        ):
            if seq:
                events.append(("end", addr))
            break
        try:
            word, inst = fetch(addr)
        except DecodingError:
            if seq:
                events.append(("end", addr))
            break  # single-stepping raises the illegal-instruction trap
        if not inst.spec.is_delayed:
            i = len(seq)
            seq.append((addr, word, inst))
            seen.add(addr)
            events.append(("straight", i))
            if inst.opcode is Opcode.CALLINT:
                events.append(("end", addr + 4))
                break  # window moved without a jump; keep shapes simple
            addr += 4
            continue
        op = inst.opcode
        if op in (Opcode.JMP, Opcode.JMPR) and _COND_EXPR[inst.cond] == "False":
            # Never taken: the "slot" is an ordinary next instruction.
            i = len(seq)
            seq.append((addr, word, inst))
            seen.add(addr)
            events.append(("never", i))
            addr += 4
            continue
        saddr = addr + 4
        # Leave exotic slots (unfetchable, undecodable, another
        # transfer, CALLINT, the halt address) to single-stepping, and a
        # slot already in the trace to the next dispatch: end the trace
        # just before the transfer.
        if saddr + 4 > size or saddr == halt_addr or saddr in seen:
            if seq:
                events.append(("end", addr))
            break
        try:
            sword, sinst = fetch(saddr)
        except DecodingError:
            if seq:
                events.append(("end", addr))
            break
        if sinst.spec.is_delayed or sinst.opcode is Opcode.CALLINT:
            if seq:
                events.append(("end", addr))
            break
        i = len(seq)
        seq.append((addr, word, inst))
        seq.append((saddr, sword, sinst))
        seen.add(addr)
        seen.add(saddr)
        if op is Opcode.JMPR:
            target = (addr + inst.imm19) & _M32
            if _COND_EXPR[inst.cond] == "True":
                events.append(("jump", i, target))
                addr = target
            else:
                events.append(("cond", i, target))
                addr += 8
            continue
        if op is Opcode.JMP:
            if _COND_EXPR[inst.cond] == "True":
                events.append(("term", i))  # dynamic target ends the trace
                break
            events.append(("cond", i, None))
            addr += 8
            continue
        if op is Opcode.CALLR:
            target = (addr + inst.imm19) & _M32
            events.append(("call", i, target))
            call_stack.append(addr + 8)
            addr = target
            continue
        if op is Opcode.RET and call_stack:
            ret_to = call_stack.pop()
            events.append(("ret", i, ret_to))
            addr = ret_to
            continue
        # CALL (register target), unguarded RET, RETINT: trace-final.
        events.append(("term", i))
        break
    if not seq:
        return None
    return _TraceIR(seq, events)


def _hoist_lines(nw: int) -> list[str]:
    """Window base indices, hoisted once per trace (and re-hoisted after
    anything that can move ``psw.cwp``: frame ops and PUTPSW)."""
    if nw == 8:
        return ["w = psw.cwp << 4", "wh = ((psw.cwp + 1) & 7) << 4"]
    return [
        f"w = (psw.cwp % {nw}) << 4",
        f"wh = ((psw.cwp + 1) % {nw}) << 4",
    ]


def _bidx(reg: int, uw: bool) -> str:
    """Physical-index expression over the hoisted ``w``/``wh`` locals."""
    if not uw or reg < 10:
        return str(reg)
    if reg < 26:  # LOW+LOCAL: 16*w + reg
        return f"w + {reg}"
    return f"wh + {reg - 16}"  # HIGH: caller's LOW


def _bread(reg: int, uw: bool) -> str:
    if reg == 0:
        return "0"
    return f"R[{_bidx(reg, uw)}]"


def _codegen_trace(
    ir: _TraceIR,
    nw: int,
    uw: bool,
    halt_addr: int | None,
    mem_size: int,
    has_recorder: bool,
    top: bool,
    io: tuple[int, int] | None,
) -> tuple[str, tuple, tuple, dict]:
    """Emit ``make(m, T, PL, CY) -> thunk`` plus the static exit metadata.

    Returns ``(source, exit_recs, ixs, ixs_tk)``: the per-exit stat
    bundles reconciled lazily by the engine, and the per-position
    completed-prefix transfer counters used by the trap unwind.  The
    thunk returns the number of steps consumed.  ``PL`` is the engine's
    one-cell "plain observers" latch licensing the frame-op fast paths;
    ``CY`` is the engine's pending-deferred-cycles cell (the run loop's
    watchdog adds it to ``stats.cycles``).

    *top* bakes ``machine.trap_on_overflow`` into the generated code:
    with trapping off (the default) a non-flag-setting ADD compiles to
    one statement; the run loop drops a trace whose baked value goes
    stale.  *io* is the memory's device window ``(base, limit)``, or
    None: the inline RAM paths stay out of it (mapping a device flushes
    compiled code).
    """
    seq = ir.seq
    events = ir.events
    n = len(seq)
    lines: list[str] = []
    defaults: dict[str, str] = {}
    emit = lines.append

    # Running per-prefix stat totals, copied into each exit's record.
    pref_cycles = [0]
    pref_cats: list[dict[str, int]] = [{}]
    pref_ops: list[dict[str, int]] = [{}]
    acc_cy = 0
    acc_cat: dict[str, int] = {}
    acc_op: dict[str, int] = {}
    for _addr, _word, inst in seq:
        acc_cy += inst.spec.cycles
        acc_cat[inst.spec.category.name] = acc_cat.get(inst.spec.category.name, 0) + 1
        acc_op[inst.opcode.name] = acc_op.get(inst.opcode.name, 0) + 1
        pref_cycles.append(acc_cy)
        pref_cats.append(dict(acc_cat))
        pref_ops.append(dict(acc_op))

    # Transfer counters (taken_jumps, delay_slots, delay_slot_nops,
    # calls, returns) along the fall-through path, snapshotted per
    # position for the trap unwind and per exit for reconciliation.
    path = [0, 0, 0, 0, 0]
    ixs: list[tuple] = [(0, 0, 0, 0, 0)] * n
    ixs_tk: dict[int, tuple] = {}
    exit_recs: list[tuple] = []

    def snap() -> tuple:
        return tuple(path)

    def taken_counters(i_slot: int, *, calls: int = 0, rets: int = 0) -> tuple:
        """Path counters once the transfer at ``i_slot - 1`` is taken and
        its delay slot has started executing (reference order: the slot
        counts ``delay_slots`` before it can trap)."""
        return (
            path[0] + 1,
            path[1] + 1,
            path[2] + (1 if _is_nop(seq[i_slot][2]) else 0),
            path[3] + calls,
            path[4] + rets,
        )

    # Frame-state shadowing: traces with inlined frame ops keep
    # ``cwp``/``call_depth``/``resident_windows`` in locals and write
    # them back at every exit (plus derived ``swp``), before any slow
    # path, and in the trap handler.  Disabled when the trace contains
    # an instruction that reads or writes the packed PSW directly.
    uses_pl = False
    for ev in events:
        k = ev[0]
        if k in ("call", "ret"):
            uses_pl = True
        elif k == "term" and seq[ev[1]][2].opcode in (Opcode.CALL, Opcode.RET):
            uses_pl = True
    shadow = (
        uses_pl
        and uw
        and not any(
            item[2].opcode
            in (Opcode.PUTPSW, Opcode.GETPSW, Opcode.CALLINT, Opcode.RETINT)
            for item in seq
        )
    )
    _nw_mask = nw - 1 if nw & (nw - 1) == 0 else None

    def wr(expr: str) -> str:
        """``(expr) % nw``, as a mask when nw is a power of two."""
        if _nw_mask is not None:
            return f"({expr}) & {_nw_mask}"
        return f"({expr}) % {nw}"

    #: statically: has a frame op completed on the path being emitted?
    #: Before the first one, the shadow locals equal the machine state
    #: and ``psw.swp`` may hold an underivable (PUTPSW-set) value, so
    #: writebacks are skipped.
    fstate = [False]

    def frame_writeback(indent: str) -> None:
        emit(f"{indent}m.call_depth = d")
        emit(f"{indent}m.resident_windows = rw")
        emit(f"{indent}psw.cwp = c")
        emit(f"{indent}psw.swp = {wr('c + rw - 1')}")

    def emit_exit(done: int, counters: tuple, indent: str) -> None:
        """One static exit point: a hit-counter bump plus pending cycles;
        everything else lives in the exit record."""
        if shadow and fstate[0]:
            frame_writeback(indent)
        j = len(exit_recs)
        exit_recs.append(
            (
                done,
                pref_cycles[done],
                tuple(sorted(pref_cats[done].items())),
                tuple(sorted(pref_ops[done].items())),
            )
            + counters
        )
        emit(f"{indent}eh[{j}] += 1")
        emit(f"{indent}cy[0] += {pref_cycles[done]}")
        emit(f"{indent}m.lpc = {seq[done - 1][0]}")

    def halt_check_static(target: int, indent: str) -> None:
        if target == HALT_PC:
            emit(f"{indent}m._set_halted(_RETURNED)")
        elif halt_addr is not None and target == halt_addr:
            emit(f"{indent}m._set_halted(_EXPLICIT)")

    def halt_check_runtime(indent: str) -> None:
        emit(f"{indent}if tg == {HALT_PC}:")
        emit(f"{indent}    m._set_halted(_RETURNED)")
        if halt_addr is not None:
            emit(f"{indent}elif tg == {halt_addr}:")
            emit(f"{indent}    m._set_halted(_EXPLICIT)")

    def operand_exprs(inst: Instruction) -> tuple[str, str]:
        """The rs1 / s2 operands as inline expressions (no locals).

        ``r0`` reads fold to the literal ``"0"``; immediates are decimal
        literals; anything else is a masked register read."""
        A = _bread(inst.rs1, uw)
        if inst.imm:
            B = str(inst.s2 & _M32)
        else:
            B = _bread(inst.s2 & 0x1F, uw)
        return A, B

    def fold_add(A: str, B: str) -> str:
        """``(A + B) & M32`` with literal folding.  Register reads are
        already 32-bit clean, so a zero operand drops the mask too."""
        if A == "0":
            if B.isdigit():
                return str(int(B) & _M32)
            return B
        if B == "0":
            return A
        return f"({A} + {B}) & {_M32}"

    def fold_sub(A: str, B: str) -> str:
        """``(A - B) & M32`` with literal folding."""
        if B == "0":
            if A.isdigit():
                return str(int(A) & _M32)
            return A
        if A == "0" and B.isdigit():
            return str(-int(B) & _M32)
        return f"({A} - {B}) & {_M32}"

    def logic_expr(op: Opcode, A: str, B: str, sh: str) -> str | None:
        """Folded value expression for the logic/shift group (None for
        the SRA two-line form)."""
        if op is Opcode.AND:
            if A == "0" or B == "0":
                return "0"
            return f"{A} & {B}"
        if op is Opcode.OR:
            if A == "0":
                return B
            if B == "0":
                return A
            return f"{A} | {B}"
        if op is Opcode.XOR:
            if A == "0":
                return B
            if B == "0":
                return A
            return f"{A} ^ {B}"
        if op is Opcode.SLL:
            if A == "0":
                return "0"
            if sh == "0":
                return A
            return f"({A} << {sh}) & {_M32}"
        if op is Opcode.SRL:
            if A == "0":
                return "0"
            if sh == "0":
                return A
            return f"{A} >> {sh}"
        # SRA: sign-propagating; zero cases fold, the rest needs a local.
        if A == "0":
            return "0"
        if sh == "0":
            return A
        return None

    def read_ab(inst: Instruction, indent: str = "") -> None:
        A, B = operand_exprs(inst)
        emit(f"{indent}a = {A}")
        emit(f"{indent}b = {B}")

    def write_dest(inst: Instruction, expr: str, indent: str = "") -> None:
        if inst.dest != 0:
            emit(f"{indent}R[{_bidx(inst.dest, uw)}] = {expr}")

    def emit_flags(carry: str, ovf: str, indent: str) -> None:
        emit(f"{indent}psw.z = value == 0")
        emit(f"{indent}psw.n = (value & {_SIGN}) != 0")
        emit(f"{indent}psw.c = {carry}")
        emit(f"{indent}psw.v = ({ovf}) != 0")

    #: inline sum expression over the raw operand expressions A/B.
    _SUM_INLINE = {
        Opcode.ADD: "{A} + {B}",
        Opcode.ADDC: "{A} + {B} + psw.c",
        Opcode.SUB: "{A} - {B}",
        Opcode.SUBC: "{A} - {B} - psw.c",
        Opcode.SUBR: "{B} - {A}",
        Opcode.SUBCR: "{B} - {A} - psw.c",
    }

    def slot_can_trap(inst: Instruction) -> str | None:
        """None, "always" (memory op) or "overflow" (ALU sum op)."""
        cat = inst.spec.category
        if cat in (Category.LOAD, Category.STORE):
            return "always"
        if top and cat is Category.ALU and inst.opcode in _SUM_EXPR:
            return "overflow"
        return None

    def static_addr_ok(addr: int, width: int) -> bool:
        return (
            0 <= addr
            and addr + width <= mem_size
            and addr % width == 0
            and addr != CONSOLE_ADDRESS
            and (io is None or addr + width <= io[0] or addr >= io[1])
        )

    def ram_guard(width: int) -> str:
        """The inline path's test that ``addr`` is plain RAM."""
        if width == 4:
            guard = (
                f"addr < {mem_size - 3} and not addr & 3 "
                f"and addr != {CONSOLE_ADDRESS}"
            )
        else:
            guard = f"addr < {mem_size} and addr != {CONSOLE_ADDRESS}"
        if io is not None:
            guard += f" and not {io[0]} <= addr < {io[1]}"
        return guard

    def emit_inst(
        i: int,
        *,
        ixv: int,
        live_next: int | None,
        counters: tuple | None,
        indent: str = "",
        last: bool = False,
    ) -> None:
        """One non-transfer instruction (body or duplicated slot).

        *ixv* is the trap-index literal (``i`` or ``i + _TK`` in a taken
        slot); *live_next* is the next pc for the post-store
        invalidation check (None suppresses the check) and *counters*
        the transfer counters that exit reports; *last* is true when no
        further trace code follows this instruction on this arm.
        """
        addr, _word, inst = seq[i]
        op = inst.opcode
        cat = inst.spec.category
        if cat is Category.ALU:
            A, B = operand_exprs(inst)
            if op in _SUM_EXPR:
                if not top and not inst.scc:
                    # One statement; a write to r0 is architecturally
                    # inert (stats are deferred), so emit nothing at all.
                    if op is Opcode.ADD:
                        expr = fold_add(A, B)
                    elif op is Opcode.SUB:
                        expr = fold_sub(A, B)
                    elif op is Opcode.SUBR:
                        expr = fold_sub(B, A)
                    else:  # carry-using: rare, no folding
                        expr = f"({_SUM_INLINE[op].format(A=A, B=B)}) & {_M32}"
                    write_dest(inst, expr, indent)
                    return
                if op in _ADD_OPS:
                    carry = f"s > {_M32}"
                    ovf = f"(~(a ^ b) & (a ^ value)) & {_SIGN}"
                elif op in _SUB_OPS:
                    carry = "s < 0"
                    ovf = f"((a ^ b) & (a ^ value)) & {_SIGN}"
                else:  # reversed subtract: sub32(b, a)
                    carry = "s < 0"
                    ovf = f"((a ^ b) & (b ^ value)) & {_SIGN}"
                read_ab(inst, indent)
                emit(f"{indent}s = {_SUM_EXPR[op]}")
                emit(f"{indent}value = s & {_M32}")
                if top:
                    emit(f"{indent}if {ovf}:")
                    emit(f"{indent}    ix = {ixv}")
                    emit(
                        f'{indent}    raise _TrapSignal(_OVF, "signed overflow in {op.name}")'
                    )
                write_dest(inst, "value", indent)
                if inst.scc:
                    emit_flags(carry, ovf, indent)
            else:
                sh = str(inst.s2 & 31) if inst.imm else f"({B} & 31)"
                expr = logic_expr(op, A, B, sh)
                if not inst.scc:
                    if expr is not None:
                        write_dest(inst, expr, indent)
                    else:  # SRA general form
                        emit(f"{indent}a = {A}")
                        write_dest(
                            inst,
                            f"((a - {_TWO32}) >> {sh}) & {_M32} "
                            f"if a & {_SIGN} else a >> {sh}",
                            indent,
                        )
                    return
                if expr is not None:
                    emit(f"{indent}value = {expr}")
                else:  # SRA general form
                    emit(f"{indent}a = {A}")
                    emit(
                        f"{indent}value = ((a - {_TWO32}) >> {sh}) & {_M32} "
                        f"if a & {_SIGN} else a >> {sh}"
                    )
                write_dest(inst, "value", indent)
                emit_flags("False", "False", indent)
        elif cat is Category.LOAD:
            A, B = operand_exprs(inst)
            aexpr = fold_add(A, B)
            static = aexpr.isdigit()
            fname, bound, tmpl = _LOAD_BIND[op]
            defaults[fname] = bound
            if op is Opcode.LDL and static and static_addr_ok(int(aexpr), 4):
                # Compile-time-proven fast path: cannot trap.
                defaults["up"] = "_UPI"
                emit(f"{indent}mem_stats.data_reads += 1")
                write_dest(inst, f"up(buf, {aexpr})[0]", indent)
                return
            if op is Opcode.LDBU and static and static_addr_ok(int(aexpr), 1):
                emit(f"{indent}mem_stats.data_reads += 1")
                write_dest(inst, f"buf[{aexpr}]", indent)
                return
            emit(f"{indent}ix = {ixv}")
            if static:
                emit(f"{indent}value = {tmpl.format(f=fname).replace('addr', aexpr)}")
            elif op is Opcode.LDL:
                # Inline fast path: aligned, in range, not a device.
                defaults["up"] = "_UPI"
                emit(f"{indent}addr = {aexpr}")
                emit(f"{indent}if {ram_guard(4)}:")
                emit(f"{indent}    mem_stats.data_reads += 1")
                emit(f"{indent}    value = up(buf, addr)[0]")
                emit(f"{indent}else:")
                emit(f"{indent}    value = {tmpl.format(f=fname)}")
            elif op is Opcode.LDBU:
                emit(f"{indent}addr = {aexpr}")
                emit(f"{indent}if {ram_guard(1)}:")
                emit(f"{indent}    mem_stats.data_reads += 1")
                emit(f"{indent}    value = buf[addr]")
                emit(f"{indent}else:")
                emit(f"{indent}    value = {tmpl.format(f=fname)}")
            else:
                emit(f"{indent}addr = {aexpr}")
                emit(f"{indent}value = {tmpl.format(f=fname)}")
            write_dest(inst, "value", indent)
        elif cat is Category.STORE:
            A, B = operand_exprs(inst)
            aexpr = fold_add(A, B)
            static = aexpr.isdigit()
            val = _bread(inst.dest, uw)
            fname, bound = _STORE_BIND[op]
            defaults[fname] = bound
            if op is Opcode.STL:
                # Inline fast path mirroring Memory.store_word: aligned,
                # in range, not a device; journal and code-watch checks
                # preserved (registers are already 32-bit clean).  Bound
                # at make() time, after the run loop has attached this
                # engine to the memory: ``cw`` IS the memory's shared
                # write watch (mutated in place, never replaced), which
                # holds every core's code words and the pinned words.
                defaults["jt"] = "mem._journal_touch"
                defaults["cw"] = "mem._exec_watch"
                defaults["inv"] = "mem._watch_hit"
                defaults["pk"] = "_PKI"
                if static and static_addr_ok(int(aexpr), 4):
                    sa = int(aexpr)
                    emit(f"{indent}mem_stats.data_writes += 1")
                    emit(f"{indent}if mem._journal is not None:")
                    emit(f"{indent}    jt({sa})")
                    emit(f"{indent}pk(buf, {sa}, {val})")
                    emit(f"{indent}if {sa >> 2} in cw:")
                    emit(f"{indent}    inv({sa})")
                elif static:
                    emit(f"{indent}ix = {ixv}")
                    emit(f"{indent}{fname}({aexpr}, {val})")
                else:
                    emit(f"{indent}addr = {aexpr}")
                    emit(f"{indent}ix = {ixv}")
                    emit(f"{indent}if {ram_guard(4)}:")
                    emit(f"{indent}    mem_stats.data_writes += 1")
                    emit(f"{indent}    if mem._journal is not None:")
                    emit(f"{indent}        jt(addr)")
                    emit(f"{indent}    pk(buf, addr, {val})")
                    emit(f"{indent}    if addr >> 2 in cw:")
                    emit(f"{indent}        inv(addr)")
                    emit(f"{indent}else:")
                    emit(f"{indent}    {fname}(addr, {val})")
            else:
                emit(f"{indent}ix = {ixv}")
                emit(f"{indent}{fname}({aexpr}, {val})")
            if live_next is not None and not last:
                # The store may have rewritten this very trace.
                emit(f"{indent}if not T.live:")
                emit_exit(i + 1, counters, indent + "    ")
                emit(f"{indent}    m.pc = {live_next}")
                emit(f"{indent}    m.npc = {live_next + 4}")
                emit(f"{indent}    return {i + 1}")
        elif op is Opcode.LDHI:
            write_dest(inst, str((inst.imm19 << 13) & _M32), indent)
        elif op is Opcode.GTLPC:
            if i > 0:  # lpc is batched; expose the reference value
                emit(f"{indent}m.lpc = {seq[i - 1][0]}")
            write_dest(inst, f"m.lpc & {_M32}", indent)
        elif op is Opcode.GETPSW:
            write_dest(inst, "psw.pack()", indent)
        elif op is Opcode.PUTPSW:
            read_ab(inst, indent)
            emit(f"{indent}psw.unpack((a + b) & {_M32})")
            if uw and not last:  # cwp may have moved
                for line in _hoist_lines(nw):
                    emit(indent + line)
        else:  # CALLINT: new window, no jump; always ends the trace
            assert op is Opcode.CALLINT
            if i > 0:
                emit(f"{indent}m.lpc = {seq[i - 1][0]}")
            emit(f"{indent}ix = {ixv}")
            defaults["fe"] = "_FE"
            emit(f"{indent}fe(m, PL, T, ix)")
            if uw:
                for line in _hoist_lines(nw):
                    emit(indent + line)
            write_dest(inst, f"m.lpc & {_M32}", indent)

    def shadow_slow(call: str, indent: str) -> None:
        """A shadowed frame op's slow path: sync the machine's frame state
        (once a frame op has completed), *call*, reload the shadow locals;
        then, after either arm, the window bases."""
        emit(f"{indent}else:")
        if fstate[0]:
            frame_writeback(indent + "    ")
        emit(f"{indent}    {call}")
        emit(f"{indent}    c = psw.cwp")
        emit(f"{indent}    d = m.call_depth")
        emit(f"{indent}    rw = m.resident_windows")
        if not fstate[0]:
            # a frame op has now completed: derived swp is live
            emit(f"{indent}fd = True")
            fstate[0] = True
        emit(f"{indent}w = c << 4")
        emit(f"{indent}wh = ({wr('c + 1')}) << 4")

    def emit_enter_fast(indent: str) -> None:
        """Inlined ``_enter_frame``: no spill, or a spill through the
        ``sp`` arm, under plain observers; anything else leaves."""
        defaults["fe"] = "_FE"
        if shadow:
            defaults["sp"] = "_SP"
            # Shadow locals: mutate c/d/rw only; the machine state is
            # synced at exits, before the slow path, and in the trap
            # handler.  After either arm, c is current, so the window
            # bases are recomputed here (no external re-hoist).
            emit(f"{indent}if pl and (rw != {nw - 1} or sp(m, c, PL)):")
            emit(f"{indent}    d += 1")
            emit(f"{indent}    if d > stats.max_call_depth:")
            emit(f"{indent}        stats.max_call_depth = d")
            emit(f"{indent}    if rw != {nw - 1}:")
            emit(f"{indent}        rw += 1")
            emit(f"{indent}    c = {wr('c - 1')}")
            if has_recorder:
                emit(f"{indent}    ct(1)")
            shadow_slow("fe(m, PL, T, ix)", indent)
            return
        if uw:
            emit(f"{indent}if pl and m.resident_windows != {nw - 1}:")
        else:
            emit(f"{indent}if pl:")
        emit(f"{indent}    d = m.call_depth + 1")
        emit(f"{indent}    m.call_depth = d")
        emit(f"{indent}    if d > stats.max_call_depth:")
        emit(f"{indent}        stats.max_call_depth = d")
        if uw:
            emit(f"{indent}    rw = m.resident_windows + 1")
            emit(f"{indent}    m.resident_windows = rw")
            emit(f"{indent}    c = (psw.cwp - 1) % {nw}")
            emit(f"{indent}    psw.cwp = c")
            emit(f"{indent}    psw.swp = (c + rw - 1) % {nw}")
        if has_recorder:
            emit(f"{indent}    ct(1)")
        emit(f"{indent}else:")
        emit(f"{indent}    fe(m, PL, T, ix)")

    def emit_exit_fast(indent: str) -> None:
        """Inlined ``_exit_frame``: no refill, or a refill through the
        ``rf`` arm, under plain observers; anything else leaves."""
        defaults["fx"] = "_FX"
        if shadow:
            defaults["rf"] = "_RF"
            emit(f"{indent}if pl and d > 1 and (rw != 1 or rf(m, c, PL)):")
            emit(f"{indent}    d -= 1")
            emit(f"{indent}    if rw != 1:")
            emit(f"{indent}        rw -= 1")
            emit(f"{indent}    c = {wr('c + 1')}")
            if has_recorder:
                emit(f"{indent}    ct(-1)")
            shadow_slow("fx(m, PL, T, ix)", indent)
            return
        if uw:
            emit(
                f"{indent}if pl and m.call_depth > 1 "
                f"and m.resident_windows != 1:"
            )
            emit(f"{indent}    m.call_depth -= 1")
            emit(f"{indent}    rw = m.resident_windows - 1")
            emit(f"{indent}    m.resident_windows = rw")
            emit(f"{indent}    c = (psw.cwp + 1) % {nw}")
            emit(f"{indent}    psw.cwp = c")
            emit(f"{indent}    psw.swp = (c + rw - 1) % {nw}")
        else:
            emit(f"{indent}if pl and m.call_depth > 0:")
            emit(f"{indent}    m.call_depth -= 1")
        if has_recorder:
            emit(f"{indent}    ct(-1)")
        emit(f"{indent}else:")
        emit(f"{indent}    fx(m, PL, T, ix)")

    def emit_slot(
        i: int, *, taken: bool, target_expr: str | None,
        live_next: int | None, counters: tuple | None,
        indent: str = "", last: bool = False,
    ) -> None:
        """A delay slot on one arm; *target_expr* is the taken npc.

        On a taken arm, ``m.npc`` must hold the target before any slot
        instruction that can trap (the reference traps with the taken
        ``npc`` latched); untaken arms need nothing (the trap handler
        restores sequential ``npc``).
        """
        _addr, _word, inst = seq[i]
        if taken:
            trap = slot_can_trap(inst)
            if trap is not None:  # memory op, or sum op with top baked
                emit(f"{indent}m.npc = {target_expr}")
            emit_inst(
                i, ixv=i + _TK, live_next=live_next, counters=counters,
                indent=indent, last=last,
            )
        else:
            emit_inst(
                i, ixv=i, live_next=live_next, counters=counters,
                indent=indent, last=last,
            )

    def next_addr(si: int, ev_ix: int) -> int | None:
        """The pc following seq position *si* (for store live checks)."""
        if si + 1 < n:
            return seq[si + 1][0]
        nxt_ev = events[ev_ix + 1]
        return nxt_ev[1] if nxt_ev[0] == "end" else None

    # -- walk the events ------------------------------------------------
    if uses_pl:
        emit("pl = PL[0]")
    if shadow:
        emit("c = psw.cwp")
        emit("d = m.call_depth")
        emit("rw = m.resident_windows")
        emit("fd = False")
        emit("w = c << 4")
        emit(f"wh = ({wr('c + 1')}) << 4")
    elif uw:
        lines.extend(_hoist_lines(nw))

    for ev_ix, event in enumerate(events):
        kind = event[0]
        if kind == "straight":
            i = event[1]
            ixs[i] = snap()
            emit_inst(
                i, ixv=i, live_next=next_addr(i, ev_ix), counters=snap(),
                last=i == n - 1,
            )
            if seq[i][2].opcode is Opcode.CALLINT:
                path[3] += 1
        elif kind == "never":
            ixs[event[1]] = snap()
            # stats are deferred; an untaken transfer does nothing
        elif kind == "cond":
            i, target = event[1], event[2]
            si = i + 1
            ixs[i] = snap()
            _addr, _word, inst = seq[i]
            cexpr = _COND_EXPR[inst.cond]
            tkc = taken_counters(si)
            ixs_tk[si] = tkc
            emit(f"if {cexpr}:")
            if target is None:
                # JMP: register-relative target, read only when taken
                # (the reference skips the register reads otherwise) and
                # before the slot runs (it may clobber the registers).
                A, B = operand_exprs(inst)
                emit(f"    tg = {fold_add(A, B)}")
                texpr, tnext = "tg", None
            else:
                texpr, tnext = str(target), target
            emit_slot(si, taken=True, target_expr=texpr, live_next=None,
                      counters=None, indent="    ", last=True)
            emit_exit(si + 1, tkc, "    ")
            emit(f"    m.pc = {texpr}")
            if target is None:
                emit("    m.npc = tg + 4")
                halt_check_runtime("    ")
            else:
                emit(f"    m.npc = {tnext + 4}")
                halt_check_static(tnext, "    ")
            emit(f"    return {si + 1}")
            # Fall-through arm: the slot is an ordinary instruction.
            ixs[si] = snap()
            emit_slot(si, taken=False, target_expr=None,
                      live_next=next_addr(si, ev_ix), counters=snap(),
                      last=si == n - 1)
        elif kind == "jump":
            i, target = event[1], event[2]
            si = i + 1
            ixs[i] = snap()
            tkc = taken_counters(si)
            ixs_tk[si] = tkc
            emit_slot(si, taken=True, target_expr=str(target),
                      live_next=next_addr(si, ev_ix), counters=tkc,
                      last=si == n - 1)
            path[:] = tkc
        elif kind == "call":
            i, target = event[1], event[2]
            si = i + 1
            addr, _word, inst = seq[i]
            ixs[i] = snap()
            pendc = (path[0] + 1, path[1], path[2], path[3] + 1, path[4])
            tkc = taken_counters(si, calls=1)
            ixs_tk[si] = tkc
            emit(f"ix = {i}")
            emit_enter_fast("")
            if uw and not shadow:
                lines.extend(_hoist_lines(nw))  # linkage + slot: NEW window
            write_dest(inst, str(addr))  # return linkage
            # The slow path's spill may have rewritten the delay slot;
            # re-enter by single-stepping with the jump latched if so.
            emit("if not T.live:")
            emit(f"    m.npc = {target}")
            emit_exit(si, pendc, "    ")
            emit(f"    m.pc = {seq[si][0]}")
            emit("    m._pending_jump = True")
            emit(f"    return {si}")
            emit_slot(si, taken=True, target_expr=str(target),
                      live_next=next_addr(si, ev_ix), counters=tkc,
                      last=si == n - 1)
            path[:] = tkc
        elif kind == "ret":
            i, ret_to = event[1], event[2]
            si = i + 1
            addr, _word, inst = seq[i]
            ixs[i] = snap()
            A, B = operand_exprs(inst)  # target read in the OLD window
            emit(f"tg = {fold_add(A, B)}")
            emit(f"if tg != {ret_to}:")
            # Guard miss: exit BEFORE the RET executes (exact boundary).
            emit_exit(i, snap(), "    ")
            emit(f"    m.pc = {addr}")
            emit(f"    m.npc = {addr + 4}")
            emit(f"    return {i}")
            tkc = taken_counters(si, rets=1)
            ixs_tk[si] = tkc
            emit(f"ix = {i}")
            emit_exit_fast("")
            if uw and not shadow:
                lines.extend(_hoist_lines(nw))  # slot runs in OLD-1 window
            emit_slot(si, taken=True, target_expr=str(ret_to),
                      live_next=next_addr(si, ev_ix), counters=tkc,
                      last=si == n - 1)
            path[:] = tkc
        elif kind == "term":
            i = event[1]
            si = i + 1
            addr, _word, inst = seq[i]
            op = inst.opcode
            ixs[i] = snap()
            A, B = operand_exprs(inst)
            emit(f"tg = {fold_add(A, B)}")
            if op is Opcode.CALL:
                pendc = (path[0] + 1, path[1], path[2], path[3] + 1, path[4])
                tkc = taken_counters(si, calls=1)
                emit(f"ix = {i}")
                emit_enter_fast("")
                if uw and not shadow:
                    lines.extend(_hoist_lines(nw))
                write_dest(inst, str(addr))
                emit("m.npc = tg")
                emit("if not T.live:")
                emit_exit(si, pendc, "    ")
                emit(f"    m.pc = {seq[si][0]}")
                emit("    m._pending_jump = True")
                emit(f"    return {si}")
            elif op in (Opcode.RET, Opcode.RETINT):
                tkc = taken_counters(si, rets=1)
                emit(f"ix = {i}")
                if op is Opcode.RETINT:
                    defaults["fx"] = "_FX"
                    emit("fx(m, PL, T, ix)")
                else:
                    emit_exit_fast("")
                if op is Opcode.RETINT:
                    emit("psw.interrupts_enabled = True")
                if uw and not shadow:
                    lines.extend(_hoist_lines(nw))
            else:  # JMP with an always-true condition, dynamic target
                tkc = taken_counters(si)
            ixs_tk[si] = tkc
            emit_slot(si, taken=True, target_expr="tg", live_next=None,
                      counters=None, last=True)
            emit_exit(n, tkc, "")
            emit("m.pc = tg")
            emit("m.npc = tg + 4")
            halt_check_runtime("")
            emit(f"return {n}")
        else:  # "end"
            next_pc = event[1]
            emit_exit(n, snap(), "")
            emit(f"m.pc = {next_pc}")
            emit(f"m.npc = {next_pc + 4}")
            halt_check_static(next_pc, "")
            emit(f"return {n}")

    extra = "".join(f", {name}={expr}" for name, expr in sorted(defaults.items()))
    rec_bind = ", ct=m._call_recorder.trace.append" if has_recorder else ""
    inner = "\n".join(f"            {line}" for line in lines)
    if shadow:
        # Sync the frame shadow before the trap unwind.  c/d/rw equal
        # the machine state until the first frame op completes (the
        # slow paths unwind call_depth on a spill/refill trap), so the
        # writeback is a no-op then; swp is derived only once ``fd``.
        handler = (
            "        except (_MemFault, _TrapSignal) as exc:\n"
            "            m.call_depth = d\n"
            "            m.resident_windows = rw\n"
            "            psw.cwp = c\n"
            "            if fd:\n"
            f"                psw.swp = {wr('c + rw - 1')}\n"
            "            return _te(m, T, ix, exc)\n"
        )
    else:
        handler = (
            "        except (_MemFault, _TrapSignal) as exc:\n"
            "            return _te(m, T, ix, exc)\n"
        )
    source = (
        "def make(m, T, PL, CY):\n"
        "    R = m.regs._regs\n"
        "    psw = m.psw\n"
        "    stats = m.stats\n"
        "    mem = m.memory\n"
        "    def trace(m=m, T=T, PL=PL, R=R, psw=psw, stats=stats, mem=mem,\n"
        "              mem_stats=mem.stats, buf=mem._bytes,\n"
        f"              eh=T.exit_hits, cy=CY{rec_bind}{extra}):\n"
        "        ix = 0\n"
        "        try:\n"
        f"{inner}\n"
        f"{handler}"
        "    return trace\n"
    )
    return source, tuple(exit_recs), tuple(ixs), ixs_tk


#: Compiled factories shared by every TraceEngine, keyed by
#: (start, words, addrs, num_windows, use_windows, halt_address,
#: memory size, recorder?, trap_on_overflow?, device window); the
#: machine and trace descriptor bind at make() time.  Values are
#: ``(make, exit_recs, ixs, ixs_tk, meta, cycles_bound, psw_writes)`` -
#: the static exit and per-instruction metadata is a pure function of
#: the key, so a hit builds no per-instruction tuples.
_TRACE_FACTORY_CACHE: dict[tuple, tuple] = {}
_TRACE_FACTORY_CACHE_MAX = 4096

#: Process-lifetime codegen counters behind :func:`trace_codegen_info`.
_CODEGEN_COUNTERS: dict[str, int | float] = {
    "hits": 0,
    "misses": 0,
    "clears": 0,
    "source_lines": 0,
    "codegen_s": 0.0,
    "compile_s": 0.0,
}


def trace_codegen_info() -> dict[str, int | float]:
    """Size and process-lifetime counters of the trace factory cache.

    ``hits`` counts traces whose factory came from the cache, ``misses``
    the traces that generated source (``source_lines`` lines in total,
    ``codegen_s`` seconds) and ran ``compile()``/``exec`` on it
    (``compile_s`` seconds); ``clears`` counts wholesale drops of a full
    cache.  Like :func:`repro.workloads.cache.compile_cache_info`, these
    describe the host process, not a simulated run, so run manifests
    carry them in the ``host`` section.
    """
    return {"entries": len(_TRACE_FACTORY_CACHE), **_CODEGEN_COUNTERS}


class TraceEngine:
    """Trace-compiling interpreter, oracle-verified like the others.

    Per-machine state: compiled traces keyed by entry pc, each
    registered with the memory's shared write watch
    (:meth:`~repro.common.memory.Memory.watch`), so that a store into
    compiled code - by this core or any other core sharing the memory -
    invalidates the stale traces.
    ``step()`` always delegates to an inner
    :class:`~repro.cpu.fastengine.FastEngine`, whose thunks are
    oracle-exact one instruction at a time; ``run_loop`` uses compiled
    traces and single-steps through the same inner engine wherever a
    trace cannot run.
    """

    name = "trace"

    def __init__(self) -> None:
        self._fast = FastEngine()
        self._traces: dict[int, _Trace] = {}
        #: the memory this engine attached to on its first run.
        self._memory: Any = None
        self._nocompile: set[int] = set()
        self._halt_addr: int | None = None
        self._halt_known = False
        #: the frame-op cell bound into every thunk: at 0 the latch
        #: licensing the inlined frame-op arms, refreshed at every
        #: dispatch (= trace-boundary granularity), then the frame-op
        #: counters (the _PL_* slots).
        self._plain: list = [False, 0, 0, 0, 0, 0, 0]
        #: pending deferred cycles across all traces (one cell, bound
        #: into every thunk); nonzero iff any exit hit is unreconciled.
        self._cycles_cell: list[int] = [0]
        #: traces dropped while possibly holding unreconciled hits.
        self._retired: list[_Trace] = []
        #: weak reference to the machine of the last ``run_loop``: a
        #: restore after an exception escaped a dispatch must still drop
        #: its pending hits, but the engine keeps no machine alive.
        self._machine: weakref.ref[ArchState] | None = None
        #: lifetime counters surfaced via :meth:`telemetry_snapshot`.
        self.traces_compiled = 0
        self.traces_invalidated = 0
        self.code_flushes = 0
        self.instructions_compiled = 0
        self.max_trace_length = 0
        #: steps single-stepped through the inner fast engine, by reason:
        #: a step observer, a latched interrupt or pending delay slot, an
        #: uncompilable entry, a watchdog tail, a trace that could write
        #: a pinned PSW bit or register, and ``step()`` calls.
        self.fallback_observed = 0
        self.fallback_pending = 0
        self.fallback_uncompilable = 0
        self.fallback_watchdog = 0
        self.fallback_pinned = 0
        self.fallback_step_calls = 0
        #: ``None``, or a list ``run_loop`` extends with one ``(addrs,
        #: completed)`` pair per dispatch: a trace's addresses and the
        #: steps its thunk returned (it ran exactly ``addrs[:completed]``,
        #: since a trace visits each address once, in order), or
        #: ``((pc,), 1)`` for a single-stepped fallback;
        #: :meth:`RunProfile.pcs <repro.cpu.runprofile.RunProfile.pcs>`
        #: expands it into the pc at every step.
        self.path: list | None = None

    def telemetry_snapshot(self) -> dict:
        """Trace-cache counters for the manifest's engine section."""
        return {
            "codegen_version": TRACE_CODEGEN_VERSION,
            "traces_resident": len(self._traces),
            "traces_compiled": self.traces_compiled,
            "traces_invalidated": self.traces_invalidated,
            "code_flushes": self.code_flushes,
            "code_words_watched": (
                0 if self._memory is None else len(self._memory._exec_watch)
            ),
            "instructions_compiled": self.instructions_compiled,
            "max_trace_length": self.max_trace_length,
            "fallback_steps": self.fallback_steps,
            "fallback_observed": self.fallback_observed,
            "fallback_pending": self.fallback_pending,
            "fallback_uncompilable": self.fallback_uncompilable,
            "fallback_watchdog": self.fallback_watchdog,
            "fallback_pinned": self.fallback_pinned,
            "fallback_step_calls": self.fallback_step_calls,
            "oracle_steps": self._fast.oracle_steps,
            # Window spills and refills the inlined arms ran inside
            # traces, then the trace frame ops that left for
            # _enter_frame/_exit_frame, by reason (docs/OBSERVABILITY.md).
            "inline_spills": self._plain[_PL_SPILL],
            "inline_refills": self._plain[_PL_REFILL],
            "frame_out_spill": self._plain[_PL_OUT_SPILL],
            "frame_out_refill": self._plain[_PL_OUT_REFILL],
            "frame_out_observer": self._plain[_PL_OUT_OBSERVER],
            "frame_out_other": self._plain[_PL_OUT_OTHER],
        }

    @property
    def fallback_steps(self) -> int:
        """Steps single-stepped through the inner fast engine, all reasons."""
        return (
            self.fallback_observed
            + self.fallback_pending
            + self.fallback_uncompilable
            + self.fallback_watchdog
            + self.fallback_pinned
            + self.fallback_step_calls
        )

    # -- deferred-stat reconciliation ---------------------------------------

    def _reconcile(self, *, rewound: bool = False) -> None:
        """Fold pending per-exit hit counters into the machine's stats.

        Called whenever deferred state could become observable: before
        any single-step fallback, on every trap unwind, and at run-loop
        exit.  With
        *rewound* (a checkpoint restore already rewound the stats past
        those hits) the pending hits are dropped instead.
        """
        m = self._machine() if self._machine is not None else None
        cy = self._cycles_cell
        if m is None or (not cy[0] and not self._retired):
            return
        stats = m.stats
        mem_stats = m.memory.stats
        by_cat = stats.by_category
        by_op = stats.by_opcode
        traces = list(self._traces.values())
        if self._retired:
            traces.extend(self._retired)
            self._retired.clear()
        for trc in traces:
            hits = trc.exit_hits
            for j, h in enumerate(hits):
                if h:
                    hits[j] = 0
                    if rewound:
                        continue
                    done, cyc, cats, ops, tj, ds, dn, cl, rt = trc.exit_recs[j]
                    stats.instructions += h * done
                    stats.cycles += h * cyc
                    mem_stats.inst_reads += h * done
                    for name, k in cats:
                        by_cat[name] += h * k
                    for name, k in ops:
                        by_op[name] += h * k
                    stats.taken_jumps += h * tj
                    stats.delay_slots += h * ds
                    stats.delay_slot_nops += h * dn
                    stats.calls += h * cl
                    stats.returns += h * rt
        cy[0] = 0

    # -- write-invalidation (Memory.attach protocol) ------------------------

    def invalidate_code(self, trc: _Trace) -> None:
        """A store hit a word of *trc*: drop it."""
        self._drop(trc)
        self.traces_invalidated += 1

    def forget_code(self, pc: int) -> None:
        """A fetch pin on *pc* came or went: drop this engine's traces
        and inner thunks built from its word, and retry uncompilable
        entries."""
        if self._memory is not None:
            for trc in list(self._memory._exec_watch.get(pc >> 2, ())):
                if trc.eng() is self:
                    self.invalidate_code(trc)
        self._nocompile.clear()
        self._fast.forget_code(pc)

    def rewind_code(self, dirty: bool) -> None:
        """A checkpoint restore rewound the machine (Memory protocol).

        Pending exit hits belong to the abandoned run, so they are
        dropped, never folded into the rewound stats.  Traces stay
        compiled unless *dirty*: the restore rolled back a watched code
        word.  Uncompilable entries are retried, since their words are
        not watched.
        """
        self._reconcile(rewound=True)
        self._nocompile.clear()
        if dirty:
            self.flush_code()

    def flush_code(self) -> None:
        """Wholesale image change (load_program, a code-dirtying
        restore): drop everything."""
        self.code_flushes += 1
        self._reconcile()
        for trc in self._traces.values():
            trc.live = False
            trc.thunk = None
            self._memory.unwatch(trc)
        self._traces.clear()
        self._nocompile.clear()

    def _drop(self, trc: _Trace) -> None:
        trc.live = False
        trc.thunk = None  # a running thunk finishes on its own frame
        self._traces.pop(trc.start, None)
        #: the trace may still be mid-run (self-invalidation) or hold
        #: unreconciled exit hits; keep it until the next reconcile.
        self._retired.append(trc)
        self._memory.unwatch(trc)

    # -- compilation --------------------------------------------------------

    def _compile_trace(self, m: ArchState, pc: int) -> _Trace | None:
        ir = _scan_trace(m, pc)
        if ir is None:
            return None
        seq = ir.seq
        nw = m.num_windows
        uw = m.use_windows
        hr = m._call_recorder is not None
        top = bool(m.trap_on_overflow)
        mem = m.memory
        io = None if mem._mmio is None else (mem._mmio_base, mem._mmio_limit)
        key = (
            pc,
            tuple(item[1] for item in seq),
            tuple(item[0] for item in seq),
            nw,
            uw,
            m.halt_address,
            mem.size,
            hr,
            top,
            io,
        )
        cached = _TRACE_FACTORY_CACHE.get(key)
        info = _CODEGEN_COUNTERS
        if cached is None:
            t0 = time.perf_counter()
            source, recs, ixs, ixs_tk = _codegen_trace(
                ir, nw, uw, m.halt_address, mem.size, hr, top, io
            )
            t1 = time.perf_counter()
            namespace = dict(_TRACE_GLOBALS)
            exec(
                compile(source, f"<trace {pc:#010x} n={len(seq)}>", "exec"),
                namespace,
            )
            info["codegen_s"] += t1 - t0
            info["compile_s"] += time.perf_counter() - t1
            info["source_lines"] += source.count("\n")
            info["misses"] += 1
            meta = tuple(
                (item[2].spec.category.name, item[2].opcode.name, item[2].spec.cycles)
                for item in seq
            )
            frame_ops = sum(1 for item in seq if item[2].opcode in _FRAME_OPS)
            cycles_bound = (
                sum(item[2] for item in meta)
                + _CYCLE_MARGIN
                + _FRAME_OP_MARGIN * frame_ops
            )
            cached = (
                namespace["make"], recs, ixs, ixs_tk,
                meta, cycles_bound, _psw_writes(seq),
            )
            if len(_TRACE_FACTORY_CACHE) >= _TRACE_FACTORY_CACHE_MAX:
                _TRACE_FACTORY_CACHE.clear()
                info["clears"] += 1
            _TRACE_FACTORY_CACHE[key] = cached
        else:
            info["hits"] += 1
        make, recs, ixs, ixs_tk, meta, cycles_bound, psw_writes = cached
        trc = _Trace(
            start=pc,
            addrs=key[2],
            words=key[1],
            meta=meta,
            cycles_bound=cycles_bound,
            psw_writes=psw_writes,
        )
        trc.top = top
        trc.eng = weakref.ref(self)
        trc.make = make
        trc.exit_recs = recs
        trc.exit_hits = [0] * len(recs)
        trc.ixs = ixs
        trc.ixs_tk = ixs_tk
        trc.thunk = make(m, trc, self._plain, self._cycles_cell)
        self.traces_compiled += 1
        self.instructions_compiled += len(seq)
        if len(seq) > self.max_trace_length:
            self.max_trace_length = len(seq)
        self._traces[pc] = trc
        mem.watch(trc)
        return trc

    def _writes_a_register_pin(self, m: ArchState, trc: _Trace) -> bool:
        """Whether *trc*, entered now, may write a pinned register (its
        write set for the current CWP is built once and kept on the
        trace)."""
        cwp = m.psw.cwp
        sets = trc.reg_writes
        if sets is None:
            sets = trc.reg_writes = {}
        writes = sets.get(cwp)
        if writes is None:
            writes = sets[cwp] = _reg_writes(
                trc.words, cwp, m.num_windows, m.use_windows
            )
        return not writes.isdisjoint(m.reg_pins)

    def _lookup(self, m: ArchState, pc: int) -> _Trace | None:
        if pc in self._nocompile:
            return None
        trc = self._compile_trace(m, pc)
        if trc is None:
            self._nocompile.add(pc)
        return trc

    # -- ExecutionEngine ----------------------------------------------------

    def step(self, m: ArchState) -> Instruction | None:
        """Single-step through the inner fast engine (trace compilation
        is a ``run_loop``-only optimisation)."""
        self.fallback_step_calls += 1
        return self._fast.step(m)

    def run_loop(
        self,
        m: ArchState,
        max_steps: int,
        max_cycles: int | None,
        deadline: float | None,
    ) -> int:
        """Dispatch compiled traces until halt or a budget expires;
        returns the steps executed.

        Each live trace gets its thunk from its cached factory on entry
        and loses it on exit, so no machine-to-engine-to-machine cycle
        outlives the loop.
        """
        mem = m.memory
        self._machine = weakref.ref(m)
        if self._memory is not mem:
            mem.attach(self)
            self._memory = mem
        if not self._halt_known or m.halt_address != self._halt_addr:
            # halt_address is baked into trace endings; recompile.
            if self._traces or self._nocompile:
                self.flush_code()
            self._halt_addr = m.halt_address
            self._halt_known = True
        traces = self._traces
        for trc in traces.values():
            trc.thunk = trc.make(m, trc, self._plain, self._cycles_cell)
        try:
            return self._dispatch_loop(m, max_steps, max_cycles, deadline)
        finally:
            for trc in traces.values():
                trc.thunk = None

    def _dispatch_loop(
        self,
        m: ArchState,
        max_steps: int,
        max_cycles: int | None,
        deadline: float | None,
    ) -> int:
        fast_step = self._fast.step
        run_observed = self._fast.run_observed
        bus = m.observers
        stats = m.stats
        traces_get = self._traces.get
        PL = self._plain
        CY = self._cycles_cell
        rec = m._call_recorder
        if rec is not None:
            exp_call, exp_ret = [rec._on_call], [rec._on_return]
        else:
            exp_call, exp_ret = [], []
        path = self.path
        steps = 0
        check_at = 1024
        while m.halted is None:
            pc = m.pc
            if (
                bus.step_observed
                or m.pending_interrupt is not None
                or m._pending_jump
            ):
                if not bus.step_observed:
                    self.fallback_pending += 1
                elif path is not None:
                    self.fallback_observed += 1
                trc = None
            else:
                trc = traces_get(pc)
                if trc is not None and trc.top != m.trap_on_overflow:
                    # trap_on_overflow is baked into the generated code.
                    self._drop(trc)
                    trc = None
                if trc is None:
                    trc = self._lookup(m, pc)
                if trc is None:
                    # Unfetchable/undecodable entry: the single step traps.
                    self.fallback_uncompilable += 1
                elif steps + trc.n > max_steps or (
                    max_cycles is not None
                    and stats.cycles + CY[0] + trc.cycles_bound >= max_cycles
                ):
                    # A watchdog could fire mid-trace; run the tail at
                    # single-step granularity for exact halt points.
                    self.fallback_watchdog += 1
                    trc = None
                elif m.pinned:
                    pin = m.psw_pin
                    if pin is not None and trc.psw_writes & pin[0]:
                        # The trace could clear a pinned bit mid-run;
                        # the single step forces the pins first.
                        self.fallback_pinned += 1
                        trc = None
                    else:
                        m._force_pins()
                        if m.reg_pins and self._writes_a_register_pin(m, trc):
                            self.fallback_pinned += 1
                            trc = None
                    # Otherwise no instruction in the trace writes a
                    # pin, so forcing them once holds for every step.
            if trc is None:
                if CY[0]:
                    self._reconcile()
                if bus.step_observed and path is None:
                    # An observed stretch runs in the inner engine's own
                    # loop, which stops without halting at the budgets
                    # checked below (and at the next wall-clock check).
                    limit = (
                        max_steps if deadline is None
                        else min(max_steps, check_at)
                    )
                    ran = run_observed(m, limit - steps, max_cycles)
                    self.fallback_observed += ran
                    steps += ran
                else:
                    fast_step(m)
                    steps += 1
                    if path is not None:
                        path.append(((pc,), 1))
            else:
                # Frame-op fast paths are licensed per dispatch: the
                # boundary observers must be exactly the default
                # call-trace recorder's handlers (or none at all).
                PL[0] = bus.on_call == exp_call and bus.on_return == exp_ret
                done = trc.thunk()
                steps += done
                if path is not None:
                    path.append((trc.addrs, done))
            if m.halted is not None:
                break
            if steps >= max_steps:
                m._set_halted(HaltReason.STEP_LIMIT)
            elif max_cycles is not None and stats.cycles + CY[0] >= max_cycles:
                m._set_halted(HaltReason.CYCLE_LIMIT)
            elif deadline is not None and steps >= check_at:
                check_at = steps + 1024
                if time.monotonic() > deadline:
                    m._set_halted(HaltReason.WALL_CLOCK_LIMIT)
        # A halt in a trace or at a budget leaves exit hits pending.
        if CY[0] or self._retired:
            self._reconcile()
        return steps


__all__ = ["TraceEngine", "TRACE_CODEGEN_VERSION", "trace_codegen_info"]

"""Block-compiling execution engine (CFG-driven superblock interpreter).

Where :mod:`repro.cpu.fastengine` compiles one closure per *instruction*
and still pays fetch/dispatch/PC bookkeeping on every step, this backend
compiles one closure per *basic block*: all straight-line instructions in
the block execute inside a single Python function with

* no per-step fetch (``inst_reads`` is batched and reconciled),
* no per-step dispatch or ``pc``/``npc``/``lpc`` bookkeeping (the final
  values are stored once at block exit; mid-block values are literals),
* flags computed only where ``scc`` demands,
* stats (``instructions``/``cycles``/``by_category``/``by_opcode``)
  batched per block and reconciled to exact per-instruction counts when
  a block exits early.

Block discovery uses :func:`repro.analysis.cfg.build_cfg` over the loaded
image: CFG leaders bound the straight-line scan so compiled blocks line
up with real control-flow joins, and delay slots are modeled exactly as
the CFG models them (a delayed transfer owns the following word).  Blocks
may additionally start at *any* pc reached dynamically (trap-handler
entry, indirect jumps into the middle of a static block); the compiler
simply scans a tail block from there.

Bit-identity with :class:`~repro.cpu.engine.ReferenceEngine` is preserved
by exiting the fast path whenever single-step semantics could be
observed:

* ``ObserverBus.step_observed``, a latched interrupt, or a pending delay
  slot (``m._pending_jump``) delegates the step to the reference oracle;
* a trap mid-block unwinds through :func:`_trap_exit`, which replays the
  exact per-instruction stats for the completed prefix and dispatches
  ``ArchState._trap`` with reference-identical ``pc``/``npc``/delay-slot
  state;
* a memory write landing in a compiled code region invalidates the
  covering blocks via the :class:`~repro.common.memory.Memory` write
  watch (``set_exec_listener``), keeping self-modifying and
  fault-corrupted code correct.  A block that invalidates *itself* exits
  early through :func:`_early_exit` / :func:`_pending_exit` with exact
  architectural state.

Checkpoint/rollback round-trips: thunks bind the register list, PSW,
stats and memory as default arguments and ``ArchState.restore`` rewinds
those objects in place, while ``Memory.restore`` flushes all compiled
blocks (the image may have been rewritten wholesale).  A rollback into
the middle of a delay slot leaves ``m._pending_jump`` set, which routes
the slot through the reference oracle before block execution resumes.

Observation changes made *mid-block* (e.g. an ``on_call`` observer
subscribing a step-granular event) take effect at the next block
boundary, one block at the latest; boundary events themselves
(``call``/``return``/``trap``/``halt``) only ever fire at block ends or
block exits, so their observers see reference-identical boundary state.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from typing import Any

from repro.common.bitops import MASK32, SIGN_BIT32
from repro.cpu.engine import ReferenceEngine
from repro.cpu.fastengine import (
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
from repro.isa.formats import Instruction
from repro.isa.opcodes import Category, Opcode

_M32 = MASK32
_SIGN = SIGN_BIT32
_TWO32 = 1 << 32

#: Longest straight-line run compiled into one closure.  Blocks cut here
#: simply continue in the next block; the cap bounds codegen time.
_MAX_BLOCK = 96

#: Upper bound on cycles one block run can add beyond its static total:
#: one window spill/refill (4 + 2*16) plus one trap-vector overhead (4),
#: rounded up.  Used by the run loop's exact cycle-budget watchdog.
_CYCLE_MARGIN = 128

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


class _LazyWords:
    """Read-only word view of a byte image for the CFG builder.

    Quacks like the ``list[int]`` that :func:`repro.analysis.cfg.build_cfg`
    expects but decodes words on demand - CFG reachability touches only
    the few thousand code words, not the whole RAM.
    """

    __slots__ = ("_buf",)

    def __init__(self, buf: bytearray) -> None:
        self._buf = buf

    def __len__(self) -> int:
        return len(self._buf) // 4

    def __getitem__(self, index: int) -> int:
        at = index * 4
        return int.from_bytes(self._buf[at : at + 4], "big")


class _Block:
    """One compiled basic block and the metadata its cold exits need."""

    __slots__ = (
        "start",
        "n",
        "addrs",
        "words",
        "meta",
        "slot_ix",
        "term_taken",
        "cycles_bound",
        "live",
        "thunk",
        "word_lo",
        "word_hi",
        "pair_seconds",
        "fused_hits",
    )

    def __init__(self, start, addrs, words, meta, slot_ix, term_taken,
                 cycles_bound, pair_seconds=()):
        self.start = start
        self.n = len(addrs)
        self.addrs = addrs
        self.words = words
        #: per-instruction (category name, opcode name, cycles) for the
        #: stats replay done by the cold exit helpers.
        self.meta = meta
        self.slot_ix = slot_ix
        #: static taken-ness of the terminator ("always"/"never"/
        #: "runtime") - a slot-position trap is a *delay-slot* trap only
        #: when the transfer was taken (the reference latches
        #: ``_pending_jump`` only then), so "runtime" terminators record
        #: the decision in ``m._pending_jump`` for :func:`_trap_exit`.
        self.term_taken = term_taken
        self.cycles_bound = cycles_bound
        self.live = True
        self.thunk: Any = None
        self.word_lo = start >> 2
        self.word_hi = addrs[-1] >> 2
        #: sorted positions of fused-pair *second halves* within the
        #: block; a pair counts as a fused dispatch once its second half
        #: completes (hot path adds the static total, cold exits bisect).
        self.pair_seconds = pair_seconds
        self.fused_hits = 0


def _credit(m: ArchState, B: _Block, done: int, fetches: int) -> None:
    """Replay exact per-instruction stats for the completed prefix.

    The hot path batches ``instructions``/``cycles``/``by_category``/
    ``by_opcode``/``inst_reads`` at block exit; when a block exits early
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
    if B.pair_seconds:
        B.fused_hits += bisect_right(B.pair_seconds, done - 1)
    if done:
        m.lpc = B.addrs[done - 1]


def _trap_exit(m: ArchState, B: _Block, ix: int, exc: Exception) -> int:
    """Cold path: instruction *ix* trapped; restore reference trap state.

    The faulting instruction's fetch is counted (the reference fetches
    before executing), ``pc`` points at it, and ``npc`` is its sequential
    successor - unless it sat in the delay slot, where the terminator
    already wrote the taken/untaken ``npc``.  Returns the step count this
    block run consumed.
    """
    _credit(m, B, ix, ix + 1)
    addr = B.addrs[ix]
    in_slot = ix == B.slot_ix
    if in_slot:
        # Slot position, but a delay slot only if the transfer was
        # taken: the untaken arm of a conditional never latches a jump,
        # so its slot traps as an ordinary instruction.
        tt = B.term_taken
        if tt == "runtime":
            in_slot = m._pending_jump
        elif tt == "never":
            in_slot = False
    m._pending_jump = False  # the reference clears it before the slot body
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
        word=B.words[ix],
        address=exc.address,
        message=str(exc),
        in_delay_slot=in_slot,
    )
    return ix + 1


def _early_exit(m: ArchState, B: _Block, done: int) -> int:
    """Cold path: a store invalidated this block mid-body.

    The remaining instructions may have been rewritten, so stop after the
    *done* completed ones with exact sequential state; the run loop
    recompiles from the next pc against current memory.
    """
    _credit(m, B, done, done)
    pc = B.addrs[done]
    m.pc = pc
    m.npc = pc + 4
    return done


def _term_taken(seq, term_ix: int) -> str:
    """Static taken-ness of a block's terminator.

    ``"always"`` (unconditional jumps, CALL/RET), ``"never"`` (a
    condition that folds to false, or no terminator at all), or
    ``"runtime"`` (a genuine conditional - decided when the block runs).
    """
    if term_ix < 0:
        return "never"
    inst = seq[term_ix][2]
    if inst.opcode in (Opcode.JMP, Opcode.JMPR):
        cond = _COND_EXPR[inst.cond]
        if cond == "True":
            return "always"
        if cond == "False":
            return "never"
        return "runtime"
    return "always"


def _pending_exit(m: ArchState, B: _Block, done: int) -> int:
    """Cold path: a window spill invalidated this block at its terminator.

    The taken jump is latched exactly as the reference leaves it between
    a transfer and its delay slot (``npc`` already holds the target); the
    run loop's oracle fallback executes the - possibly rewritten - slot.
    """
    _credit(m, B, done, done)
    m.pc = B.addrs[done]
    m._pending_jump = True
    return done


_BLOCK_GLOBALS = {
    "_TrapSignal": _TrapSignal,
    "_OVF": TrapCause.ARITHMETIC_OVERFLOW,
    "_RETURNED": HaltReason.RETURNED,
    "_EXPLICIT": HaltReason.EXPLICIT,
    "_MemFault": MemoryFaultError,
    "_te": _trap_exit,
    "_ee": _early_exit,
    "_ep": _pending_exit,
}


def _hoist_lines(nw: int) -> list[str]:
    """Window base indices, hoisted once per block (and re-hoisted after
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


def _codegen_block(
    seq: list[tuple[int, int, Instruction]],
    term_ix: int,
    nw: int,
    uw: bool,
    halt_addr: int | None,
    pair_seconds: tuple[int, ...] = (),
) -> str:
    """Emit the source of ``make(m, B) -> thunk`` for one basic block.

    *seq* is the full instruction sequence (body, then optionally a
    delayed terminator at *term_ix* with its delay slot last).  The thunk
    returns the number of steps consumed (== ``len(seq)`` on the hot
    path; fewer on a trap or early exit).
    """
    n = len(seq)
    slot_ix = term_ix + 1 if term_ix >= 0 else -1
    lines: list[str] = []
    defaults: dict[str, str] = {}
    emit = lines.append

    def read_ab(inst: Instruction) -> None:
        emit(f"a = {_bread(inst.rs1, uw)}")
        if inst.imm:
            emit(f"b = {inst.s2 & _M32}")
        else:
            emit(f"b = {_bread(inst.s2 & 0x1F, uw)}")

    def write_dest(inst: Instruction, expr: str) -> None:
        # Skipped for r0: every expression reaching here either was
        # already evaluated into a local or is side-effect free.
        if inst.dest != 0:
            emit(f"R[{_bidx(inst.dest, uw)}] = {expr}")

    def emit_flags(carry: str, ovf: str) -> None:
        emit("psw.z = value == 0")
        emit(f"psw.n = (value & {_SIGN}) != 0")
        emit(f"psw.c = {carry}")
        emit(f"psw.v = ({ovf}) != 0")

    has_arith = any(
        item[2].spec.category is Category.ALU and item[2].opcode in _SUM_EXPR
        for item in seq
    )

    def emit_straight(i: int, addr: int, inst: Instruction) -> None:
        """One non-transfer instruction (body or delay slot)."""
        op = inst.opcode
        cat = inst.spec.category
        last = i == n - 1
        if cat is Category.ALU:
            read_ab(inst)
            if op in _SUM_EXPR:
                if op in _ADD_OPS:
                    carry = f"s > {_M32}"
                    ovf = f"(~(a ^ b) & (a ^ value)) & {_SIGN}"
                elif op in _SUB_OPS:
                    carry = "s < 0"
                    ovf = f"((a ^ b) & (a ^ value)) & {_SIGN}"
                else:  # reversed subtract: sub32(b, a)
                    carry = "s < 0"
                    ovf = f"((a ^ b) & (b ^ value)) & {_SIGN}"
                emit(f"s = {_SUM_EXPR[op]}")
                emit(f"value = s & {_M32}")
                emit("if top:")
                emit(f"    if {ovf}:")
                emit(f"        ix = {i}")
                emit(f'        raise _TrapSignal(_OVF, "signed overflow in {op.name}")')
                write_dest(inst, "value")
                if inst.scc:
                    emit_flags(carry, ovf)
            else:
                if op is Opcode.AND:
                    emit("value = a & b")
                elif op is Opcode.OR:
                    emit("value = a | b")
                elif op is Opcode.XOR:
                    emit("value = a ^ b")
                elif op is Opcode.SLL:
                    emit(f"value = (a << (b & 31)) & {_M32}")
                elif op is Opcode.SRL:
                    emit("value = a >> (b & 31)")
                else:  # SRA
                    emit(f"if a & {_SIGN}:")
                    emit(f"    value = ((a - {_TWO32}) >> (b & 31)) & {_M32}")
                    emit("else:")
                    emit("    value = a >> (b & 31)")
                write_dest(inst, "value")
                if inst.scc:
                    emit_flags("False", "False")
        elif cat is Category.LOAD:
            read_ab(inst)
            emit(f"addr = (a + b) & {_M32}")
            emit(f"ix = {i}")
            fname, bound, tmpl = _LOAD_BIND[op]
            defaults[fname] = bound
            emit(f"value = {tmpl.format(f=fname)}")
            write_dest(inst, "value")
        elif cat is Category.STORE:
            read_ab(inst)
            emit(f"addr = (a + b) & {_M32}")
            emit(f"ix = {i}")
            fname, bound = _STORE_BIND[op]
            defaults[fname] = bound
            emit(f"{fname}(addr, {_bread(inst.dest, uw)})")
            if not last:
                # The store may have rewritten this very block.
                emit("if not B.live:")
                emit(f"    return _ee(m, B, {i + 1})")
        elif op is Opcode.LDHI:
            write_dest(inst, str((inst.imm19 << 13) & _M32))
        elif op is Opcode.GTLPC:
            if i > 0:  # lpc is batched; expose the reference value
                emit(f"m.lpc = {seq[i - 1][0]}")
            write_dest(inst, f"m.lpc & {_M32}")
        elif op is Opcode.GETPSW:
            write_dest(inst, "psw.pack()")
        elif op is Opcode.PUTPSW:
            read_ab(inst)
            emit(f"psw.unpack((a + b) & {_M32})")
            if uw and not last:  # cwp may have moved
                lines.extend(_hoist_lines(nw))
        else:  # CALLINT: new window, no jump; always ends the block
            assert op is Opcode.CALLINT
            if i > 0:
                emit(f"m.lpc = {seq[i - 1][0]}")
            emit(f"ix = {i}")
            emit("m._enter_frame()")
            if uw:
                lines.extend(_hoist_lines(nw))
            write_dest(inst, f"m.lpc & {_M32}")
            emit("stats.calls += 1")

    def emit_term(i: int, addr: int, inst: Instruction) -> None:
        """A delayed control transfer; its slot follows as seq[i + 1]."""
        op = inst.opcode
        fall = addr + 8
        slot_nop = _is_nop(seq[i + 1][2])

        def delay_lines() -> list[str]:
            out = ["stats.taken_jumps += 1", "stats.delay_slots += 1"]
            if slot_nop:
                out.append("stats.delay_slot_nops += 1")
            return out

        if op in (Opcode.JMP, Opcode.JMPR):
            if op is Opcode.JMP:
                read_ab(inst)
                target = f"(a + b) & {_M32}"
            else:
                target = str((addr + inst.imm19) & _M32)
            cond = _COND_EXPR[inst.cond]
            taken = [f"m.npc = {target}"] + delay_lines()
            if cond == "True":
                lines.extend(taken)
            elif cond == "False":
                emit(f"m.npc = {fall}")
            else:
                # Record the runtime decision so a slot trap knows
                # whether it was a *delay-slot* trap; cleared on every
                # exit (normal exit below, _trap_exit on the cold path).
                emit(f"if {cond}:")
                lines.extend("    " + line
                             for line in taken + ["m._pending_jump = True"])
                emit("else:")
                emit(f"    m.npc = {fall}")
        elif op in (Opcode.CALL, Opcode.CALLR):
            if op is Opcode.CALL:
                read_ab(inst)
                emit(f"tg = (a + b) & {_M32}")
                target = "tg"
            else:
                target = str((addr + inst.imm19) & _M32)
            emit(f"ix = {i}")
            emit("m._enter_frame()")  # may trap; nothing mutated yet
            if uw:
                lines.extend(_hoist_lines(nw))  # linkage + slot: NEW window
            write_dest(inst, str(addr))  # return linkage
            emit("stats.calls += 1")
            emit(f"m.npc = {target}")
            emit("stats.taken_jumps += 1")
            # The spill may have rewritten the delay slot; re-enter via
            # the oracle with the jump latched if so.
            emit("if not B.live:")
            emit(f"    return _ep(m, B, {i + 1})")
            emit("stats.delay_slots += 1")
            if slot_nop:
                emit("stats.delay_slot_nops += 1")
        else:  # RET / RETINT
            read_ab(inst)  # target read in the OLD window
            emit(f"tg = (a + b) & {_M32}")
            emit(f"ix = {i}")
            emit("m._exit_frame()")  # may trap; nothing mutated yet
            emit("stats.returns += 1")
            if op is Opcode.RETINT:
                emit("psw.interrupts_enabled = True")
            if uw:
                lines.extend(_hoist_lines(nw))  # slot runs in OLD-1 window
            emit(f"m.npc = tg")
            lines.extend(delay_lines())

    # -- body -----------------------------------------------------------
    if uw:
        lines.extend(_hoist_lines(nw))
    if has_arith:
        emit("top = m.trap_on_overflow")
    for i, (addr, _word, inst) in enumerate(seq):
        if i == term_ix:
            emit_term(i, addr, inst)
        else:
            emit_straight(i, addr, inst)

    # -- exit bookkeeping (batched stats, final pc/npc/lpc, halt) -------
    total_cycles = sum(item[2].spec.cycles for item in seq)
    cat_counts: dict[str, int] = {}
    op_counts: dict[str, int] = {}
    for _addr, _word, inst in seq:
        cat_counts[inst.spec.category.name] = cat_counts.get(inst.spec.category.name, 0) + 1
        op_counts[inst.opcode.name] = op_counts.get(inst.opcode.name, 0) + 1
    emit(f"stats.instructions += {n}")
    emit(f"stats.cycles += {total_cycles}")
    emit(f"mem_stats.inst_reads += {n}")
    for name in sorted(cat_counts):
        emit(f'by_cat["{name}"] += {cat_counts[name]}')
    for name in sorted(op_counts):
        emit(f'by_op["{name}"] += {op_counts[name]}')
    emit(f"m.lpc = {seq[-1][0]}")
    if term_ix >= 0:
        if _term_taken(seq, term_ix) == "runtime":
            emit("m._pending_jump = False")
        emit("t = m.npc")
        emit("m.pc = t")
        emit("m.npc = t + 4")
        emit(f"if t == {HALT_PC}:")
        emit("    m._set_halted(_RETURNED)")
        if halt_addr is not None:
            emit(f"elif t == {halt_addr}:")
            emit("    m._set_halted(_EXPLICIT)")
    else:
        fall = seq[-1][0] + 4
        emit(f"m.pc = {fall}")
        emit(f"m.npc = {fall + 4}")
        if halt_addr is not None and fall == halt_addr:
            emit("m._set_halted(_EXPLICIT)")
    if pair_seconds:
        # Full completion executes every armed pair in the block; cold
        # exits reconcile via the bisect in _credit instead.
        emit(f"B.fused_hits += {len(pair_seconds)}")
    emit(f"return {n}")

    extra = "".join(f", {name}={expr}" for name, expr in sorted(defaults.items()))
    inner = "\n".join(f"            {line}" for line in lines)
    return (
        "def make(m, B):\n"
        "    R = m.regs._regs\n"
        "    psw = m.psw\n"
        "    stats = m.stats\n"
        "    mem = m.memory\n"
        "    def block(m=m, B=B, R=R, psw=psw, stats=stats, mem=mem,\n"
        "              mem_stats=mem.stats, by_cat=stats.by_category,\n"
        f"              by_op=stats.by_opcode{extra}):\n"
        "        ix = 0\n"
        "        try:\n"
        f"{inner}\n"
        "        except (_MemFault, _TrapSignal) as exc:\n"
        "            return _te(m, B, ix, exc)\n"
        "    return block\n"
    )


#: Compiled factories shared by every BlockEngine, keyed by
#: (start, words, num_windows, use_windows, halt_address, pair_seconds);
#: the machine and block descriptor bind at make() time.
_BLOCK_FACTORY_CACHE: dict[tuple, object] = {}
_BLOCK_FACTORY_CACHE_MAX = 16384


def _pair_positions(armed: dict, seq) -> tuple[int, ...]:
    """Positions of armed fused-pair second halves inside *seq*.

    A pair lands in a block only when both halves sit at consecutive
    positions with the exact words the static proof was issued for;
    anything else (block cut between the halves, rewritten code) simply
    is not counted - correctness never depends on fusion bookkeeping.
    """
    if not armed:
        return ()
    out = []
    for i in range(len(seq) - 1):
        addr, word, _inst = seq[i]
        pair = armed.get(addr)
        if (
            pair is not None
            and pair.word1 == word
            and seq[i + 1][0] == addr + 4
            and seq[i + 1][1] == pair.word2
        ):
            out.append(i + 1)
    return tuple(out)


class BlockEngine:
    """Superblock-compiling interpreter, oracle-verified like the others.

    Per-machine state: compiled blocks keyed by entry pc, plus the
    word-index watch (:attr:`code_words`) registered with the machine's
    memory so stores into compiled regions invalidate stale blocks.
    ``step()`` always delegates to the reference oracle - single-step
    callers (debugger, campaign budget loops) get reference semantics by
    construction; only ``run_loop`` uses compiled blocks.
    """

    name = "block"

    def __init__(self) -> None:
        self._ref = ReferenceEngine()
        self._blocks: dict[int, _Block] = {}
        #: word index (address >> 2) -> blocks whose code covers it.
        #: This dict doubles as the Memory write watch.
        self.code_words: dict[int, list[_Block]] = {}
        self._nocompile: set[int] = set()
        self._leaders: set[int] | None = None
        self._halt_addr: int | None = None
        self._halt_known = False
        #: lifetime counters surfaced via :meth:`telemetry_snapshot`.
        self.blocks_compiled = 0
        self.blocks_invalidated = 0
        self.code_flushes = 0
        #: statically proved pairs armed via :meth:`arm_fusion`, keyed by
        #: first-half address, plus hits retired from dropped blocks.
        self._fused: dict[int, object] = {}
        self._fused_retired = 0

    def telemetry_snapshot(self) -> dict:
        """Block-cache counters for the manifest's engine section."""
        return {
            "blocks_resident": len(self._blocks),
            "blocks_compiled": self.blocks_compiled,
            "blocks_invalidated": self.blocks_invalidated,
            "code_flushes": self.code_flushes,
            "code_words_watched": len(self.code_words),
            "fused_pairs_armed": len(self._fused),
            "fused_dispatches": self.fused_dispatches,
        }

    # -- macro-op fusion (counting only: pairs already run fused) -----------

    def arm_fusion(self, pairs) -> int:
        """Arm statically proved pairs; returns the number armed.

        Compiled blocks already execute both halves inside one thunk, so
        arming only attributes *fused dispatches* in the telemetry; the
        architectural trajectory is unchanged by construction.
        """
        armed: dict[int, object] = {}
        for pair in pairs:
            if pair.second != pair.first + 4:
                raise ValueError(
                    f"fusion pair halves not adjacent: {pair.first:#x}/"
                    f"{pair.second:#x}"
                )
            armed[pair.first] = pair
        self.flush_code()
        self._fused = armed
        self._fused_retired = 0
        return len(armed)

    @property
    def fused_dispatches(self) -> int:
        """Dynamic count of pairs whose both halves completed back to back."""
        return self._fused_retired + sum(
            blk.fused_hits for blk in self._blocks.values()
        )

    # -- write-invalidation (Memory exec-listener protocol) -----------------

    def invalidate_code(self, address: int) -> None:
        """A store hit compiled code: drop every block covering it."""
        owners = self.code_words.get(address >> 2)
        if not owners:
            return
        for blk in list(owners):
            self._drop(blk)
            self.blocks_invalidated += 1

    def rewind_code(self, dirty: bool) -> None:
        """A checkpoint restore rewound memory (Memory protocol): keep
        the blocks unless it rolled back a watched code word."""
        self._nocompile.clear()
        if dirty:
            self.flush_code()

    def flush_code(self) -> None:
        """Wholesale image change (load_program, a code-dirtying
        restore): drop everything."""
        self.code_flushes += 1
        for blk in self._blocks.values():
            blk.live = False
            self._fused_retired += blk.fused_hits
        self._blocks.clear()
        self.code_words.clear()
        self._nocompile.clear()
        self._leaders = None

    def _drop(self, blk: _Block) -> None:
        blk.live = False
        if self._blocks.pop(blk.start, None) is not None:
            self._fused_retired += blk.fused_hits
        cw = self.code_words
        for wi in range(blk.word_lo, blk.word_hi + 1):
            owners = cw.get(wi)
            if owners is not None:
                try:
                    owners.remove(blk)
                except ValueError:
                    pass
                if not owners:
                    del cw[wi]

    # -- compilation --------------------------------------------------------

    def _leaders_for(self, m: ArchState) -> set[int]:
        """CFG leaders of the loaded image; pure block-cut heuristic.

        Stale or missing leaders never affect correctness - a jump into
        the middle of a compiled block just compiles a tail block - so a
        best-effort CFG over the whole image is fine.  The image is
        exposed to the CFG builder as a lazy word view: reachability only
        touches code words, so the 256K-word RAM never gets unpacked.
        """
        from repro.analysis.cfg import build_cfg

        size = m.memory.size
        if size % 4:
            return set()
        try:
            cfg = build_cfg(_LazyWords(m.memory._bytes), base=0, entry=m.pc)
        except Exception:  # defensive: analysis must never kill execution
            return set()
        return set(cfg.blocks)

    def _scan(self, m: ArchState, pc: int):
        """Straight-line scan from *pc*: (seq, term_ix) or None (BAD pc).

        Ends at a delayed transfer (slot included, validated), after a
        CALLINT, at a CFG leader or the halt address (so the end-of-block
        halt check is exact), before an undecodable word or the image
        edge, or at the length cap.
        """
        mem = m.memory
        size = mem.size
        buf = mem._bytes
        decode = m.decoder.decode
        leaders = self._leaders
        halt_addr = m.halt_address
        seq: list[tuple[int, int, Instruction]] = []
        term_ix = -1
        addr = pc
        while True:
            if addr & 3 or addr < 0 or addr + 4 > size:
                break
            if seq and (addr in leaders or addr == halt_addr):
                break
            if len(seq) >= _MAX_BLOCK:
                break
            word = int.from_bytes(buf[addr : addr + 4], "big")
            try:
                inst = decode(word)
            except DecodingError:
                break  # the oracle raises the illegal-instruction trap
            if inst.spec.is_delayed:
                saddr = addr + 4
                # Leave exotic slots (unfetchable, undecodable, another
                # transfer, CALLINT, the halt address) to the oracle: end
                # the block just before the transfer.
                if saddr + 4 > size or saddr == halt_addr:
                    break
                sword = int.from_bytes(buf[saddr : saddr + 4], "big")
                try:
                    sinst = decode(sword)
                except DecodingError:
                    break
                if sinst.spec.is_delayed or sinst.opcode is Opcode.CALLINT:
                    break
                term_ix = len(seq)
                seq.append((addr, word, inst))
                seq.append((saddr, sword, sinst))
                break
            seq.append((addr, word, inst))
            if inst.opcode is Opcode.CALLINT:
                break  # window moved; keep block shapes simple
            addr += 4
        if not seq:
            return None
        return seq, term_ix

    def _compile_block(self, m: ArchState, pc: int) -> _Block | None:
        if self._leaders is None:
            self._leaders = self._leaders_for(m)
        scanned = self._scan(m, pc)
        if scanned is None:
            return None
        seq, term_ix = scanned
        nw = m.num_windows
        uw = m.use_windows
        pair_seconds = _pair_positions(self._fused, seq)
        key = (pc, tuple(item[1] for item in seq), nw, uw, m.halt_address,
               pair_seconds)
        make = _BLOCK_FACTORY_CACHE.get(key)
        if make is None:
            source = _codegen_block(seq, term_ix, nw, uw, m.halt_address,
                                    pair_seconds)
            namespace = dict(_BLOCK_GLOBALS)
            exec(
                compile(source, f"<block {pc:#010x} n={len(seq)}>", "exec"),
                namespace,
            )
            make = namespace["make"]
            if len(_BLOCK_FACTORY_CACHE) >= _BLOCK_FACTORY_CACHE_MAX:
                _BLOCK_FACTORY_CACHE.clear()
            _BLOCK_FACTORY_CACHE[key] = make
        addrs = tuple(item[0] for item in seq)
        meta = tuple(
            (item[2].spec.category.name, item[2].opcode.name, item[2].spec.cycles)
            for item in seq
        )
        cycles_bound = sum(item[2] for item in meta) + _CYCLE_MARGIN
        blk = _Block(
            start=pc,
            addrs=addrs,
            words=tuple(item[1] for item in seq),
            meta=meta,
            slot_ix=term_ix + 1 if term_ix >= 0 else -1,
            term_taken=_term_taken(seq, term_ix),
            cycles_bound=cycles_bound,
            pair_seconds=pair_seconds,
        )
        blk.thunk = make(m, blk)
        self.blocks_compiled += 1
        self._blocks[pc] = blk
        cw = self.code_words
        for wi in range(blk.word_lo, blk.word_hi + 1):
            cw.setdefault(wi, []).append(blk)
        return blk

    def _lookup(self, m: ArchState, pc: int) -> _Block | None:
        if pc in self._nocompile:
            return None
        blk = self._compile_block(m, pc)
        if blk is None:
            self._nocompile.add(pc)
        return blk

    # -- ExecutionEngine ----------------------------------------------------

    def step(self, m: ArchState) -> Instruction | None:
        """Single-step with full reference semantics (block compilation is
        a ``run_loop``-only optimisation)."""
        return self._ref.step(m)

    def run_loop(
        self,
        m: ArchState,
        max_steps: int,
        max_cycles: int | None,
        deadline: float | None,
    ) -> int:
        """Dispatch compiled superblocks until halt or a budget expires;
        returns the steps executed."""
        mem = m.memory
        # attach (not set): multicore runs share one memory between
        # several block-compiling engines, each of which must keep
        # seeing cross-core code writes.
        mem.attach_exec_listener(self)
        if not self._halt_known or m.halt_address != self._halt_addr:
            # halt_address is baked into block endings; recompile.
            if self._blocks or self._nocompile:
                self.flush_code()
            self._halt_addr = m.halt_address
            self._halt_known = True
        ref_step = self._ref.step
        bus = m.observers
        stats = m.stats
        blocks_get = self._blocks.get
        steps = 0
        check_at = 1024
        while m.halted is None:
            if (
                bus.step_observed
                or m.pending_interrupt is not None
                or m._pending_jump
            ):
                ref_step(m)
                steps += 1
            else:
                pc = m.pc
                blk = blocks_get(pc)
                if blk is None:
                    blk = self._lookup(m, pc)
                if blk is None:
                    # Unfetchable/undecodable entry: the oracle traps.
                    ref_step(m)
                    steps += 1
                elif steps + blk.n > max_steps or (
                    max_cycles is not None
                    and stats.cycles + blk.cycles_bound >= max_cycles
                ):
                    # A watchdog could fire mid-block; run the tail at
                    # single-step granularity for exact halt points.
                    ref_step(m)
                    steps += 1
                else:
                    steps += blk.thunk()
            if m.halted is not None:
                break
            if steps >= max_steps:
                m._set_halted(HaltReason.STEP_LIMIT)
            elif max_cycles is not None and stats.cycles >= max_cycles:
                m._set_halted(HaltReason.CYCLE_LIMIT)
            elif deadline is not None and steps >= check_at:
                check_at = steps + 1024
                if time.monotonic() > deadline:
                    m._set_halted(HaltReason.WALL_CLOCK_LIMIT)
        return steps

"""Pre-decoded closure-dispatch execution engine.

The fast backend compiles every instruction word it meets into a
specialised Python closure (a *thunk*) and caches it per PC.  The thunk
inlines everything the reference interpreter re-derives each step:

* operand accessors - window-relative register numbers are folded to
  physical-index expressions over ``psw.cwp`` at compile time;
* ALU semantics - no :class:`~repro.cpu.alu.AluResult` allocation, no
  opcode dispatch chain; flags are computed inline only when ``scc`` is
  set (plus under the dynamic ``trap_on_overflow`` guard);
* static operands - immediates, PC-relative targets (JMPR/CALLR) and
  LDHI constants are baked in as literals;
* stats/sequencing bookkeeping, specialised per instruction.

The word is **re-fetched on every step** (this both counts
``inst_reads`` identically to the reference and makes self-modifying or
fault-corrupted code safe: a word mismatch recompiles).  Thunks bind the
machine's register list, PSW, stats and memory as default arguments;
:meth:`~repro.cpu.state.ArchState.restore` rewinds those objects in
place, so a checkpoint/rollback - even one taken mid-delay-slot - never
invalidates a thunk.

While :attr:`ObserverBus.step_observed` is true or an interrupt is
latched, steps run one at a time: the engine calls the ``pre_step``
hooks itself, dispatches the *unfused* thunk (a fused pair would skip a
step boundary) and fires ``step`` after a completed instruction.  Only
a latched interrupt or a ``fetch_word``/``mem_access`` observer - the
events that change fetch or data-side semantics - hands the rest of the
step to :meth:`ReferenceEngine.step_body
<repro.cpu.engine.ReferenceEngine.step_body>`.  Boundary events
(``call``/``return``/``trap``/``halt``) are emitted from the shared
state core and therefore fire identically under every engine.

Bit-identical results versus the reference are enforced by
:mod:`repro.cpu.equivalence` on every bundled workload.
"""

from __future__ import annotations

from repro.common.bitops import MASK32, SIGN_BIT32
from repro.cpu.engine import ReferenceEngine
from repro.cpu.state import (
    HALT_PC,
    _is_nop,
    _memory_trap_cause,
    _TrapSignal,
    ArchState,
    HaltReason,
    TrapCause,
)
from repro.errors import DecodingError, MemoryFaultError, SimulationError
from repro.isa.conditions import Cond
from repro.isa.formats import Instruction
from repro.isa.opcodes import Category, Opcode

_M32 = MASK32  # 4294967295
_SIGN = SIGN_BIT32  # 2147483648
_TWO32 = 1 << 32

#: Jump predicates as inline expressions over the bound ``psw`` local.
_COND_EXPR = {
    Cond.NEVER: "False",
    Cond.ALW: "True",
    Cond.EQ: "psw.z",
    Cond.NE: "not psw.z",
    Cond.LT: "psw.n != psw.v",
    Cond.LE: "psw.z or (psw.n != psw.v)",
    Cond.GT: "not (psw.z or (psw.n != psw.v))",
    Cond.GE: "psw.n == psw.v",
    Cond.LTU: "psw.c",
    Cond.LEU: "psw.c or psw.z",
    Cond.GTU: "not (psw.c or psw.z)",
    Cond.GEU: "not psw.c",
    Cond.MI: "psw.n",
    Cond.PL: "not psw.n",
    Cond.V: "psw.v",
    Cond.NV: "not psw.v",
}

_SUM_EXPR = {
    Opcode.ADD: "a + b",
    Opcode.ADDC: "a + b + psw.c",
    Opcode.SUB: "a - b",
    Opcode.SUBC: "a - b - psw.c",
    Opcode.SUBR: "b - a",
    Opcode.SUBCR: "b - a - psw.c",
}
_ADD_OPS = frozenset({Opcode.ADD, Opcode.ADDC})
_SUB_OPS = frozenset({Opcode.SUB, Opcode.SUBC})
_SUBR_OPS = frozenset({Opcode.SUBR, Opcode.SUBCR})

_LOAD_CALL = {
    Opcode.LDL: "mem.load_word(addr)",
    Opcode.LDSU: "mem.load_half(addr)",
    Opcode.LDSS: f"mem.load_half(addr, signed=True) & {_M32}",
    Opcode.LDBU: "mem.load_byte(addr)",
    Opcode.LDBS: f"mem.load_byte(addr, signed=True) & {_M32}",
}
_STORE_NAME = {
    Opcode.STL: "store_word",
    Opcode.STS: "store_half",
    Opcode.STB: "store_byte",
}


def _reg_index(reg: int, nw: int, uw: bool) -> str:
    """Physical-index expression for visible register *reg* (``reg >= 1``).

    Folds :func:`repro.isa.registers.physical_index` into an expression
    over the runtime ``psw.cwp`` (PUTPSW can change the window pointer,
    so it cannot be baked in).
    """
    if not uw or reg < 10:
        return str(reg)
    if reg < 26:  # LOW+LOCAL: 10 + 16*w + (reg-10) == 16*w + reg
        if nw == 8:
            return f"psw.cwp*16+{reg}"
        return f"(psw.cwp%{nw})*16+{reg}"
    # HIGH: caller's LOW: 10 + 16*((w+1)%nw) + (reg-26) == 16*caller + reg-16
    if nw == 8:
        return f"((psw.cwp+1)&7)*16+{reg-16}"
    return f"((psw.cwp+1)%{nw})*16+{reg-16}"


def _read_expr(reg: int, nw: int, uw: bool) -> str:
    if reg == 0:
        return "0"
    return f"R[{_reg_index(reg, nw, uw)}]"


def _inst_lines(
    inst: Instruction, nw: int, uw: bool, pcname: str = "pc", tname: str = "t"
) -> tuple[list[str], list[str], str]:
    """One instruction's complete execution as generated-source pieces.

    Returns ``(preamble, body, extra_defaults)``: *preamble* lines run
    in ``make`` scope (hoisted PC-relative targets), *body* lines are
    the thunk's semantics + sequencing + stats + halt checks, and
    *extra_defaults* is appended to the thunk's default-argument list.
    *pcname*/*tname* parameterise the instruction's own address and its
    hoisted target so :func:`_codegen_fused` can compose two
    instructions in one thunk without name collisions.
    """
    op = inst.opcode
    spec = inst.spec
    cat = spec.category
    dest = inst.dest
    body: list[str] = []
    preamble: list[str] = []
    extra_defaults = ""

    def emit(line: str) -> None:
        body.append(line)

    def read_ab() -> None:
        emit(f"a = {_read_expr(inst.rs1, nw, uw)}")
        if inst.imm:
            emit(f"b = {inst.s2 & _M32}")
        else:
            emit(f"b = {_read_expr(inst.s2 & 0x1F, nw, uw)}")

    def write_dest(value_expr: str) -> None:
        if dest != 0:
            emit(f"R[{_reg_index(dest, nw, uw)}] = {value_expr}")
        elif value_expr != "value":
            emit(value_expr)  # evaluate for side effects, discard

    taken_jump = False  # emitted jump sequencing handles pc/npc itself

    if cat is Category.ALU:
        read_ab()
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
            emit("if m.trap_on_overflow:")
            emit(f"    if {ovf}:")
            emit(f'        raise _TrapSignal(_OVF, "signed overflow in {op.name}")')
            write_dest("value")
            if inst.scc:
                emit("psw.z = value == 0")
                emit(f"psw.n = (value & {_SIGN}) != 0")
                emit(f"psw.c = {carry}")
                emit(f"psw.v = ({ovf}) != 0")
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
            write_dest("value")
            if inst.scc:
                emit("psw.z = value == 0")
                emit(f"psw.n = (value & {_SIGN}) != 0")
                emit("psw.c = False")
                emit("psw.v = False")
    elif cat is Category.LOAD:
        read_ab()
        emit(f"addr = (a + b) & {_M32}")
        emit(f"value = {_LOAD_CALL[op]}")
        write_dest("value")
    elif cat is Category.STORE:
        read_ab()
        emit(f"addr = (a + b) & {_M32}")
        emit(f"mem.{_STORE_NAME[op]}(addr, {_read_expr(dest, nw, uw)})")
    elif cat is Category.JUMP:
        taken_jump = True
        if op in (Opcode.JMP, Opcode.JMPR):
            if op is Opcode.JMP:
                read_ab()
                target = f"(a + b) & {_M32}"
            else:
                preamble.append(f"{tname} = ({pcname} + {inst.imm19}) & {_M32}")
                extra_defaults = f", {tname}={tname}"
                target = tname
            cond = _COND_EXPR[inst.cond]
            emit("npc = m.npc")
            if cond == "True":
                emit(f"m.npc = {target}")
                emit("m._pending_jump = True")
                emit("stats.taken_jumps += 1")
            elif cond == "False":
                emit("m.npc = npc + 4")
            else:
                emit(f"if {cond}:")
                emit(f"    m.npc = {target}")
                emit("    m._pending_jump = True")
                emit("    stats.taken_jumps += 1")
                emit("else:")
                emit("    m.npc = npc + 4")
            emit("m.pc = npc")
        elif op in (Opcode.CALL, Opcode.CALLR):
            if op is Opcode.CALL:
                read_ab()
                emit(f"target = (a + b) & {_M32}")
            else:
                preamble.append(f"{tname} = ({pcname} + {inst.imm19}) & {_M32}")
                extra_defaults = f", {tname}={tname}"
                emit(f"target = {tname}")
            emit("m._enter_frame()")  # may trap; nothing mutated yet
            write_dest(f"{pcname} & {_M32}")  # return linkage, in the NEW window
            emit("stats.calls += 1")
            emit("npc = m.npc")
            emit("m.npc = target")
            emit("m._pending_jump = True")
            emit("stats.taken_jumps += 1")
            emit("m.pc = npc")
        elif op in (Opcode.RET, Opcode.RETINT):
            read_ab()
            emit(f"target = (a + b) & {_M32}")  # read in the OLD window
            emit("m._exit_frame()")  # may trap; nothing mutated yet
            emit("stats.returns += 1")
            if op is Opcode.RETINT:
                emit("psw.interrupts_enabled = True")
            emit("npc = m.npc")
            emit("m.npc = target")
            emit("m._pending_jump = True")
            emit("stats.taken_jumps += 1")
            emit("m.pc = npc")
        else:  # CALLINT: new window, no jump
            emit("m._enter_frame()")
            write_dest(f"m.lpc & {_M32}")
            emit("stats.calls += 1")
            emit("npc = m.npc")
            emit("m.npc = npc + 4")
            emit("m.pc = npc")
    elif op is Opcode.LDHI:
        write_dest(str((inst.imm19 << 13) & _M32))
    elif op is Opcode.GTLPC:
        write_dest(f"m.lpc & {_M32}")
    elif op is Opcode.GETPSW:
        write_dest("psw.pack()")
    else:  # PUTPSW
        read_ab()
        emit(f"psw.unpack((a + b) & {_M32})")

    if not taken_jump:
        emit("npc = m.npc")
        emit("m.pc = npc")
        emit("m.npc = npc + 4")
    emit("stats.instructions += 1")
    emit(f"stats.cycles += {spec.cycles}")
    emit(f'by_cat["{cat.name}"] += 1')
    emit(f'by_op["{op.name}"] += 1')
    emit(f"m.lpc = {pcname}")
    emit(f"if npc == {HALT_PC}:")
    emit("    m._set_halted(_RETURNED)")
    emit("elif m.halt_address is not None and npc == m.halt_address:")
    emit("    m._set_halted(_EXPLICIT)")
    return preamble, body, extra_defaults


def _codegen(inst: Instruction, nw: int, uw: bool) -> str:
    """Emit the source of ``make(pc, m) -> thunk`` for one instruction."""
    preamble, body, extra_defaults = _inst_lines(inst, nw, uw)
    pre = "\n".join(f"    {line}" for line in preamble)
    inner = "\n".join(f"        {line}" for line in body)
    return (
        "def make(pc, m):\n"
        "    R = m.regs._regs\n"
        "    psw = m.psw\n"
        "    stats = m.stats\n"
        "    mem = m.memory\n"
        "    by_cat = stats.by_category\n"
        "    by_op = stats.by_opcode\n"
        f"{pre}\n"
        "    def thunk(m, R=R, psw=psw, stats=stats, mem=mem,"
        f" by_cat=by_cat, by_op=by_op, pc=pc{extra_defaults}):\n"
        f"{inner}\n"
        "    return thunk\n"
    )


def _codegen_fused(
    inst1: Instruction, inst2: Instruction, word2: int, call_slot: bool,
    nw: int, uw: bool,
) -> str:
    """Emit ``make(pc, m, fh) -> thunk`` executing a proved pair in one
    dispatch.

    The thunk runs both halves' *complete* single-instruction bodies
    (semantics, sequencing, stats, halt checks) back to back, so the
    architectural trajectory - every counter, every trap - is
    bit-identical to two unfused dispatches; fusion saves the dispatch
    overhead (fetch compare, cache probe, call, try frame), not
    architectural work.  Between the halves it:

    * returns if the first half halted the machine (explicit halt
      address on the pair's seam);
    * for call+slot pairs, re-validates the slot word (the call's
      window spill may have overwritten it - returning de-fuses, and
      the loop re-dispatches the slot unfused via the latched pending
      jump) and performs the dispatcher's delay-slot accounting;
    * counts the second half's instruction fetch, exactly once and only
      when the second half actually issues.

    A second-half trap is caught inside the thunk: the first half's
    effects are already committed and sequencing already points at the
    second address, so :func:`_fused_second_trap` records the precise
    trap just as the dispatcher would for an unfused dispatch.

    The thunk returns True when the second half issued (completed or
    trapped) - the dispatch then counts as two steps - and None when it
    stopped after the first half.
    """
    pre1, body1, xd1 = _inst_lines(inst1, nw, uw, "pc", "t1")
    pre2, body2, xd2 = _inst_lines(inst2, nw, uw, "pc2", "t2")
    extra = xd1 + xd2
    mid = ["if m.halted is not None:", "    return"]
    if call_slot:
        pre1 = [f'w2b = ({word2}).to_bytes(4, "big")', *pre1]
        extra += ", w2b=w2b"
        mid.append("if mem._bytes[pc2 : pc2 + 4] != w2b:")
        mid.append("    return")
        mid.append("stats.delay_slots += 1")
        if _is_nop(inst2):
            mid.append("stats.delay_slot_nops += 1")
        mid.append("m._pending_jump = False")
    mid.append("ms.inst_reads += 1")
    body = body1 + mid + ["try:"]
    body += [f"    {line}" for line in body2]
    body += [
        "except (_MemFault, _TrapSignal) as exc:",
        f"    _ft(m, exc, pc2, {word2}, {call_slot})",
        "    return True",
        "fh[0] += 1",
        "return True",
    ]
    pre = "\n".join(f"    {line}" for line in (pre1 + pre2))
    inner = "\n".join(f"        {line}" for line in body)
    return (
        "def make(pc, m, fh):\n"
        "    R = m.regs._regs\n"
        "    psw = m.psw\n"
        "    stats = m.stats\n"
        "    mem = m.memory\n"
        "    by_cat = stats.by_category\n"
        "    by_op = stats.by_opcode\n"
        "    ms = mem.stats\n"
        "    pc2 = pc + 4\n"
        f"{pre}\n"
        "    def thunk(m, R=R, psw=psw, stats=stats, mem=mem,"
        f" by_cat=by_cat, by_op=by_op, pc=pc, pc2=pc2, ms=ms, fh=fh"
        f"{extra}):\n"
        f"{inner}\n"
        "    return thunk\n"
    )


def _fused_second_trap(
    m: "ArchState", exc: Exception, pc: int, word: int, in_slot: bool
) -> None:
    """Precise trap for a fused pair's second half.

    By the time the second half issues, the first half's effects are
    committed and pc/npc already describe the second instruction (for a
    call+slot pair: slot pc with the call target latched in npc), so
    this mirrors the dispatcher's trap path for an unfused dispatch of
    the second word.
    """
    if isinstance(exc, MemoryFaultError):
        cause = _memory_trap_cause(exc)
    else:
        assert isinstance(exc, _TrapSignal)
        cause = exc.cause
    m._trap(
        cause,
        pc=pc,
        word=word,
        address=exc.address,
        message=str(exc),
        in_delay_slot=in_slot,
    )


#: Compiled factories shared by every FastEngine, keyed by
#: (word, num_windows, use_windows); pc and machine bind at make() time.
_FACTORY_CACHE: dict[tuple[int, int, bool], object] = {}
#: Fused-pair factories, keyed by (word1, word2, num_windows, use_windows).
_FUSED_FACTORY_CACHE: dict[tuple[int, int, int, bool], object] = {}
_FACTORY_CACHE_MAX = 65536

#: Upper bound on the cycles a fused pair's first half can add (its own
#: cycles plus a window spill); closer than this to the cycle watchdog,
#: pairs dispatch unfused so the watchdog halts between the halves.
_FUSED_CYCLE_MARGIN = 64

_EXEC_GLOBALS = {
    "_TrapSignal": _TrapSignal,
    "_MemFault": MemoryFaultError,
    "_OVF": TrapCause.ARITHMETIC_OVERFLOW,
    "_RETURNED": HaltReason.RETURNED,
    "_EXPLICIT": HaltReason.EXPLICIT,
    "_ft": _fused_second_trap,
}


def _factory_for(word: int, inst: Instruction, nw: int, uw: bool):
    key = (word, nw, uw)
    make = _FACTORY_CACHE.get(key)
    if make is None:
        source = _codegen(inst, nw, uw)
        namespace = dict(_EXEC_GLOBALS)
        exec(compile(source, f"<fast {inst.opcode.name} {word:#010x}>", "exec"), namespace)
        make = namespace["make"]
        if len(_FACTORY_CACHE) >= _FACTORY_CACHE_MAX:
            _FACTORY_CACHE.clear()
        _FACTORY_CACHE[key] = make
    return make


def _fused_factory_for(
    word1: int, inst1: Instruction, word2: int, inst2: Instruction,
    call_slot: bool, nw: int, uw: bool,
):
    key = (word1, word2, nw, uw)
    make = _FUSED_FACTORY_CACHE.get(key)
    if make is None:
        source = _codegen_fused(inst1, inst2, word2, call_slot, nw, uw)
        label = f"<fused {inst1.opcode.name}+{inst2.opcode.name} {word1:#010x}>"
        namespace = dict(_EXEC_GLOBALS)
        exec(compile(source, label, "exec"), namespace)
        make = namespace["make"]
        if len(_FUSED_FACTORY_CACHE) >= _FACTORY_CACHE_MAX:
            _FUSED_FACTORY_CACHE.clear()
        _FUSED_FACTORY_CACHE[key] = make
    return make


class FastEngine:
    """Closure-threaded interpreter, oracle-verified against the reference.

    Per-machine state: a ``pc -> (word, thunk, is_nop, inst, word2)``
    cache.  ``word2`` is ``None`` for ordinary entries; for a fused
    entry (a statically-proved pair armed via :meth:`arm_fusion`) it is
    the second half's encoding, and the dispatch loop re-validates it -
    like the first word - on every step, so self-modifying code,
    fault-injected memory and rollbacks all de-fuse or invalidate stale
    thunks naturally.  Fused entries execute both halves in one
    dispatch with bit-identical architectural effects; only proved
    pairs ever fuse, and :meth:`step` (single-instruction semantics by
    contract) and every observed step always execute unfused.
    """

    name = "fast"

    def __init__(self) -> None:
        self._ref = ReferenceEngine()
        self._cache: dict[int, tuple] = {}
        #: unfused shadows of armed pcs, for step() and pending dispatch.
        self._scache: dict[int, tuple] = {}
        #: armed pairs by first-half address (see repro.analysis.fusion).
        self._fused: dict[int, object] = {}
        #: per-pair completed-dispatch counters (list cells bound into thunks).
        self._fused_hits: dict[int, list[int]] = {}
        #: thunks built over the engine's lifetime (recompiles included).
        self.thunks_compiled = 0
        #: steps whose thunk ran under per-step observers.
        self.observed_steps = 0
        #: steps handed to the reference engine's step body.
        self.oracle_steps = 0

    def telemetry_snapshot(self) -> dict:
        """Thunk-cache and execution-path counters for the manifest's
        engine section."""
        return {
            "thunks_cached": len(self._cache),
            "thunks_compiled": self.thunks_compiled,
            "fused_pairs_armed": len(self._fused),
            "fused_dispatches": self.fused_dispatches,
            "observed_steps": self.observed_steps,
            "oracle_steps": self.oracle_steps,
        }

    def forget_code(self, pc: int) -> None:
        """Drop the thunks built from the word at *pc* (a fetch pin on
        *pc* came or went); a fused entry only runs while no pin is."""
        self._cache.pop(pc, None)
        self._scache.pop(pc, None)

    # -- fusion -------------------------------------------------------------

    def arm_fusion(self, pairs) -> int:
        """Arm statically-proved pairs; returns the number armed.

        *pairs* is an iterable of
        :class:`~repro.analysis.fusion.FusionPair` (anything with
        ``first``/``second``/``word1``/``word2``/``kind`` duck-types).
        Re-arming replaces the previous set.  Arming carries no
        correctness risk: each dispatch re-validates both words against
        the proof and falls back to unfused execution on any mismatch.
        """
        armed: dict[int, object] = {}
        for pair in pairs:
            if pair.second != pair.first + 4:
                raise ValueError(
                    f"fusion pair at {pair.first:#x} is not adjacent "
                    f"(second half at {pair.second:#x})"
                )
            armed[pair.first] = pair
        self._fused = armed
        self._fused_hits = {pc: [0] for pc in armed}
        self._cache.clear()
        self._scache.clear()
        return len(armed)

    @property
    def fused_dispatches(self) -> int:
        """Completed fused executions (both halves) since arming."""
        return sum(cell[0] for cell in self._fused_hits.values())

    def fused_hit_counts(self) -> dict[int, int]:
        """Non-zero per-pair dispatch counts, keyed by first-half address."""
        return {pc: cell[0] for pc, cell in self._fused_hits.items() if cell[0]}

    # -- compilation --------------------------------------------------------

    def _compile(self, m: ArchState, pc: int, word: int) -> tuple | None:
        """Decode *word* into a thunk entry, fused when the address is
        armed and both halves match the proof; None after a decode trap."""
        pair = self._fused.get(pc)
        if pair is not None and pair.word1 == word:  # type: ignore[attr-defined]
            entry = self._compile_fused(m, pc, pair)
            if entry is not None:
                return entry
        return self._compile_one(m, pc, word)

    def _compile_one(self, m: ArchState, pc: int, word: int) -> tuple | None:
        """Decode *word* as a fetch pin on *pc* leaves it and build its
        thunk; None after a decode trap.  The entry keeps *word*, the
        memory word it stays valid for."""
        run = m._fetch_pinned(pc, word)
        try:
            if run == word:
                inst = m.decoder.decode(word)
            else:
                inst = m.decoder.decode_uncached(run)
        except DecodingError as exc:
            m._trap(
                TrapCause.ILLEGAL_INSTRUCTION,
                pc=pc,
                word=run,
                message=str(exc),
                in_delay_slot=m._pending_jump,
            )
            return None
        make = _factory_for(run, inst, m.num_windows, m.use_windows)
        self.thunks_compiled += 1
        return (word, make(pc, m), _is_nop(inst), inst, None)

    def _compile_fused(self, m: ArchState, pc: int, pair) -> tuple | None:
        """Build the two-halves-in-one-dispatch entry for an armed pair.

        Returns None (caller falls back to an unfused entry) when the
        in-memory second word no longer matches the proof or either
        half fails structural checks; the proof's legality guarantees
        make these checks redundant, but the engine never trusts a
        proof it cannot re-verify against the bytes it will execute.
        """
        mem = m.memory
        if pc + 8 > mem.size:
            return None
        word2 = int.from_bytes(mem._bytes[pc + 4 : pc + 8], "big")
        if word2 != pair.word2:
            return None
        try:
            inst1 = m.decoder.decode(pair.word1)
            inst2 = m.decoder.decode(word2)
        except DecodingError:
            return None
        call_slot = pair.kind == "call-slot"
        if call_slot:
            if inst1.opcode not in (Opcode.CALL, Opcode.CALLR):
                return None
        elif inst1.spec.is_delayed:
            return None  # transfer-first pairs are only sound as call+slot
        if inst2.spec.is_delayed and inst2.opcode not in (Opcode.JMP, Opcode.JMPR):
            return None  # second-half transfers only via cmp-branch
        make = _fused_factory_for(
            pair.word1, inst1, word2, inst2, call_slot,
            m.num_windows, m.use_windows,
        )
        self.thunks_compiled += 1
        fh = self._fused_hits.setdefault(pc, [0])
        return (pair.word1, make(pc, m, fh), _is_nop(inst1), inst1, word2)

    def _singleton(self, m: ArchState, pc: int, word: int) -> tuple | None:
        """The unfused entry for an armed pc (step / pending dispatch)."""
        entry = self._scache.get(pc)
        if entry is None or entry[0] != word:
            entry = self._compile_one(m, pc, word)
            if entry is not None:
                self._scache[pc] = entry
        return entry

    # -- trap plumbing ------------------------------------------------------

    def _fetch_fault(self, m: ArchState, pc: int) -> None:
        try:
            m.memory.fetch_word(pc)  # re-raise with the precise fault detail
        except MemoryFaultError as exc:
            m._trap(
                _memory_trap_cause(exc),
                pc=pc,
                address=exc.address,
                message=f"instruction fetch: {exc}",
                in_delay_slot=m._pending_jump,
            )

    def _dispatch_trap(
        self, m: ArchState, pc: int, word: int, exc: Exception, pending: bool
    ) -> None:
        word = m._fetch_pinned(pc, word)
        if isinstance(exc, MemoryFaultError):
            m._trap(
                _memory_trap_cause(exc),
                pc=pc,
                word=word,
                address=exc.address,
                message=str(exc),
                in_delay_slot=pending,
            )
        else:
            assert isinstance(exc, _TrapSignal)
            m._trap(
                exc.cause,
                pc=pc,
                word=word,
                address=exc.address,
                message=str(exc),
                in_delay_slot=pending,
            )

    # -- ExecutionEngine ----------------------------------------------------

    def step(self, m: ArchState) -> Instruction | None:
        """One instruction through the thunk cache, always unfused."""
        if m.halted is not None:
            raise SimulationError(f"machine is halted ({m.halted.value})")
        if m.observers.step_observed or m.pending_interrupt is not None:
            return self._observed_step(m)
        return self._dispatch(m)

    def _observed_step(self, m: ArchState) -> Instruction | None:
        """One step under per-step observers or a latched interrupt.

        Runs the ``pre_step`` hooks first, as the oracle does.  The rest
        of the step goes to the oracle's body only if a hook left work
        that changes fetch or memory semantics: a latched interrupt, or
        a ``fetch_word``/``mem_access`` observer.  Otherwise the unfused
        thunk runs, and a completed instruction fires ``step``.
        """
        bus = m.observers
        for hook in bus.on_pre_step:
            hook(m)
        if m.pending_interrupt is not None or bus.on_fetch_word or bus.on_mem_access:
            self.oracle_steps += 1
            return self._ref.step_body(m)
        self.observed_steps += 1
        pc = m.pc
        inst = self._dispatch(m)
        if inst is not None and bus.on_step:
            taken = m._pending_jump  # set by exactly the taken transfers
            for fn in bus.on_step:
                fn(m, pc, inst, taken)
        return inst

    def run_observed(
        self, m: ArchState, max_steps: int, max_cycles: int | None
    ) -> int:
        """Run :meth:`_observed_step` until no observer is attached, the
        machine halts, *max_steps* steps ran or the cycle count reaches
        *max_cycles*; returns the steps run.

        Sets no halt: a caller's loop that hands it an observed stretch
        keeps its own watchdogs, exact at the step it stops on.
        """
        observed_step = self._observed_step
        bus = m.observers
        stats = m.stats
        steps = 0
        while steps < max_steps and m.halted is None and bus.step_observed:
            observed_step(m)
            steps += 1
            if max_cycles is not None and stats.cycles >= max_cycles:
                break
        return steps

    def _dispatch(self, m: ArchState) -> Instruction | None:
        """Force the pins, fetch, compile if needed, and run one unfused
        thunk; None when the step trapped."""
        if m.pinned:
            m._force_pins()
        mem = m.memory
        pc = m.pc
        if pc & 3 or pc < 0 or pc + 4 > mem.size:
            self._fetch_fault(m, pc)
            return None
        mem.stats.inst_reads += 1
        word = int.from_bytes(mem._bytes[pc : pc + 4], "big")
        entry = self._cache.get(pc)
        if entry is None or entry[0] != word:
            entry = self._compile(m, pc, word)
            if entry is None:
                return None
            self._cache[pc] = entry
        if entry[4] is not None:
            # step() is one instruction by contract: never run the pair.
            entry = self._singleton(m, pc, word)
            if entry is None:
                return None
        pending = m._pending_jump
        if pending:
            m.stats.delay_slots += 1
            if entry[2]:
                m.stats.delay_slot_nops += 1
            m._pending_jump = False
        try:
            entry[1](m)
        except (MemoryFaultError, _TrapSignal) as exc:
            self._dispatch_trap(m, pc, word, exc, pending)
            return None
        return entry[3]

    def run_loop(
        self,
        m: ArchState,
        max_steps: int,
        max_cycles: int | None,
        deadline: float | None,
    ) -> int:
        """Run the inlined fetch/decode/dispatch loop until halt or a budget
        expires; observed steps run one at a time through
        :meth:`_observed_step`.  Returns the steps executed (a fused pair
        counts as two)."""
        import time

        observed_step = self._observed_step
        bus = m.observers
        stats = m.stats
        mem = m.memory
        mem_stats = mem.stats
        mem_bytes = mem._bytes
        size = mem.size
        cache = self._cache
        cache_get = cache.get
        from_bytes = int.from_bytes
        # Past this cycle count a fused pair could cross the watchdog.
        fuse_below = (
            None if max_cycles is None else max_cycles - _FUSED_CYCLE_MARGIN
        )
        steps = 0
        check_at = 1024
        while m.halted is None:
            if bus.step_observed or m.pending_interrupt is not None:
                observed_step(m)
            else:
                if m.pinned:
                    m._force_pins()
                pc = m.pc
                if pc & 3 or pc < 0 or pc + 4 > size:
                    self._fetch_fault(m, pc)
                else:
                    mem_stats.inst_reads += 1
                    word = from_bytes(mem_bytes[pc : pc + 4], "big")
                    entry = cache_get(pc)
                    if entry is None or entry[0] != word:
                        entry = self._compile(m, pc, word)
                        if entry is not None:
                            cache[pc] = entry
                    if entry is not None and entry[4] is not None:
                        if (
                            m._pending_jump
                            or steps + 1 >= max_steps
                            or (fuse_below is not None and stats.cycles >= fuse_below)
                            or m.pinned
                        ):
                            # The pair's first half sits in a live delay
                            # slot this dispatch (run it unfused so the
                            # slot accounting below stays exact), a
                            # watchdog may halt between the two halves,
                            # or a pin is due between them or corrupts
                            # a half.
                            entry = self._singleton(m, pc, word)
                        elif from_bytes(mem_bytes[pc + 4 : pc + 8], "big") != entry[4]:
                            # Second half rewritten: de-fuse this pc.
                            entry = self._singleton(m, pc, word)
                            if entry is not None:
                                cache[pc] = entry
                    if entry is not None:
                        pending = m._pending_jump
                        if pending:
                            stats.delay_slots += 1
                            if entry[2]:
                                stats.delay_slot_nops += 1
                            m._pending_jump = False
                        try:
                            if entry[1](m):
                                steps += 1  # a fused pair's second half issued
                        except (MemoryFaultError, _TrapSignal) as exc:
                            self._dispatch_trap(m, pc, word, exc, pending)
            steps += 1
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

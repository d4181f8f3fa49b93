"""Pre-decoded closure-dispatch single-stepper of the trace tier.

:class:`FastEngine` is not a tier of its own: the trace engine
(:mod:`repro.cpu.traceengine`) runs through it every step it cannot
run inside a compiled trace - ``step()`` calls, observed stretches, a
latched interrupt or pending delay slot, an uncompilable entry, a
watchdog tail, a trace rejected under a pin.  It compiles every
instruction word it meets into a specialised Python closure (a
*thunk*) and caches it per PC.  The thunk inlines everything the
reference interpreter re-derives each step:

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
latched, the engine calls the ``pre_step`` hooks itself, dispatches
the thunk and fires ``step`` after a completed instruction.  Only a
latched interrupt or a ``fetch_word`` observer - the events that change
what a step fetches - hands the rest of the step to
:meth:`ReferenceEngine.step_body
<repro.cpu.engine.ReferenceEngine.step_body>`.  Boundary events
(``call``/``return``) are emitted from the shared state core and
therefore fire identically under every engine.

Bit-identical results versus the reference are enforced through the
trace tier by :mod:`repro.cpu.equivalence` on every bundled workload.
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
    inst: Instruction, nw: int, uw: bool
) -> tuple[list[str], list[str], str]:
    """One instruction's complete execution as generated-source pieces.

    Returns ``(preamble, body, extra_defaults)``: *preamble* lines run
    in ``make`` scope (hoisted PC-relative targets), *body* lines are
    the thunk's semantics + sequencing + stats + halt checks, and
    *extra_defaults* is appended to the thunk's default-argument list.
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
                preamble.append(f"t = (pc + {inst.imm19}) & {_M32}")
                extra_defaults = ", t=t"
                target = "t"
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
                preamble.append(f"t = (pc + {inst.imm19}) & {_M32}")
                extra_defaults = ", t=t"
                emit("target = t")
            emit("m._enter_frame()")  # may trap; nothing mutated yet
            write_dest(f"pc & {_M32}")  # return linkage, in the NEW window
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
    emit("m.lpc = pc")
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


#: Compiled factories shared by every FastEngine, keyed by
#: (word, num_windows, use_windows); pc and machine bind at make() time.
_FACTORY_CACHE: dict[tuple[int, int, bool], object] = {}
_FACTORY_CACHE_MAX = 65536

_EXEC_GLOBALS = {
    "_TrapSignal": _TrapSignal,
    "_MemFault": MemoryFaultError,
    "_OVF": TrapCause.ARITHMETIC_OVERFLOW,
    "_RETURNED": HaltReason.RETURNED,
    "_EXPLICIT": HaltReason.EXPLICIT,
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


class FastEngine:
    """Closure-threaded single-stepper, oracle-verified through the trace
    tier that owns it.

    Per-machine state: a ``pc -> (word, thunk, is_nop, inst)`` cache.
    Every step re-validates ``word`` against memory, so self-modifying
    code, fault-injected memory and rollbacks all recompile stale
    thunks naturally.
    """

    def __init__(self) -> None:
        self._ref = ReferenceEngine()
        self._cache: dict[int, tuple] = {}
        #: steps handed to the reference engine's step body.
        self.oracle_steps = 0

    def forget_code(self, pc: int) -> None:
        """Drop the thunk built from the word at *pc* (a fetch pin on
        *pc* came or went)."""
        self._cache.pop(pc, None)

    # -- compilation --------------------------------------------------------

    def _compile(self, m: ArchState, pc: int, word: int) -> tuple | None:
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
        return (word, make(pc, m), _is_nop(inst), inst)

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
        """One instruction through the thunk cache."""
        if m.halted is not None:
            raise SimulationError(f"machine is halted ({m.halted.value})")
        if m.observers.step_observed or m.pending_interrupt is not None:
            return self._observed_step(m)
        return self._dispatch(m)

    def _observed_step(self, m: ArchState) -> Instruction | None:
        """One step under per-step observers or a latched interrupt.

        Runs the ``pre_step`` hooks first, as the oracle does.  The rest
        of the step goes to the oracle's body only if a hook left work
        that changes what the step fetches: a latched interrupt, or a
        ``fetch_word`` observer.  Otherwise the thunk runs, and a
        completed instruction fires ``step``.
        """
        bus = m.observers
        for hook in bus.on_pre_step:
            hook(m)
        if m.pending_interrupt is not None or bus.on_fetch_word:
            self.oracle_steps += 1
            return self._ref.step_body(m)
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
        """Force the pins, fetch, compile if needed, and run one thunk;
        None when the step trapped."""
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

"""Generic CISC execution core shared by the four baseline machines.

The baselines differ (for the paper's tables) in *encoding size* and
*timing*, not in computational semantics, so one executor interprets a
generic two-address instruction set with CISC addressing modes, while a
per-machine :class:`MachineTraits` object prices every instruction in
bytes and cycles.

Semantics notes:

* registers r0..r15; r15 is SP, r14 is FP, r0 carries return values;
* values are 32-bit two's complement; division truncates toward zero;
* conditional branches test the operands captured by the last CMP/TST
  (an exact model of condition codes without flag-encoding bugs);
* byte accounting: static code size = sum of encoded sizes; dynamic
  instruction-fetch traffic = size of every executed instruction.

Execution never depends on the traits, and an instruction's price
depends only on the static instruction.  So :meth:`CiscExecutor.run`
decodes each static instruction once into a closure with its operand
readers, writer and ALU op bound, counts how often each pc executes,
and prices the counts when the run ends.  Machines whose generated
programs are equal run the same steps: :func:`run_distinct` runs each
distinct program once, and :meth:`CiscExecutor.price` prices the one
run for every machine that shares it.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.common.bitops import MASK32, to_signed, to_unsigned
from repro.common.memory import Memory
from repro.errors import BaselineError

SP = 15
FP = 14
RESULT_REG = 0
WORD = 4

_HALT_SENTINEL = -1


# -- operands -------------------------------------------------------------


@dataclass(frozen=True)
class Reg:
    n: int

    def __str__(self) -> str:
        return f"r{self.n}"


@dataclass(frozen=True)
class Imm:
    value: int

    def __str__(self) -> str:
        return f"#{self.value}"


@dataclass(frozen=True)
class Abs:
    address: int
    size: int = 4  # access width in bytes (1 or 4)

    def __str__(self) -> str:
        return f"@{self.address:#x}"


@dataclass(frozen=True)
class Ind:
    """Register-deferred with displacement: M[reg + disp]."""

    reg: int
    disp: int = 0
    size: int = 4

    def __str__(self) -> str:
        return f"{self.disp}(r{self.reg})"


@dataclass(frozen=True)
class AutoInc:
    reg: int
    size: int = 4

    def __str__(self) -> str:
        return f"(r{self.reg})+"


@dataclass(frozen=True)
class AutoDec:
    reg: int
    size: int = 4

    def __str__(self) -> str:
        return f"-(r{self.reg})"


Operand = object  # union of the above


class CiscOp(enum.Enum):
    MOV = "mov"
    LEA = "lea"  # dst = address of memory operand
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NEG = "neg"
    NOT = "not"
    ASL = "asl"
    ASR = "asr"
    LSR = "lsr"
    CMP = "cmp"
    TST = "tst"
    BCC = "bcc"  # conditional branch (relop field)
    BRA = "bra"
    JSR = "jsr"
    RTS = "rts"
    PUSH = "push"
    POP = "pop"
    SAVE = "save"  # MOVEM-style multi-register push
    RESTORE = "restore"
    CLR = "clr"


def _div(dst: int, src: int) -> int:
    a, b = to_signed(dst), to_signed(src)
    if b == 0:
        raise BaselineError("division by zero")
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


def _mod(dst: int, src: int) -> int:
    return to_signed(dst) - _div(dst, src) * to_signed(src)


#: Two-operand ALU semantics over the operands' raw values.  Every result
#: goes through a writer, which keeps the low 32 bits, so only the ops
#: whose low bits depend on the operands' signs convert them first.
_ALU = {
    CiscOp.ADD: operator.add,
    CiscOp.SUB: operator.sub,
    CiscOp.MUL: operator.mul,
    CiscOp.DIV: _div,
    CiscOp.MOD: _mod,
    CiscOp.AND: operator.and_,
    CiscOp.OR: operator.or_,
    CiscOp.XOR: operator.xor,
    CiscOp.ASL: lambda a, b: a << (b & 31),
    CiscOp.ASR: lambda a, b: to_signed(a) >> (b & 31),
    CiscOp.LSR: lambda a, b: to_unsigned(a) >> (b & 31),
}

_UNARY = {CiscOp.NEG: operator.neg, CiscOp.NOT: operator.invert}

#: Branch conditions over the signed operands captured by the last CMP/TST.
_RELOPS = {
    "==": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "ltu": lambda a, b: to_unsigned(a) < to_unsigned(b),
    "leu": lambda a, b: to_unsigned(a) <= to_unsigned(b),
    "gtu": lambda a, b: to_unsigned(a) > to_unsigned(b),
    "geu": lambda a, b: to_unsigned(a) >= to_unsigned(b),
}


def _relop_test(relop: str) -> Callable[[int, int], bool]:
    """The comparison for *relop*; an unknown relop raises when tested."""
    test = _RELOPS.get(relop)
    if test is None:
        def test(a: int, b: int) -> bool:
            raise BaselineError(f"unknown relop {relop!r}")
    return test


@dataclass
class CInst:
    """One generic CISC instruction.

    ``operands`` is (dst, src) for two-address forms, (dst,) for unary,
    (a, b) for CMP.  Branches use ``target`` (a label) and ``relop``.
    ``regs`` lists registers for SAVE/RESTORE.
    """

    op: CiscOp
    operands: tuple = ()
    target: str | None = None
    relop: str | None = None
    regs: tuple = ()
    label: str | None = None  # set on the instruction that *carries* a label

    def __str__(self) -> str:
        parts = [self.op.value]
        if self.relop:
            parts[0] = f"b{self.relop}"
        parts += [str(op) for op in self.operands]
        if self.target:
            parts.append(self.target)
        if self.regs:
            parts.append("{" + ",".join(f"r{r}" for r in self.regs) + "}")
        prefix = f"{self.label}: " if self.label else "  "
        return prefix + " ".join(parts)


@dataclass
class CiscProgram:
    """A linked generic-CISC module: instructions + label map + data image."""

    instructions: list[CInst] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    data: list[tuple[int, bytes]] = field(default_factory=list)  # (address, payload)
    entry: str = "main"

    def static_bytes(self, traits: "MachineTraits") -> int:
        return sum(traits.bytes(inst) for inst in self.instructions)


class MachineTraits:
    """Per-machine pricing of the generic instruction set.

    Subclasses override :meth:`operand_bytes`, :meth:`base_bytes`,
    :meth:`cycles`, and the identity fields.
    """

    name = "generic"
    cycle_time_ns = 200.0
    #: registers the compiler may allocate (besides SP/FP/r0)
    pool: tuple = tuple(range(1, 12))
    year = 1980
    instruction_count = 100
    microcode_bits = 0
    instruction_size_range = (16, 48)  # bits
    registers = 16

    def bytes(self, inst: CInst) -> int:
        total = self.base_bytes(inst)
        for operand in inst.operands:
            total += self.operand_bytes(operand)
        if inst.op in (CiscOp.BCC, CiscOp.BRA, CiscOp.JSR):
            total += self.branch_target_bytes()
        if inst.op in (CiscOp.SAVE, CiscOp.RESTORE):
            total += self.save_mask_bytes()
        return total

    # -- hooks ---------------------------------------------------------

    def base_bytes(self, inst: CInst) -> int:
        raise NotImplementedError

    def operand_bytes(self, operand) -> int:
        raise NotImplementedError

    def branch_target_bytes(self) -> int:
        return 2

    def save_mask_bytes(self) -> int:
        return 2

    def cycles(self, inst: CInst) -> int:
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------

    def memory_operand_count(self, inst: CInst) -> int:
        return sum(
            1 for op in inst.operands if isinstance(op, (Abs, Ind, AutoInc, AutoDec))
        )


class _Halt(Exception):
    """The entry routine returned to the halt sentinel."""


def _halting(rts: Callable[[], int]) -> Callable[[], int]:
    """Wrap a decoded RTS so that returning to the halt sentinel ends the run."""

    def step() -> int:
        target = rts()
        if target == _HALT_SENTINEL:
            raise _Halt
        return target

    return step


def _price_tables(instructions: list[CInst],
                  traits: MachineTraits) -> tuple[list[int], list[int]]:
    """Per-pc cycle and fetch-byte costs of *instructions* under *traits*."""
    return ([traits.cycles(inst) for inst in instructions],
            [traits.bytes(inst) for inst in instructions])


def _dot(counts: list[int], table: list[int]) -> int:
    return sum(map(operator.mul, counts, table))


class CiscExecutor:
    """Interpret a :class:`CiscProgram`, accounting per-machine costs.

    ``counts`` holds how often each static instruction has executed;
    ``cycles`` and ``fetch_bytes`` are those counts priced by ``traits``,
    and :meth:`price` prices them for any other machine.
    """

    def __init__(self, program: CiscProgram, traits: MachineTraits,
                 memory_size: int = 1 << 20):
        self.program = program
        self.traits = traits
        self.memory = Memory(size=memory_size)
        self.regs = [0] * 16
        self.regs[SP] = memory_size
        self.last_cmp = (0, 0)
        self.instructions_executed = 0
        self.cycles = 0
        self.fetch_bytes = 0
        self.counts = [0] * len(program.instructions)
        for address, payload in program.data:
            for offset, byte in enumerate(payload):
                self.memory.store_byte(address + offset, byte, count=False)

    # -- decoding ----------------------------------------------------------
    #
    # The semantics live here, once: each builder binds an operand or an
    # instruction to the registers and the memory accessors and returns a
    # closure.  ``run`` decodes every static instruction once per run; the
    # single-shot methods below decode and call at once.

    def _reader(self, operand) -> Callable[[], int]:
        regs = self.regs
        if isinstance(operand, Reg):
            n = operand.n
            return lambda: regs[n]
        if isinstance(operand, Imm):
            value = to_unsigned(operand.value)
            return lambda: value
        if not isinstance(operand, (Abs, Ind, AutoInc, AutoDec)):
            raise BaselineError(f"cannot read operand {operand!r}")
        memory = self.memory
        load = memory.load_byte if operand.size == 1 else memory.load_word
        if isinstance(operand, Abs):
            address = to_unsigned(operand.address)
            return lambda: load(address)
        if isinstance(operand, Ind):
            reg, disp = operand.reg, operand.disp
            return lambda: load((regs[reg] + disp) & MASK32)
        reg, size = operand.reg, operand.size
        if isinstance(operand, AutoInc):
            def read_autoinc() -> int:
                address = regs[reg]
                value = load(address & MASK32)
                regs[reg] = (address + size) & MASK32
                return value
            return read_autoinc

        def read_autodec() -> int:
            address = regs[reg] = (regs[reg] - size) & MASK32
            return load(address)
        return read_autodec

    def _writer(self, operand) -> Callable[[int], None]:
        regs = self.regs
        if isinstance(operand, Reg):
            n = operand.n

            def write_reg(value: int) -> None:
                regs[n] = value & MASK32
            return write_reg
        if not isinstance(operand, (Abs, Ind, AutoInc, AutoDec)):
            raise BaselineError(f"cannot write operand {operand!r}")
        memory = self.memory
        store = memory.store_byte if operand.size == 1 else memory.store_word
        if isinstance(operand, Abs):
            address = to_unsigned(operand.address)
            return lambda value: store(address, value & MASK32)
        if isinstance(operand, Ind):
            reg, disp = operand.reg, operand.disp
            return lambda value: store((regs[reg] + disp) & MASK32, value & MASK32)
        reg, size = operand.reg, operand.size
        if isinstance(operand, AutoInc):
            def write_autoinc(value: int) -> None:
                address = regs[reg]
                store(address & MASK32, value & MASK32)
                regs[reg] = (address + size) & MASK32
            return write_autoinc

        def write_autodec(value: int) -> None:
            address = regs[reg] = (regs[reg] - size) & MASK32
            store(address, value & MASK32)
        return write_autodec

    def _addresser(self, operand) -> Callable[[], int]:
        if isinstance(operand, Abs):
            address = operand.address
            return lambda: address
        if isinstance(operand, Ind):
            regs, reg, disp = self.regs, operand.reg, operand.disp
            return lambda: (regs[reg] + disp) & MASK32
        raise BaselineError(f"operand {operand!r} has no address")

    def _decode(self, inst: CInst, nxt: int | None) -> Callable[[], int | None]:
        """Compile *inst* into a closure that executes it once.

        The closure returns the next pc: *nxt* after a straight-line
        instruction, the target of a taken transfer, and for RTS the
        popped return address (the halt sentinel when the entry routine
        returns).  An unknown relop or label raises only when the
        instruction executes.
        """
        op = inst.op
        operands = inst.operands
        regs = self.regs
        load_word, store_word = self.memory.load_word, self.memory.store_word

        if op is CiscOp.MOV or op is CiscOp.LEA or op in _ALU:
            dst = operands[0]
            if op is CiscOp.MOV:
                source = self._reader(operands[1])
            elif op is CiscOp.LEA:
                source = self._addresser(operands[1])
            else:
                alu, read_src = _ALU[op], self._reader(operands[1])
                if isinstance(dst, Reg):
                    d = dst.n

                    def alu_reg() -> int | None:
                        regs[d] = alu(regs[d], read_src()) & MASK32
                        return nxt
                    return alu_reg
                read_dst = self._reader(dst)

                def source() -> int:
                    return alu(read_dst(), read_src())
            if isinstance(dst, Reg):
                d = dst.n

                def move_reg() -> int | None:
                    regs[d] = source() & MASK32
                    return nxt
                return move_reg
            write = self._writer(dst)

            def move() -> int | None:
                write(source())
                return nxt
            return move

        if op is CiscOp.CMP or op is CiscOp.TST:
            read_a = self._reader(operands[0])
            read_b = self._reader(operands[1]) if op is CiscOp.CMP else (lambda: 0)

            def compare() -> int | None:
                self.last_cmp = (to_signed(read_a()), to_signed(read_b()))
                return nxt
            return compare

        if op in _UNARY or op is CiscOp.CLR:
            write = self._writer(operands[0])
            if op is CiscOp.CLR:
                def clear() -> int | None:
                    write(0)
                    return nxt
                return clear
            unary, read = _UNARY[op], self._reader(operands[0])

            def update() -> int | None:
                write(unary(read()))
                return nxt
            return update

        if op is CiscOp.PUSH:
            read = self._reader(operands[0])

            def push() -> int | None:
                sp = regs[SP] = (regs[SP] - WORD) & MASK32
                store_word(sp, read())
                return nxt
            return push

        if op is CiscOp.POP:
            write = self._writer(operands[0])

            def pop() -> int | None:
                write(load_word(regs[SP]))
                regs[SP] = (regs[SP] + WORD) & MASK32
                return nxt
            return pop

        if op is CiscOp.SAVE:
            saved = inst.regs

            def save() -> int | None:
                for reg in saved:
                    sp = regs[SP] = (regs[SP] - WORD) & MASK32
                    store_word(sp, regs[reg])
                return nxt
            return save

        if op is CiscOp.RESTORE:
            restored = tuple(reversed(inst.regs))

            def restore() -> int | None:
                for reg in restored:
                    regs[reg] = load_word(regs[SP])
                    regs[SP] = (regs[SP] + WORD) & MASK32
                return nxt
            return restore

        if op is CiscOp.RTS:
            def rts() -> int:
                sp = regs[SP] = (regs[SP] + WORD) & MASK32
                return to_signed(load_word(sp - WORD))
            return rts

        labels = self.program.labels
        name = inst.target
        target = labels.get(name)

        if op is CiscOp.BRA:
            def branch() -> int:
                return labels[name] if target is None else target
            return branch

        if op is CiscOp.BCC:
            test = _relop_test(inst.relop)

            def branch_if() -> int | None:
                if test(*self.last_cmp):
                    return labels[name] if target is None else target
                return nxt
            return branch_if

        if op is CiscOp.JSR:
            def call() -> int:
                sp = regs[SP] = (regs[SP] - WORD) & MASK32
                store_word(sp, nxt)
                return labels[name] if target is None else target
            return call

        raise BaselineError(f"unimplemented {op!r}")  # pragma: no cover

    # -- single-shot access ----------------------------------------------------

    def read(self, operand) -> int:
        return self._reader(operand)()

    def write(self, operand, value: int) -> None:
        self._writer(operand)(value)

    def address_of(self, operand) -> int:
        return self._addresser(operand)()

    def _execute(self, inst: CInst) -> int | None:
        """Execute one non-transfer instruction: RTS's return address, else None."""
        return self._decode(inst, None)()

    def _cond(self, relop: str) -> bool:
        return _relop_test(relop)(*self.last_cmp)

    # -- execution -------------------------------------------------------------

    def run(self, entry: str | None = None, max_steps: int = 50_000_000) -> int:
        """Run from *entry* until its RTS; returns r0 (signed).

        Every static instruction is priced and decoded once per run, and
        each step adds one to its pc's count; the counts are priced when
        the run ends, however it ends, so the counters cover exactly the
        steps taken, a faulting step included.
        """
        program = self.program
        instructions = program.instructions
        cycle_table, byte_table = _price_tables(instructions, self.traits)
        code = []
        for pc, inst in enumerate(instructions):
            decoded = self._decode(inst, pc + 1)
            code.append(_halting(decoded) if inst.op is CiscOp.RTS else decoded)
        regs = self.regs
        pc = program.labels[entry or program.entry]
        # push the halt sentinel as the return "address"
        regs[SP] -= WORD
        self.memory.store_word(regs[SP], to_unsigned(_HALT_SENTINEL), count=False)
        counts = [0] * len(code)
        step = -1
        try:
            for step in range(max_steps):
                counts[pc] += 1
                pc = code[pc]()
            raise BaselineError(f"step limit {max_steps} exceeded")
        except _Halt:
            return to_signed(regs[RESULT_REG])
        finally:
            self.instructions_executed += step + 1
            self.counts = list(map(operator.add, self.counts, counts))
            self.cycles += _dot(counts, cycle_table)
            self.fetch_bytes += _dot(counts, byte_table)

    def price(self, traits: MachineTraits) -> tuple[int, int]:
        """``(cycles, fetch_bytes)`` of every counted step under *traits*.

        Execution does not depend on the traits, so machines whose
        programs are equal run the same steps, and one run prices them
        all.  ``price(self.traits)`` is ``(self.cycles, self.fetch_bytes)``.
        """
        cycle_table, byte_table = _price_tables(self.program.instructions, traits)
        return _dot(self.counts, cycle_table), _dot(self.counts, byte_table)


def run_distinct(machines) -> list[tuple[MachineTraits, int, CiscExecutor]]:
    """Run each distinct program among *machines* once.

    *machines* is a sequence of ``(traits, program)`` pairs.  Returns one
    ``(traits, result, executor)`` triple per pair, in order.  Pairs whose
    programs are equal share the executor that ran the first of them, so
    price each machine with ``executor.price(traits)``.
    """
    runs: list[tuple[CiscProgram, int, CiscExecutor]] = []
    priced = []
    for traits, program in machines:
        for seen, result, executor in runs:
            if seen == program:
                break
        else:
            executor = CiscExecutor(program, traits)
            result = executor.run()
            runs.append((program, result, executor))
        priced.append((traits, result, executor))
    return priced

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
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field

from repro.common.bitops import to_signed, to_unsigned
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


TWO_OPERAND_ALU = {
    CiscOp.ADD, CiscOp.SUB, CiscOp.MUL, CiscOp.DIV, CiscOp.MOD,
    CiscOp.AND, CiscOp.OR, CiscOp.XOR, CiscOp.ASL, CiscOp.ASR, CiscOp.LSR,
}

#: Branch conditions over the signed operands captured by the last CMP/TST.
_RELOPS = {
    "==": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "ltu": lambda a, b: to_unsigned(a) < to_unsigned(b),
    "leu": lambda a, b: to_unsigned(a) <= to_unsigned(b),
    "gtu": lambda a, b: to_unsigned(a) > to_unsigned(b),
    "geu": lambda a, b: to_unsigned(a) >= to_unsigned(b),
}


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


class CiscExecutor:
    """Interpret a :class:`CiscProgram`, accounting per-machine costs."""

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
        for address, payload in program.data:
            for offset, byte in enumerate(payload):
                self.memory.store_byte(address + offset, byte, count=False)

    # -- operand access ------------------------------------------------------

    def read(self, operand) -> int:
        if isinstance(operand, Reg):
            return self.regs[operand.n]
        if isinstance(operand, Imm):
            return to_unsigned(operand.value)
        if isinstance(operand, Abs):
            return self._load(operand.address, operand.size)
        if isinstance(operand, Ind):
            return self._load(self.regs[operand.reg] + operand.disp, operand.size)
        if isinstance(operand, AutoInc):
            address = self.regs[operand.reg]
            value = self._load(address, operand.size)
            self.regs[operand.reg] = to_unsigned(address + operand.size)
            return value
        if isinstance(operand, AutoDec):
            self.regs[operand.reg] = to_unsigned(self.regs[operand.reg] - operand.size)
            return self._load(self.regs[operand.reg], operand.size)
        raise BaselineError(f"cannot read operand {operand!r}")

    def write(self, operand, value: int) -> None:
        value = to_unsigned(value)
        if isinstance(operand, Reg):
            self.regs[operand.n] = value
        elif isinstance(operand, Abs):
            self._store(operand.address, operand.size, value)
        elif isinstance(operand, Ind):
            self._store(self.regs[operand.reg] + operand.disp, operand.size, value)
        elif isinstance(operand, AutoInc):
            address = self.regs[operand.reg]
            self._store(address, operand.size, value)
            self.regs[operand.reg] = to_unsigned(address + operand.size)
        elif isinstance(operand, AutoDec):
            self.regs[operand.reg] = to_unsigned(self.regs[operand.reg] - operand.size)
            self._store(self.regs[operand.reg], operand.size, value)
        else:
            raise BaselineError(f"cannot write operand {operand!r}")

    def address_of(self, operand) -> int:
        if isinstance(operand, Abs):
            return operand.address
        if isinstance(operand, Ind):
            return to_unsigned(self.regs[operand.reg] + operand.disp)
        raise BaselineError(f"operand {operand!r} has no address")

    def _load(self, address: int, size: int) -> int:
        if size == 1:
            return self.memory.load_byte(to_unsigned(address))
        return self.memory.load_word(to_unsigned(address))

    def _store(self, address: int, size: int, value: int) -> None:
        if size == 1:
            self.memory.store_byte(to_unsigned(address), value)
        else:
            self.memory.store_word(to_unsigned(address), value)

    # -- execution -------------------------------------------------------------

    def run(self, entry: str | None = None, max_steps: int = 50_000_000) -> int:
        """Run from *entry* until its RTS; returns r0 (signed).

        Pricing is a pure function of the static instruction, so each
        one is priced once per run: per-pc cycle and fetch-byte tables,
        plus branch and JSR labels resolved to indices.  An unknown
        label still raises only when its instruction executes.
        """
        program = self.program
        instructions = program.instructions
        labels = program.labels
        traits = self.traits
        cycle_table = [traits.cycles(inst) for inst in instructions]
        byte_table = [traits.bytes(inst) for inst in instructions]
        targets = [labels.get(inst.target) for inst in instructions]
        regs = self.regs
        memory = self.memory
        bra, bcc, jsr = CiscOp.BRA, CiscOp.BCC, CiscOp.JSR
        pc = labels[entry or program.entry]
        # push the halt sentinel as the return "address"
        regs[SP] -= WORD
        memory.store_word(regs[SP], to_unsigned(_HALT_SENTINEL), count=False)
        steps = cycles = fetch_bytes = 0
        try:
            while True:
                if steps >= max_steps:
                    raise BaselineError(f"step limit {max_steps} exceeded")
                steps += 1
                inst = instructions[pc]
                cycles += cycle_table[pc]
                fetch_bytes += byte_table[pc]
                op = inst.op
                if op is bra or op is bcc or op is jsr:
                    if op is bcc and not self._cond(inst.relop):
                        pc += 1
                        continue
                    if op is jsr:
                        regs[SP] = to_unsigned(regs[SP] - WORD)
                        memory.store_word(regs[SP], to_unsigned(pc + 1))
                    target = targets[pc]
                    pc = labels[inst.target] if target is None else target
                    continue
                jump = self._execute(inst)
                if jump is None:
                    pc += 1
                elif jump == _HALT_SENTINEL:
                    return to_signed(regs[RESULT_REG])
                else:
                    pc = jump
        finally:
            self.instructions_executed += steps
            self.cycles += cycles
            self.fetch_bytes += fetch_bytes

    def _execute(self, inst: CInst) -> int | None:
        op = inst.op
        if op is CiscOp.MOV:
            self.write(inst.operands[0], self.read(inst.operands[1]))
        elif op is CiscOp.LEA:
            self.write(inst.operands[0], self.address_of(inst.operands[1]))
        elif op in TWO_OPERAND_ALU:
            dst, src = inst.operands
            self.write(dst, self._alu(op, self.read(dst), self.read(src)))
        elif op is CiscOp.NEG:
            self.write(inst.operands[0], -to_signed(self.read(inst.operands[0])))
        elif op is CiscOp.NOT:
            self.write(inst.operands[0], ~self.read(inst.operands[0]))
        elif op is CiscOp.CLR:
            self.write(inst.operands[0], 0)
        elif op is CiscOp.CMP:
            self.last_cmp = (
                to_signed(self.read(inst.operands[0])),
                to_signed(self.read(inst.operands[1])),
            )
        elif op is CiscOp.TST:
            self.last_cmp = (to_signed(self.read(inst.operands[0])), 0)
        elif op is CiscOp.RTS:
            self.regs[SP] = to_unsigned(self.regs[SP] + WORD)
            return to_signed(self.memory.load_word(self.regs[SP] - WORD))
        elif op is CiscOp.PUSH:
            self.regs[SP] = to_unsigned(self.regs[SP] - WORD)
            self.memory.store_word(self.regs[SP], self.read(inst.operands[0]))
        elif op is CiscOp.POP:
            self.write(inst.operands[0], self.memory.load_word(self.regs[SP]))
            self.regs[SP] = to_unsigned(self.regs[SP] + WORD)
        elif op is CiscOp.SAVE:
            for reg in inst.regs:
                self.regs[SP] = to_unsigned(self.regs[SP] - WORD)
                self.memory.store_word(self.regs[SP], self.regs[reg])
        elif op is CiscOp.RESTORE:
            for reg in reversed(inst.regs):
                self.regs[reg] = self.memory.load_word(self.regs[SP])
                self.regs[SP] = to_unsigned(self.regs[SP] + WORD)
        else:  # pragma: no cover
            raise BaselineError(f"unimplemented {op!r}")
        return None

    def _alu(self, op: CiscOp, dst: int, src: int) -> int:
        a = to_signed(dst)
        b = to_signed(src)
        if op is CiscOp.ADD:
            return a + b
        if op is CiscOp.SUB:
            return a - b
        if op is CiscOp.MUL:
            return a * b
        if op is CiscOp.DIV:
            if b == 0:
                raise BaselineError("division by zero")
            quotient = abs(a) // abs(b)
            return -quotient if (a < 0) != (b < 0) else quotient
        if op is CiscOp.MOD:
            if b == 0:
                raise BaselineError("division by zero")
            quotient = abs(a) // abs(b)
            quotient = -quotient if (a < 0) != (b < 0) else quotient
            return a - quotient * b
        if op is CiscOp.AND:
            return to_unsigned(a) & to_unsigned(b)
        if op is CiscOp.OR:
            return to_unsigned(a) | to_unsigned(b)
        if op is CiscOp.XOR:
            return to_unsigned(a) ^ to_unsigned(b)
        if op is CiscOp.ASL:
            return a << (b & 31)
        if op is CiscOp.ASR:
            return a >> (b & 31)
        if op is CiscOp.LSR:
            return to_unsigned(a) >> (b & 31)
        raise BaselineError(f"not an ALU op {op!r}")  # pragma: no cover

    def _cond(self, relop: str) -> bool:
        test = _RELOPS.get(relop)
        if test is None:
            raise BaselineError(f"unknown relop {relop!r}")
        return test(*self.last_cmp)


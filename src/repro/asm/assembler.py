"""Two-pass RISC I assembler.

Syntax summary (one statement per line, ``;`` comments)::

    label:  add   r1, r2, r3       ; dest, rs1, rs2
            adds  r1, r2, #5       ; trailing 's' = set condition codes
            ldl   r3, r2, 8        ; r3 = M[r2 + 8]
            stl   r3, r2, 8        ; M[r2 + 8] = r3
            jmp   eq, r1, 0        ; conditional indexed jump
            jmpr  ne, loop         ; conditional PC-relative jump
            beq   done             ; sugar for jmpr eq, done
            callr r31, func        ; call, return PC in r31 of new window
            ret                    ; sugar for ret r31, 8
            ldhi  r4, 0x12345      ; r4<31:13> = 0x12345
    value = 42                     ; equate
            .word 1, 2, label      ; data
            .space 64
            .asciiz "hello"
            .align
            .org  0x100

Pseudo-instructions: ``nop`` (add r0,r0,#0), ``mov rd, rs|#imm``,
``li rd, imm32`` (expands to ldhi+add when needed), ``cmp rs1, s2``
(subs r0,...), and ``b<cond> target`` branch sugar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.bitops import fits_signed, to_signed
from repro.errors import AssemblerError
from repro.isa.conditions import COND_BY_NAME, Cond
from repro.isa.encode import encode
from repro.isa.formats import Instruction
from repro.isa.opcodes import ALL_SPECS, Category, Format, Opcode
from repro.isa.registers import RETURN_ADDRESS_CALLEE, RegisterNamespace

from repro.asm.lexer import Token, TokenKind, tokenize_line

_ALU_MNEMONICS = {
    op.name.lower(): op for op, spec in ALL_SPECS.items() if spec.category is Category.ALU
}
_MEM_MNEMONICS = {
    op.name.lower(): op
    for op, spec in ALL_SPECS.items()
    if spec.category in (Category.LOAD, Category.STORE)
}
_BRANCH_SUGAR = {f"b{cond.name.lower()}": cond for cond in Cond if cond is not Cond.NEVER}
_BRANCH_SUGAR["b"] = Cond.ALW

#: mnemonics that assemble to a delayed control transfer - the word
#: after them is a delay slot and must be exactly one instruction.
_DELAYED_MNEMONICS = frozenset(
    op.name.lower() for op, spec in ALL_SPECS.items() if spec.is_delayed
) | frozenset(_BRANCH_SUGAR)

WORD = 4


@dataclass
class Program:
    """An assembled image plus its symbol table."""

    base: int
    image: bytearray
    symbols: dict[str, int] = field(default_factory=dict)
    source_map: dict[int, int] = field(default_factory=dict)  # address -> line number
    entry: int = 0

    @property
    def size(self) -> int:
        return len(self.image)

    def to_words(self) -> list[int]:
        """The image as big-endian words (padded to a word boundary)."""
        padded = bytes(self.image) + b"\0" * (-len(self.image) % WORD)
        return [int.from_bytes(padded[i : i + WORD], "big") for i in range(0, len(padded), WORD)]

    def load_into(self, memory) -> None:
        """Copy the image into a :class:`~repro.common.memory.Memory`.

        A whole-word image at an aligned base goes through
        :meth:`~repro.common.memory.Memory.load_program` (one span write);
        any other image is stored byte by byte.
        """
        if not self.base % WORD and not len(self.image) % WORD:
            memory.load_program(self.to_words(), self.base)
            return
        for offset, byte in enumerate(self.image):
            memory.store_byte(self.base + offset, byte, count=False)

    def listing(self) -> str:
        """Disassembly listing with symbols and source line numbers."""
        from repro.asm.disassembler import disassemble

        by_address: dict[int, list[str]] = {}
        for name, address in self.symbols.items():
            by_address.setdefault(address, []).append(name)
        lines = []
        for index, word in enumerate(self.to_words()):
            address = self.base + 4 * index
            for name in sorted(by_address.get(address, [])):
                lines.append(f"{name}:")
            try:
                text = disassemble(word, address)
            except Exception:
                text = f".word {word:#010x}"
            source_line = self.source_map.get(address)
            suffix = f"    ; line {source_line}" if source_line else ""
            lines.append(f"  {address:#06x}: {word:08x}  {text}{suffix}")
        return "\n".join(lines)


@dataclass
class _Statement:
    lineno: int
    kind: str  # 'inst' | 'directive' | 'equate'
    mnemonic: str = ""
    tokens: list[Token] = field(default_factory=list)
    address: int = 0
    size: int = 0


class _TokenCursor:
    """Sequential reader over one statement's operand tokens."""

    def __init__(self, tokens: list[Token], lineno: int):
        self.tokens = tokens
        self.pos = 0
        self.lineno = lineno

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise AssemblerError("unexpected end of statement", self.lineno)
        self.pos += 1
        return token

    def expect(self, kind: TokenKind) -> Token:
        token = self.next()
        if token.kind is not kind:
            raise AssemblerError(f"expected {kind.value}, found {token.text!r}", self.lineno)
        return token

    def accept(self, kind: TokenKind) -> bool:
        token = self.peek()
        if token is not None and token.kind is kind:
            self.pos += 1
            return True
        return False

    @property
    def exhausted(self) -> bool:
        return self.pos >= len(self.tokens)


class Assembler:
    """Two-pass assembler producing a :class:`Program`."""

    def __init__(self, base: int = 0):
        self.base = base
        self.symbols: dict[str, int] = {}

    # -- public API -----------------------------------------------------------

    def assemble(self, source: str) -> Program:
        statements = self._parse(source)
        self._layout(statements)
        return self._emit(statements)

    # -- pass 0: parse into statements ----------------------------------------

    def _parse(self, source: str) -> list[_Statement]:
        statements: list[_Statement] = []
        for lineno, line in enumerate(source.splitlines(), start=1):
            tokens = tokenize_line(line, lineno)
            while tokens:
                # leading labels:  name ':'
                if (
                    len(tokens) >= 2
                    and tokens[0].kind is TokenKind.IDENT
                    and tokens[1].kind is TokenKind.COLON
                ):
                    statements.append(
                        _Statement(lineno, "directive", mnemonic=":label", tokens=[tokens[0]])
                    )
                    tokens = tokens[2:]
                    continue
                break
            if not tokens:
                continue
            head = tokens[0]
            if head.kind is TokenKind.DOT_DIRECTIVE:
                statements.append(
                    _Statement(lineno, "directive", mnemonic=head.text, tokens=tokens[1:])
                )
            elif (
                head.kind is TokenKind.IDENT
                and len(tokens) >= 2
                and tokens[1].kind is TokenKind.EQUALS
            ):
                statements.append(
                    _Statement(lineno, "equate", mnemonic=head.text, tokens=tokens[2:])
                )
            elif head.kind is TokenKind.IDENT:
                statements.append(
                    _Statement(lineno, "inst", mnemonic=head.text.lower(), tokens=tokens[1:])
                )
            else:
                raise AssemblerError(f"cannot parse statement starting {head.text!r}", lineno)
        return statements

    # -- pass 1: layout (sizes + symbol table) ---------------------------------

    def _layout(self, statements: list[_Statement]) -> None:
        self.symbols = {}
        lc = self.base
        transfer: _Statement | None = None  # delayed transfer whose slot is next
        for stmt in statements:
            stmt.address = lc
            if stmt.kind == "equate":
                self.symbols[stmt.mnemonic] = self._eval(
                    _TokenCursor(stmt.tokens, stmt.lineno), allow_undefined=False
                )
                continue
            if stmt.mnemonic == ":label":
                name = stmt.tokens[0].text
                if name in self.symbols:
                    raise AssemblerError(f"duplicate label {name!r}", stmt.lineno)
                self.symbols[name] = lc
                continue
            stmt.size = self._statement_size(stmt, lc)
            if stmt.kind == "inst":
                if transfer is not None and stmt.size > WORD:
                    raise AssemblerError(
                        f"{stmt.size // WORD}-word '{stmt.mnemonic}' pseudo-instruction "
                        f"in the delay slot of '{transfer.mnemonic}' (line "
                        f"{transfer.lineno}): the slot executes exactly one word, so "
                        "the pseudo would be torn in half on the taken path; move it "
                        "before the transfer or use a value that fits 13 bits",
                        stmt.lineno,
                    )
                transfer = stmt if stmt.mnemonic in _DELAYED_MNEMONICS else None
            elif stmt.size:
                transfer = None  # data fills the slot; not this pass's concern
            lc += stmt.size
            if stmt.mnemonic == ".org":
                lc = self._eval(_TokenCursor(stmt.tokens, stmt.lineno), allow_undefined=False)
                if lc < stmt.address:
                    raise AssemblerError(".org cannot move backwards", stmt.lineno)
                stmt.size = lc - stmt.address

    def _statement_size(self, stmt: _Statement, lc: int) -> int:
        if stmt.kind == "inst":
            return self._instruction_size(stmt)
        name = stmt.mnemonic
        cursor = _TokenCursor(stmt.tokens, stmt.lineno)
        if name == ".word":
            count = 1
            for token in stmt.tokens:
                if token.kind is TokenKind.COMMA:
                    count += 1
            return WORD * count if stmt.tokens else 0
        if name == ".space":
            return self._eval(cursor, allow_undefined=False)
        if name == ".ascii":
            return len(cursor.expect(TokenKind.STRING).text)
        if name == ".asciiz":
            return len(cursor.expect(TokenKind.STRING).text) + 1
        if name == ".align":
            return -lc % WORD
        if name == ".org":
            return 0  # handled by caller
        raise AssemblerError(f"unknown directive {name!r}", stmt.lineno)

    def _instruction_size(self, stmt: _Statement) -> int:
        if stmt.mnemonic == "li":
            # li rd, <literal fitting 13 bits> is one instruction, else two.
            tokens = stmt.tokens
            if (
                len(tokens) >= 3
                and tokens[-1].kind is TokenKind.NUMBER
                and (tokens[-2].kind is TokenKind.COMMA or tokens[-2].kind is TokenKind.MINUS
                     or tokens[-2].kind is TokenKind.HASH)
            ):
                value = tokens[-1].value
                if tokens[-2].kind is TokenKind.MINUS:
                    value = -value
                if fits_signed(value, 13):
                    return WORD
            return 2 * WORD
        return WORD

    # -- pass 2: emit -----------------------------------------------------------

    def _emit(self, statements: list[_Statement]) -> Program:
        program = Program(base=self.base, image=bytearray(), symbols=dict(self.symbols))
        for stmt in statements:
            self._pad_to(program, stmt.address)
            if stmt.kind == "equate" or stmt.mnemonic == ":label":
                continue
            if stmt.kind == "directive":
                self._emit_directive(program, stmt)
            else:
                for inst in self._expand(stmt):
                    program.source_map[self.base + len(program.image)] = stmt.lineno
                    program.image += encode(inst).to_bytes(WORD, "big")
        main = self.symbols.get("main")
        program.entry = main if main is not None else self.base
        return program

    def _pad_to(self, program: Program, address: int) -> None:
        gap = address - (self.base + len(program.image))
        if gap < 0:
            raise AssemblerError(f"layout error near address {address:#x}")
        program.image += bytes(gap)

    def _emit_directive(self, program: Program, stmt: _Statement) -> None:
        name = stmt.mnemonic
        cursor = _TokenCursor(stmt.tokens, stmt.lineno)
        if name == ".word":
            if stmt.tokens:
                while True:
                    value = self._eval(cursor)
                    program.image += (value & 0xFFFFFFFF).to_bytes(WORD, "big")
                    if not cursor.accept(TokenKind.COMMA):
                        break
        elif name == ".space":
            program.image += bytes(self._eval(cursor))
        elif name == ".ascii":
            program.image += cursor.expect(TokenKind.STRING).text.encode("latin-1")
        elif name == ".asciiz":
            program.image += cursor.expect(TokenKind.STRING).text.encode("latin-1") + b"\0"
        elif name == ".align":
            program.image += bytes(-len(program.image) % WORD)
        elif name == ".org":
            pass  # padding handled by _pad_to via statement addresses
        else:  # pragma: no cover - rejected in pass 1
            raise AssemblerError(f"unknown directive {name!r}", stmt.lineno)

    # -- instruction expansion ---------------------------------------------------

    def _expand(self, stmt: _Statement) -> list[Instruction]:
        mnemonic = stmt.mnemonic
        cursor = _TokenCursor(stmt.tokens, stmt.lineno)
        handler = _PSEUDOS.get(mnemonic)
        if handler is not None:
            return handler(self, cursor, stmt)
        if mnemonic in _BRANCH_SUGAR:
            target = self._eval(cursor)
            self._done(cursor, stmt)
            return [self._jmpr(_BRANCH_SUGAR[mnemonic], target, stmt)]
        scc = False
        base = mnemonic
        if base not in _ALL_MNEMONICS and base.endswith("s") and base[:-1] in _ALU_MNEMONICS:
            base, scc = base[:-1], True
        opcode = _ALL_MNEMONICS.get(base)
        if opcode is None:
            raise AssemblerError(f"unknown mnemonic {mnemonic!r}", stmt.lineno)
        inst = self._parse_machine_instruction(opcode, scc, cursor, stmt)
        self._done(cursor, stmt)
        return [inst]

    def _parse_machine_instruction(
        self, opcode: Opcode, scc: bool, cursor: _TokenCursor, stmt: _Statement
    ) -> Instruction:
        spec = ALL_SPECS[opcode]
        lineno = stmt.lineno
        if spec.fmt is Format.LONG:
            if opcode is Opcode.LDHI:
                dest = self._register(cursor)
                cursor.expect(TokenKind.COMMA)
                value = self._eval(cursor)
                if not fits_signed(value, 19):
                    value = to_signed(value & 0x7FFFF, 19)
                return Instruction(opcode, dest=dest, imm19=value, scc=scc)
            # JMPR / CALLR
            if spec.uses_cond:
                cond = self._condition(cursor)
                cursor.expect(TokenKind.COMMA)
                target = self._eval(cursor)
                return self._jmpr(cond, target, stmt)
            dest = self._register(cursor)
            cursor.expect(TokenKind.COMMA)
            target = self._eval(cursor)
            offset = target - stmt.address
            if not fits_signed(offset, 19):
                raise AssemblerError(f"callr target out of range ({offset})", lineno)
            return Instruction(opcode, dest=dest, imm19=offset, scc=scc)
        # SHORT format
        if spec.uses_cond:  # JMP
            cond = self._condition(cursor)
            cursor.expect(TokenKind.COMMA)
            rs1, s2, imm = self._base_and_offset(cursor)
            return Instruction(opcode, dest=int(cond), rs1=rs1, s2=s2, imm=imm, scc=scc)
        if opcode in (Opcode.GETPSW, Opcode.GTLPC):
            dest = self._register(cursor)
            return Instruction(opcode, dest=dest, scc=scc)
        if opcode is Opcode.PUTPSW:
            rs1, s2, imm = self._base_and_offset(cursor)
            return Instruction(opcode, rs1=rs1, s2=s2, imm=imm, scc=scc)
        if opcode in (Opcode.RET, Opcode.RETINT):
            if cursor.exhausted:
                return Instruction(opcode, rs1=RETURN_ADDRESS_CALLEE, s2=8, imm=True)
            rs1, s2, imm = self._base_and_offset(cursor)
            return Instruction(opcode, rs1=rs1, s2=s2, imm=imm, scc=scc)
        if opcode is Opcode.CALLINT:
            dest = self._register(cursor)
            return Instruction(opcode, dest=dest, scc=scc)
        # three-operand: ALU, loads, stores, CALL
        dest = self._register(cursor)
        cursor.expect(TokenKind.COMMA)
        rs1, s2, imm = self._base_and_offset(cursor)
        return Instruction(opcode, dest=dest, rs1=rs1, s2=s2, imm=imm, scc=scc)

    def _jmpr(self, cond: Cond, target: int, stmt: _Statement) -> Instruction:
        offset = target - stmt.address
        if not fits_signed(offset, 19):
            raise AssemblerError(f"branch target out of range ({offset})", stmt.lineno)
        return Instruction(Opcode.JMPR, dest=int(cond), imm19=offset)

    # -- operand helpers -----------------------------------------------------------

    def _register(self, cursor: _TokenCursor) -> int:
        token = cursor.expect(TokenKind.IDENT)
        number = RegisterNamespace.lookup(token.text)
        if number is None:
            raise AssemblerError(f"expected register, found {token.text!r}", cursor.lineno)
        return number

    def _condition(self, cursor: _TokenCursor) -> Cond:
        token = cursor.expect(TokenKind.IDENT)
        cond = COND_BY_NAME.get(token.text.upper())
        if cond is None:
            raise AssemblerError(f"unknown condition {token.text!r}", cursor.lineno)
        return cond

    def _base_and_offset(self, cursor: _TokenCursor) -> tuple[int, int, bool]:
        """Parse ``rs1, rs2`` / ``rs1, #imm`` / ``rs1, imm`` / bare ``imm``.

        A bare expression (no leading register) assembles as r0-based.
        """
        token = cursor.peek()
        if token is not None and token.kind is TokenKind.IDENT:
            reg = RegisterNamespace.lookup(token.text)
            if reg is not None:
                cursor.next()
                if not cursor.accept(TokenKind.COMMA):
                    return reg, 0, True  # "ret r31" style: zero offset
                second = cursor.peek()
                if second is not None and second.kind is TokenKind.IDENT:
                    reg2 = RegisterNamespace.lookup(second.text)
                    if reg2 is not None:
                        cursor.next()
                        return reg, reg2, False
                cursor.accept(TokenKind.HASH)
                return reg, self._eval_imm13(cursor), True
        # bare expression: r0 + value
        cursor.accept(TokenKind.HASH)
        return 0, self._eval_imm13(cursor), True

    def _eval_imm13(self, cursor: _TokenCursor) -> int:
        value = self._eval(cursor)
        if not fits_signed(value, 13):
            raise AssemblerError(f"immediate {value} does not fit in 13 bits", cursor.lineno)
        return value

    def _eval(self, cursor: _TokenCursor, allow_undefined: bool = False) -> int:
        """Evaluate a +/- chain of numbers and symbols."""
        total = 0
        sign = 1
        expecting_term = True
        while True:
            token = cursor.peek()
            if token is None:
                break
            if token.kind is TokenKind.MINUS:
                cursor.next()
                sign = -sign
                expecting_term = True
                continue
            if token.kind is TokenKind.PLUS:
                cursor.next()
                expecting_term = True
                continue
            if not expecting_term:
                break
            if token.kind is TokenKind.NUMBER:
                cursor.next()
                total += sign * token.value
            elif token.kind is TokenKind.IDENT:
                value = self.symbols.get(token.text)
                if value is None:
                    if allow_undefined:
                        value = 0
                    else:
                        value = self._undefined_symbol(token.text, cursor.lineno)
                cursor.next()
                total += sign * value
            else:
                break
            sign = 1
            expecting_term = False
        if expecting_term:
            raise AssemblerError("expected expression", cursor.lineno)
        return total

    def _undefined_symbol(self, name: str, lineno: int | None) -> int:
        """Hook for undefined symbols; the module assembler overrides this
        to record an external reference instead of failing."""
        raise AssemblerError(f"undefined symbol {name!r}", lineno)

    def _done(self, cursor: _TokenCursor, stmt: _Statement) -> None:
        if not cursor.exhausted:
            raise AssemblerError(
                f"trailing tokens after {stmt.mnemonic!r}: {cursor.peek().text!r}", stmt.lineno
            )


# -- pseudo-instruction expanders ------------------------------------------------


def _pseudo_nop(asm: Assembler, cursor: _TokenCursor, stmt: _Statement) -> list[Instruction]:
    asm._done(cursor, stmt)
    return [Instruction(Opcode.ADD, dest=0, rs1=0, s2=0, imm=True)]


def _pseudo_mov(asm: Assembler, cursor: _TokenCursor, stmt: _Statement) -> list[Instruction]:
    dest = asm._register(cursor)
    cursor.expect(TokenKind.COMMA)
    token = cursor.peek()
    if token is not None and token.kind is TokenKind.IDENT:
        src = RegisterNamespace.lookup(token.text)
        if src is not None:
            cursor.next()
            asm._done(cursor, stmt)
            return [Instruction(Opcode.ADD, dest=dest, rs1=src, s2=0, imm=True)]
    cursor.accept(TokenKind.HASH)
    value = asm._eval_imm13(cursor)
    asm._done(cursor, stmt)
    return [Instruction(Opcode.ADD, dest=dest, rs1=0, s2=value, imm=True)]


def _pseudo_li(asm: Assembler, cursor: _TokenCursor, stmt: _Statement) -> list[Instruction]:
    dest = asm._register(cursor)
    cursor.expect(TokenKind.COMMA)
    cursor.accept(TokenKind.HASH)
    value = asm._eval(cursor)
    asm._done(cursor, stmt)
    if fits_signed(value, 13) and stmt.size == WORD:
        return [Instruction(Opcode.ADD, dest=dest, rs1=0, s2=value, imm=True)]
    low = to_signed(value & 0x1FFF, 13)
    high = to_signed(((value - low) >> 13) & 0x7FFFF, 19)
    return [
        Instruction(Opcode.LDHI, dest=dest, imm19=high),
        Instruction(Opcode.ADD, dest=dest, rs1=dest, s2=low, imm=True),
    ]


def _pseudo_cmp(asm: Assembler, cursor: _TokenCursor, stmt: _Statement) -> list[Instruction]:
    rs1, s2, imm = asm._base_and_offset(cursor)
    asm._done(cursor, stmt)
    return [Instruction(Opcode.SUB, dest=0, rs1=rs1, s2=s2, imm=imm, scc=True)]


_PSEUDOS = {
    "nop": _pseudo_nop,
    "mov": _pseudo_mov,
    "li": _pseudo_li,
    "cmp": _pseudo_cmp,
}

_ALL_MNEMONICS: dict[str, Opcode] = {op.name.lower(): op for op in ALL_SPECS}


def assemble(source: str, base: int = 0) -> Program:
    """Assemble *source* text into a :class:`Program` at *base*."""
    return Assembler(base=base).assemble(source)

"""Architecture validation suite: every instruction through the full stack.

Each case assembles a small self-contained program, runs it on the
machine, and checks results against a Python oracle - the bring-up
style tests a hardware team would run, exercising assembler + encoder +
decoder + executor together (the unit-level ALU tests bypass the
pipeline; these do not).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RiscMachine, assemble
from repro.common.bitops import to_signed, to_unsigned

s32 = st.integers(-(2**31), 2**31 - 1)
small = st.integers(0, 31)


def run_fragment(body: str, **kwargs) -> RiscMachine:
    source = f"main:\n{body}\n    ret\n    nop\n"
    program = assemble(source)
    machine = RiscMachine(**kwargs)
    program.load_into(machine.memory)
    machine.run(program.entry)
    return machine


def binary_case(mnemonic: str, a: int, b: int) -> int:
    machine = run_fragment(f"""
    li   r16, {a}
    li   r17, {b}
    {mnemonic} r26, r16, r17
    """)
    return to_signed(machine.result)


class TestAluThroughPipeline:
    @settings(max_examples=25, deadline=None)
    @given(s32, s32)
    def test_add(self, a, b):
        assert binary_case("add", a, b) == to_signed(to_unsigned(a + b))

    @settings(max_examples=25, deadline=None)
    @given(s32, s32)
    def test_sub(self, a, b):
        assert binary_case("sub", a, b) == to_signed(to_unsigned(a - b))

    @settings(max_examples=15, deadline=None)
    @given(s32, s32)
    def test_subr(self, a, b):
        assert binary_case("subr", a, b) == to_signed(to_unsigned(b - a))

    @settings(max_examples=15, deadline=None)
    @given(s32, s32)
    def test_logical(self, a, b):
        assert binary_case("and", a, b) == to_signed(to_unsigned(a) & to_unsigned(b))
        assert binary_case("or", a, b) == to_signed(to_unsigned(a) | to_unsigned(b))
        assert binary_case("xor", a, b) == to_signed(to_unsigned(a) ^ to_unsigned(b))

    @settings(max_examples=15, deadline=None)
    @given(s32, small)
    def test_shifts(self, a, n):
        assert binary_case("sll", a, n) == to_signed(to_unsigned(a << n))
        assert binary_case("srl", a, n) == to_signed(to_unsigned(a) >> n)
        assert binary_case("sra", a, n) == to_signed(to_unsigned(to_signed(to_unsigned(a)) >> n))

    def test_addc_subc_chain(self):
        """64-bit add via ADDC: the carry chain must work end to end."""
        machine = run_fragment("""
        li   r16, -1          ; low word a = 0xFFFFFFFF
        li   r17, 1           ; low word b
        li   r18, 2           ; high word a
        li   r19, 3           ; high word b
        adds r26, r16, r17    ; low sum, sets carry
        addc r27, r18, r19    ; high sum + carry
        """)
        assert machine.result == 0  # low word wrapped to zero
        assert machine.read_reg(11) == 6  # 2 + 3 + carry (r27 -> caller r11)


class TestMemoryThroughPipeline:
    @settings(max_examples=15, deadline=None)
    @given(s32)
    def test_word_roundtrip(self, value):
        machine = run_fragment(f"""
        li   r16, {value}
        stl  r16, r0, 0x600
        ldl  r26, r0, 0x600
        """)
        assert to_signed(machine.result) == to_signed(to_unsigned(value))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 0xFFFF))
    def test_half_roundtrip_unsigned_and_signed(self, value):
        machine = run_fragment(f"""
        li   r16, {value}
        sts  r16, r0, 0x600
        ldsu r26, r0, 0x600
        """)
        assert machine.result == value
        machine = run_fragment(f"""
        li   r16, {value}
        sts  r16, r0, 0x600
        ldss r26, r0, 0x600
        """)
        expected = value - 0x10000 if value & 0x8000 else value
        assert to_signed(machine.result) == expected

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 0xFF))
    def test_byte_roundtrip(self, value):
        machine = run_fragment(f"""
        li   r16, {value}
        stb  r16, r0, 0x601
        ldbu r26, r0, 0x601
        """)
        assert machine.result == value

    def test_register_indexed_addressing(self):
        machine = run_fragment("""
        li   r16, 0x600
        li   r17, 8
        li   r18, 777
        stl  r18, r16, r17    ; M[0x608] = 777
        ldl  r26, r0, 0x608
        """)
        assert machine.result == 777


class TestControlThroughPipeline:
    @pytest.mark.parametrize("cond,a,b,taken", [
        ("beq", 5, 5, True), ("beq", 5, 6, False),
        ("bne", 5, 6, True), ("bne", 5, 5, False),
        ("blt", -1, 0, True), ("blt", 0, -1, False),
        ("bge", 3, 3, True), ("bge", 2, 3, False),
        ("bgt", 4, 3, True), ("bgt", 3, 3, False),
        ("ble", 3, 3, True), ("ble", 4, 3, False),
        ("bltu", 1, 2, True), ("bltu", -1, 1, False),  # -1 is big unsigned
        ("bgtu", -1, 1, True), ("bgtu", 1, 2, False),
        ("bmi", -5, 0, True), ("bpl", 5, 0, True),
    ])
    def test_conditional_branches(self, cond, a, b, taken):
        machine = run_fragment(f"""
        li   r16, {a}
        li   r17, {b}
        cmp  r16, r17
        {cond}  taken_path
        nop
        mov  r26, #0
        b    done
        nop
    taken_path:
        mov  r26, #1
    done:
    """)
        assert machine.result == int(taken)

    def test_overflow_conditions(self):
        machine = run_fragment("""
        li   r16, 0x7FFFFFFF
        adds r17, r16, #1      ; signed overflow
        bv   overflowed
        nop
        mov  r26, #0
        b    done
        nop
    overflowed:
        mov  r26, #1
    done:
    """)
        assert machine.result == 1

    def test_ldhi_gives_upper_bits(self):
        machine = run_fragment("""
        ldhi r26, 5
        """)
        assert machine.result == 5 << 13

    def test_call_via_register(self):
        machine = run_fragment("""
        li    r16, target
        call  r31, r16, 0
        nop
        mov   r26, r10
        b     out
        nop
    target:
        mov   r26, #123
        ret
        nop
    out:
    """)
        assert machine.result == 123


def test_stat_name_dicts_cover_every_opcode_and_category():
    from repro.cpu.engine import _CATEGORY_NAME, _OPCODE_NAME
    from repro.isa.opcodes import ALL_SPECS, Category, Opcode

    assert _OPCODE_NAME == {op: op.name for op in Opcode}
    assert _CATEGORY_NAME == {op: ALL_SPECS[op].category.name for op in Opcode}
    assert set(_CATEGORY_NAME.values()) == {category.name for category in Category}

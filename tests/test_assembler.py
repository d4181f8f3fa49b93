"""Assembler tests: syntax, pseudo-instructions, directives, errors."""

import pytest

from repro.asm import assemble, disassemble_program
from repro.common.memory import Memory
from repro.errors import AssemblerError
from repro.isa import Instruction, Opcode, decode
from repro.isa.conditions import Cond


def first_inst(source: str) -> Instruction:
    return decode(assemble(source).to_words()[0])


class TestBasicInstructions:
    def test_three_operand_register(self):
        inst = first_inst("add r1, r2, r3")
        assert inst == Instruction(Opcode.ADD, dest=1, rs1=2, s2=3)

    def test_immediate_with_hash(self):
        inst = first_inst("sub r1, r2, #-5")
        assert inst == Instruction(Opcode.SUB, dest=1, rs1=2, s2=-5, imm=True)

    def test_immediate_without_hash(self):
        inst = first_inst("ldl r3, r2, 8")
        assert inst == Instruction(Opcode.LDL, dest=3, rs1=2, s2=8, imm=True)

    def test_scc_suffix(self):
        inst = first_inst("adds r1, r2, r3")
        assert inst.scc
        assert inst.opcode is Opcode.ADD

    def test_store_operands(self):
        inst = first_inst("stl r7, r2, 12")
        assert inst == Instruction(Opcode.STL, dest=7, rs1=2, s2=12, imm=True)

    def test_hex_and_char_literals(self):
        assert first_inst("add r1, r0, #0x1F").s2 == 31
        assert first_inst("add r1, r0, #'A'").s2 == 65

    def test_case_insensitive_mnemonic(self):
        assert first_inst("ADD r1, r2, r3").opcode is Opcode.ADD

    def test_register_aliases(self):
        inst = first_inst("add sp, fp, ra")
        assert (inst.dest, inst.rs1, inst.s2) == (9, 8, 31)

    def test_ldhi(self):
        inst = first_inst("ldhi r4, 0x12345")
        assert inst.opcode is Opcode.LDHI
        assert inst.dest == 4

    def test_getpsw_putpsw(self):
        assert first_inst("getpsw r5").dest == 5
        inst = first_inst("putpsw r5, #0")
        assert inst.opcode is Opcode.PUTPSW and inst.rs1 == 5

    def test_comments_ignored(self):
        program = assemble("add r1, r1, r1 ; comment\n// whole line comment\n")
        assert len(program.to_words()) == 1


class TestJumps:
    def test_conditional_jmp_indexed(self):
        inst = first_inst("jmp eq, r2, 0")
        assert inst.opcode is Opcode.JMP
        assert inst.cond is Cond.EQ
        assert inst.rs1 == 2

    def test_jmpr_label(self):
        program = assemble("start: jmpr alw, start")
        inst = decode(program.to_words()[0])
        assert inst.imm19 == 0

    def test_branch_sugar(self):
        source = "loop: nop\n beq loop"
        program = assemble(source)
        inst = decode(program.to_words()[1])
        assert inst.opcode is Opcode.JMPR
        assert inst.cond is Cond.EQ
        assert inst.imm19 == -4

    def test_bare_b_is_always(self):
        program = assemble("x: b x")
        assert decode(program.to_words()[0]).cond is Cond.ALW

    def test_callr_default_and_explicit_dest(self):
        program = assemble("f: callr r31, f")
        inst = decode(program.to_words()[0])
        assert inst.opcode is Opcode.CALLR
        assert inst.dest == 31

    def test_call_indexed(self):
        inst = first_inst("call r31, r2, 0")
        assert inst.opcode is Opcode.CALL
        assert inst.rs1 == 2

    def test_ret_default(self):
        inst = first_inst("ret")
        assert inst == Instruction(Opcode.RET, rs1=31, s2=8, imm=True)

    def test_ret_explicit(self):
        inst = first_inst("ret r20, #4")
        assert inst == Instruction(Opcode.RET, rs1=20, s2=4, imm=True)

    def test_branch_out_of_range_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("jmpr alw, 0x7000000")


class TestPseudoInstructions:
    def test_nop(self):
        assert first_inst("nop") == Instruction(Opcode.ADD, dest=0, rs1=0, s2=0, imm=True)

    def test_mov_register(self):
        inst = first_inst("mov r4, r9")
        assert inst == Instruction(Opcode.ADD, dest=4, rs1=9, s2=0, imm=True)

    def test_mov_immediate(self):
        inst = first_inst("mov r4, #12")
        assert inst == Instruction(Opcode.ADD, dest=4, rs1=0, s2=12, imm=True)

    def test_li_small_is_one_instruction(self):
        assert len(assemble("li r4, 100").to_words()) == 1

    def test_li_large_is_two_instructions(self):
        words = assemble("li r4, 0x12345678").to_words()
        assert len(words) == 2
        assert decode(words[0]).opcode is Opcode.LDHI

    def test_li_negative_small(self):
        inst = first_inst("li r4, -100")
        assert inst.s2 == -100

    def test_cmp(self):
        inst = first_inst("cmp r4, #7")
        assert inst.opcode is Opcode.SUB
        assert inst.dest == 0
        assert inst.scc


class TestDirectivesAndSymbols:
    def test_word_directive(self):
        words = assemble(".word 1, 2, 0xFF")
        assert words.to_words() == [1, 2, 255]

    def test_word_with_label_reference(self):
        program = assemble("a: .word 7\nb: .word a")
        assert program.to_words()[1] == 0

    def test_space(self):
        program = assemble(".space 8\n.word 5")
        assert program.to_words() == [0, 0, 5]

    def test_ascii_and_asciiz(self):
        program = assemble('.asciiz "AB"')
        assert bytes(program.image) == b"AB\0"

    def test_align(self):
        program = assemble('.ascii "A"\n.align\n.word 9')
        assert program.to_words() == [0x41000000, 9]

    def test_org(self):
        program = assemble(".org 16\nstart: .word 1")
        assert program.symbols["start"] == 16
        assert program.to_words()[4] == 1

    @pytest.mark.parametrize(
        "source, base",
        [(".word 1, 2, 0xFF", 0x40), ('.asciiz "ABCDE"', 0x40), ('.ascii "ABCD"', 0x41)],
        ids=["whole-words", "partial-word", "unaligned-base"],
    )
    def test_load_into_copies_exactly_the_image(self, source, base):
        program = assemble(source, base=base)
        memory = Memory(size=256)
        memory._bytes[:] = b"\xee" * 256
        program.load_into(memory)
        expected = bytearray(b"\xee" * 256)
        expected[base : base + program.size] = program.image
        assert memory._bytes == expected
        assert memory.stats.total_refs == 0

    def test_org_backwards_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".org 8\n.org 4")

    def test_equate(self):
        inst = first_inst("k = 40\nadd r1, r0, #k + 2")
        assert inst.s2 == 42

    def test_label_and_code_on_same_line(self):
        program = assemble("start: add r1, r1, r1")
        assert program.symbols["start"] == 0

    def test_entry_defaults_to_main(self):
        program = assemble("nop\nmain: nop")
        assert program.entry == 4

    def test_entry_without_main_is_base(self):
        assert assemble("nop", base=0x40).entry == 0x40

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("x: nop\nx: nop")

    def test_undefined_symbol_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("jmpr alw, nowhere")

    def test_source_map_tracks_lines(self):
        program = assemble("nop\nadd r1, r1, r1")
        assert program.source_map[0] == 1
        assert program.source_map[4] == 2


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError):
            assemble("frobnicate r1, r2")

    def test_trailing_garbage(self):
        with pytest.raises(AssemblerError):
            assemble("nop r1")

    def test_immediate_too_large(self):
        with pytest.raises(AssemblerError):
            assemble("add r1, r0, #5000")

    def test_bad_register(self):
        with pytest.raises(AssemblerError):
            assemble("add r99, r0, #1")

    def test_unknown_condition(self):
        with pytest.raises(AssemblerError):
            assemble("jmp zz, r0, 0")

    def test_error_carries_line_number(self):
        with pytest.raises(AssemblerError) as exc:
            assemble("nop\nbadop r1")
        assert "line 2" in str(exc.value)


class TestDisassemblerRoundtrip:
    SOURCE = """
    main:
        add   r1, r2, r3
        subs  r4, r5, #-10
        ldl   r6, r7, 20
        stl   r6, r7, 24
        ldhi  r8, 100
        jmp   ne, r1, 0
        callr r31, main
        ret
        getpsw r9
    """

    def test_reassembly_preserves_words(self):
        program = assemble(self.SOURCE)
        words = program.to_words()
        listing = disassemble_program(words)
        rebuilt_source = "\n".join(line.split(": ", 1)[1] for line in listing)
        rebuilt = assemble(rebuilt_source)
        assert rebuilt.to_words() == words


class TestDelaySlotRejection:
    """The assembler refuses multi-word pseudos in delay slots.

    Regression for a miscompile where a two-word ``li`` scheduled into a
    call's delay slot executed only its ``ldhi`` half on the taken path,
    leaving the register holding just the high bits.
    """

    MISCOMPILE_SHAPE = """
main:
    callr r31, f
    li r5, 1000000
    ret
    nop
f:
    ret
    nop
"""

    def test_wide_li_in_call_slot_rejected(self):
        with pytest.raises(AssemblerError) as exc:
            assemble(self.MISCOMPILE_SHAPE)
        message = str(exc.value)
        assert "delay slot" in message
        assert "torn" in message
        assert "line 4" in message  # points at the pseudo, names the transfer

    @pytest.mark.parametrize("transfer", ["b f", "beq f", "jmpr alw, f",
                                          "callr r31, f", "ret"])
    def test_every_delayed_transfer_guards_its_slot(self, transfer):
        source = f"""
main:
    {transfer}
    li r5, 1000000
f:
    ret
    nop
"""
        with pytest.raises(AssemblerError, match="delay slot"):
            assemble(source)

    def test_narrow_li_in_slot_is_fine(self):
        program = assemble("""
main:
    callr r31, f
    li r5, 7
f:
    ret
    nop
""")
        assert program.size == 16

    def test_wide_li_outside_slot_is_fine(self):
        program = assemble("""
main:
    li r5, 1000000
    callr r31, f
    nop
f:
    ret
    nop
""")
        assert program.size == 24

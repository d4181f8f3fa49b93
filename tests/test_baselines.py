"""Tests for the generic CISC core and the four machine trait models."""

import pytest

from repro.baselines import (
    ALL_TRAITS,
    Abs,
    AutoDec,
    AutoInc,
    CInst,
    CiscExecutor,
    CiscOp,
    CiscProgram,
    Imm,
    Ind,
    M68KTraits,
    Pdp11Traits,
    Reg,
    VaxTraits,
    Z8002Traits,
    run_distinct,
)
from repro.baselines.framework import FP, SP
from repro.errors import BaselineError, MemoryFaultError


def run_instructions(instructions, traits=None, data=()):
    program = CiscProgram(instructions=instructions, labels={"main": 0},
                          data=list(data))
    executor = CiscExecutor(program, traits or VaxTraits())
    return executor.run(), executor


class TestExecutor:
    def test_mov_and_rts(self):
        value, __ = run_instructions([
            CInst(CiscOp.MOV, (Reg(0), Imm(42))),
            CInst(CiscOp.RTS),
        ])
        assert value == 42

    def test_alu_semantics(self):
        value, __ = run_instructions([
            CInst(CiscOp.MOV, (Reg(0), Imm(10))),
            CInst(CiscOp.MUL, (Reg(0), Imm(-3))),
            CInst(CiscOp.SUB, (Reg(0), Imm(2))),
            CInst(CiscOp.RTS),
        ])
        assert value == -32

    def test_division_truncates_toward_zero(self):
        value, __ = run_instructions([
            CInst(CiscOp.MOV, (Reg(0), Imm(-7))),
            CInst(CiscOp.DIV, (Reg(0), Imm(2))),
            CInst(CiscOp.RTS),
        ])
        assert value == -3

    def test_mod_follows_dividend_sign(self):
        value, __ = run_instructions([
            CInst(CiscOp.MOV, (Reg(0), Imm(-7))),
            CInst(CiscOp.MOD, (Reg(0), Imm(2))),
            CInst(CiscOp.RTS),
        ])
        assert value == -1

    def test_division_by_zero_raises(self):
        with pytest.raises(BaselineError):
            run_instructions([
                CInst(CiscOp.MOV, (Reg(0), Imm(1))),
                CInst(CiscOp.DIV, (Reg(0), Imm(0))),
                CInst(CiscOp.RTS),
            ])

    def test_memory_operands(self):
        value, executor = run_instructions([
            CInst(CiscOp.MOV, (Abs(0x500), Imm(7))),
            CInst(CiscOp.MOV, (Reg(0), Abs(0x500))),
            CInst(CiscOp.ADD, (Reg(0), Abs(0x500))),
            CInst(CiscOp.RTS),
        ])
        assert value == 14
        assert executor.memory.stats.data_refs >= 3

    def test_indirect_with_displacement(self):
        value, __ = run_instructions([
            CInst(CiscOp.MOV, (Reg(1), Imm(0x600))),
            CInst(CiscOp.MOV, (Ind(1, 4), Imm(99))),
            CInst(CiscOp.MOV, (Reg(0), Abs(0x604))),
            CInst(CiscOp.RTS),
        ])
        assert value == 99

    def test_autoincrement_and_autodecrement(self):
        value, executor = run_instructions([
            CInst(CiscOp.MOV, (Reg(1), Imm(0x600))),
            CInst(CiscOp.MOV, (AutoInc(1), Imm(5))),
            CInst(CiscOp.MOV, (AutoInc(1), Imm(6))),
            CInst(CiscOp.MOV, (Reg(2), Imm(0x608))),
            CInst(CiscOp.MOV, (Reg(0), AutoDec(2))),
            CInst(CiscOp.ADD, (Reg(0), Abs(0x600))),
            CInst(CiscOp.RTS),
        ])
        assert value == 11  # 6 (at 0x604) + 5 (at 0x600)

    def test_byte_sized_access(self):
        value, __ = run_instructions([
            CInst(CiscOp.MOV, (Abs(0x500, size=1), Imm(0x1FF))),
            CInst(CiscOp.MOV, (Reg(0), Abs(0x500, size=1))),
            CInst(CiscOp.RTS),
        ])
        assert value == 0xFF

    def test_push_pop(self):
        value, __ = run_instructions([
            CInst(CiscOp.PUSH, (Imm(31),)),
            CInst(CiscOp.POP, (Reg(0),)),
            CInst(CiscOp.RTS),
        ])
        assert value == 31

    def test_save_restore_roundtrip(self):
        value, __ = run_instructions([
            CInst(CiscOp.MOV, (Reg(1), Imm(10))),
            CInst(CiscOp.MOV, (Reg(2), Imm(20))),
            CInst(CiscOp.SAVE, regs=(1, 2)),
            CInst(CiscOp.CLR, (Reg(1),)),
            CInst(CiscOp.CLR, (Reg(2),)),
            CInst(CiscOp.RESTORE, regs=(1, 2)),
            CInst(CiscOp.MOV, (Reg(0), Reg(1))),
            CInst(CiscOp.ADD, (Reg(0), Reg(2))),
            CInst(CiscOp.RTS),
        ])
        assert value == 30

    def test_jsr_rts_nesting(self):
        program = CiscProgram(
            instructions=[
                CInst(CiscOp.JSR, target="sub"),
                CInst(CiscOp.ADD, (Reg(0), Imm(1))),
                CInst(CiscOp.RTS),
                CInst(CiscOp.MOV, (Reg(0), Imm(100)), label="sub"),
                CInst(CiscOp.RTS),
            ],
            labels={"main": 0, "sub": 3},
        )
        executor = CiscExecutor(program, VaxTraits())
        assert executor.run() == 101

    def test_conditional_branches(self):
        program = CiscProgram(
            instructions=[
                CInst(CiscOp.CMP, (Imm(3), Imm(5))),
                CInst(CiscOp.BCC, target="less", relop="<"),
                CInst(CiscOp.MOV, (Reg(0), Imm(0))),
                CInst(CiscOp.RTS),
                CInst(CiscOp.MOV, (Reg(0), Imm(1)), label="less"),
                CInst(CiscOp.RTS),
            ],
            labels={"main": 0, "less": 4},
        )
        assert CiscExecutor(program, VaxTraits()).run() == 1

    def test_unsigned_relops(self):
        program = CiscProgram(
            instructions=[
                CInst(CiscOp.CMP, (Imm(-1), Imm(1))),  # 0xFFFFFFFF vs 1 unsigned
                CInst(CiscOp.BCC, target="big", relop="gtu"),
                CInst(CiscOp.MOV, (Reg(0), Imm(0))),
                CInst(CiscOp.RTS),
                CInst(CiscOp.MOV, (Reg(0), Imm(1)), label="big"),
                CInst(CiscOp.RTS),
            ],
            labels={"main": 0, "big": 4},
        )
        assert CiscExecutor(program, VaxTraits()).run() == 1

    def test_step_limit(self):
        program = CiscProgram(
            instructions=[CInst(CiscOp.BRA, target="main")],
            labels={"main": 0},
        )
        with pytest.raises(BaselineError):
            CiscExecutor(program, VaxTraits()).run(max_steps=50)

    def test_data_preload(self):
        value, __ = run_instructions(
            [CInst(CiscOp.MOV, (Reg(0), Abs(0x400))), CInst(CiscOp.RTS)],
            data=[(0x400, (123).to_bytes(4, "big"))],
        )
        assert value == 123


class TestCountsAndPricing:
    """``run`` counts steps per pc and prices the counts when it ends."""

    @staticmethod
    def countdown_program():
        return CiscProgram(
            instructions=[
                CInst(CiscOp.MOV, (Reg(1), Imm(3))),
                CInst(CiscOp.MOV, (Reg(0), Imm(1))),
                CInst(CiscOp.MUL, (Reg(0), Imm(5)), label="loop"),
                CInst(CiscOp.SUB, (Reg(1), Imm(1))),
                CInst(CiscOp.TST, (Reg(1),)),
                CInst(CiscOp.BCC, target="loop", relop="!="),
                CInst(CiscOp.RTS),
            ],
            labels={"main": 0, "loop": 2},
        )

    def test_one_run_prices_another_machine(self):
        vax = CiscExecutor(self.countdown_program(), VaxTraits())
        z8k = CiscExecutor(self.countdown_program(), Z8002Traits())
        assert vax.run() == z8k.run() == 125
        assert vax.counts == z8k.counts == [1, 1, 3, 3, 3, 3, 1]
        assert vax.price(VaxTraits()) == (vax.cycles, vax.fetch_bytes)
        assert vax.price(Z8002Traits()) == (z8k.cycles, z8k.fetch_bytes)
        assert vax.cycles != z8k.cycles  # MUL is priced differently

    def test_fault_mid_run_counts_the_steps_taken(self):
        program = CiscProgram(
            instructions=[
                CInst(CiscOp.MOV, (Reg(0), Imm(1))),
                CInst(CiscOp.ADD, (Reg(0), Imm(300))),
                CInst(CiscOp.MOV, (Reg(1), Abs(0x7FFFFFF0))),
                CInst(CiscOp.RTS),
            ],
            labels={"main": 0},
        )
        traits = M68KTraits()
        executor = CiscExecutor(program, traits)
        with pytest.raises(MemoryFaultError) as fault:
            executor.run()
        assert fault.value.kind == "out_of_range"
        taken = program.instructions[:3]  # the faulting MOV included
        assert executor.instructions_executed == 3
        assert executor.counts == [1, 1, 1, 0]
        assert executor.cycles == sum(traits.cycles(inst) for inst in taken)
        assert executor.fetch_bytes == sum(traits.bytes(inst) for inst in taken)

    def test_auto_modes_as_alu_destination_apply_both_side_effects(self):
        # The destination is read, then written: (r1)+ loads at r1 and
        # stores at r1 + 4; -(r2) loads at r2 - 4 and stores at r2 - 8.
        instructions = [
            CInst(CiscOp.MOV, (Reg(1), Imm(0x600))),
            CInst(CiscOp.MOV, (Abs(0x600), Imm(5))),
            CInst(CiscOp.ADD, (AutoInc(1), Imm(1))),
            CInst(CiscOp.MOV, (Reg(2), Imm(0x608))),
            CInst(CiscOp.SUB, (AutoDec(2), Imm(2))),
        ]
        __, executor = run_instructions(instructions + [CInst(CiscOp.RTS)])
        single = CiscExecutor(CiscProgram(), VaxTraits())
        for inst in instructions:
            assert single._execute(inst) is None
        for state in (executor, single):
            assert state.regs[1] == 0x608 and state.regs[2] == 0x600
            words = [state.memory.load_word(a, count=False) for a in (0x600, 0x604)]
            assert words == [4, 6]

    def test_run_distinct_runs_each_program_once(self):
        machines = [(VaxTraits(), self.countdown_program()),
                    (Pdp11Traits(), CiscProgram(
                        instructions=[CInst(CiscOp.MOV, (Reg(0), Imm(9))),
                                      CInst(CiscOp.RTS)],
                        labels={"main": 0})),
                    (Z8002Traits(), self.countdown_program())]
        runs = run_distinct(machines)
        assert [traits for traits, __, __ in runs] == [t for t, __ in machines]
        assert [value for __, value, __ in runs] == [125, 9, 125]
        assert runs[0][2] is runs[2][2] and runs[1][2] is not runs[0][2]


class TestTraits:
    @pytest.mark.parametrize("traits", ALL_TRAITS, ids=lambda t: t.name)
    def test_every_instruction_priced(self, traits):
        samples = [
            CInst(CiscOp.MOV, (Reg(1), Imm(5))),
            CInst(CiscOp.ADD, (Reg(1), Abs(0x100))),
            CInst(CiscOp.MUL, (Reg(1), Reg(2))),
            CInst(CiscOp.DIV, (Reg(1), Ind(2, 8))),
            CInst(CiscOp.JSR, target="x"),
            CInst(CiscOp.RTS),
            CInst(CiscOp.SAVE, regs=(1, 2, 3)),
            CInst(CiscOp.BCC, target="x", relop="=="),
            CInst(CiscOp.PUSH, (Reg(1),)),
        ]
        for inst in samples:
            assert traits.bytes(inst) > 0
            assert traits.cycles(inst) > 0

    def test_vax_short_literal_compact(self):
        vax = VaxTraits()
        small = CInst(CiscOp.MOV, (Reg(1), Imm(5)))
        large = CInst(CiscOp.MOV, (Reg(1), Imm(500000)))
        assert vax.bytes(small) < vax.bytes(large)

    def test_vax_densest_on_memory_ops(self):
        inst = CInst(CiscOp.ADD, (Reg(1), Ind(FP, -8)))
        vax = VaxTraits().bytes(inst)
        m68k = M68KTraits().bytes(inst)
        assert vax <= m68k

    def test_mul_div_cost_more_than_add(self):
        for traits in ALL_TRAITS:
            add = CInst(CiscOp.ADD, (Reg(1), Reg(2)))
            mul = CInst(CiscOp.MUL, (Reg(1), Reg(2)))
            div = CInst(CiscOp.DIV, (Reg(1), Reg(2)))
            assert traits.cycles(mul) > traits.cycles(add)
            assert traits.cycles(div) > traits.cycles(mul)

    def test_save_cost_scales_with_registers(self):
        for traits in ALL_TRAITS:
            few = CInst(CiscOp.SAVE, regs=(1,))
            many = CInst(CiscOp.SAVE, regs=tuple(range(1, 9)))
            assert traits.cycles(many) > traits.cycles(few)

    def test_identity_metadata(self):
        names = {traits.name for traits in ALL_TRAITS}
        assert names == {"VAX-11/780", "PDP-11/70", "MC68000", "Z8002"}
        for traits in ALL_TRAITS:
            assert traits.cycle_time_ns > 0
            assert len(traits.pool) >= 4

    def test_static_bytes_sums_instructions(self):
        program = CiscProgram(
            instructions=[
                CInst(CiscOp.MOV, (Reg(0), Imm(1))),
                CInst(CiscOp.RTS),
            ],
            labels={"main": 0},
        )
        vax = VaxTraits()
        expected = vax.bytes(program.instructions[0]) + vax.bytes(program.instructions[1])
        assert program.static_bytes(vax) == expected

    def test_sp_fp_reserved(self):
        for traits in ALL_TRAITS:
            assert SP not in traits.pool
            assert FP not in traits.pool
            assert 0 not in traits.pool  # r0 carries return values

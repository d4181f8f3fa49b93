"""Tests for the three-stage pipeline model over a retired-pc stream."""

from repro.cc import compile_for_risc
from repro.cpu.pipeline3 import estimate_cycles
from repro.evaluation.e1_three_stage import retired_stream
from repro.isa.formats import Instruction
from repro.isa.opcodes import Opcode


def inst(opcode, dest=0, rs1=0, s2=0, imm=True):
    return Instruction(opcode, dest=dest, rs1=rs1, s2=s2, imm=imm)


def estimate_of(*insts):
    """Estimate a straight-line stream: instruction i retires at pc 4*i."""
    pcs = range(0, 4 * len(insts), 4)
    return estimate_cycles(pcs, dict(zip(pcs, insts)))


class TestThreeStageModel:
    def test_alu_only_identical(self):
        estimate = estimate_of(*[inst(Opcode.ADD, dest=1, rs1=1) for __ in range(10)])
        assert estimate.two_stage_cycles == estimate.three_stage_cycles == 10

    def test_load_without_use_is_free_in_three_stage(self):
        estimate = estimate_of(
            inst(Opcode.LDL, dest=5, rs1=0),
            inst(Opcode.ADD, dest=1, rs1=2, s2=3, imm=False),
        )
        assert estimate.two_stage_cycles == 3
        assert estimate.three_stage_cycles == 2
        assert estimate.load_use_stalls == 0

    def test_load_use_interlock(self):
        estimate = estimate_of(
            inst(Opcode.LDL, dest=5, rs1=0),
            inst(Opcode.ADD, dest=1, rs1=5),
        )
        assert estimate.three_stage_cycles == 3
        assert estimate.load_use_stalls == 1

    def test_load_to_r0_never_stalls(self):
        estimate = estimate_of(
            inst(Opcode.LDL, dest=0, rs1=0),
            inst(Opcode.ADD, dest=1, rs1=0),
        )
        assert estimate.load_use_stalls == 0

    def test_store_data_dependency_counts(self):
        estimate = estimate_of(
            inst(Opcode.LDL, dest=5, rs1=0),
            inst(Opcode.STL, dest=5, rs1=2),  # stores read dest as data
        )
        assert estimate.load_use_stalls == 1

    def test_speedup_on_memory_heavy_code(self):
        estimate = estimate_of(*[inst(Opcode.LDL, dest=i % 8 + 1, rs1=0) for i in range(20)])
        assert estimate.speedup > 1.5

    def test_empty_trace(self):
        estimate = estimate_cycles([], {})
        assert estimate.speedup == 1.0

    def test_repeated_pairs_count_every_retirement(self):
        # A two-instruction loop retired three times: the load-use pair
        # (0 -> 4) issues three times, the wrap-around pair (4 -> 0) twice.
        insts = {0: inst(Opcode.LDL, dest=5, rs1=0), 4: inst(Opcode.ADD, dest=1, rs1=5)}
        estimate = estimate_cycles([0, 4, 0, 4, 0, 4], insts)
        assert estimate.instructions == 6
        assert estimate.two_stage_cycles == 9
        assert estimate.load_use_stalls == 3
        assert estimate.three_stage_cycles == 9


class TestOnRealPrograms:
    def test_three_stage_never_slower(self):
        source = """
        int a[32];
        int main() {
            int i; int s = 0;
            for (i = 0; i < 32; i = i + 1) a[i] = i;
            for (i = 0; i < 32; i = i + 1) s = s + a[i];
            return s;
        }
        """
        compiled = compile_for_risc(source)
        profile = compiled.profile()
        estimate = estimate_cycles(*retired_stream(profile, compiled.program))
        assert estimate.instructions == profile.stats.instructions
        assert estimate.three_stage_cycles <= estimate.two_stage_cycles
        assert estimate.speedup >= 1.0

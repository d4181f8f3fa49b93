"""Baseline CISC machine models: VAX-11/780, PDP-11/70, M68000, Z8002.

The paper compares simulated RISC I against the commercial machines of
its generation.  We rebuild those comparisons with from-scratch *models*:
a shared generic register/memory CISC execution core
(:mod:`repro.baselines.framework`) plus per-machine **traits** that price
every instruction in bytes (encoding size) and cycles (timing), using
each machine's published characteristics:

* variable-length encodings (1-byte VAX opcodes with compact operand
  specifiers, 16-bit M68000/Z8002/PDP-11 words with extensions);
* microcoded execution - several cycles per instruction, more for memory
  operands, many for multiply/divide (which they have and RISC I lacks);
* conventional calling sequences that push arguments and save registers
  on a memory stack - the traffic RISC I's windows remove.

The numbers are documented approximations of the published per-machine
timings; see EXPERIMENTS.md for the table of assumptions.
"""

from repro.baselines.framework import (
    Abs,
    AutoDec,
    AutoInc,
    CiscExecutor,
    CiscOp,
    CiscProgram,
    CInst,
    Imm,
    Ind,
    MachineTraits,
    Reg,
    run_distinct,
)
from repro.baselines.m68k import M68KTraits
from repro.baselines.pdp11 import Pdp11Traits
from repro.baselines.vax import VaxTraits
from repro.baselines.z8k import Z8002Traits

ALL_TRAITS = [VaxTraits(), Pdp11Traits(), M68KTraits(), Z8002Traits()]

__all__ = [
    "ALL_TRAITS",
    "Abs",
    "AutoDec",
    "AutoInc",
    "CInst",
    "CiscExecutor",
    "CiscOp",
    "CiscProgram",
    "Imm",
    "Ind",
    "M68KTraits",
    "MachineTraits",
    "Pdp11Traits",
    "Reg",
    "VaxTraits",
    "Z8002Traits",
    "run_distinct",
]

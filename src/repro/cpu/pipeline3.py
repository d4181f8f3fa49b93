"""Three-stage pipeline timing estimator (the RISC II direction).

The paper's closing discussion (and the Berkeley follow-on, RISC II)
moves from the two-stage fetch/execute pipeline to three stages -
fetch / execute / write - with operand forwarding.  The win: a memory
access no longer blocks the fetch of the *next* instruction, so loads
and stores stop costing a blanket second cycle.  The new hazards:

* **load-use interlock** - an instruction reading the destination of the
  immediately preceding load stalls one cycle (forwarding can't beat the
  memory port);
* taken jumps still expose one delay slot (unchanged).

``estimate_cycles`` prices a retired-pc stream under this model.  Both
models cost each instruction by itself or by its predecessor alone, so
the estimate needs only per-pc counts and adjacent-pair counts, which
lets the E1 extension experiment quantify how much of RISC I's
two-cycle memory penalty the third stage recovers without replaying the
stream one instruction at a time.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import islice

from repro.isa.formats import Instruction
from repro.isa.opcodes import Category

_MEMORY = (Category.LOAD, Category.STORE)


@dataclass(frozen=True)
class PipelineEstimate:
    """Cycle totals under the two models, for the same trace."""

    instructions: int
    two_stage_cycles: int
    three_stage_cycles: int
    load_use_stalls: int

    @property
    def speedup(self) -> float:
        """Two-stage over three-stage cycle ratio (>1 means faster)."""
        if self.three_stage_cycles == 0:
            return 1.0
        return self.two_stage_cycles / self.three_stage_cycles


def _load_use(previous: Instruction, inst: Instruction) -> bool:
    """Whether *inst*, issued right after *previous*, waits on its load
    (a load is never a transfer, so it is never a taken jump)."""
    loaded = previous.dest
    return (
        previous.spec.category is Category.LOAD
        and loaded != 0
        and loaded in inst.operand_registers()
    )


def estimate_cycles(
    pcs: Sequence[int], insts: Mapping[int, Instruction]
) -> PipelineEstimate:
    """Price the retired-pc stream *pcs*, whose instruction at each pc is
    ``insts[pc]``, under the 2-stage and 3-stage timing models."""
    # RISC I (two-stage): memory instructions monopolise the single
    # memory port for an extra cycle.
    memory = sum(
        n for pc, n in Counter(pcs).items() if insts[pc].spec.category in _MEMORY
    )
    # RISC II-style (three-stage): everything is one cycle, except a use
    # immediately after a load.
    stalls = sum(
        n
        for (previous, pc), n in Counter(zip(pcs, islice(pcs, 1, None))).items()
        if _load_use(insts[previous], insts[pc])
    )
    return PipelineEstimate(
        instructions=len(pcs),
        two_stage_cycles=len(pcs) + memory,
        three_stage_cycles=len(pcs) + stalls,
        load_use_stalls=stalls,
    )

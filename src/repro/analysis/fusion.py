"""Static macro-op fusion analysis over the binary CFG.

Celio et al.'s "Renewed Case for RISC" argues that a lean ISA closes
the dynamic-instruction-count gap with CISC once the decoder fuses
common adjacent pairs into single macro-ops.  This module finds those
pairs *statically* - before a program ever runs - and emits a
machine-checkable **legality proof** for each one.  No tier executes a
pair fused: fusion never changes architectural results, so the dynamic
count of a pair is the number of times its first half retires in an
ordinary run (see :mod:`repro.evaluation.s3_fusion`).

Idiom catalog (one :data:`FUS lint <repro.analysis.lints.LINT_CATALOG>`
per kind):

========== ============ ==================================================
kind       lint         shape
========== ============ ==================================================
li         ``FUS001``   ``ldhi rd, hi`` ; ``add rd, rd, #lo`` - the
                        assembler's two-word constant-load pseudo
cmp-branch ``FUS002``   scc-setting ALU op ; conditional delayed branch
                        consuming the flags it just set
call-slot  ``FUS003``   ``call``/``callr`` ; its own delay-slot
                        instruction (simple ops only)
load-op    ``FUS004``   load into ``rd`` ; ALU op consuming ``rd``,
                        with ``rd`` dead (or overwritten) afterwards
op-store   ``FUS005``   pure ALU op writing ``rd`` ; store of ``rd``,
                        with ``rd`` dead afterwards
========== ============ ==================================================

A candidate that matches a shape but fails a legality condition is
*rejected* (``FUS006``) with the failing condition named.  The proof
for an accepted pair establishes:

* **intra-block + adjacent** - both halves in one basic block, second
  word at ``first + 4``, so no path executes one half without the other;
* **no mid-entry** - the second half is never a jump target (block
  leaders cut blocks, and we reject pairs whose second half leads a
  block of its own);
* **intermediate dead** - for destructive pairs (load-op, op-store) the
  intermediate register is proved dead after the pair by the
  backward liveness analysis (or overwritten by the second half);
* **no delay-slot span** - neither half sits in the delay slot of some
  *other* transfer (the call-slot idiom pairs a transfer with its *own*
  slot, which is the one sanctioned shape);
* **no statically-visible self-modification** - no resolvable store in
  the image targets either half's word;
* **trap accounting** - which halves may trap is recorded, so a fusing
  front-end can either refuse the pair or commit the first half's
  architectural effects before issuing the second.

The :class:`FusionReport` serialises to a stable JSON schema
(``repro.fusion/v1``) consumed by the lint CLI baseline and the
``s3_fusion`` evaluation section.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.analysis.cfg import (
    KIND_CALL,
    BasicBlock,
    CodeWord,
    ControlFlowGraph,
    StaticFunction,
    build_cfg,
)
from repro.analysis.dataflow import LivenessFacts, liveness
from repro.common.bitops import MASK32, SIGN_BIT32
from repro.isa.conditions import Cond
from repro.isa.opcodes import Category, Opcode

WORD = 4

#: schema tag embedded in every serialised report.
FUSION_SCHEMA = "repro.fusion/v1"

#: pair kinds, in catalog order; each maps to its lint ID.
FUSION_KINDS: dict[str, str] = {
    "li": "FUS001",
    "cmp-branch": "FUS002",
    "call-slot": "FUS003",
    "load-op": "FUS004",
    "op-store": "FUS005",
}

_SUM_OPS = frozenset(
    {Opcode.ADD, Opcode.ADDC, Opcode.SUB, Opcode.SUBC, Opcode.SUBR, Opcode.SUBCR}
)
#: simple, trap-free, window-insensitive opcodes allowed as a fused
#: call's delay slot.  Loads/stores can fault mid-pair and PUTPSW can
#: move the window pointer under the call, so they stay unfused.
_FUSIBLE_SLOT_CATEGORIES = frozenset({Category.ALU, Category.MISC})
_UNFUSIBLE_SLOT_OPCODES = frozenset({Opcode.PUTPSW, Opcode.CALLINT})


@dataclass(frozen=True)
class FusionPair:
    """One statically-proved fusible pair.

    ``first``/``second`` are the two instruction addresses;
    ``word1``/``word2`` the exact encodings the proof covers.
    ``intermediate`` is the register the proof shows dead after the
    pair (``None`` when the idiom has no register intermediate).
    ``cycles_saved`` is the per-execution saving a single-dispatch
    implementation realises (``min(c1, c2)``: the fused op issues once
    at ``max(c1, c2)``).
    """

    kind: str
    first: int
    second: int
    word1: int
    word2: int
    block: int
    function: str
    intermediate: int | None
    cycles_saved: int
    proof: dict

    @property
    def lint(self) -> str:
        """Lint code (``FUS00x``) attached to this pair's idiom kind."""
        return FUSION_KINDS[self.kind]

    def as_dict(self) -> dict:
        """JSON-ready dict for the report's ``pairs`` array."""
        return {
            "kind": self.kind,
            "first": self.first,
            "second": self.second,
            "word1": self.word1,
            "word2": self.word2,
            "block": self.block,
            "function": self.function,
            "intermediate": self.intermediate,
            "cycles_saved": self.cycles_saved,
            "proof": self.proof,
        }


@dataclass(frozen=True)
class RejectedCandidate:
    """A shape match whose legality proof failed (surfaced as FUS006)."""

    kind: str
    first: int
    second: int
    reason: str

    def as_dict(self) -> dict:
        """JSON-ready dict for the report's ``rejected`` array."""
        return {
            "kind": self.kind,
            "first": self.first,
            "second": self.second,
            "reason": self.reason,
        }


@dataclass
class FusionReport:
    """Every fusion opportunity (and rejection) one image analysis found."""

    program: str
    cfg: ControlFlowGraph
    pairs: list[FusionPair] = field(default_factory=list)
    rejected: list[RejectedCandidate] = field(default_factory=list)

    def by_kind(self) -> dict[str, int]:
        """Proved-pair counts per idiom kind (kinds with zero omitted)."""
        counts = {kind: 0 for kind in FUSION_KINDS}
        for pair in self.pairs:
            counts[pair.kind] += 1
        return {kind: n for kind, n in counts.items() if n}

    def static_cycles_saved(self) -> int:
        """Cycles saved if every proved pair fired exactly once."""
        return sum(pair.cycles_saved for pair in self.pairs)

    def summary(self) -> dict:
        """Roll-up counts: pairs, rejections, by-kind, static cycles."""
        return {
            "program": self.program,
            "pairs": len(self.pairs),
            "rejected": len(self.rejected),
            "by_kind": self.by_kind(),
            "static_cycles_saved": self.static_cycles_saved(),
        }

    def as_dict(self) -> dict:
        """Full report as a dict under the stable ``repro.fusion/v1`` schema."""
        return {
            "schema": FUSION_SCHEMA,
            "program": self.program,
            "summary": self.summary(),
            "pairs": [pair.as_dict() for pair in self.pairs],
            "rejected": [cand.as_dict() for cand in self.rejected],
        }

    def to_json(self) -> str:
        """Deterministic (sorted-key) JSON rendering of :meth:`as_dict`."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def analyze_program(program, *, name: str = "program") -> FusionReport:
    """Fusion analysis of an assembled :class:`~repro.asm.assembler.Program`."""
    cfg = build_cfg(
        program.to_words(),
        base=program.base,
        entry=program.entry,
        symbols=program.symbols,
    )
    return analyze_cfg(cfg, name=name)


def analyze_cfg(cfg: ControlFlowGraph, *, name: str = "program") -> FusionReport:
    """Find and prove every fusible pair in an already-built CFG."""
    report = FusionReport(program=name, cfg=cfg)
    owners = _block_owners(cfg)
    facts: dict[int, LivenessFacts] = {
        entry: liveness(cfg, func) for entry, func in cfg.functions.items()
    }
    slot_addresses = {
        block.delay_slot.address
        for block in cfg.blocks.values()
        if block.delay_slot is not None
    }
    static_stores = _static_store_words(cfg)

    for start in sorted(cfg.blocks):
        block = cfg.blocks[start]
        func_entries = owners.get(start)
        if not func_entries:
            continue  # block outside every function: no liveness facts
        funcs = [cfg.functions[e] for e in func_entries]
        block_facts = [facts[e] for e in func_entries]
        _analyze_block(
            report, block, funcs, block_facts, slot_addresses, static_stores
        )
    report.pairs.sort(key=lambda p: p.first)
    report.rejected.sort(key=lambda c: c.first)
    return report


# -- per-block detection -----------------------------------------------------


def _analyze_block(
    report: FusionReport,
    block: BasicBlock,
    funcs: list[StaticFunction],
    facts: list[LivenessFacts],
    slot_addresses: set[int],
    static_stores: set[int],
) -> None:
    claimed: set[int] = set()

    def settle(kind: str, first: CodeWord, second: CodeWord) -> None:
        if first.address in claimed or second.address in claimed:
            return  # greedy left-to-right: pairs never share a half
        pair, reason = _prove(
            kind, first, second, block, funcs, facts,
            slot_addresses, static_stores, report.cfg,
        )
        if pair is not None:
            claimed.add(first.address)
            claimed.add(second.address)
            report.pairs.append(pair)
        else:
            assert reason is not None
            report.rejected.append(
                RejectedCandidate(kind, first.address, second.address, reason)
            )

    body = block.body
    for i in range(len(body) - 1):
        first, second = body[i], body[i + 1]
        kind = _body_pair_kind(first, second, facts)
        if kind is not None:
            settle(kind, first, second)
    term = block.terminator
    if term is not None and body:
        if _is_cmp_branch(body[-1], term):
            settle("cmp-branch", body[-1], term)
    if block.kind == KIND_CALL and term is not None and block.delay_slot is not None:
        slot = block.delay_slot
        if _is_fusible_slot(slot):
            settle("call-slot", term, slot)


def _body_pair_kind(
    first: CodeWord, second: CodeWord, facts: list[LivenessFacts]
) -> str | None:
    """Which straight-line idiom (if any) this adjacent body pair matches."""
    fi, si = first.inst, second.inst
    if (
        fi.opcode is Opcode.LDHI
        and si.opcode is Opcode.ADD
        and si.imm
        and si.dest == fi.dest
        and si.rs1 == fi.dest
        and fi.dest != 0
    ):
        return "li"
    if (
        fi.spec.category is Category.LOAD
        and fi.dest != 0
        and si.spec.category is Category.ALU
        and fi.dest in si.operand_registers()
    ):
        return "load-op"
    if (
        fi.spec.category is Category.ALU
        and not fi.scc
        and fi.dest != 0
        and si.spec.category is Category.STORE
        and si.dest == fi.dest  # stores read their value from the dest field
    ):
        return "op-store"
    return None


def _is_cmp_branch(cmp: CodeWord, term: CodeWord) -> bool:
    if term.inst.opcode not in (Opcode.JMP, Opcode.JMPR):
        return False
    cond = term.inst.cond
    if cond in (Cond.ALW, Cond.NEVER):
        return False  # not a flag consumer: plain jump, not a compare-branch
    return cmp.inst.spec.category is Category.ALU and cmp.inst.scc


def _is_fusible_slot(slot: CodeWord) -> bool:
    inst = slot.inst
    return (
        inst.spec.category in _FUSIBLE_SLOT_CATEGORIES
        and inst.opcode not in _UNFUSIBLE_SLOT_OPCODES
    )


# -- legality proofs ---------------------------------------------------------


def _prove(
    kind: str,
    first: CodeWord,
    second: CodeWord,
    block: BasicBlock,
    funcs: list[StaticFunction],
    facts: list[LivenessFacts],
    slot_addresses: set[int],
    static_stores: set[int],
    cfg: ControlFlowGraph,
) -> tuple[FusionPair | None, str | None]:
    """Build the legality proof; ``(pair, None)`` or ``(None, reason)``."""
    if second.address != first.address + WORD:
        return None, "halves are not adjacent words"
    if second.address in cfg.blocks:
        return None, "second half is a jump target (leads a block of its own)"
    own_slot = kind == "call-slot"
    if not own_slot:
        if first.address in slot_addresses:
            return None, "first half sits in the delay slot of another transfer"
        if second.address in slot_addresses:
            return None, "second half sits in the delay slot of another transfer"
    for address in (first.address, second.address):
        if address in static_stores:
            return None, (
                f"statically-resolvable store targets the pair's code at "
                f"{address:#x} (self-modifying region)"
            )

    intermediate, dead_how = _intermediate_proof(kind, first, second, facts)
    if kind in ("load-op", "op-store") and dead_how is None:
        return None, (
            f"intermediate r{intermediate} may still be live after the pair"
        )

    first_may_trap = _may_trap(first)
    second_may_trap = _may_trap(second)
    if kind == "li" and _li_overflow_excluded(first, second):
        # The add-of-constant's operands are both known: the overflow
        # predicate is computed here, once, instead of guarded at run
        # time by a proof-less tier.
        second_may_trap = False
    proof = {
        "intra_block": True,
        "adjacent": True,
        "no_mid_entry": True,
        "spans_delay_slot": False,
        "own_delay_slot": own_slot,
        "self_modifying": False,
        "intermediate_dead": dead_how,
        "first_may_trap": first_may_trap,
        "second_may_trap": second_may_trap,
        "requires_no_overflow_trap": first_may_trap and _is_sum(first)
        or second_may_trap and _is_sum(second),
    }
    c1 = first.inst.spec.cycles
    c2 = second.inst.spec.cycles
    pair = FusionPair(
        kind=kind,
        first=first.address,
        second=second.address,
        word1=first.word,
        word2=second.word,
        block=block.start,
        function=funcs[0].name,
        intermediate=intermediate,
        cycles_saved=min(c1, c2),
        proof=proof,
    )
    return pair, None


def _intermediate_proof(
    kind: str,
    first: CodeWord,
    second: CodeWord,
    facts: list[LivenessFacts],
) -> tuple[int | None, str | None]:
    """(intermediate register, how it is proved dead) for the pair.

    ``how`` is ``None`` when the proof fails; kinds without a register
    intermediate return ``(None, 'n/a: ...')``.
    """
    if kind == "li":
        # ldhi's value is consumed by the add and the register is then
        # overwritten with the full constant: dead by construction.
        return first.inst.dest, "overwritten by second half"
    if kind == "cmp-branch":
        return None, "n/a: condition codes consumed by the branch"
    if kind == "call-slot":
        return None, "n/a: no register intermediate"
    reg = first.inst.dest
    if kind == "load-op" and second.inst.written_register() == reg:
        return reg, "overwritten by second half"
    # Liveness is a may-analysis: a clear bit after the second half means
    # no path reads the register again.  A block shared by several
    # functions must be dead from every owner's perspective.
    live = any(
        (f.after.get(second.address, (1 << 32) - 1) >> reg) & 1 for f in facts
    )
    if live:
        return reg, None
    return reg, "dead after pair (liveness)"


def _may_trap(code: CodeWord) -> bool:
    """Whether this half can raise a precise trap mid-pair.

    Sum ops count as trapping because ``trap_on_overflow`` may be armed;
    recorded in the proof (``requires_no_overflow_trap``) so a fusing
    front-end without runtime overflow guards knows to skip the pair.
    """
    inst = code.inst
    cat = inst.spec.category
    if cat in (Category.LOAD, Category.STORE):
        return True  # memory fault
    if cat is Category.JUMP:
        # CALL/CALLR may overflow the window file; plain jumps cannot trap.
        return inst.opcode in (Opcode.CALL, Opcode.CALLR, Opcode.CALLINT)
    return _is_sum(code)


def _is_sum(code: CodeWord) -> bool:
    return (
        code.inst.spec.category is Category.ALU and code.inst.opcode in _SUM_OPS
    )


def _li_overflow_excluded(hi: CodeWord, lo: CodeWord) -> bool:
    """Exact static overflow check for a proved li pair."""
    a = (hi.inst.imm19 << 13) & MASK32
    b = lo.inst.s2 & MASK32
    value = (a + b) & MASK32
    return not ((~(a ^ b) & (a ^ value)) & SIGN_BIT32)


# -- helpers -----------------------------------------------------------------


def _block_owners(cfg: ControlFlowGraph) -> dict[int, list[int]]:
    """block start -> entries of every function containing it."""
    owners: dict[int, list[int]] = {}
    for entry, func in cfg.functions.items():
        for start in func.block_starts:
            owners.setdefault(start, []).append(entry)
    return owners


def _static_store_words(cfg: ControlFlowGraph) -> set[int]:
    """Word addresses hit by statically-resolvable stores in the image."""
    hit: set[int] = set()
    for code in cfg.instructions:
        inst = code.inst
        if inst.spec.category is not Category.STORE:
            continue
        if not inst.imm or inst.rs1 != 0:
            continue  # address depends on a register: not resolvable here
        address = inst.s2 & MASK32
        width = {Opcode.STL: 4, Opcode.STS: 2, Opcode.STB: 1}.get(inst.opcode, 4)
        for byte in range(address, address + width):
            hit.add(byte & ~3)
    return hit


__all__ = [
    "FUSION_KINDS",
    "FUSION_SCHEMA",
    "FusionPair",
    "FusionReport",
    "RejectedCandidate",
    "analyze_cfg",
    "analyze_program",
]

"""S3 - Macro-op fusion: the ISA-bloat counterargument, measured.

The classic objection to the reduced instruction set is that RISC I
"really" executes more instructions than a CISC because its idioms take
two words where a VAX takes one (32-bit constants, compare-and-branch,
load-then-use).  This section quantifies exactly how much of that bloat
a fusion front-end could claw back *without changing the ISA*: the
:mod:`repro.analysis.fusion` analyzer proves which adjacent pairs are
fusible, and the table reports the dynamic-instruction and code-size
deltas next to the VAX baseline from T4.

Fusion is a front-end property that never changes architectural
results, so nothing here runs fused.  As Celio et al. size it, the
count comes from a dynamic trace: one unfused run per workload on the
trace tier logs its dispatch path, and a proved pair fuses once each
time its first half retires, since the proof puts the second half next
in the same basic block.  ``tests/test_fusion_count.py`` checks that
join against a per-step count of "first half retired, then second half
retired next" on the reference oracle.
"""

from __future__ import annotations

from collections import Counter

from repro.analysis.fusion import analyze_program
from repro.baselines import VaxTraits
from repro.cc import compile_to_ir
from repro.cc.ciscgen import compile_for_cisc
from repro.evaluation.tables import Table
from repro.workloads import BENCHMARKS
from repro.workloads.cache import compile_cached
from repro.workloads.extended import EXTENDED_BENCHMARKS

#: instruction bytes a fused pair would occupy if the idiom were one opcode
_PAIR_BYTES_SAVED = 4


def _all_benchmarks() -> dict[str, object]:
    by_name = {bench.name: bench for bench in BENCHMARKS}
    by_name.update({bench.name: bench for bench in EXTENDED_BENCHMARKS})
    return by_name


def _pc_counts(path: list) -> Counter:
    """Retirements per pc from a :attr:`TraceEngine.path
    <repro.cpu.traceengine.TraceEngine.path>` log.

    Each entry ``(addrs, done)`` ran ``addrs[:done]``, every address
    once, so equal entries are counted first and expanded once each.
    """
    counts: Counter = Counter()
    for (addrs, done), hits in Counter(path).items():
        counts.update(dict.fromkeys(addrs[:done], hits))
    return counts


def fusion_record(name: str) -> dict:
    """Static and dynamic fusion counts for one workload.

    Runs the workload once, unfused, on the trace tier with its dispatch
    path logged, and joins the proved pairs with the path's per-pc
    counts: ``pair_hits`` maps each pair's first-half address to the
    times it would have issued fused.
    """
    bench = _all_benchmarks()[name]
    compiled = compile_cached(bench.source)
    report = analyze_program(compiled.program, name=name)

    machine = compiled.make_machine(engine="trace")
    path: list = []
    machine.engine.path = path
    machine.run(compiled.program.entry)
    counts = _pc_counts(path)

    hits = {pair.first: counts[pair.first] for pair in report.pairs}
    fused = sum(hits.values())
    instructions = machine.stats.instructions
    cycles_saved = sum(
        pair.cycles_saved * hits[pair.first] for pair in report.pairs
    )
    return {
        "name": name,
        "pairs": len(report.pairs),
        "pair_hits": hits,
        "instructions": instructions,
        "fused": fused,
        "effective_instructions": instructions - fused,
        "cycles": machine.stats.cycles,
        "cycles_saved": cycles_saved,
        "code_bytes": compiled.code_size_bytes,
        "fused_code_bytes": compiled.code_size_bytes
        - _PAIR_BYTES_SAVED * len(report.pairs),
    }


def _vax_code_bytes(name: str) -> int:
    """Static VAX code size, as T4's matrix records it."""
    source = _all_benchmarks()[name].source
    return compile_for_cisc(compile_to_ir(source), VaxTraits()).static_bytes


def run(names: tuple[str, ...] | None = None) -> Table:
    """Build the S3 fusion table over ``names`` (default: all 16 workloads)."""
    by_name = _all_benchmarks()
    if names is None:
        names = tuple(by_name)
    table = Table(
        title="S3: Macro-op fusion - dynamic and static ISA-bloat recovered",
        headers=["benchmark", "pairs", "dyn instr", "fused", "effective",
                 "dyn saved", "cyc saved", "bytes", "fused bytes", "eff/VAX"],
        notes=[
            # benchmarks/perf/golden.json pins this note's bytes; it still
            # names fused runs, which go with the next golden change.
            "every fused pair is statically proved legal; fusion-on runs are "
            "asserted bit-identical to fusion-off on the fast engine",
            "'effective' = dynamic instructions minus fused dispatches; "
            "'cyc saved' is the hypothetical gain of a fusing front-end",
            "'fused bytes' treats each proved pair as one instruction word; "
            "eff/VAX re-states T4's code-size ratio with fusion applied",
        ],
    )
    core = {bench.name for bench in BENCHMARKS}
    total_instr = total_fused = 0
    for name in names:
        rec = fusion_record(name)
        total_instr += rec["instructions"]
        total_fused += rec["fused"]
        vax = _vax_code_bytes(name) if name in core else None
        table.add_row(
            name,
            rec["pairs"],
            rec["instructions"],
            rec["fused"],
            rec["effective_instructions"],
            f"{rec['fused'] / rec['instructions']:.1%}",
            rec["cycles_saved"],
            rec["code_bytes"],
            rec["fused_code_bytes"],
            "-" if vax is None else f"{rec['fused_code_bytes'] / vax:.2f}x",
        )
    if total_instr:
        table.notes.append(
            f"aggregate: {total_fused} of {total_instr} dynamic instructions "
            f"fused ({total_fused / total_instr:.1%})"
        )
    return table

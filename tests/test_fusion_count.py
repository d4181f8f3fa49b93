"""S3's fusion count against a per-step count on the reference oracle.

S3 runs each workload once, unfused, on the trace tier with its
dispatch path logged, and counts a proved pair once for each retirement
of its first half.  The oracle here steps the same program on the
reference engine under a ``step`` observer and counts a pair only when
its first half retired and its second half retired next.  The two must
agree pair by pair and in total on every S3 workload.
"""

import pytest

from repro.analysis.fusion import analyze_program
from repro.cpu.machine import HaltReason
from repro.evaluation.s3_fusion import fusion_record
from repro.workloads import BENCHMARKS
from repro.workloads.cache import compile_cached
from repro.workloads.extended import EXTENDED_BENCHMARKS

S3_WORKLOADS = {bench.name: bench for bench in (*BENCHMARKS, *EXTENDED_BENCHMARKS)}


def oracle_pair_counts(name: str) -> dict[int, int]:
    """First-half address -> times the pair's two halves retired back to
    back, counted step by step on the reference engine."""
    compiled = compile_cached(S3_WORKLOADS[name].source)
    report = analyze_program(compiled.program, name=name)
    counts = {pair.first: 0 for pair in report.pairs}
    last = [None]

    def on_step(machine, pc, inst, taken):
        prev = last[0]
        if prev in counts and pc == prev + 4:
            counts[prev] += 1
        last[0] = pc

    machine = compiled.make_machine(engine="reference")
    machine.observers.subscribe("step", on_step)
    machine.run(compiled.program.entry)
    assert machine.halted is HaltReason.RETURNED
    return counts


@pytest.mark.parametrize("name", S3_WORKLOADS)
def test_profile_join_matches_the_oracle_count(name):
    expected = oracle_pair_counts(name)
    record = fusion_record(name)
    assert record["pair_hits"] == expected
    assert record["fused"] == sum(expected.values()) > 0

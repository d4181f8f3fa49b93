"""Trace shape and codegen volume on the trace tier.

A trace visits each address at most once: a chained transfer back into
code already in the trace ends it, and the next dispatch enters the
trace compiled at that address.  These tests pin that shape, bound the
codegen a cold round of the paper programs pays for, and check the
process-level codegen counters that run manifests carry in ``host``.
"""

import pytest

from repro import RiscMachine, assemble
from repro.cc import compile_for_risc
from repro.cpu import traceengine
from repro.cpu.engines import engine_names
from repro.cpu.equivalence import diff_digests, state_digest
from repro.cpu.traceengine import _scan_trace, trace_codegen_info
from repro.workloads import BENCHMARKS

ENGINES = engine_names()

#: Instructions compiled by one cold round of the 11 paper programs.
#: Measured 5,007 with each address compiled once per trace; the
#: earlier scheme, which unrolled loops and recursion up to 8 times per
#: trace, compiled 17,238.
COLD_ROUND_MAX_INSTRUCTIONS = 6_000

# The back-edge is an unconditional branch, so the scanner chains it
# and reaches ``loop`` a second time.
TIGHT_LOOP = """
main:
    li    r16, 0
    li    r17, 100
loop:
    cmp   r17, #0
    ble   done
    nop
    add   r16, r16, r17
    sub   r17, r17, #1
    b     loop
    nop
done:
    mov   r26, r16
    ret
    nop
"""

# sum(n) = n + sum(n - 1): the inlined self-call reaches ``sum`` again.
SELF_RECURSION = """
main:
    li    r10, 12
    callr r31, sum
    nop
    mov   r26, r10
    ret
    nop
sum:
    cmp   r26, #0
    ble   base
    nop
    sub   r10, r26, #1
    callr r31, sum
    nop
    add   r26, r26, r10
    ret
    nop
base:
    li    r26, 0
    ret
    nop
"""


def _run(program, engine: str) -> RiscMachine:
    machine = RiscMachine(engine=engine)
    program.load_into(machine.memory)
    machine.run(program.entry)
    return machine


@pytest.fixture
def cold_factories():
    """An empty trace factory cache, so every trace runs codegen."""
    saved = dict(traceengine._TRACE_FACTORY_CACHE)
    traceengine._TRACE_FACTORY_CACHE.clear()
    yield
    traceengine._TRACE_FACTORY_CACHE.clear()
    traceengine._TRACE_FACTORY_CACHE.update(saved)


def test_cold_paper_round_compiles_each_address_once_per_trace(cold_factories):
    compiled_total = 0
    for bench in BENCHMARKS:
        compiled = compile_for_risc(bench.source)
        machine = compiled.make_machine(engine="trace")
        machine.run(compiled.program.entry)
        engine = machine.engine
        for trc in engine._traces.values():
            assert len(set(trc.addrs)) == len(trc.addrs), (
                f"{bench.name}: trace at {trc.start:#x} revisits an address"
            )
        compiled_total += engine.instructions_compiled
    assert len(BENCHMARKS) == 11
    assert compiled_total <= COLD_ROUND_MAX_INSTRUCTIONS, compiled_total


@pytest.mark.parametrize(
    "source, label, result",
    [(TIGHT_LOOP, "loop", 5050), (SELF_RECURSION, "sum", 78)],
    ids=["tight-loop", "self-recursion"],
)
def test_revisit_ends_the_trace_and_matches_the_oracle(source, label, result):
    program = assemble(source)
    target = program.symbols[label]
    machine = _run(program, "trace")
    assert machine.result == result

    # Scanned from the entry, the trace runs into *label* a second time
    # and ends there, before compiling it again.
    ir = _scan_trace(machine, program.entry)
    addrs = [item[0] for item in ir.seq]
    assert ir.events[-1] == ("end", target)
    assert target in addrs
    assert len(set(addrs)) == len(addrs)
    for trc in machine.engine._traces.values():
        assert len(set(trc.addrs)) == len(trc.addrs)
    # The next dispatch entered the trace that starts at *label*.
    assert target in machine.engine._traces

    digests = [state_digest(_run(program, engine)) for engine in ENGINES]
    for engine, digest in zip(ENGINES[1:], digests[1:]):
        mismatches = diff_digests(digests[0], digest)
        assert not mismatches, f"[{engine}] " + "\n".join(mismatches)


def test_codegen_counters_ride_in_the_manifest_host_section(cold_factories):
    program = assemble(TIGHT_LOOP)
    before = trace_codegen_info()
    cold = _run(program, "trace")
    middle = trace_codegen_info()
    warm = _run(program, "trace")
    after = trace_codegen_info()

    traces = cold.engine.traces_compiled
    assert middle["misses"] - before["misses"] == traces
    assert middle["hits"] == before["hits"]
    assert middle["source_lines"] > before["source_lines"]
    assert middle["compile_s"] > before["compile_s"]
    assert middle["entries"] == traces
    # A fresh machine on the same image reuses every factory.
    assert after["hits"] - middle["hits"] == warm.engine.traces_compiled
    assert after["misses"] == middle["misses"]

    manifest = warm.run_manifest(workload="tight-loop", entry=program.entry)
    assert manifest.host["trace_codegen"] == after
    assert not set(after) & set(manifest.engine_detail)
    # Host facts never reach the canonical (cross-worker) document.
    assert "trace_codegen" not in manifest.canonical_json()
    assert manifest.canonical_json() == cold.run_manifest(
        workload="tight-loop", entry=program.entry
    ).canonical_json()

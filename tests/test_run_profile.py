"""One profiled run per program and window count feeds every reader.

The report sections, the campaign's golden runs and the lint
cross-check read :meth:`CompiledRisc.profile`, built once per (compiled
program, window count) from one unobserved trace-tier run with its
dispatch path logged.  The profile holds the run's numbers, never the
machine.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro import RiscMachine, assemble
from repro.cc import CompiledRisc, compile_for_risc
from repro.cpu.machine import HaltReason
from repro.cpu.runprofile import profile_machine
from repro.evaluation import (
    e1_three_stage,
    m1_instruction_mix,
    s1_static_analysis,
    s3_fusion,
    t4_code_size,
    t6_window_overflow,
)
from repro.faults.campaign import _golden_from, _golden_run
from repro.workloads import benchmark
from repro.workloads.cache import clear_compile_cache, compile_cached


@pytest.fixture
def machines_made(monkeypatch):
    """Weak references to every machine a ``CompiledRisc`` makes, by
    (compiled program, window count)."""
    made: dict = {}
    make_machine = CompiledRisc.make_machine

    def recording(self, **kwargs):
        machine = make_machine(self, **kwargs)
        key = (id(self), kwargs.get("num_windows", 8))
        made.setdefault(key, []).append(weakref.ref(machine))
        return machine

    monkeypatch.setattr(CompiledRisc, "make_machine", recording)
    return made


def test_sections_and_golden_run_share_one_run(machines_made):
    clear_compile_cache()
    names = ("towers",)
    for section in (t4_code_size, t6_window_overflow, m1_instruction_mix,
                    s1_static_analysis, e1_three_stage, s3_fusion):
        section.run(names).render()
    _golden_run("towers")
    towers = compile_cached(benchmark("towers").source)
    assert {key: len(refs) for key, refs in machines_made.items()} == {
        (id(towers), 8): 1
    }


def test_profile_keeps_no_machine(machines_made):
    compiled = compile_for_risc(benchmark("towers").source)
    enabled = gc.isenabled()
    gc.disable()
    try:
        profile = compiled.profile()
        [machine] = machines_made[(id(compiled), 8)]
        assert machine() is None
    finally:
        if enabled:
            gc.enable()
    assert compiled.profile() is profile
    assert compiled.profile(num_windows=4) is not profile
    assert len(machines_made[(id(compiled), 4)]) == 1


def test_path_rebuilds_every_step():
    profile = compile_cached(benchmark("towers").source).profile()
    pcs = profile.pcs()
    assert len(pcs) == profile.stats.instructions
    assert Counter(pcs) == profile.pc_counts()
    assert profile.pcs(100) == pcs[:100]
    # Each distinct dispatch is stored once.
    assert len(profile.entries) < len(profile.order) < len(pcs)


def test_golden_run_refuses_a_trapping_run():
    program = assemble("main:\n ldl r16, r0, 0x401\n ret\n nop")
    machine = RiscMachine(engine="trace")
    program.load_into(machine.memory)
    profile = profile_machine(machine, program.entry)
    assert profile.halted is HaltReason.TRAPPED and profile.stats.traps == 1
    with pytest.raises(RuntimeError, match="did not complete"):
        _golden_from("trapping", profile)


def test_profile_needs_the_trace_tier():
    machine = RiscMachine(engine="reference")
    with pytest.raises(ValueError, match="trace tier"):
        profile_machine(machine, 0)

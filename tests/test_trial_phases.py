"""Campaign trials run in phases on the compiled tier, bit-identical to
the oracle.

A trial fast-forwards unobserved to its trigger boundary, single-steps
under the fault injector only while the fault needs watching, and
finishes unobserved.  The contract under test: every
:class:`InjectionResult` - outcome, halt reason, trap cause, step count,
result - equals the one the fully observed oracle loop below produces.
That loop is the original trial runner, kept here as the reference and
pinned to the reference engine; its injector re-asserts stuck-at faults
at every step boundary and never pins them on the machine.  Every
phased trial runs on the campaign's tier (``trace``), which
single-steps through its inner fast engine.  A trial whose fault ran pinned
must also leave the machine in the oracle's final state, and small
assembly programs pin faults where a window spill, a window refill or a
store reaches them.
"""

import json
from collections import Counter

import pytest

from repro import RiscMachine, assemble
from repro.cpu.equivalence import diff_digests, state_digest
from repro.cpu.machine import HaltReason
from repro.faults.campaign import (
    CampaignConfig,
    Outcome,
    _benchmark_state,
    _campaign_schedule,
    _classify,
    _crash_result,
    _fast_forward,
    _golden_run,
    _run_injection,
    main,
    run_campaign,
)
from repro.faults.injector import FaultInjector
from repro.faults.models import (
    FaultKind,
    FaultSpec,
    FaultTarget,
    FaultTrigger,
)
from repro.isa.registers import NUM_WINDOWS, physical_index
from repro.workloads import benchmark
from repro.workloads.cache import compile_cached

#: Seed-1981 fingerprint of a 16-injection default campaign.
FINGERPRINT_1981_16 = (
    "c4f35e6d493b317df8e23d74e17633417ffe1d7b0466a8832d1635bc53209ece"
)

#: A schedule that draws every target x kind and produces every
#: architectural outcome (masked, detected, SDC, timeout).
COVERING = CampaignConfig(seed=286, injections=28)


#: Tiers the phased trial machine runs on.
TRIAL_TIERS = ("trace",)

_TRIAL_STATES: dict = {}


def oracle_machine(golden, spec, budget, *, use_windows=True):
    """The fully observed trial: the reference oracle, stepped under an
    attached injector from instruction 0.  Returns its result and the
    finished machine."""
    compiled = compile_cached(
        benchmark(golden.benchmark).source, use_windows=use_windows
    )
    machine = compiled.make_machine(engine="reference")
    machine.reset(compiled.program.entry)
    injector = FaultInjector(machine, [spec])
    injector.attach()
    steps = 0
    try:
        while machine.halted is None and steps < budget:
            machine.step()
            steps += 1
        if machine.halted is None:
            machine.halted = HaltReason.STEP_LIMIT
        return _classify(machine, golden, spec, steps), machine
    except Exception as exc:  # noqa: BLE001 - mirrors the runner
        return _crash_result(golden, spec, steps, exc), machine
    finally:
        injector.detach()


def oracle_trial(golden, spec, budget):
    """The oracle's result for one trial (see :func:`oracle_machine`)."""
    return oracle_machine(golden, spec, budget)[0]


def trial_state(name, engine, *, use_windows=True):
    """A (machine, delta checkpoint) pair for *name* on *engine*, built
    the way the campaign's per-process state is."""
    key = (name, engine, use_windows)
    if key not in _TRIAL_STATES:
        compiled = compile_cached(benchmark(name).source, use_windows=use_windows)
        machine = compiled.make_machine(engine=engine)
        machine.reset(compiled.program.entry)
        checkpoint = machine.checkpoint(track_memory_deltas=True)
        _TRIAL_STATES[key] = (machine, checkpoint)
    return _TRIAL_STATES[key]


def phased_trials(golden, spec, budget):
    """The phased trial's result on each tier, keyed by tier name."""
    results = {}
    for engine in TRIAL_TIERS:
        machine, checkpoint = trial_state(golden.benchmark, engine)
        results[engine] = _run_injection(machine, checkpoint, golden, spec, budget)
    return results


@pytest.fixture(scope="module")
def covering_schedule():
    goldens: dict = {}
    return _campaign_schedule(COVERING, goldens), goldens


def test_campaign_trials_run_on_a_tested_tier():
    machine, _checkpoint = _benchmark_state("towers")
    assert machine.engine_name in TRIAL_TIERS


def test_covering_schedule_matches_the_oracle(covering_schedule):
    schedule, _goldens = covering_schedule
    drawn = {(trial.spec.target, trial.spec.kind) for trial in schedule}
    assert drawn == {(t, k) for t in FaultTarget for k in FaultKind}
    outcomes = set()
    for trial in schedule:
        golden, spec, budget = trial.golden, trial.spec, trial.budget
        expected = oracle_trial(golden, spec, budget)
        assert phased_trials(golden, spec, budget) == dict.fromkeys(
            TRIAL_TIERS, expected
        ), spec.describe()
        outcomes.add(expected.outcome)
    assert outcomes == {
        Outcome.MASKED, Outcome.DETECTED, Outcome.SILENT_CORRUPTION,
        Outcome.TIMEOUT,
    }


def _delay_slot_boundary(name: str, after: int):
    """(step, cycles, pc, cwp) of the first boundary past step *after*
    that sits between a taken jump and its delay slot."""
    compiled = compile_cached(benchmark(name).source)
    machine = compiled.make_machine(engine="reference")
    machine.reset(compiled.program.entry)
    step = 0
    while not (step > after and machine._pending_jump):
        machine.step()
        step += 1
    return step, machine.stats.cycles, machine.pc, machine.psw.cwp


@pytest.mark.parametrize("name", ["towers", "ackermann"])
def test_cycle_trigger_between_jump_and_delay_slot(covering_schedule, name):
    _schedule, goldens = covering_schedule
    golden = goldens[name]
    step, cycles, slot_pc, cwp = _delay_slot_boundary(name, after=777)
    for engine in TRIAL_TIERS:
        machine, checkpoint = trial_state(name, engine)
        # The prefix stops exactly at the boundary, jump still pending.
        machine.restore(checkpoint)
        assert _fast_forward(machine, 10**9, cycles, 0) == step, engine
        assert machine.halted is None and machine._pending_jump, engine
        assert machine.pc == slot_pc, engine

    trigger = FaultTrigger(at_cycle=cycles)
    specs = [
        # r1 (stack pointer) and r31 (return address) of the live window
        FaultSpec(FaultTarget.REGISTER, FaultKind.BIT_FLIP, trigger,
                  location=physical_index(cwp, reg, NUM_WINDOWS), bits=(0,))
        for reg in (1, 31)
    ] + [
        FaultSpec(FaultTarget.PSW, FaultKind.BIT_FLIP, trigger, bits=(bit,))
        for bit in (0, 7)
    ] + [
        # corrupts the delay-slot instruction itself
        FaultSpec(FaultTarget.INSTRUCTION, kind, trigger,
                  location=slot_pc, bits=(25,))
        for kind in FaultKind
    ]
    budget = golden.instructions * 2
    outcomes = set()
    for spec in specs:
        expected = oracle_trial(golden, spec, budget)
        assert phased_trials(golden, spec, budget) == dict.fromkeys(
            TRIAL_TIERS, expected
        ), spec.describe()
        outcomes.add(expected.outcome)
    assert {Outcome.MASKED, Outcome.DETECTED, Outcome.TIMEOUT} <= outcomes


def test_pc_trigger_past_the_golden_visits_never_fires(covering_schedule):
    _schedule, goldens = covering_schedule
    golden = goldens["towers"]
    pc, count = golden.sites.pcs[0]
    spec = FaultSpec(
        FaultTarget.INSTRUCTION, FaultKind.STUCK_AT_ONE,
        FaultTrigger(at_pc=pc, pc_hits=count + 1), location=pc, bits=(3,),
    )
    result = oracle_trial(golden, spec, golden.instructions * 2)
    assert phased_trials(golden, spec, golden.instructions * 2) == dict.fromkeys(
        TRIAL_TIERS, result
    )
    assert result.outcome is Outcome.MASKED
    assert result.instructions == golden.instructions


_GOLDENS: dict = {}


def pinned_trial(name, spec, budget_slack=None, *, use_windows=True):
    """Run *spec* on *name* on each trial tier and against the oracle;
    asserts that every tier matches it, down to the finished machine's
    state, that the fault ran pinned after its firing step and that
    the pins went with the trial.  Returns the oracle's result."""
    if name not in _GOLDENS:
        _GOLDENS[name] = _golden_run(name)[0]
    golden = _GOLDENS[name]
    if budget_slack is None:
        budget = golden.instructions * 2
    else:
        budget = golden.instructions + budget_slack
    expected, oracle = oracle_machine(golden, spec, budget, use_windows=use_windows)
    expected_state = state_digest(oracle)
    for engine in TRIAL_TIERS:
        machine, checkpoint = trial_state(name, engine, use_windows=use_windows)
        tally = Counter()
        result = _run_injection(machine, checkpoint, golden, spec, budget, tally)
        assert result == expected, (engine, spec.describe())
        assert not diff_digests(expected_state, state_digest(machine)), (
            engine, spec.describe(), diff_digests(expected_state, state_digest(machine))
        )
        assert tally["observed"] == 1 and tally["pinned"] > 0, engine
        assert machine.memory._pins == {} and not machine.pinned, engine
    return expected


#: Memory stuck-at faults, each on a word that a store path reaches
#: while the fault is pinned.
PINNED_MEMORY = {
    # A software-stack word that one compiled trace stores and then
    # loads back within the same dispatch.
    "stored-then-loaded": ("puzzle_subscript", FaultSpec(
        FaultTarget.MEMORY, FaultKind.STUCK_AT_ZERO,
        FaultTrigger(at_cycle=100), location=0xBFF6C, bits=(2,),
    )),
    # hanoi's store of ``moves``, stuck so that it stores into code that
    # the running trace covers: the trace invalidates itself and exits,
    # and the next dispatch recompiles from the pinned word.
    "code-word": ("towers", FaultSpec(
        FaultTarget.MEMORY, FaultKind.STUCK_AT_ONE,
        FaultTrigger(at_cycle=50), location=0x74, bits=(5,),
    )),
    # The top word of the window-save stack, pinned before the first
    # spill writes it (one word of a bulk store_words) and read back by
    # the last refill.
    "window-spill": ("ackermann", FaultSpec(
        FaultTarget.MEMORY, FaultKind.STUCK_AT_ONE,
        FaultTrigger(at_cycle=20), location=0xFFFFC, bits=(0,),
    )),
}


@pytest.mark.parametrize("case", PINNED_MEMORY)
def test_pinned_memory_fault_matches_the_oracle(case):
    name, spec = PINNED_MEMORY[case]
    before = trial_state(name, "trace")[0].engine.traces_invalidated
    result = pinned_trial(name, spec)
    assert result.outcome is not Outcome.MASKED
    if case == "code-word":
        assert trial_state(name, "trace")[0].engine.traces_invalidated > before


#: PSW bits: Z, I, the low CWP bit and the low SWP bit.
PSW_BITS = {"Z": 0, "I": 4, "CWP0": 5, "SWP0": 8}


@pytest.mark.parametrize("kind", [FaultKind.STUCK_AT_ZERO, FaultKind.STUCK_AT_ONE])
@pytest.mark.parametrize("bit", PSW_BITS)
def test_pinned_psw_fault_matches_the_oracle(bit, kind):
    spec = FaultSpec(
        FaultTarget.PSW, kind, FaultTrigger(at_cycle=500), bits=(PSW_BITS[bit],)
    )
    pinned_trial("towers", spec, budget_slack=2_000)


def test_trap_inside_a_trace_admitted_under_a_psw_pin():
    # CWP stuck at one: every trace without a frame op is admitted, and
    # one of them, reading through the wrong window, loads out of range.
    spec = FaultSpec(
        FaultTarget.PSW, FaultKind.STUCK_AT_ONE,
        FaultTrigger(at_cycle=93_262), bits=(PSW_BITS["CWP0"],),
    )
    machine = trial_state("i_quicksort", "trace")[0]
    machine.engine.path = path = []  # one (addrs, completed) per dispatch
    try:
        result = pinned_trial("i_quicksort", spec)
    finally:
        machine.engine.path = None
    assert result.trap_cause == "OUT_OF_RANGE_ACCESS"
    # The last dispatch was a compiled trace, and its last step trapped.
    addrs, done = path[-1]
    assert len(addrs) > 1 and addrs[done - 1] == machine.last_trap.pc


def test_a_pin_leaves_nothing_behind():
    name, spec = PINNED_MEMORY["stored-then-loaded"]
    pinned_trial(name, spec)
    machine, checkpoint = trial_state(name, "trace")
    assert spec.location >> 2 not in machine.memory._exec_watch
    assert not machine.memory._pins
    flushes = machine.engine.code_flushes
    pinned_trial(name, spec)
    machine.restore(checkpoint)  # the next trial's restore
    assert machine.engine.code_flushes == flushes


STUCK_1, STUCK_0 = FaultKind.STUCK_AT_ONE, FaultKind.STUCK_AT_ZERO


def register_fault(kind, index, bit, trigger):
    return FaultSpec(FaultTarget.REGISTER, kind, trigger, location=index, bits=(bit,))


def fetch_fault(kind, pc, bit, trigger=None):
    return FaultSpec(
        FaultTarget.INSTRUCTION, kind, trigger or FaultTrigger(at_pc=pc),
        location=pc, bits=(bit,),
    )


#: Register stuck-at faults on registers that compiled traces write or
#: read while the fault is pinned: (benchmark, spec, pinned_trial keywords).
PINNED_REGISTERS = {
    # A LOCAL of physical window 0, whose frames ackermann's recursion
    # keeps spilling and refilling.
    "local": ("ackermann", register_fault(
        STUCK_0, physical_index(0, 21), 0, FaultTrigger(at_cycle=2000)), {}),
    # The link register a CALL writes in the new window: window 0's r31
    # (window 1's r15), set 8 past every return address stored there.
    "call-link": ("ackermann", register_fault(
        STUCK_1, physical_index(0, 31), 3, FaultTrigger(at_cycle=2000)), {}),
    # The global r9, the software stack pointer of the compiled code.
    "global": ("e_string_search", register_fault(
        STUCK_0, 9, 2, FaultTrigger(at_cycle=500)), {}),
    # A flat register file: frame ops move no window, so every trace
    # maps its destinations through window 0.
    "flat": ("towers", register_fault(
        STUCK_0, 19, 0, FaultTrigger(at_cycle=500)),
        {"use_windows": False, "budget_slack": 50_000}),
}


@pytest.mark.parametrize("case", PINNED_REGISTERS)
def test_pinned_register_fault_matches_the_oracle(case):
    name, spec, options = PINNED_REGISTERS[case]
    engine = trial_state(
        name, "trace", use_windows=options.get("use_windows", True)
    )[0].engine
    before = engine.fallback_pinned
    pinned_trial(name, spec, **options)
    # Traces that write the register single-stepped instead.
    assert engine.fallback_pinned > before


def test_trap_inside_a_trace_admitted_under_a_register_pin():
    # A LOCAL of window 7 stuck high: a trace that does not write it
    # loads through it, out of range.
    spec = register_fault(
        STUCK_1, physical_index(7, 16), 31, FaultTrigger(at_cycle=93_262)
    )
    machine = trial_state("i_quicksort", "trace")[0]
    machine.engine.path = path = []  # one (addrs, completed) per dispatch
    try:
        result = pinned_trial("i_quicksort", spec)
    finally:
        machine.engine.path = None
    assert result.trap_cause == "OUT_OF_RANGE_ACCESS"
    addrs, done = path[-1]
    assert len(addrs) > 1 and addrs[done - 1] == machine.last_trap.pc


#: Instruction stuck-at faults whose corrupted words compiled traces
#: run: (benchmark, spec, expected trap cause).
PINNED_FETCHES = {
    # ``add r10, r19, #0`` (hanoi's first argument) loses opcode bit
    # 25: an illegal word, first fetched in the compiled suffix.
    "illegal": ("towers", fetch_fault(
        STUCK_0, 0x54, 25, FaultTrigger(at_cycle=500)), "ILLEGAL_INSTRUCTION"),
    # The delay slot of hanoi's ``jmpr ne``: ``add r20, r29, #0`` now
    # writes r21.
    "delay-slot": ("towers", fetch_fault(STUCK_1, 0x44, 19), None),
}


@pytest.mark.parametrize("case", PINNED_FETCHES)
def test_pinned_fetch_fault_matches_the_oracle(case):
    name, spec, trap_cause = PINNED_FETCHES[case]
    assert pinned_trial(name, spec).trap_cause == trap_cause


def test_a_fetch_pin_leaves_nothing_behind():
    name, spec, _trap_cause = PINNED_FETCHES["delay-slot"]
    pc = spec.location
    compiled = compile_cached(benchmark(name).source)
    corrupted = compiled.program.to_words()[pc // 4] | spec.mask
    assert corrupted not in compiled.program.to_words()
    pinned_trial(name, spec)
    for engine in TRIAL_TIERS:
        machine = trial_state(name, engine)[0]
        assert corrupted not in machine.decoder._cache, engine
        assert pc not in machine.engine._fast._cache, engine
    engine = trial_state(name, "trace")[0].engine
    assert not engine._nocompile
    assert all(pc not in trc.addrs for trc in engine._traces.values())


def program_machine(program, engine):
    machine = RiscMachine(engine=engine)
    program.load_into(machine.memory)
    machine.reset(program.entry)
    return machine


def program_trial(source, spec, budget=10_000):
    """Run the assembly *source* with *spec* on the oracle, under the
    attached injector, and on each trial tier with the fault pinned
    after its firing step; asserts the finished machines match.
    Returns the oracle's machine."""
    program = assemble(source)
    oracle = program_machine(program, "reference")
    FaultInjector(oracle, [spec]).attach()
    oracle.engine.run_loop(oracle, budget, None, None)
    expected = state_digest(oracle)
    for engine in TRIAL_TIERS:
        machine = program_machine(program, engine)
        injector = FaultInjector(machine, [spec])
        injector.attach()
        steps = 0
        while not injector.pin():  # stepping a halted machine raises
            machine.step()
            steps += 1
        injector.detach()
        machine.engine.run_loop(machine, budget - steps, None, None)
        injector.unpin()
        assert not diff_digests(expected, state_digest(machine)), (
            engine, diff_digests(expected, state_digest(machine))
        )
    return oracle


#: main's r16 = 5 outlives a call chain deep enough to spill main's
#: window and refill it on the way back.  The chain's ``ret`` copies
#: r16 into r17 in its delay slot, which runs in the caller's window
#: just after the refill; main then returns r17 plus the saved copy of
#: its r16, the first word of the window-save stack.
DEEP_CALLS = """
main:
    li    r16, 5
    li    r10, 9
    callr r31, down
    nop
    li    r19, 0xFFFC0
    ldl   r18, r19, 0
    add   r26, r17, r18
    ret
    nop
down:
    cmp   r26, #0
    beq   back
    nop
    sub   r10, r26, #1
    callr r31, down
    nop
back:
    ret
    add   r17, r16, #0
"""

#: The loop stores the word at ``donor`` over its own head on the first
#: pass, so the head runs once as ``li r16, 1`` and twice as
#: ``li r16, 42``.
LOOP_HEAD_PATCH = """
main:
    li   r17, 0
    li   r18, 0
loop:
    li   r16, 1
    add  r18, r18, r16
    ldl  r19, r0, donor
    stl  r19, r0, loop
    add  r17, r17, #1
    cmp  r17, #3
    blt  loop
    nop
    mov  r26, r18
    ret
    nop
donor:
    li   r16, 42
"""


def test_a_pinned_register_spills_as_forced():
    # Pinned before ``li r16, 5`` writes it: the spill must save the
    # forced 7, as the oracle's next step boundary leaves it.
    spec = register_fault(STUCK_1, physical_index(0, 16), 1, FaultTrigger(at_cycle=0))
    assert program_trial(DEEP_CALLS, spec).result == 7 + 7


def test_a_ret_refill_of_a_pinned_register_is_forced():
    # Pinned at the deepest frame, after the spill saved 5: the refill
    # writes 5 back, and the delay slot after it must read the forced 7.
    back = assemble(DEEP_CALLS).symbols["back"]
    spec = register_fault(
        STUCK_1, physical_index(0, 16), 1, FaultTrigger(at_pc=back)
    )
    assert program_trial(DEEP_CALLS, spec).result == 7 + 5


def test_a_store_rewrites_a_pinned_word():
    # Bit 2 stuck at one: ``li r16, 1`` runs as 5, ``li r16, 42`` as 46.
    loop = assemble(LOOP_HEAD_PATCH).symbols["loop"]
    spec = fetch_fault(STUCK_1, loop, 2, FaultTrigger(at_cycle=0))
    assert program_trial(LOOP_HEAD_PATCH, spec).result == 5 + 46 + 46


def test_seed_1981_fingerprint_is_pinned():
    report = run_campaign(CampaignConfig(seed=1981, injections=16))
    assert report.fingerprint() == FINGERPRINT_1981_16
    # Each trial single-stepped only its firing step; its stuck-at
    # trials ran pinned, on the compiled tier.
    assert report.steps["observed"] == 16
    assert 0 < report.steps["pinned"] < report.steps["compiled"]


def test_report_steps_say_where_trial_steps_ran():
    config = CampaignConfig(seed=7, injections=6, benchmarks=("towers",))
    serial = run_campaign(config)
    observed = serial.steps["observed"]
    compiled = serial.steps["compiled"]
    assert observed > 0 and compiled > observed
    assert observed + compiled == sum(r.instructions for r in serial.results)


class TestBaselineFingerprint:
    ARGS = ["--injections", "4", "--seed", "3", "--benchmarks", "towers"]

    def _baseline(self, tmp_path, **overrides):
        path = tmp_path / "baseline.json"
        assert main([*self.ARGS, "--write-baseline", str(path)]) == 0
        summary = json.loads(path.read_text())
        summary.update(overrides)
        path.write_text(json.dumps(summary))
        return str(path)

    def test_matching_fingerprint_passes(self, tmp_path, capsys):
        path = self._baseline(tmp_path)
        assert main([*self.ARGS, "--baseline", path]) == 0
        assert "baseline check: OK" in capsys.readouterr().out

    def test_drifted_fingerprint_fails(self, tmp_path, capsys):
        path = self._baseline(tmp_path, fingerprint="0" * 64)
        assert main([*self.ARGS, "--baseline", path]) == 1
        assert "fingerprint differs" in capsys.readouterr().out

    def test_other_population_skips_the_fingerprint(self, tmp_path, capsys):
        path = self._baseline(tmp_path, seed=4, fingerprint="0" * 64)
        assert main([*self.ARGS, "--baseline", path]) == 1
        out = capsys.readouterr().out
        assert "seed differs" in out and "fingerprint differs" not in out

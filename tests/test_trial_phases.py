"""Campaign trials run in phases on the compiled tier, bit-identical to
the oracle.

A trial fast-forwards unobserved to its trigger boundary, single-steps
under the fault injector only while the fault needs watching, and
finishes unobserved.  The contract under test: every
:class:`InjectionResult` - outcome, halt reason, trap cause, step count,
result - equals the one the fully observed oracle loop below produces.
That loop is the original trial runner, kept here as the reference and
pinned to the reference engine.  Every phased trial runs twice: on
the campaign's tier (``trace``) and on the tier it single-steps through
(``fast``).
"""

import json

import pytest

from repro.cpu.machine import HaltReason
from repro.faults.campaign import (
    CampaignConfig,
    Outcome,
    _benchmark_state,
    _campaign_schedule,
    _classify,
    _crash_result,
    _fast_forward,
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
from repro.telemetry import MetricsRegistry
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
TRIAL_TIERS = ("fast", "trace")

_TRIAL_STATES: dict = {}


def oracle_trial(golden, spec, budget):
    """The fully observed trial: the reference oracle, stepped under an
    attached injector from instruction 0."""
    compiled = compile_cached(benchmark(golden.benchmark).source)
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
        return _classify(machine, golden, spec, steps)
    except Exception as exc:  # noqa: BLE001 - mirrors the runner
        return _crash_result(golden, spec, steps, exc)
    finally:
        injector.detach()


def trial_state(name, engine):
    """A (machine, delta checkpoint) pair for *name* on *engine*, built
    the way the campaign's per-process state is."""
    key = (name, engine)
    if key not in _TRIAL_STATES:
        compiled = compile_cached(benchmark(name).source)
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
        assert _fast_forward(machine, 10**9, cycles, None, 0) == step, engine
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


def test_seed_1981_fingerprint_is_pinned():
    report = run_campaign(CampaignConfig(seed=1981, injections=16))
    assert report.fingerprint() == FINGERPRINT_1981_16


def test_registry_reports_where_trial_steps_ran():
    config = CampaignConfig(seed=7, injections=6, benchmarks=("towers",))
    serial = run_campaign(config)
    registry = MetricsRegistry()
    run_campaign(config, registry=registry)
    observed = registry.get("campaign.steps_observed").value
    compiled = registry.get("campaign.steps_compiled").value
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

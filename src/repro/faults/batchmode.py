"""Lockstep (batch) execution of fault-campaign trials.

A campaign's trials are near-identical by construction: every trial
replays the same benchmark from the same reset state and follows the
golden trajectory *bit-for-bit* until its injected fault fires.  This
module exploits that with :class:`repro.cpu.batch.BatchExecutor`: a
chunk of trials runs as lanes of one vectorized machine, and each lane
is peeled back to its own scalar :class:`~repro.cpu.machine.RiscMachine`
at the exact step boundary where its fault trigger would fire - the
same boundary the serial :class:`~repro.faults.injector.FaultInjector`
``pre_step`` hook fires on.  The peeled machine then finishes through
the serial path's trial runner (:func:`~repro.faults.campaign._run_trial`):
the injector attaches mid-run, PC visits pre-seeded from the golden run,
and the faulted tail runs scalar under the same classification.

The result is **byte-identical** to ``run_campaign`` without batching:
same trials, same :class:`~repro.faults.campaign.InjectionResult`
fields, same :meth:`~repro.faults.campaign.CampaignReport.fingerprint`.
Only the wall-clock profile changes - the shared golden prefix of a
chunk executes once as array operations instead of ``lanes`` times as
scalar interpretation.

When numpy is missing, :func:`run_batch_campaign` raises
:class:`~repro.cpu.batch.BatchUnavailableError`;
:func:`repro.faults.campaign.run_campaign` catches that and falls back
to the serial path, so ``--batch-lanes`` degrades gracefully.
"""

from __future__ import annotations

from repro.cpu.engines import fastest_scalar_engine
from repro.faults.campaign import (
    CampaignReport,
    _campaign_schedule,
    _classify,
    _pc_trigger_step,
    _run_trial,
)

__all__ = ["run_batch_campaign", "DEFAULT_LANES"]

#: Default lanes per lockstep chunk: big enough to amortize the numpy
#: dispatch per step, small enough to keep lanes x memory-image bounded.
DEFAULT_LANES = 32


def _fires(spec, golden, step: int, cycles: int) -> bool:
    """Would *spec*'s trigger fire at golden step boundary *step*?

    Mirrors :meth:`FaultInjector._pre_step`: cycle triggers fire once
    ``stats.cycles`` reaches the threshold; PC triggers fire on the
    ``pc_hits``-th execution of the target PC, whose step index the
    golden run recorded.
    """
    trigger = spec.trigger
    if trigger.at_cycle is not None:
        return cycles >= trigger.at_cycle
    return _pc_trigger_step(golden, trigger) == step


def run_batch_campaign(config, *, lanes: int = DEFAULT_LANES, progress=None):
    """Execute *config*'s campaign with lockstep golden prefixes.

    Returns the same :class:`~repro.faults.campaign.CampaignReport` as
    the serial ``run_campaign`` - trial for trial, byte for byte.
    Raises :class:`~repro.cpu.batch.BatchUnavailableError` when numpy is
    not installed.
    """
    from repro.cpu.batch import BatchExecutor, BatchUnavailableError, available

    if not available():
        raise BatchUnavailableError(
            "batch campaign mode requires numpy (pip install .[batch])"
        )
    if lanes < 1:
        raise ValueError(f"lanes must be >= 1, got {lanes}")

    goldens: dict = {}
    report = CampaignReport(config=config, golden=goldens)
    schedule = _campaign_schedule(config, goldens)
    results: list = [None] * len(schedule)

    by_benchmark: dict[str, list[int]] = {}
    for index, (golden, _spec, _budget) in enumerate(schedule):
        by_benchmark.setdefault(golden.benchmark, []).append(index)

    done = 0
    for name, indices in by_benchmark.items():
        from repro.workloads import benchmark
        from repro.workloads.cache import compile_cached

        compiled = compile_cached(benchmark(name).source)
        entry = compiled.program.entry
        for start in range(0, len(indices), lanes):
            chunk = indices[start : start + lanes]
            machines = []
            for _ in chunk:
                machine = compiled.make_machine(engine=fastest_scalar_engine())
                machine.reset(entry)
                machines.append(machine)
            executor = BatchExecutor(machines)
            golden, _spec, budget = schedule[chunk[0]]  # uniform per benchmark

            while (
                executor.halted is None
                and executor.lanes_in_lockstep
                and executor.steps < budget
            ):
                step = executor.steps
                cycles = executor.stats.cycles
                for lane in range(len(chunk)):
                    if not executor.live[lane]:
                        continue
                    spec = schedule[chunk[lane]][1]
                    if _fires(spec, golden, step, cycles):
                        # Peel *before* the step: the trial runner
                        # attaches the injector at exactly this boundary.
                        executor.peel(lane, "fault trigger")
                if not executor.lanes_in_lockstep:
                    break
                executor.step()
            executor.finish()

            for lane, index in enumerate(chunk):
                golden, spec, budget = schedule[index]
                machine = machines[lane]
                steps = executor.lane_steps(lane)
                if machine.halted is not None:
                    # Completed in lockstep: the trigger never fired, so
                    # the serial injector would have been a spectator.
                    results[index] = _classify(machine, golden, spec, steps)
                else:
                    # Peeled on the golden trajectory at or before its
                    # trigger: the shared runner finishes the trial.
                    results[index] = _run_trial(
                        machine, golden, spec, budget, steps=steps
                    )
                done += 1
                if progress is not None and done % 100 == 0:
                    progress(golden.benchmark, done, len(schedule))

    report.results.extend(results)
    return report

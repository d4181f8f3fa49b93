"""Golden-vs-faulted differential fault campaigns over the benchmarks.

For each selected benchmark the runner executes one *golden* run
(recording the result, dynamic instruction count, and the step index
of every PC visit, which seeds fault-site selection), takes a
delta-tracked checkpoint of the freshly reset machine, and then replays
the program once per injected fault, classifying every run:

===========  ======================================================
MASKED       completed normally with the golden result (fault
             absorbed)
DETECTED     the machine trapped (structured TrapRecord; the
             hardware caught the corruption) before completing
SDC          completed normally but with a wrong result - silent
             data corruption, the outcome fault-tolerant design
             cares about
TIMEOUT      exceeded the step budget (injected infinite loop);
             caught by the watchdog, never by the host
CRASH        a Python exception escaped the simulator - always a
             repro bug, and asserted to be zero in CI
INFRA_ERROR  the *infrastructure* failed the trial (worker death,
             wall-clock timeout, repeated transient errors); the
             trial is quarantined so one poisoned trial degrades
             the report instead of aborting the campaign
===========  ======================================================

A trial runs in three phases on the fastest scalar tier
(:func:`_run_trial`).  Until its trigger fires, a faulted run is
bit-identical to the golden run, so the *prefix* runs unobserved on
the compiled tier up to the trigger boundary.  The *fault* phase
attaches the :class:`~repro.faults.injector.FaultInjector` and
single-steps the same tier under it only while the fault needs
watching.  Once the injector is idle, the *suffix* finishes the step
budget unobserved again.  The classification is identical to stepping
the oracle under the injector from instruction 0.

Determinism: all randomness flows through one seeded
:class:`random.Random`; no wall-clock inputs are consulted.  Two runs
with the same :class:`CampaignConfig` produce byte-identical reports
(verified by :meth:`CampaignReport.fingerprint`).  That holds for
parallel runs too: ``--workers N`` (``run_campaign(..., workers=N)``)
draws the fault schedule before any trial runs, fans the trials out to
worker processes, and delivers results in schedule order, so the
fingerprint matches the in-process run bit for bit.

The fingerprint is an **ordered hash-of-hashes**: each injection
record is canonically serialised and SHA-256 hashed
(:func:`trial_digest`), and the campaign fingerprint is the SHA-256
over the concatenated per-trial digests in schedule order
(:class:`FingerprintStream`).  That construction is what lets sharded
campaigns (:mod:`repro.faults.distributed`) compose per-shard
fingerprints back into exactly the whole campaign's fingerprint.

:func:`run_campaign` has one execution path, built from the pieces in
:mod:`repro.faults.distributed`: the trials run under a supervisor
(per-trial timeout, retry, worker-pool recovery), ``journal=`` appends
every completed trial to a crash-safe journal, ``resume=`` replays the
journal and re-executes only the remainder, and ``shards``/
``shard_index`` split the schedule deterministically across processes
or machines.

CLI (used by the CI smoke campaign)::

    python -m repro.faults.campaign --injections 200 --seed 1981 \
        --benchmarks towers,ackermann --verify-determinism \
        --baseline ci/fault_baseline.json
"""

from __future__ import annotations

import argparse
import enum
import hashlib
import json
import math
import random
import sys
import time
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

from repro.common.bitops import to_signed
from repro.cpu.engines import fastest_scalar_engine
from repro.cpu.machine import HaltReason, RiscMachine
from repro.evaluation.tables import Table
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSites, FaultSpec, FaultTarget, random_spec

#: Benchmarks small enough that a 1000-injection campaign finishes in
#: minutes on the Python-hosted simulator.
DEFAULT_BENCHMARKS = ("towers", "ackermann")

#: Memory faults land in the first 64 KiB: code, globals, and the
#: software stack of every benchmark live there.
MEMORY_FAULT_TOP = 1 << 16

#: Default per-trial wall-clock budget (seconds).  A healthy trial
#: finishes in well under a second; 60 s only fires when the host
#: itself is wedged.
DEFAULT_TRIAL_TIMEOUT_S = 60.0

#: How often (in steps) the trial loop consults the wall clock when a
#: deadline is armed; mirrors the step-granular watchdogs on ``run()``.
_DEADLINE_CHECK_MASK = 0x3FF


class Outcome(enum.Enum):
    """How one injected fault manifested (the campaign taxonomy)."""

    MASKED = "masked"
    DETECTED = "detected"
    SILENT_CORRUPTION = "silent_corruption"
    TIMEOUT = "timeout"
    CRASH = "crash"
    INFRA_ERROR = "infra_error"


class TrialTimeoutError(RuntimeError):
    """A trial exceeded its wall-clock budget (host-side watchdog).

    Raised from inside the trial step loop when a ``deadline`` is armed
    (see :func:`_run_injection`); the supervisor treats it as a
    transient infrastructure failure - retried with backoff, then
    quarantined as :attr:`Outcome.INFRA_ERROR`.
    """


class CampaignInterrupted(KeyboardInterrupt):
    """Ctrl-C during a campaign, after the pool/journal were shut down.

    Subclasses :class:`KeyboardInterrupt` so callers that already
    handle Ctrl-C keep working; carries enough context to print a
    resume command instead of a traceback.
    """

    def __init__(self, *, completed: int, total: int, journal: str | None):
        self.completed = completed
        self.total = total
        self.journal = journal
        super().__init__(self.describe())

    def describe(self) -> str:
        """Human-readable interruption summary with the resume hint."""
        head = f"campaign interrupted at {self.completed}/{self.total} trials"
        if self.journal:
            return (
                f"{head}; journal flushed - resume with "
                f"--resume {self.journal}"
            )
        return f"{head}; no journal was kept, completed trials are lost"


@dataclass(frozen=True)
class GoldenRun:
    """Reference execution of one benchmark."""

    benchmark: str
    result: int
    instructions: int
    cycles: int
    sites: FaultSites
    #: pc -> ascending step indices at which that PC executed; a trial
    #: fast-forwards to a PC trigger's boundary with it.
    visits: dict[int, array] = field(
        default_factory=dict, compare=False, repr=False
    )


@dataclass(frozen=True)
class InjectionResult:
    """Classification of one faulted run."""

    benchmark: str
    spec: FaultSpec
    outcome: Outcome
    halt: str
    trap_cause: str | None
    instructions: int
    result: int | None
    detail: str = ""


@dataclass(frozen=True)
class Trial:
    """One schedulable unit: a fault spec bound to its golden run.

    Attributes:
        index: 0-based position in the canonical schedule; doubles as
            the trial's identity in journals and shards.
        golden: the reference run of the trial's benchmark.
        spec: the fault to inject.
        budget: dynamic-instruction budget for the faulted replay.
    """

    index: int
    golden: GoldenRun
    spec: FaultSpec
    budget: int


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign, and nothing else."""

    seed: int = 1981
    injections: int = 1000
    benchmarks: tuple[str, ...] = DEFAULT_BENCHMARKS
    targets: tuple[FaultTarget, ...] = tuple(FaultTarget)
    #: faulted runs get golden_steps * factor + slack dynamic instructions
    step_budget_factor: float = 1.5
    step_budget_slack: int = 4096


def config_dict(config: CampaignConfig) -> dict:
    """Canonical JSON-friendly form of a :class:`CampaignConfig`."""
    return {
        "seed": config.seed,
        "injections": config.injections,
        "benchmarks": list(config.benchmarks),
        "targets": [target.value for target in config.targets],
        "step_budget_factor": config.step_budget_factor,
        "step_budget_slack": config.step_budget_slack,
    }


def config_digest(config: CampaignConfig) -> str:
    """SHA-256 over the canonical config; equal <=> same campaign.

    Journals store this digest so a ``--resume`` against a journal
    written by a *different* campaign fails loudly instead of silently
    merging incompatible trial streams.
    """
    payload = json.dumps(config_dict(config), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


def injection_record(result: InjectionResult) -> dict:
    """The canonical JSON record of one injection (fingerprint unit).

    Field set and value encodings are part of the byte-identity
    contract: journals persist these records verbatim and the campaign
    fingerprint hashes them, so any change here invalidates committed
    baselines (``ci/fault_baseline.json``).
    """
    spec = result.spec
    return {
        "benchmark": result.benchmark,
        "target": spec.target.value,
        "kind": spec.kind.value,
        "location": spec.location,
        "bits": list(spec.bits),
        "trigger": spec.trigger.describe(),
        "outcome": result.outcome.value,
        "halt": result.halt,
        "trap_cause": result.trap_cause,
        "instructions": result.instructions,
        "result": result.result,
    }


def trial_digest(record: dict) -> str:
    """SHA-256 hex digest of one canonical injection record."""
    payload = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()


class FingerprintStream:
    """Ordered hash-of-hashes accumulator for campaign fingerprints.

    Feed per-trial digests (:func:`trial_digest`) in schedule order;
    :meth:`hexdigest` is then the campaign fingerprint.  The outer hash
    consumes only the fixed-size trial digests, so a shard's
    contribution is exactly its ordered digest sequence - which is how
    :func:`repro.faults.distributed.compose_fingerprints` rebuilds the
    whole campaign's fingerprint from per-shard journals.
    """

    def __init__(self) -> None:
        self._outer = hashlib.sha256()
        self.count = 0

    def add(self, digest: str) -> None:
        """Fold one per-trial digest into the stream."""
        self._outer.update(digest.encode())
        self.count += 1

    def add_record(self, record: dict) -> str:
        """Hash *record* and fold it; returns the per-trial digest."""
        digest = trial_digest(record)
        self.add(digest)
        return digest

    def hexdigest(self) -> str:
        """The fingerprint over everything folded so far."""
        return self._outer.hexdigest()


def _fingerprint(results) -> str:
    """Ordered hash-of-hashes over *results*' canonical records."""
    stream = FingerprintStream()
    for result in results:
        stream.add_record(injection_record(result))
    return stream.hexdigest()


@dataclass
class CampaignReport:
    """The injections of one campaign (or one shard of it) in schedule
    order, plus the golden references."""

    config: CampaignConfig
    golden: dict[str, GoldenRun]
    results: list[InjectionResult] = field(default_factory=list)
    #: shard count of the schedule partition
    n_shards: int = 1
    #: ``[start, stop)`` trial-index range of every shard this report
    #: covers (just one when a single shard ran); empty means the whole
    #: campaign as one shard
    bounds: tuple[tuple[int, int], ...] = ()
    #: operational counters of the run (the manifest's ``resume``
    #: section): ``resumed_trials``, ``executed_trials``, ``retries``,
    #: ``timeouts``, ``infra_errors``, ``pool_restarts``
    resume_info: dict = field(default_factory=dict)

    def add(self, index: int, result: InjectionResult) -> None:
        """Append the result of trial *index*.

        Raises :class:`ValueError` unless *index* is the next trial the
        report expects: an out-of-order append would silently change
        the fingerprint, so it is never allowed.
        """
        expected = (self.bounds[0][0] if self.bounds else 0) + len(self.results)
        if index != expected:
            raise ValueError(
                f"campaign results are ordered: expected trial {expected}, "
                f"got {index}"
            )
        self.results.append(result)

    # -- aggregation -------------------------------------------------------

    def outcome_counts(self) -> Counter:
        """Tally of results by outcome across the whole campaign."""
        return Counter(result.outcome for result in self.results)

    def counts_by_target(self) -> dict[FaultTarget, Counter]:
        """Per-fault-target tallies of results by outcome."""
        table: dict[FaultTarget, Counter] = {}
        for result in self.results:
            table.setdefault(result.spec.target, Counter())[result.outcome] += 1
        return table

    def rate_table(self) -> Table:
        """Detection / silent-corruption / crash rates per fault site."""
        table = Table(
            title=(
                f"R1: fault campaign ({len(self.results)} injections, "
                f"seed {self.config.seed})"
            ),
            headers=["fault site", "n", "masked", "detected", "SDC",
                     "timeout", "crash", "infra", "det %", "SDC %"],
        )

        def row(label: str, counts: Counter) -> None:
            """Append one labelled outcome-count row to the table."""
            total = sum(counts.values())
            table.add_row(
                label,
                total,
                counts[Outcome.MASKED],
                counts[Outcome.DETECTED],
                counts[Outcome.SILENT_CORRUPTION],
                counts[Outcome.TIMEOUT],
                counts[Outcome.CRASH],
                counts[Outcome.INFRA_ERROR],
                round(100.0 * counts[Outcome.DETECTED] / total, 1)
                if total else 0.0,
                round(100.0 * counts[Outcome.SILENT_CORRUPTION] / total, 1)
                if total else 0.0,
            )

        by_target = self.counts_by_target()
        overall: Counter = Counter()
        for target in self.config.targets:
            counts = by_target.get(target, Counter())
            overall.update(counts)
            if sum(counts.values()) == 0:
                continue
            row(target.value, counts)
        row("all", overall)
        table.notes.append("benchmarks: " + ", ".join(self.config.benchmarks))
        table.notes.append(
            "DETECTED = structured trap; SDC = wrong result with clean halt; "
            "infra = quarantined infrastructure failure"
        )
        return table

    def as_records(self) -> list[dict]:
        """JSON-friendly rows, one per injection."""
        return [injection_record(result) for result in self.results]

    def fingerprint(self) -> str:
        """Ordered hash-of-hashes over every injection record.

        Equal <=> bit-identical campaigns.  The construction (SHA-256
        over concatenated per-trial SHA-256 digests, in schedule order)
        is what sharding composes, so a resumed, sharded, or worker-pool
        campaign that executed the same trials reports the identical
        fingerprint.
        """
        return _fingerprint(self.results)

    def summary(self) -> dict:
        """Aggregate outcome counts plus the campaign fingerprint."""
        overall = self.outcome_counts()
        return {
            "seed": self.config.seed,
            "injections": len(self.results),
            "benchmarks": list(self.config.benchmarks),
            "masked": overall[Outcome.MASKED],
            "detected": overall[Outcome.DETECTED],
            "silent_corruption": overall[Outcome.SILENT_CORRUPTION],
            "timeout": overall[Outcome.TIMEOUT],
            "crash": overall[Outcome.CRASH],
            "infra_error": overall[Outcome.INFRA_ERROR],
            "fingerprint": self.fingerprint(),
        }

    def shards_section(self) -> dict:
        """The manifest's ``shards`` section (count/sizes/fingerprints)."""
        bounds = self.bounds or ((0, len(self.results)),)
        first = bounds[0][0]
        slices = [self.results[start - first:stop - first]
                  for start, stop in bounds]
        return {
            "count": self.n_shards,
            "sizes": [len(part) for part in slices],
            "fingerprints": [_fingerprint(part) for part in slices],
        }

    def manifest(self) -> dict:
        """Canonical campaign-manifest document (JSON-serialisable).

        Same determinism contract as :meth:`fingerprint`: two campaigns
        with the same :class:`CampaignConfig` produce byte-identical
        manifests, whatever the worker count.  The ``resume`` section
        is operational by design (a resumed run reports its resumed
        count), while ``summary.fingerprint`` stays byte-identical
        either way.  Neither host facts nor file paths appear.  The
        schema mirrors the run manifest (``docs/OBSERVABILITY.md``);
        single-run manifests link back through their ``campaign``
        section's ``fingerprint``.
        """
        from repro.telemetry.manifest import CAMPAIGN_SCHEMA

        summary = self.summary()
        resume = self.resume_info or {
            "resumed_trials": 0,
            "executed_trials": len(self.results),
            "retries": 0,
            "timeouts": 0,
            "infra_errors": summary["infra_error"],
            "pool_restarts": 0,
        }
        return {
            "schema": CAMPAIGN_SCHEMA,
            "config": config_dict(self.config),
            "golden": {
                name: {
                    "result": run.result,
                    "instructions": run.instructions,
                    "cycles": run.cycles,
                }
                for name, run in sorted(self.golden.items())
            },
            "outcomes_by_target": {
                target.value: {
                    outcome.value: counts[outcome]
                    for outcome in Outcome if counts[outcome]
                }
                for target, counts in sorted(
                    self.counts_by_target().items(), key=lambda kv: kv[0].value
                )
            },
            "shards": self.shards_section(),
            "resume": dict(resume),
            "events": {},
            "summary": summary,
        }


def _golden_run(name: str) -> tuple[GoldenRun, "object"]:
    """Run *name* unfaulted; returns the reference plus the compiled image."""
    from repro.workloads import benchmark
    from repro.workloads.cache import compile_cached

    bench = benchmark(name)
    compiled = compile_cached(bench.source)
    # Unobserved on the trace tier: the engine logs which trace ran and
    # how many of its instructions completed, which rebuilds the PC at
    # every step boundary exactly.
    machine = compiled.make_machine(engine="trace")
    path: list = []
    machine.engine.path = path
    machine.run(compiled.program.entry)
    trace = array("I")  # the PC at every step boundary
    for addrs, done in path:
        trace.extend(addrs[:done])
    if machine.halted is not HaltReason.RETURNED:
        raise RuntimeError(
            f"golden run of {name} did not complete: {machine.halted}"
        )
    visits: dict[int, array] = {}
    for step, pc in enumerate(trace):
        steps = visits.get(pc)
        if steps is None:
            visits[pc] = steps = array("I")
        steps.append(step)
    sites = FaultSites(
        register_count=machine.regs.physical_count,
        memory_top=min(MEMORY_FAULT_TOP, machine.memory.size),
        pcs=tuple(sorted((pc, len(steps)) for pc, steps in visits.items())),
        cycle_limit=max(1, machine.stats.cycles - 1),
    )
    golden = GoldenRun(
        benchmark=name,
        result=to_signed(machine.result),
        instructions=machine.stats.instructions,
        cycles=machine.stats.cycles,
        sites=sites,
        visits=visits,
    )
    return golden, compiled


def _classify(
    machine: RiscMachine, golden: GoldenRun, spec: FaultSpec, steps: int
) -> InjectionResult:
    halt = machine.halted.name if machine.halted is not None else "RUNNING"
    trap_cause = None
    result_value: int | None = None
    if machine.halted is HaltReason.TRAPPED:
        outcome = Outcome.DETECTED
        if machine.last_trap is not None:
            trap_cause = machine.last_trap.cause.name
    elif machine.halted is HaltReason.RETURNED:
        result_value = to_signed(machine.result)
        if result_value == golden.result:
            outcome = Outcome.MASKED
        else:
            outcome = Outcome.SILENT_CORRUPTION
    else:
        outcome = Outcome.TIMEOUT
    return InjectionResult(
        benchmark=golden.benchmark,
        spec=spec,
        outcome=outcome,
        halt=halt,
        trap_cause=trap_cause,
        instructions=steps,
        result=result_value,
    )


def _run_injection(
    machine: RiscMachine,
    checkpoint,
    golden: GoldenRun,
    spec: FaultSpec,
    budget: int,
    deadline: float | None = None,
    tally: Counter | None = None,
) -> InjectionResult:
    """Replay one faulted run from *checkpoint* and classify it.

    When *deadline* (a ``time.monotonic()`` timestamp) is given, the
    trial consults the wall clock every 1024 steps - the same pattern as
    the ``wall_clock_limit`` watchdog on :meth:`RiscMachine.run` - and
    raises :class:`TrialTimeoutError` past it.  The timeout escapes the
    CRASH classification on purpose: a host stall is an infrastructure
    failure for the supervisor, not a simulator finding.  *tally*, when
    given, receives the trial's steps by phase (see :func:`_run_trial`).
    """
    machine.restore(checkpoint)
    return _run_trial(
        machine, golden, spec, budget, deadline=deadline, tally=tally
    )


def _pc_trigger_step(golden: GoldenRun, trigger) -> int | None:
    """Golden step index at which PC *trigger* fires (None: never)."""
    visits = golden.visits.get(trigger.at_pc, ())
    return visits[trigger.pc_hits - 1] if trigger.pc_hits <= len(visits) else None


def _timeout(steps: int) -> TrialTimeoutError:
    return TrialTimeoutError(
        f"trial exceeded its wall-clock budget after {steps} steps"
    )


def _fast_forward(
    machine: RiscMachine, max_steps: int, max_cycles: int | None,
    deadline: float | None, steps: int,
) -> int:
    """Run unobserved on the machine's tier; returns the steps executed.

    A step or cycle watchdog halt is cleared, so the trial continues
    from that exact boundary; a wall-clock halt raises
    :class:`TrialTimeoutError` (*steps* is the trial's count so far).
    """
    if max_steps <= 0:
        return 0
    ran = machine.engine.run_loop(machine, max_steps, max_cycles, deadline)
    if machine.halted in (HaltReason.STEP_LIMIT, HaltReason.CYCLE_LIMIT):
        machine.halted = None
    elif machine.halted is HaltReason.WALL_CLOCK_LIMIT:
        raise _timeout(steps + ran)
    return ran


def _run_trial(
    machine: RiscMachine,
    golden: GoldenRun,
    spec: FaultSpec,
    budget: int,
    *,
    steps: int = 0,
    deadline: float | None = None,
    tally: Counter | None = None,
) -> InjectionResult:
    """Finish one faulted run and classify it.

    *machine* stands at step *steps* of the golden trajectory, before
    *spec*'s trigger has fired.  The result equals stepping the oracle
    under an attached :class:`FaultInjector` up to *budget* steps; only
    the steps that need the injector run observed:

    1. **prefix** - the run is still golden, so it fast-forwards
       unobserved to the trigger boundary: the cycle watchdog stops at a
       cycle trigger, the golden step index of the ``pc_hits``-th visit
       locates a PC trigger;
    2. **fault** - the injector attaches (PC visits pre-seeded from the
       golden run) and the machine single-steps under it while it is
       not idle: the firing step, and every step of a stuck-at fault
       (pre-decoded, except that an instruction fault's fetch filter
       hands its steps to the oracle);
    3. **suffix** - the injector detaches and the rest of the budget
       runs unobserved.

    *tally*, when given, counts the steps this call ran: ``observed``
    single-stepped under the injector, ``compiled`` unobserved on the
    machine's tier.
    """
    if deadline is not None and time.monotonic() > deadline:
        raise _timeout(steps)
    trigger = spec.trigger
    injector = FaultInjector(machine, [spec])
    start = steps
    observed = 0
    try:
        if trigger.at_cycle is not None:
            if machine.stats.cycles < trigger.at_cycle:
                steps += _fast_forward(
                    machine, budget - steps, trigger.at_cycle, deadline, steps
                )
            pc_visits = None
        else:
            fires_at = _pc_trigger_step(golden, trigger)
            if fires_at is None:  # never fires: the run stays golden
                fires_at = budget
            steps += _fast_forward(
                machine, min(fires_at, budget) - steps, None, deadline, steps
            )
            visits = golden.visits.get(trigger.at_pc, ())
            pc_visits = {trigger.at_pc: bisect_left(visits, steps)}
        if machine.halted is None:
            injector.attach(pc_visits=pc_visits)
            while (
                machine.halted is None
                and steps < budget
                and not injector.idle
            ):
                if (
                    deadline is not None
                    and (steps & _DEADLINE_CHECK_MASK) == 0
                    and time.monotonic() > deadline
                ):
                    raise _timeout(steps)
                machine.step()
                steps += 1
                observed += 1
            injector.detach()
        if machine.halted is None:
            steps += _fast_forward(machine, budget - steps, None, deadline, steps)
        if machine.halted is None:
            machine.halted = HaltReason.STEP_LIMIT
        return _classify(machine, golden, spec, steps)
    except TrialTimeoutError:
        raise
    except Exception as exc:  # noqa: BLE001 - a crash IS the finding
        # A crash inside a compiled phase reports the steps completed
        # before that phase began.
        return _crash_result(golden, spec, steps, exc)
    finally:
        injector.detach()
        if tally is not None:
            tally["observed"] += observed
            tally["compiled"] += steps - start - observed


def _crash_result(
    golden: GoldenRun, spec: FaultSpec, steps: int, exc: Exception
) -> InjectionResult:
    """A CRASH-classified trial: the simulator itself raised."""
    return InjectionResult(
        benchmark=golden.benchmark,
        spec=spec,
        outcome=Outcome.CRASH,
        halt="EXCEPTION",
        trap_cause=None,
        instructions=steps,
        result=None,
        detail=f"{type(exc).__name__}: {exc}",
    )


def _campaign_schedule(
    config: CampaignConfig, goldens: dict[str, GoldenRun]
) -> list[Trial]:
    """Draw every fault of the campaign, in the canonical order.

    All randomness flows through one generator seeded with
    ``config.seed``, and golden runs never consult it, so the spec
    stream here is identical however the trials later execute: in
    process, on a worker pool, or sharded across machines.  Populates
    *goldens* as a side effect.
    """
    rng = random.Random(config.seed)
    schedule: list[Trial] = []
    share, extra = divmod(config.injections, len(config.benchmarks))
    for index, name in enumerate(config.benchmarks):
        count = share + (1 if index < extra else 0)
        if count == 0:
            continue
        golden, _compiled = _golden_run(name)
        goldens[name] = golden
        budget = int(golden.instructions * config.step_budget_factor)
        budget += config.step_budget_slack
        for _ in range(count):
            spec = random_spec(rng, golden.sites, targets=config.targets)
            schedule.append(Trial(len(schedule), golden, spec, budget))
    return schedule


#: Per-worker-process replay state: benchmark name -> (machine, checkpoint).
_POOL_STATE: dict = {}


def _benchmark_state(name: str) -> tuple[RiscMachine, object]:
    """The per-process (machine, delta checkpoint) pair for *name*.

    Lazily built and cached in :data:`_POOL_STATE`; the compile is
    deterministic (and usually inherited from the parent's compile
    cache under a fork start method), so every worker process replays
    trials from the same image as an in-process run.  The machine runs on the
    fastest scalar tier, which executes the unobserved trial phases.
    """
    state = _POOL_STATE.get(name)
    if state is None:
        from repro.workloads import benchmark
        from repro.workloads.cache import compile_cached

        compiled = compile_cached(benchmark(name).source)
        machine = compiled.make_machine(engine=fastest_scalar_engine())
        machine.reset(compiled.program.entry)
        checkpoint = machine.checkpoint(track_memory_deltas=True)
        _POOL_STATE[name] = state = (machine, checkpoint)
    return state


def _journalled_result(
    trials: tuple[Trial, ...], index: int, record: dict, path: str
) -> InjectionResult:
    """Rebuild trial *index*'s result from its journal *record*.

    The spec and golden come from the re-drawn schedule, the outcome
    fields from the record.  The rebuilt result must serialise back to
    exactly *record*, so the fingerprint hashes what the journal holds;
    anything else raises :class:`~repro.faults.distributed.JournalError`.
    """
    from repro.faults.distributed import JournalError

    result = None
    if 0 <= index < len(trials):
        trial = trials[index]
        try:
            result = InjectionResult(
                benchmark=trial.golden.benchmark,
                spec=trial.spec,
                outcome=Outcome(record["outcome"]),
                halt=record["halt"],
                trap_cause=record["trap_cause"],
                instructions=record["instructions"],
                result=record["result"],
            )
        except (KeyError, ValueError):
            pass
    if result is None or injection_record(result) != record:
        raise JournalError(
            f"{path}: trial {index} does not match this campaign's schedule"
        )
    return result


def _publish_metrics(registry, report: CampaignReport, syncs: int, stats) -> None:
    """Record the ``campaign.*`` operational counters on *registry*."""
    if registry is None:
        return
    info = report.resume_info
    counters = {
        "campaign.trials": (
            len(report.results), "trials folded into the campaign report"
        ),
        "campaign.trials_resumed": (
            info["resumed_trials"], "trials replayed from a journal, not executed"
        ),
        "campaign.retries": (
            info["retries"], "trial attempts re-dispatched after failure"
        ),
        "campaign.timeouts": (
            info["timeouts"], "trial attempts killed by the wall-clock deadline"
        ),
        "campaign.infra_errors": (
            info["infra_errors"], "trials quarantined after exhausting retries"
        ),
        "campaign.pool_restarts": (
            info["pool_restarts"], "worker-pool rebuilds after a dead worker"
        ),
        "campaign.journal_syncs": (
            syncs, "fsync barriers issued by the trial journal"
        ),
        "campaign.steps_observed": (
            stats.trial_steps["observed"],
            "trial steps single-stepped under the fault injector",
        ),
        "campaign.steps_compiled": (
            stats.trial_steps["compiled"],
            "trial steps run unobserved on the compiled tier",
        ),
    }
    for name, (value, help_text) in counters.items():
        registry.counter(name, help_text).inc(value)


def run_campaign(
    config: CampaignConfig,
    *,
    progress=None,
    workers: int | None = None,
    journal: str | None = None,
    resume: str | None = None,
    shards: int = 1,
    shard_index: int | None = None,
    timeout_s: float | None = DEFAULT_TRIAL_TIMEOUT_S,
    retry=None,
    registry=None,
    chaos_hook=None,
) -> CampaignReport:
    """Execute the campaign described by *config* deterministically.

    Every call takes the same path: draw the :class:`Trial` schedule,
    open or recover the journal if one is asked for, run the remaining
    trials under :class:`~repro.faults.distributed.TrialSupervisor`, and
    append each result to a :class:`CampaignReport` in schedule order.
    A call with no options is one shard, in process, with no journal.

    Args:
        config: the campaign to execute.
        progress: optional ``(benchmark, done, total)`` callback,
            invoked every 100 completed trials.
        workers: pool size; None or <= 1 runs trials in-process.  The
            schedule is drawn before any trial runs and results are
            delivered in schedule order, so the report is byte-identical
            at any worker count.
        journal: path for a fresh crash-safe JSONL trial journal
            (refuses to overwrite an existing file; ``kill -9`` loses at
            most one trial).
        resume: path of an existing journal to recover; its completed
            trials are rebuilt without re-execution and new completions
            are appended to the same file.  Mutually exclusive with
            *journal*.
        shards: contiguous shard count of the schedule partition; the
            manifest reports per-shard fingerprints, which compose to
            the campaign fingerprint.
        shard_index: execute only this shard (the report then covers
            just its slice).
        timeout_s: per-trial wall-clock budget (None disables).
        retry: :class:`~repro.faults.distributed.RetryPolicy`; default
            allows 3 attempts.
        registry: optional :class:`~repro.telemetry.MetricsRegistry`
            receiving the ``campaign.*`` operational counters.
        chaos_hook: test/CI-only fault injector passed through to the
            supervisor (``(done, worker_pids)`` after each trial).

    Raises :class:`CampaignInterrupted` on Ctrl-C (journal flushed and
    closed first) and :class:`~repro.faults.distributed.JournalError`
    when *resume* points at a journal of a different campaign, or at a
    record that does not match the re-drawn schedule.
    """
    from repro.faults.distributed import (
        TrialJournal,
        TrialSupervisor,
        shard_schedule,
    )

    if journal is not None and resume is not None:
        raise ValueError(
            "pass either journal= (fresh) or resume= (recover), not both"
        )
    if shard_index is not None and not 0 <= shard_index < shards:
        raise ValueError(
            f"shard_index {shard_index} out of range for {shards} shard(s)"
        )

    plan = shard_schedule(config, shards)
    if shard_index is None:
        trials, bounds = plan.trials, plan.bounds
    else:
        trials, bounds = plan.shard(shard_index), (plan.bounds[shard_index],)
    report = CampaignReport(
        config=config, golden=plan.goldens, n_shards=shards, bounds=bounds
    )
    total = len(trials)

    jour = None
    if resume is not None:
        jour, _stats = TrialJournal.resume(
            resume, config,
            sink=lambda index, attempt, record: report.add(
                index, _journalled_result(plan.trials, index, record, resume)
            ),
        )
    elif journal is not None:
        jour = TrialJournal.create(journal, config)
    resumed = len(report.results)

    def sink(index: int, result: InjectionResult, attempts: int) -> None:
        """Write-ahead journal one completed trial, then append it."""
        if jour is not None:
            jour.append(index, injection_record(result), attempt=attempts)
        report.add(index, result)
        if progress is not None and len(report.results) % 100 == 0:
            progress(result.benchmark, len(report.results), total)

    supervisor = TrialSupervisor(
        workers=workers, timeout_s=timeout_s, policy=retry,
        chaos_hook=chaos_hook,
    )
    try:
        stats = supervisor.run(trials[resumed:], sink)
    except KeyboardInterrupt:
        # The journal is closed by the finally below; every completed
        # trial is already fsynced, so the run is resumable as-is.
        raise CampaignInterrupted(
            completed=len(report.results),
            total=total,
            journal=jour.path if jour is not None else None,
        ) from None
    finally:
        if jour is not None:
            jour.close()

    report.resume_info = {
        "resumed_trials": resumed,
        "executed_trials": stats.executed,
        "retries": stats.retries,
        "timeouts": stats.timeouts,
        "infra_errors": report.outcome_counts()[Outcome.INFRA_ERROR],
        "pool_restarts": stats.pool_restarts,
    }
    _publish_metrics(registry, report, jour.syncs if jour is not None else 0, stats)
    return report


# -- CLI ---------------------------------------------------------------------


def _positive_int(text: str) -> int:
    """Argparse type: a strictly positive integer (clear error otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


def _positive_float(text: str) -> float:
    """Argparse type: a finite, strictly positive number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}"
        ) from None
    if not 0 < value < math.inf:  # also false for NaN
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.campaign",
        description="Seeded fault-injection campaign over the RISC I benchmarks.",
    )
    parser.add_argument("--seed", type=int, default=1981)
    parser.add_argument("--injections", type=_positive_int, default=1000)
    parser.add_argument(
        "--workers", type=_positive_int, default=1,
        help="run trials on N worker processes (results stay byte-identical "
             "to the in-process run; default 1 = in-process)",
    )
    parser.add_argument(
        "--benchmarks", default=",".join(DEFAULT_BENCHMARKS),
        help="comma-separated benchmark names",
    )
    parser.add_argument(
        "--shards", type=_positive_int, default=1,
        help="deterministically shard the schedule into N contiguous "
             "shards; per-shard fingerprints compose to the whole "
             "campaign's",
    )
    parser.add_argument(
        "--shard-index", type=int, default=None,
        help="execute only this shard (0-based; for cross-machine "
             "campaigns - the report then covers just that shard)",
    )
    parser.add_argument(
        "--journal", default=None,
        help="append each completed trial to this crash-safe JSONL "
             "journal (kill -9 loses at most one trial)",
    )
    parser.add_argument(
        "--resume", default=None,
        help="replay completed trials from this journal, execute only "
             "the remainder, and keep appending to it",
    )
    parser.add_argument(
        "--timeout-s", type=_positive_float, default=DEFAULT_TRIAL_TIMEOUT_S,
        help="per-trial wall-clock budget in seconds; timed-out trials "
             f"are retried then quarantined as "
             f"INFRA_ERROR (default {DEFAULT_TRIAL_TIMEOUT_S:.0f})",
    )
    parser.add_argument(
        "--retries", type=_positive_int, default=3,
        help="maximum attempts per trial before INFRA_ERROR quarantine "
             "(default 3)",
    )
    parser.add_argument(
        "--verify-determinism", action="store_true",
        help="run the campaign twice and fail unless fingerprints match",
    )
    parser.add_argument(
        "--baseline", default=None,
        help="JSON baseline; fail if silent corruptions or crashes regress, "
             "or if the fingerprint differs at the same seed, injections "
             "and benchmarks",
    )
    parser.add_argument(
        "--write-baseline", default=None,
        help="write the campaign summary to this JSON path and exit",
    )
    parser.add_argument("--json", default=None, help="dump per-injection records")
    parser.add_argument(
        "--manifest", default=None,
        help="write the canonical campaign manifest (JSON) to this path",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; see ``--help`` for flags."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.journal is not None and args.resume is not None:
        parser.error("--journal starts a fresh journal and --resume "
                     "continues one; pass only one of them")
    if args.shard_index is not None and not 0 <= args.shard_index < args.shards:
        parser.error(
            f"--shard-index must be in [0, {args.shards}) "
            f"(got {args.shard_index})"
        )
    config = CampaignConfig(
        seed=args.seed,
        injections=args.injections,
        benchmarks=tuple(name for name in args.benchmarks.split(",") if name),
    )

    def progress(name: str, done: int, total: int) -> None:
        """Per-benchmark progress line."""
        print(f"  {name}: {done}/{total} injections")

    from repro.faults.distributed import JournalError, RetryPolicy

    def execute(*, resume: str | None, journal: str | None):
        """One campaign run with the CLI's supervision options."""
        return run_campaign(
            config,
            progress=progress,
            workers=args.workers,
            journal=journal,
            resume=resume,
            shards=args.shards,
            shard_index=args.shard_index,
            timeout_s=args.timeout_s,
            retry=RetryPolicy(max_attempts=args.retries, seed=args.seed),
        )

    try:
        report = execute(resume=args.resume, journal=args.journal)
    except (FileNotFoundError, FileExistsError, JournalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CampaignInterrupted as exc:
        print(f"\n{exc.describe()}")
        return 130
    except KeyboardInterrupt:
        # Trial-phase interrupts arrive as CampaignInterrupted; this one
        # came while the golden runs or the journal recovery ran.
        print("\ncampaign interrupted before its trials started")
        return 130
    print(report.rate_table().render())
    summary = report.summary()

    failures: list[str] = []
    if summary["crash"]:
        failures.append(f"{summary['crash']} injection(s) crashed the simulator")
    if summary["infra_error"]:
        failures.append(
            f"{summary['infra_error']} trial(s) quarantined as INFRA_ERROR"
        )
    if args.verify_determinism:
        # The verification run never resumes or journals: it must
        # re-execute every trial to prove determinism.
        second = execute(resume=None, journal=None)
        if second.fingerprint() != summary["fingerprint"]:
            failures.append("campaign is not deterministic for a fixed seed")
        else:
            print("determinism: OK (fingerprints match)")
    if args.baseline:
        if args.shard_index is not None:
            failures.append(
                "--baseline is not comparable to a single-shard report "
                "(drop --shard-index)"
            )
        else:
            with open(args.baseline) as handle:
                baseline = json.load(handle)
            # Absolute-count comparison is only meaningful when both runs
            # sampled the same fault population.
            population = ("injections", "seed", "benchmarks")
            for key in population:
                if key in baseline and baseline[key] != summary[key]:
                    failures.append(
                        f"baseline not comparable: {key} differs "
                        f"({summary[key]!r} vs baseline {baseline[key]!r})"
                    )
            # The same population must reproduce the same trials, byte
            # for byte: a drifted fingerprint is a behaviour change.
            if (
                "fingerprint" in baseline
                and all(baseline.get(key) == summary[key] for key in population)
                and baseline["fingerprint"] != summary["fingerprint"]
            ):
                failures.append(
                    f"fingerprint differs from the baseline "
                    f"({summary['fingerprint'][:16]} vs "
                    f"{baseline['fingerprint'][:16]})"
                )
            for key in ("silent_corruption", "crash", "infra_error"):
                if summary[key] > baseline.get(key, 0):
                    failures.append(
                        f"{key} regressed: {summary[key]} > baseline "
                        f"{baseline.get(key, 0)}"
                    )
            if not failures:
                print(f"baseline check: OK (vs {args.baseline})")
    if args.write_baseline:
        with open(args.write_baseline, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote baseline to {args.write_baseline}")
    if args.manifest:
        with open(args.manifest, "w") as handle:
            json.dump(report.manifest(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote campaign manifest to {args.manifest}")
    if args.json:
        records = report.as_records()
        with open(args.json, "w") as handle:
            json.dump(
                {"schema": "risc1-repro/fault-campaign/v1",
                 "summary": summary, "records": records},
                handle, indent=2,
            )
        print(f"wrote {len(records)} records to {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    # Re-enter through the canonical module: under ``python -m`` this
    # file also exists as ``__main__``, while the supervisor and the
    # journal import the canonical module; one copy means one set of
    # classes and one per-process machine cache.
    from repro.faults.campaign import main as _canonical_main

    raise SystemExit(_canonical_main())

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
draws the fault schedule serially, fans the trials out to worker
processes, and reassembles results in schedule order, so the
fingerprint matches the serial run bit for bit.

The fingerprint is an **ordered hash-of-hashes**: each injection
record is canonically serialised and SHA-256 hashed
(:func:`trial_digest`), and the campaign fingerprint is the SHA-256
over the concatenated per-trial digests in schedule order
(:class:`FingerprintStream`).  That construction is what lets sharded
campaigns (:mod:`repro.faults.distributed`) compose per-shard
fingerprints back into exactly the serial fingerprint, and lets the
streaming aggregation path compute it in O(1) memory.

Crash-safety and scale live in :mod:`repro.faults.distributed`:
``run_campaign(journal=...)`` appends every completed trial to a
crash-safe journal, ``run_campaign(resume=...)`` replays the journal
and re-executes only the remainder, and ``shards``/``shard_index``
split the schedule deterministically across processes or machines.

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
import random
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

#: Default per-trial wall-clock budget (seconds) on the supervised
#: (streaming/distributed) path.  A healthy trial finishes in well
#: under a second; 60 s only fires when the host itself is wedged.
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
    :meth:`hexdigest` is then the campaign fingerprint.  Because the
    outer hash consumes only the fixed-size trial digests, the stream
    costs O(1) memory at any trial count, and a shard's contribution
    is exactly its ordered digest sequence - which is how
    :func:`repro.faults.distributed.compose_fingerprints` rebuilds the
    serial fingerprint from per-shard journals.
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


def rate_table_from_counts(
    config: CampaignConfig,
    by_target: dict[FaultTarget, Counter],
    total_injections: int,
) -> Table:
    """Render the R1 rate table from per-target outcome tallies.

    Shared by the in-memory (:class:`CampaignReport`) and streaming
    (:class:`repro.faults.distributed.StreamingCampaignReport`)
    aggregation paths, so both produce the identical table.
    """
    table = Table(
        title=(
            f"R1: fault campaign ({total_injections} injections, "
            f"seed {config.seed})"
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
            round(100.0 * counts[Outcome.DETECTED] / total, 1) if total else 0.0,
            round(100.0 * counts[Outcome.SILENT_CORRUPTION] / total, 1)
            if total else 0.0,
        )

    overall: Counter = Counter()
    for target in config.targets:
        counts = by_target.get(target, Counter())
        overall.update(counts)
        if sum(counts.values()) == 0:
            continue
        row(target.value, counts)
    row("all", overall)
    table.notes.append("benchmarks: " + ", ".join(config.benchmarks))
    table.notes.append(
        "DETECTED = structured trap; SDC = wrong result with clean halt; "
        "infra = quarantined infrastructure failure"
    )
    return table


def summary_from_counts(
    config: CampaignConfig,
    overall: Counter,
    total_injections: int,
    fingerprint: str,
) -> dict:
    """Aggregate outcome counts plus the campaign fingerprint."""
    return {
        "seed": config.seed,
        "injections": total_injections,
        "benchmarks": list(config.benchmarks),
        "masked": overall[Outcome.MASKED],
        "detected": overall[Outcome.DETECTED],
        "silent_corruption": overall[Outcome.SILENT_CORRUPTION],
        "timeout": overall[Outcome.TIMEOUT],
        "crash": overall[Outcome.CRASH],
        "infra_error": overall[Outcome.INFRA_ERROR],
        "fingerprint": fingerprint,
    }


def campaign_manifest_doc(
    config: CampaignConfig,
    golden: dict[str, "GoldenRun"],
    by_target: dict[FaultTarget, Counter],
    summary: dict,
    *,
    shards: dict | None = None,
    resume: dict | None = None,
    events: dict | None = None,
) -> dict:
    """Build the canonical campaign-manifest document (v2 schema).

    Deterministic for a fixed config: neither host facts nor file paths
    appear.  ``shards`` and ``resume`` default to the values of an
    uninterrupted single-shard run so the key structure - gated by
    ``ci/check_manifest.py`` - is identical however the campaign ran.
    """
    from repro.telemetry.manifest import CAMPAIGN_SCHEMA

    if shards is None:
        shards = {
            "count": 1,
            "sizes": [summary["injections"]],
            "fingerprints": [summary["fingerprint"]],
        }
    if resume is None:
        resume = {
            "resumed_trials": 0,
            "executed_trials": summary["injections"],
            "retries": 0,
            "timeouts": 0,
            "infra_errors": summary["infra_error"],
            "pool_restarts": 0,
        }
    return {
        "schema": CAMPAIGN_SCHEMA,
        "config": config_dict(config),
        "golden": {
            name: {
                "result": run.result,
                "instructions": run.instructions,
                "cycles": run.cycles,
            }
            for name, run in sorted(golden.items())
        },
        "outcomes_by_target": {
            target.value: {
                outcome.value: counts[outcome]
                for outcome in Outcome if counts[outcome]
            }
            for target, counts in sorted(
                by_target.items(), key=lambda kv: kv[0].value
            )
        },
        "shards": shards,
        "resume": resume,
        "events": dict(events or {}),
        "summary": summary,
    }


@dataclass
class CampaignReport:
    """All injections of one campaign plus the golden references."""

    config: CampaignConfig
    golden: dict[str, GoldenRun]
    results: list[InjectionResult] = field(default_factory=list)

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
        return rate_table_from_counts(
            self.config, self.counts_by_target(), len(self.results)
        )

    def as_records(self) -> list[dict]:
        """JSON-friendly rows, one per injection."""
        return [injection_record(result) for result in self.results]

    def fingerprint(self) -> str:
        """Ordered hash-of-hashes over every injection record.

        Equal <=> bit-identical campaigns.  The construction (SHA-256
        over concatenated per-trial SHA-256 digests, in schedule order)
        is shared with the streaming and sharded paths, so a resumed,
        sharded, or worker-pool campaign that executed the same trials
        reports the identical fingerprint.
        """
        stream = FingerprintStream()
        for result in self.results:
            stream.add_record(injection_record(result))
        return stream.hexdigest()

    def summary(self) -> dict:
        """Aggregate outcome counts plus the campaign fingerprint."""
        return summary_from_counts(
            self.config, self.outcome_counts(), len(self.results),
            self.fingerprint(),
        )

    def manifest(self) -> dict:
        """Canonical campaign-manifest document (JSON-serialisable).

        Same determinism contract as :meth:`fingerprint`: two campaigns
        with the same :class:`CampaignConfig` produce byte-identical
        manifests, whatever the worker count.  The schema mirrors the
        run manifest (``docs/OBSERVABILITY.md``); single-run manifests
        link back through their ``campaign`` section's ``fingerprint``.
        """
        return campaign_manifest_doc(
            self.config, self.golden, self.counts_by_target(), self.summary()
        )


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
) -> list[tuple[GoldenRun, FaultSpec, int]]:
    """Draw every fault of the campaign, in the canonical order.

    All randomness flows through one generator seeded with
    ``config.seed``, and golden runs never consult it, so the spec
    stream here is identical whether the trials later execute serially,
    on a worker pool, or sharded across machines.  Populates *goldens*
    as a side effect.
    """
    rng = random.Random(config.seed)
    schedule: list[tuple[GoldenRun, FaultSpec, int]] = []
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
            schedule.append((golden, spec, budget))
    return schedule


#: Per-worker-process replay state: benchmark name -> (machine, checkpoint).
_POOL_STATE: dict = {}


def _benchmark_state(name: str) -> tuple[RiscMachine, object]:
    """The per-process (machine, delta checkpoint) pair for *name*.

    Lazily built and cached in :data:`_POOL_STATE`; the compile is
    deterministic (and usually inherited from the parent's compile
    cache under a fork start method), so every process replays trials
    from the same image the serial path uses.  The machine runs on the
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


def _pool_injection(task) -> InjectionResult:
    """Worker-side trial: lazily build the benchmark machine, then replay."""
    golden, spec, budget = task
    machine, checkpoint = _benchmark_state(golden.benchmark)
    return _run_injection(machine, checkpoint, golden, spec, budget)


def run_campaign(
    config: CampaignConfig,
    *,
    progress=None,
    workers: int | None = None,
    journal: str | None = None,
    resume: str | None = None,
    shards: int | None = None,
    shard_index: int | None = None,
    stream: bool = False,
    timeout_s: float | None = None,
    retry=None,
    registry=None,
):
    """Execute the campaign described by *config* deterministically.

    With ``workers`` > 1 the trials run on a ``multiprocessing`` pool:
    the fault schedule is still drawn serially (identical RNG stream),
    trials are distributed in schedule order, and results are collected
    by index - so a parallel campaign is byte-identical (same
    :meth:`CampaignReport.fingerprint`) to the serial one, just faster.

    Any of the crash-safety options route the campaign through the
    supervised streaming path (:mod:`repro.faults.distributed`) and
    return a
    :class:`~repro.faults.distributed.StreamingCampaignReport`:

    * ``journal`` - append every completed trial to a crash-safe JSONL
      journal at this path (``kill -9`` loses at most one trial);
    * ``resume`` - replay completed trials from this journal, execute
      only the remainder, and keep appending to it;
    * ``shards`` / ``shard_index`` - deterministic contiguous sharding
      of the schedule (per-shard fingerprints compose to the serial
      fingerprint); ``shard_index`` restricts execution to one shard;
    * ``stream`` - force streaming aggregation (O(1) memory; no
      per-trial result list is retained);
    * ``timeout_s`` / ``retry`` - per-trial wall-clock budget and
      :class:`~repro.faults.distributed.RetryPolicy` for worker
      supervision;
    * ``registry`` - a :class:`~repro.telemetry.MetricsRegistry`
      receiving the ``campaign.*`` operational counters.

    Either way the executed trials - and therefore the fingerprint -
    are identical; the options only change how the campaign survives
    infrastructure failure.
    """
    distributed = (
        stream
        or journal is not None
        or resume is not None
        or shard_index is not None
        or (shards is not None and shards > 1)
        or timeout_s is not None
        or retry is not None
        or registry is not None
    )
    if distributed:
        from repro.faults.distributed import run_distributed_campaign

        return run_distributed_campaign(
            config,
            workers=workers,
            journal=journal,
            resume=resume,
            shards=shards or 1,
            shard_index=shard_index,
            timeout_s=(
                DEFAULT_TRIAL_TIMEOUT_S if timeout_s is None else timeout_s
            ),
            retry=retry,
            registry=registry,
            progress=progress,
        )

    goldens: dict[str, GoldenRun] = {}
    report = CampaignReport(config=config, golden=goldens)
    schedule = _campaign_schedule(config, goldens)
    if workers is not None and workers > 1:
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            ctx = multiprocessing.get_context("spawn")
        chunksize = max(1, len(schedule) // (workers * 8))
        with ctx.Pool(processes=workers) as pool:
            try:
                for done, result in enumerate(
                    pool.imap(_pool_injection, schedule, chunksize=chunksize), 1
                ):
                    report.results.append(result)
                    if progress is not None and done % 100 == 0:
                        progress(result.benchmark, done, len(schedule))
            except KeyboardInterrupt:
                # Terminate the pool cleanly, then surface a structured
                # interruption (no journal on the legacy path, so the
                # completed prefix is lost - the message says so).
                pool.terminate()
                raise CampaignInterrupted(
                    completed=len(report.results),
                    total=len(schedule),
                    journal=None,
                ) from None
        return report
    for done, (golden, spec, budget) in enumerate(schedule, 1):
        machine, checkpoint = _benchmark_state(golden.benchmark)
        report.results.append(
            _run_injection(machine, checkpoint, golden, spec, budget)
        )
        if progress is not None and done % 100 == 0:
            progress(golden.benchmark, done, len(schedule))
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
             "to the serial run; default 1 = serial)",
    )
    parser.add_argument(
        "--benchmarks", default=",".join(DEFAULT_BENCHMARKS),
        help="comma-separated benchmark names",
    )
    parser.add_argument(
        "--shards", type=_positive_int, default=1,
        help="deterministically shard the schedule into N contiguous "
             "shards; per-shard fingerprints compose to the serial one",
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
        "--stream", action="store_true",
        help="use streaming aggregation (O(1) memory; implied by "
             "--journal/--resume/--shards > 1)",
    )
    parser.add_argument(
        "--timeout-s", type=float, default=DEFAULT_TRIAL_TIMEOUT_S,
        help="per-trial wall-clock budget in seconds on the supervised "
             f"path; timed-out trials are retried then quarantined as "
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


def _streaming_requested(args) -> bool:
    """Whether the CLI flags route through the supervised streaming path."""
    return bool(
        args.stream
        or args.journal
        or args.resume
        or args.shards > 1
        or args.shard_index is not None
    )


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; see ``--help`` for flags."""
    parser = _build_parser()
    args = parser.parse_args(argv)
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

    streaming = _streaming_requested(args)

    def execute(*, resume: str | None, journal: str | None):
        """One campaign run with the CLI's supervision options."""
        if not streaming:
            return run_campaign(
                config,
                progress=progress,
                workers=args.workers,
            )
        from repro.faults.distributed import RetryPolicy

        return run_campaign(
            config,
            progress=progress,
            workers=args.workers,
            journal=journal,
            resume=resume,
            shards=args.shards,
            shard_index=args.shard_index,
            stream=True,
            timeout_s=args.timeout_s,
            retry=RetryPolicy(max_attempts=args.retries, seed=args.seed),
        )

    try:
        report = execute(resume=args.resume, journal=args.journal)
    except CampaignInterrupted as exc:
        print(f"\n{exc.describe()}")
        return 130
    except KeyboardInterrupt:
        print("\ncampaign interrupted; no journal was kept (use --journal)")
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
        records = _report_records(report, args.journal or args.resume)
        if records is None:
            failures.append(
                "--json needs per-injection records: streaming reports "
                "retain none, so pass --journal as well"
            )
        else:
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


def _report_records(report, journal_path: str | None) -> list[dict] | None:
    """Per-injection records for ``--json``, from the report or journal.

    Batch reports carry their records; streaming reports retain none,
    so the records are re-read from the journal when one was written.
    Returns None when no record source exists.
    """
    as_records = getattr(report, "as_records", None)
    if callable(as_records):
        return as_records()
    if journal_path:
        from repro.faults.distributed import recover_journal

        records: list[dict] = []
        recover_journal(
            journal_path,
            sink=lambda index, attempt, record: records.append(record),
        )
        return records
    return None


if __name__ == "__main__":
    # Re-enter through the canonical module: under ``python -m`` this
    # file also exists as ``__main__``, and the runner raises the
    # *imported* module's CampaignInterrupted - which the __main__
    # copy's ``except CampaignInterrupted`` would not catch.
    from repro.faults.campaign import main as _canonical_main

    raise SystemExit(_canonical_main())

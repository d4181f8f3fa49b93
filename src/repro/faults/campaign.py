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
INFRA_ERROR  kept for format compatibility only: no code path
             produces it, but the rate table's ``infra`` column, the
             ``infra_error`` summary key and committed baselines
             still carry it
===========  ======================================================

A trial runs in three phases on the fastest scalar tier
(:func:`_run_injection`).  Until its trigger fires, a faulted run is
bit-identical to the golden run, so the *prefix* runs unobserved on
the compiled tier up to the trigger boundary.  The *fault* phase
attaches the :class:`~repro.faults.injector.FaultInjector` and
single-steps the same tier under it only while the fault needs
watching.  A stuck-at fault needs only its firing step: the injector
then pins it on the machine, which re-asserts it where the state can
change.  Once the injector is idle, the *suffix* finishes
the step budget unobserved again, with any pinned fault still live.
The classification is identical to stepping the oracle under the
injector from instruction 0.

Determinism: all randomness flows through one seeded
:class:`random.Random`; no wall-clock inputs are consulted.  Two runs
with the same :class:`CampaignConfig` produce byte-identical reports
(verified by :meth:`CampaignReport.fingerprint`).  That holds for
parallel runs too: ``--workers N`` (``run_campaign(..., workers=N)``)
draws the fault schedule before any trial runs, maps the trials over a
process pool, and collects results in schedule order, so the
fingerprint and the manifest match the in-process run bit for bit.

The fingerprint is an **ordered hash-of-hashes**: each injection
record is canonically serialised and SHA-256 hashed
(:func:`trial_digest`), and the campaign fingerprint is the SHA-256
over the concatenated per-trial digests in schedule order
(:func:`_fingerprint`).

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
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from repro.common.bitops import to_signed
from repro.cpu.engines import fastest_scalar_engine
from repro.cpu.machine import HaltReason, RiscMachine
from repro.cpu.runprofile import RunProfile
from repro.evaluation.tables import Table
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultSites, FaultSpec, FaultTarget, random_spec

#: Benchmarks small enough that a 1000-injection campaign finishes in
#: minutes on the Python-hosted simulator.
DEFAULT_BENCHMARKS = ("towers", "ackermann")

#: Memory faults land in the first 64 KiB: code, globals, and the
#: software stack of every benchmark live there.
MEMORY_FAULT_TOP = 1 << 16


class Outcome(enum.Enum):
    """How one injected fault manifested (the campaign taxonomy).

    ``INFRA_ERROR`` has no producer: it stays so the rate table, the
    summary's ``infra_error`` key and the baselines that pin them keep
    their format.
    """

    MASKED = "masked"
    DETECTED = "detected"
    SILENT_CORRUPTION = "silent_corruption"
    TIMEOUT = "timeout"
    CRASH = "crash"
    INFRA_ERROR = "infra_error"


@dataclass(frozen=True)
class GoldenRun:
    """Reference execution of one benchmark."""

    benchmark: str
    result: int
    instructions: int
    cycles: int
    sites: FaultSites
    #: the PC at every step boundary.
    trace: array = field(
        default_factory=lambda: array("I"), compare=False, repr=False
    )
    #: pc -> its :meth:`steps_at` list, for the PCs asked for so far.
    _steps: dict[int, array] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def steps_at(self, pc: int) -> array:
        """Ascending step indices at which *pc* executed; a trial
        fast-forwards to a PC trigger's boundary with them.  Built on
        first use, so only for the PCs a trigger names."""
        steps = self._steps.get(pc)
        if steps is None:
            steps = self._steps[pc] = _steps_at(self.trace, pc)
        return steps


def _steps_at(trace: array, pc: int) -> array:
    """The indices of *pc* in *trace*, found by a byte search for its
    item (a match must start on an item boundary)."""
    data = trace.tobytes()
    item = array(trace.typecode, (pc,)).tobytes()
    size = len(item)
    steps = array("I")
    at = data.find(item)
    while at >= 0:
        if at % size:
            at = data.find(item, at + 1)
        else:
            steps.append(at // size)
            at = data.find(item, at + size)
    return steps


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
        index: 0-based position in the canonical schedule.
        golden: the reference run of the trial's benchmark.
        spec: the fault to inject.
        budget: dynamic-instruction budget for the faulted replay.
    """

    index: int
    golden: GoldenRun
    spec: FaultSpec
    budget: int

    def __reduce__(self):
        # A worker-pool payload names the golden run instead of carrying
        # its ~150 KB PC trace: the worker looks it up.
        return _trial, (self.index, self.golden.benchmark, self.spec, self.budget)


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


def injection_record(result: InjectionResult) -> dict:
    """The canonical JSON record of one injection (fingerprint unit).

    Field set and value encodings are part of the byte-identity
    contract: the campaign fingerprint hashes them, so any change here
    invalidates committed baselines (``ci/fault_baseline.json``).
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


def _fingerprint(results) -> str:
    """Ordered hash-of-hashes over *results*' canonical records: SHA-256
    over the concatenated per-trial digests, in schedule order."""
    outer = hashlib.sha256()
    for result in results:
        outer.update(trial_digest(injection_record(result)).encode())
    return outer.hexdigest()


@dataclass
class CampaignReport:
    """The injections of one campaign in schedule order, plus the golden
    references."""

    config: CampaignConfig
    golden: dict[str, GoldenRun]
    results: list[InjectionResult] = field(default_factory=list)

    def add(self, index: int, result: InjectionResult) -> None:
        """Append the result of trial *index*.

        Raises :class:`ValueError` unless *index* is the next trial the
        report expects: an out-of-order append would silently change
        the fingerprint, so it is never allowed.
        """
        expected = len(self.results)
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

        Equal <=> bit-identical campaigns: SHA-256 over the concatenated
        per-trial SHA-256 digests, in schedule order, so a worker-pool
        campaign reports the in-process run's fingerprint.
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

    def manifest(self) -> dict:
        """Canonical campaign-manifest document (JSON-serialisable).

        Same determinism contract as :meth:`fingerprint`: two campaigns
        with the same :class:`CampaignConfig` produce byte-identical
        manifests, whatever the worker count.  Neither host facts nor
        file paths appear.  The schema mirrors the run manifest
        (``docs/OBSERVABILITY.md``); single-run manifests link back
        through their ``campaign`` section's ``fingerprint``.
        """
        from repro.telemetry.manifest import CAMPAIGN_SCHEMA

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
            "summary": self.summary(),
        }


def _golden_run(name: str) -> tuple[GoldenRun, "object"]:
    """The unfaulted run of *name*, read from its shared profile;
    returns the reference plus the compiled image."""
    from repro.workloads import benchmark
    from repro.workloads.cache import compile_cached

    compiled = compile_cached(benchmark(name).source)
    return _golden_from(name, compiled.profile()), compiled


def _golden_from(name: str, profile: RunProfile) -> GoldenRun:
    """The golden run of *name* from its profile."""
    if profile.halted is not HaltReason.RETURNED:
        raise RuntimeError(
            f"golden run of {name} did not complete: {profile.halted}"
        )
    sites = FaultSites(
        register_count=profile.register_count,
        memory_top=min(MEMORY_FAULT_TOP, profile.memory_size),
        pcs=tuple(sorted(profile.pc_counts().items())),
        cycle_limit=max(1, profile.stats.cycles - 1),
    )
    return GoldenRun(
        benchmark=name,
        result=profile.result,
        instructions=profile.stats.instructions,
        cycles=profile.stats.cycles,
        sites=sites,
        trace=profile.pcs(),
    )


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


def _pc_trigger_step(golden: GoldenRun, trigger) -> int | None:
    """Golden step index at which PC *trigger* fires (None: never)."""
    visits = golden.steps_at(trigger.at_pc)
    return visits[trigger.pc_hits - 1] if trigger.pc_hits <= len(visits) else None


def _fast_forward(
    machine: RiscMachine, stop: int, max_cycles: int | None, steps: int = 0,
) -> int:
    """Run unobserved on the machine's tier from trial step *steps* up to
    step *stop*; returns the steps executed.

    A step or cycle watchdog halt is cleared, so the trial continues
    from that exact boundary.
    """
    if stop <= steps:
        return 0
    ran = machine.engine.run_loop(machine, stop - steps, max_cycles, None)
    if machine.halted in (HaltReason.STEP_LIMIT, HaltReason.CYCLE_LIMIT):
        machine.halted = None
    return ran


def _run_injection(
    machine: RiscMachine,
    checkpoint,
    golden: GoldenRun,
    spec: FaultSpec,
    budget: int,
    tally: Counter | None = None,
) -> InjectionResult:
    """Replay one faulted run from *checkpoint* and classify it.

    The result equals stepping the oracle under an attached
    :class:`FaultInjector` up to *budget* steps; only the steps that
    need the injector run observed:

    1. **prefix** - the run is still golden, so it fast-forwards
       unobserved to the trigger boundary: the cycle watchdog stops at a
       cycle trigger, the golden step index of the ``pc_hits``-th visit
       locates a PC trigger;
    2. **fault** - the injector attaches (PC visits pre-seeded from the
       golden run) and the machine single-steps under it while it is
       not idle.  The trigger fires on the first step; a stuck-at
       fault is then pinned on the machine
       (:meth:`FaultInjector.pin`), which leaves the injector idle, so
       a drawn fault's phase is that one step (an instruction fault's
       fetch filter hands it to the oracle);
    3. **suffix** - the injector detaches and the rest of the budget
       runs unobserved, any pinned fault still live; the pins go before
       the next trial's restore.

    *tally*, when given, counts the steps this call ran: ``observed``
    single-stepped under the injector, ``compiled`` unobserved on the
    machine's tier, and ``pinned``, the compiled steps run with a
    pinned fault live.
    """
    machine.restore(checkpoint)
    trigger = spec.trigger
    injector = FaultInjector(machine, [spec])
    steps = observed = pinned = live_pins = 0
    try:
        if trigger.at_cycle is not None:
            if machine.stats.cycles < trigger.at_cycle:
                steps += _fast_forward(machine, budget, trigger.at_cycle)
            pc_visits = None
        else:
            fires_at = _pc_trigger_step(golden, trigger)
            if fires_at is None:  # never fires: the run stays golden
                fires_at = budget
            steps += _fast_forward(machine, min(fires_at, budget), None)
            visits = golden.steps_at(trigger.at_pc)
            pc_visits = {trigger.at_pc: bisect_left(visits, steps)}
        if machine.halted is None:
            injector.attach(pc_visits=pc_visits)
            while (
                machine.halted is None
                and steps < budget
                and not injector.idle
            ):
                machine.step()
                steps += 1
                observed += 1
                if observed == 1:  # the trigger fired on this step
                    live_pins = injector.pin()
            injector.detach()
        if machine.halted is None:
            suffix = _fast_forward(machine, budget, None, steps=steps)
            steps += suffix
            if live_pins:
                pinned = suffix
        if machine.halted is None:
            machine.halted = HaltReason.STEP_LIMIT
        return _classify(machine, golden, spec, steps)
    except Exception as exc:  # noqa: BLE001 - a crash IS the finding
        # A crash inside a compiled phase reports the steps completed
        # before that phase began.
        return _crash_result(golden, spec, steps, exc)
    finally:
        injector.detach()
        injector.unpin()
        if tally is not None:
            tally["observed"] += observed
            tally["compiled"] += steps - observed
            tally["pinned"] += pinned


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
    stream here is identical however the trials later execute, in
    process or on a worker pool.  Populates *goldens* as a side effect.
    """
    rng = random.Random(config.seed)
    schedule: list[Trial] = []
    share, extra = divmod(config.injections, len(config.benchmarks))
    for index, name in enumerate(config.benchmarks):
        count = share + (1 if index < extra else 0)
        if count == 0:
            continue
        golden, _compiled = _golden_run(name)
        goldens[name] = _POOL_STATE[name].golden = golden
        budget = int(golden.instructions * config.step_budget_factor)
        budget += config.step_budget_slack
        for _ in range(count):
            spec = random_spec(rng, golden.sites, targets=config.targets)
            schedule.append(Trial(len(schedule), golden, spec, budget))
    return schedule


@dataclass
class _BenchmarkState:
    """This process's campaign state for one benchmark.

    *golden* is the golden run the schedule last drew trials from;
    forked workers inherit it, and a spawned worker reruns it
    (deterministically) for its first trial.  *replay* is the
    (machine, delta checkpoint) pair trials replay on, built on first
    use.
    """

    golden: GoldenRun | None = None
    replay: tuple[RiscMachine, object] | None = None


#: Per-process campaign state, by benchmark name.
_POOL_STATE: defaultdict[str, _BenchmarkState] = defaultdict(_BenchmarkState)


def _trial(index: int, name: str, spec: FaultSpec, budget: int) -> Trial:
    """Rebuild a pickled :class:`Trial` around this process's golden run."""
    state = _POOL_STATE[name]
    if state.golden is None:
        state.golden, _compiled = _golden_run(name)
    return Trial(index, state.golden, spec, budget)


def _benchmark_state(name: str) -> tuple[RiscMachine, object]:
    """The per-process (machine, delta checkpoint) pair for *name*.

    Lazily built and cached in :data:`_POOL_STATE`; the compile is
    deterministic (and usually inherited from the parent's compile
    cache under a fork start method), so every worker process replays
    trials from the same image as an in-process run.  The machine runs on the
    fastest scalar tier, which executes the unobserved trial phases.
    """
    state = _POOL_STATE[name]
    if state.replay is None:
        from repro.workloads import benchmark
        from repro.workloads.cache import compile_cached

        compiled = compile_cached(benchmark(name).source)
        machine = compiled.make_machine(engine=fastest_scalar_engine())
        machine.reset(compiled.program.entry)
        checkpoint = machine.checkpoint(track_memory_deltas=True)
        state.replay = (machine, checkpoint)
    return state.replay


def _execute(trial: Trial) -> tuple[InjectionResult, Counter]:
    """Run one trial in this process: its result and its steps by phase.

    The worker-pool entry point too, so a pool run's step tally is as
    exact as an in-process run's.
    """
    machine, checkpoint = _benchmark_state(trial.golden.benchmark)
    tally: Counter = Counter()
    result = _run_injection(
        machine, checkpoint, trial.golden, trial.spec, trial.budget, tally
    )
    return result, tally


def _process_pool(workers: int):
    """A *workers*-process pool on the fork context where the platform
    has one: forked workers inherit the parent's compile cache.

    Imported here, not at module level: ``concurrent.futures.process``
    and ``multiprocessing`` cost an in-process campaign about 2 MB of
    peak RSS for a pool it never starts.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        context = multiprocessing.get_context("spawn")
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def _publish_metrics(registry, report: CampaignReport, steps: Counter) -> None:
    """Record the ``campaign.*`` counters on *registry*."""
    if registry is None:
        return
    counters = {
        "campaign.trials": (
            len(report.results), "trials folded into the campaign report"
        ),
        "campaign.steps_observed": (
            steps["observed"],
            "trial steps single-stepped under the fault injector",
        ),
        "campaign.steps_compiled": (
            steps["compiled"],
            "trial steps run unobserved on the compiled tier",
        ),
        "campaign.steps_pinned": (
            steps["pinned"],
            "compiled trial steps run with a pinned stuck-at fault live",
        ),
    }
    for name, (value, help_text) in counters.items():
        registry.counter(name, help_text).inc(value)


def run_campaign(
    config: CampaignConfig,
    *,
    progress=None,
    workers: int | None = None,
    registry=None,
) -> CampaignReport:
    """Execute the campaign described by *config* deterministically.

    Draws the :class:`Trial` schedule, runs every trial, and appends
    each result to a :class:`CampaignReport` in schedule order.

    Args:
        config: the campaign to execute.
        progress: optional ``(benchmark, done, total)`` callback,
            invoked every 100 completed trials.
        workers: pool size; None or <= 1 runs trials in-process.
            Otherwise one :class:`~concurrent.futures.ProcessPoolExecutor`
            maps the trials in schedule order, so the report is
            byte-identical at any worker count.  A worker that dies
            raises :class:`~concurrent.futures.process.BrokenProcessPool`;
            on any exception, Ctrl-C included, the queued trials are
            cancelled.
        registry: optional :class:`~repro.telemetry.MetricsRegistry`
            receiving the ``campaign.*`` counters.
    """
    goldens: dict[str, GoldenRun] = {}
    trials = _campaign_schedule(config, goldens)
    report = CampaignReport(config=config, golden=goldens)
    steps: Counter = Counter()
    pool = _process_pool(workers) if workers and workers > 1 else None
    try:
        outcomes = (pool.map if pool is not None else map)(_execute, trials)
        for trial, (result, tally) in zip(trials, outcomes):
            report.add(trial.index, result)
            steps.update(tally)
            if progress is not None and len(report.results) % 100 == 0:
                progress(result.benchmark, len(report.results), len(trials))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    _publish_metrics(registry, report, steps)
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
             "to the in-process run; default 1 = in-process)",
    )
    parser.add_argument(
        "--benchmarks", default=",".join(DEFAULT_BENCHMARKS),
        help="comma-separated benchmark names",
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
    from repro.workloads import BENCHMARKS

    names = tuple(name for name in args.benchmarks.split(",") if name)
    if not names:
        parser.error("--benchmarks names no benchmark")
    known = [bench.name for bench in BENCHMARKS]
    unknown = [name for name in names if name not in known]
    if unknown:
        parser.error(
            f"unknown benchmark(s) {', '.join(unknown)} "
            f"(choose from {', '.join(known)})"
        )
    config = CampaignConfig(
        seed=args.seed,
        injections=args.injections,
        benchmarks=names,
    )

    def progress(name: str, done: int, total: int) -> None:
        """Per-benchmark progress line."""
        print(f"  {name}: {done}/{total} injections")

    def execute() -> CampaignReport | None:
        """One campaign run; None (after one line) on Ctrl-C."""
        try:
            return run_campaign(config, progress=progress, workers=args.workers)
        except KeyboardInterrupt:
            print("\ncampaign interrupted")
            return None

    report = execute()
    if report is None:
        return 130
    print(report.rate_table().render())
    summary = report.summary()

    failures: list[str] = []
    if summary["crash"]:
        failures.append(f"{summary['crash']} injection(s) crashed the simulator")
    if args.verify_determinism:
        second = execute()
        if second is None:
            return 130
        if second.fingerprint() != summary["fingerprint"]:
            failures.append("campaign is not deterministic for a fixed seed")
        else:
            print("determinism: OK (fingerprints match)")
    if args.baseline:
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
    # file also exists as ``__main__``, while pool workers import the
    # canonical module; one copy means one set of classes and one
    # per-process machine cache.
    from repro.faults.campaign import main as _canonical_main

    raise SystemExit(_canonical_main())

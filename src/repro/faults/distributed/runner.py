"""The distributed campaign runner: journal + supervisor + streaming.

:func:`run_distributed_campaign` is the crash-safe execution path
behind :func:`repro.faults.campaign.run_campaign` - it is selected
whenever any resilience option (journal, resume, shards, timeout,
retry, registry, stream) is requested.  The flow:

1. draw the deterministic sharded schedule
   (:func:`~repro.faults.distributed.sharding.shard_schedule`);
2. when resuming, recover the journal and fold every intact trial
   straight into the streaming aggregate (no re-execution);
3. execute only the remaining trials under
   :class:`~repro.faults.distributed.supervisor.TrialSupervisor`
   (retry / timeout / dead-pool recovery), appending each completed
   trial to the journal *before* folding it - write-ahead order, so a
   crash can lose at most the trial in flight;
4. return a :class:`~repro.faults.distributed.streaming.
   StreamingCampaignReport` whose fingerprint is byte-identical to the
   uninterrupted serial run's.

``Ctrl-C`` closes the journal cleanly and raises
:class:`~repro.faults.campaign.CampaignInterrupted` carrying the
resume path, so the CLI can print the resume command instead of a
traceback.
"""

from __future__ import annotations

from typing import Callable

from repro.faults.campaign import (
    CampaignConfig,
    CampaignInterrupted,
    Outcome,
    injection_record,
)
from repro.faults.distributed.journal import TrialJournal
from repro.faults.distributed.sharding import shard_schedule
from repro.faults.distributed.streaming import (
    StreamingAggregator,
    StreamingCampaignReport,
)
from repro.faults.distributed.supervisor import (
    RetryPolicy,
    SupervisionStats,
    TrialSupervisor,
)

__all__ = ["run_distributed_campaign"]


def _publish_metrics(
    registry, report: StreamingCampaignReport, syncs: int,
    stats: SupervisionStats,
) -> None:
    """Record the ``campaign.*`` operational counters on *registry*."""
    if registry is None:
        return
    info = report.resume_info
    counters = {
        "campaign.trials": (
            report.count, "trials folded into the campaign aggregate"
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


def run_distributed_campaign(
    config: CampaignConfig,
    *,
    workers: int | None = None,
    journal: str | None = None,
    resume: str | None = None,
    shards: int = 1,
    shard_index: int | None = None,
    timeout_s: float | None = None,
    retry: RetryPolicy | None = None,
    registry=None,
    progress: Callable[[str, int, int], None] | None = None,
    event_writer=None,
    chaos_hook=None,
) -> StreamingCampaignReport:
    """Run (or resume) a crash-safe streaming campaign.

    Args:
        config: the campaign to execute.
        workers: pool size; None or <= 1 runs trials in-process.
        journal: path for a fresh crash-safe trial journal (refuses to
            overwrite an existing file).
        resume: path of an existing journal to recover; its completed
            trials are folded without re-execution and new completions
            are appended to the same file.  Mutually exclusive with
            *journal*.
        shards: contiguous shard count of the schedule partition.
        shard_index: execute only this shard (journals then cover just
            its slice; fingerprints of all shards compose to the serial
            fingerprint via :func:`~repro.faults.distributed.sharding.
            compose_fingerprints`).
        timeout_s: per-trial wall-clock budget (None disables).
        retry: :class:`RetryPolicy`; default allows 3 attempts.
        registry: optional :class:`~repro.telemetry.MetricsRegistry`
            receiving the ``campaign.*`` counters.
        progress: optional ``(benchmark, done, total)`` callback,
            invoked every 100 completed trials.
        event_writer: optional
            :class:`~repro.telemetry.events.JsonlEventWriter`; receives
            one ``trial`` event per completion, ``retry`` events from
            the supervisor, and a ``resume`` event when recovering.
        chaos_hook: test/CI-only fault injector passed through to the
            supervisor (``(done, worker_pids)`` after each trial).

    Returns:
        A :class:`StreamingCampaignReport`.  Raises
        :class:`~repro.faults.campaign.CampaignInterrupted` on Ctrl-C
        (journal flushed and closed first) and
        :class:`~repro.faults.distributed.journal.JournalError` when
        *resume* points at a journal of a different campaign.
    """
    if journal is not None and resume is not None:
        raise ValueError(
            "pass either journal= (fresh) or resume= (recover), not both"
        )
    if shard_index is not None and not 0 <= shard_index < shards:
        raise ValueError(
            f"shard_index {shard_index} out of range for {shards} shard(s)"
        )

    plan = shard_schedule(config, shards)
    if shard_index is not None:
        trials = plan.shard(shard_index)
        bounds = (plan.bounds[shard_index],)
    else:
        trials = plan.trials
        bounds = plan.bounds
    total = len(trials)
    aggregate = StreamingAggregator(
        config, (trial.index for trial in trials), bounds
    )

    jour: TrialJournal | None = None
    completed: set[int] = set()
    if resume is not None:
        def recovered(trial_index: int, attempt: int, record: dict) -> None:
            """Fold one journal entry back into the aggregate."""
            aggregate.add(trial_index, record)
            completed.add(trial_index)

        jour, recovery = TrialJournal.resume(resume, config, sink=recovered)
        if event_writer is not None:
            event_writer.write({
                "event": "resume",
                "journal": resume,
                "completed": recovery.completed,
                "torn_lines": recovery.torn_lines,
            })
    elif journal is not None:
        jour = TrialJournal.create(journal, config)
    resumed = len(completed)
    remaining = [trial for trial in trials if trial.index not in completed]

    def sink(trial_index: int, record: dict, attempts: int) -> None:
        """Write-ahead journal one completed trial, then fold it."""
        if jour is not None:
            jour.append(trial_index, record, attempt=attempts)
        aggregate.add(trial_index, record)
        if event_writer is not None:
            event_writer.write({
                "event": "trial",
                "trial": trial_index,
                "attempt": attempts,
                "benchmark": record["benchmark"],
                "outcome": record["outcome"],
            })
        if progress is not None and aggregate.count % 100 == 0:
            progress(record["benchmark"], aggregate.count, total)

    supervisor = TrialSupervisor(
        workers=workers,
        timeout_s=timeout_s,
        policy=retry,
        event_writer=event_writer,
        chaos_hook=chaos_hook,
    )
    try:
        stats = supervisor.run(remaining, sink)
    except KeyboardInterrupt:
        # The journal is closed by the finally below; every completed
        # trial is already fsynced, so the run is resumable as-is.
        raise CampaignInterrupted(
            completed=aggregate.count,
            total=total,
            journal=jour.path if jour is not None else None,
        ) from None
    finally:
        if jour is not None:
            jour.close()
    syncs = jour.syncs if jour is not None else 0

    report = StreamingCampaignReport(
        config,
        plan.goldens,
        aggregate,
        resume_info={
            "resumed_trials": resumed,
            "executed_trials": stats.executed,
            "retries": stats.retries,
            "timeouts": stats.timeouts,
            "infra_errors": aggregate.overall[Outcome.INFRA_ERROR],
            "pool_restarts": stats.pool_restarts,
        },
        n_shards=shards,
        shard_index=shard_index,
    )
    _publish_metrics(registry, report, syncs, stats)
    return report

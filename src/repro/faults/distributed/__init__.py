"""Crash-safe, resumable, sharded fault campaigns.

The pieces :func:`repro.faults.campaign.run_campaign` builds its one
execution path from, so a campaign survives infrastructure that fails:

* :mod:`~repro.faults.distributed.sharding` - deterministic contiguous
  sharding of the canonical schedule; per-shard fingerprints compose
  to the whole campaign's fingerprint.
* :mod:`~repro.faults.distributed.journal` - crash-safe JSONL trial
  journals (fsync per trial, atomic index sidecar, torn-tail recovery);
  ``kill -9`` loses at most the trial in flight.
* :mod:`~repro.faults.distributed.supervisor` - per-trial wall-clock
  timeouts, bounded retry with deterministic backoff jitter,
  permanent-failure quarantine, and dead-worker pool recovery.

The load-bearing invariant across all of it: the *executed trials* are
a pure function of the campaign config, so however a campaign is
sharded, killed, resumed, or retried, its fingerprint is byte-identical
to the uninterrupted in-process run's.
"""

from repro.faults.distributed.journal import (
    DEFAULT_INDEX_INTERVAL,
    INDEX_SCHEMA,
    JOURNAL_SCHEMA,
    JournalError,
    RecoveryStats,
    TrialJournal,
    read_index,
    recover_journal,
)
from repro.faults.distributed.sharding import (
    ShardedSchedule,
    Trial,
    compose_fingerprints,
    shard_bounds,
    shard_schedule,
)
from repro.faults.distributed.supervisor import (
    RetryPolicy,
    SupervisionStats,
    TrialSupervisor,
    execute_trial,
    infra_result,
)

__all__ = [
    "DEFAULT_INDEX_INTERVAL",
    "INDEX_SCHEMA",
    "JOURNAL_SCHEMA",
    "JournalError",
    "RecoveryStats",
    "RetryPolicy",
    "ShardedSchedule",
    "SupervisionStats",
    "Trial",
    "TrialJournal",
    "TrialSupervisor",
    "compose_fingerprints",
    "execute_trial",
    "infra_result",
    "read_index",
    "recover_journal",
    "shard_bounds",
    "shard_schedule",
]

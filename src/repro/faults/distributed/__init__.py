"""Crash-safe, resumable, sharded fault campaigns.

This package scales the fault-injection campaign of
:mod:`repro.faults.campaign` from thousands of trials on one healthy
process to millions of trials on infrastructure that fails:

* :mod:`~repro.faults.distributed.sharding` - deterministic contiguous
  sharding of the canonical schedule; per-shard fingerprints compose
  to the serial campaign fingerprint.
* :mod:`~repro.faults.distributed.journal` - crash-safe JSONL trial
  journals (fsync per trial, atomic index sidecar, torn-tail recovery);
  ``kill -9`` loses at most the trial in flight.
* :mod:`~repro.faults.distributed.supervisor` - per-trial wall-clock
  timeouts, bounded retry with deterministic backoff jitter,
  permanent-failure quarantine, and dead-worker pool recovery.
* :mod:`~repro.faults.distributed.streaming` - O(1)-memory aggregation
  into the same rate table / summary / fingerprint the in-memory report
  produces.
* :mod:`~repro.faults.distributed.runner` - the orchestrating
  :func:`run_distributed_campaign` behind
  ``run_campaign(journal=..., resume=..., shards=...)``.

The load-bearing invariant across all of it: the *executed trials* are
a pure function of the campaign config, so however a campaign is
sharded, killed, resumed, or retried, its fingerprint is byte-identical
to the uninterrupted serial run's.
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
from repro.faults.distributed.runner import run_distributed_campaign
from repro.faults.distributed.sharding import (
    ShardedSchedule,
    Trial,
    compose_fingerprints,
    shard_bounds,
    shard_schedule,
)
from repro.faults.distributed.streaming import (
    StreamingAggregator,
    StreamingCampaignReport,
)
from repro.faults.distributed.supervisor import (
    RetryPolicy,
    SupervisionStats,
    TrialSupervisor,
    execute_trial,
    infra_record,
)

__all__ = [
    "DEFAULT_INDEX_INTERVAL",
    "INDEX_SCHEMA",
    "JOURNAL_SCHEMA",
    "JournalError",
    "RecoveryStats",
    "RetryPolicy",
    "ShardedSchedule",
    "StreamingAggregator",
    "StreamingCampaignReport",
    "SupervisionStats",
    "Trial",
    "TrialJournal",
    "TrialSupervisor",
    "compose_fingerprints",
    "execute_trial",
    "infra_record",
    "read_index",
    "recover_journal",
    "run_distributed_campaign",
    "shard_bounds",
    "shard_schedule",
]

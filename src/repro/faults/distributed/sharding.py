"""Deterministic sharding of a campaign's fault schedule.

A shard is a *contiguous* slice of the canonical schedule: the full
spec stream is drawn in order from the campaign RNG (the same
generator and order however the trials later run), then partitioned
into ``n_shards`` balanced, order-preserving ranges.  Contiguity is
what makes fingerprints compose: concatenating the shards' per-trial
digest streams in shard order reproduces the unsharded digest stream,
so :func:`compose_fingerprints` rebuilds exactly the unsharded
:meth:`~repro.faults.campaign.CampaignReport.fingerprint`.

Each shard can then run in its own process or on its own machine
(``run_campaign(shard_index=i, shards=n, journal=...)``), journal its
trials independently, and be merged back without re-execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.faults.campaign import (
    CampaignConfig,
    FingerprintStream,
    GoldenRun,
    Trial,
    _campaign_schedule,
)

__all__ = [
    "Trial",
    "ShardedSchedule",
    "compose_fingerprints",
    "shard_bounds",
    "shard_schedule",
]


def shard_bounds(n_trials: int, n_shards: int) -> tuple[tuple[int, int], ...]:
    """Contiguous balanced ``[start, stop)`` ranges covering the schedule.

    The first ``n_trials % n_shards`` shards get one extra trial, the
    same distribution rule the campaign uses to split injections across
    benchmarks - deterministic, order-preserving, and independent of
    everything but the two counts.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    share, extra = divmod(n_trials, n_shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(n_shards):
        size = share + (1 if index < extra else 0)
        bounds.append((start, start + size))
        start += size
    return tuple(bounds)


@dataclass(frozen=True)
class ShardedSchedule:
    """The full campaign schedule plus its shard partition.

    Attributes:
        config: the campaign this schedule was drawn for.
        goldens: benchmark name -> :class:`GoldenRun` reference.
        trials: every trial, in canonical schedule order.
        n_shards: how many contiguous shards the schedule is split into.
        bounds: per-shard ``[start, stop)`` trial-index ranges.
    """

    config: CampaignConfig
    goldens: dict[str, GoldenRun]
    trials: tuple[Trial, ...]
    n_shards: int
    bounds: tuple[tuple[int, int], ...]

    def shard(self, index: int) -> tuple[Trial, ...]:
        """The trials of shard *index* (contiguous, schedule-ordered)."""
        if not 0 <= index < self.n_shards:
            raise IndexError(
                f"shard index {index} out of range for {self.n_shards} shard(s)"
            )
        start, stop = self.bounds[index]
        return self.trials[start:stop]

    def shard_of(self, trial_index: int) -> int:
        """Which shard the trial at *trial_index* belongs to."""
        for shard, (start, stop) in enumerate(self.bounds):
            if start <= trial_index < stop:
                return shard
        raise IndexError(f"trial index {trial_index} outside the schedule")

    def sizes(self) -> list[int]:
        """Per-shard trial counts, in shard order."""
        return [stop - start for start, stop in self.bounds]


def shard_schedule(config: CampaignConfig, n_shards: int) -> ShardedSchedule:
    """Draw the campaign schedule and partition it into *n_shards*.

    The trials are drawn in order from the campaign RNG, so two calls
    with the same config produce the same schedule, and the per-shard
    SHA-256 fingerprints compose (ordered hash-of-hashes via
    :func:`compose_fingerprints`) to exactly the unsharded
    :meth:`~repro.faults.campaign.CampaignReport.fingerprint`.
    """
    goldens: dict[str, GoldenRun] = {}
    trials = tuple(_campaign_schedule(config, goldens))
    return ShardedSchedule(
        config=config,
        goldens=goldens,
        trials=trials,
        n_shards=n_shards,
        bounds=shard_bounds(len(trials), n_shards),
    )


def compose_fingerprints(shard_digests: Iterable[Iterable[str]]) -> str:
    """Fold per-shard trial-digest streams into the campaign fingerprint.

    *shard_digests* yields, **in shard order**, each shard's ordered
    per-trial digests (:func:`~repro.faults.campaign.trial_digest`).
    Because shards are contiguous slices of the schedule, the
    concatenation is the unsharded digest stream, and the result equals
    the uninterrupted unsharded run's
    :meth:`~repro.faults.campaign.CampaignReport.fingerprint` - the
    byte-identity invariant the crash/resume CI gate enforces.
    """
    stream = FingerprintStream()
    for digests in shard_digests:
        for digest in digests:
            stream.add(digest)
    return stream.hexdigest()

"""Streaming campaign aggregation: O(1) memory at any trial count.

The in-memory :class:`~repro.faults.campaign.CampaignReport` keeps every
:class:`~repro.faults.campaign.InjectionResult` in a list - fine for
thousands of trials, fatal for millions.  The streaming path folds
each canonical injection record into fixed-size state the moment it
exists (from a live trial or a recovered journal line) and then drops
it:

* outcome tallies, per fault target (the rate table);
* the ordered hash-of-hashes fingerprint
  (:class:`~repro.faults.campaign.FingerprintStream`);
* one fingerprint stream per shard, so the report can publish
  composable per-shard fingerprints without retaining a single trial.

:class:`StreamingCampaignReport` then renders the identical rate
table, summary, and fingerprint the in-memory report would have produced
for the same trials - the equivalence the test suite pins - plus the
``shards`` / ``resume`` manifest sections the distributed machinery
adds.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.faults.campaign import (
    CampaignConfig,
    FingerprintStream,
    GoldenRun,
    Outcome,
    campaign_manifest_doc,
    rate_table_from_counts,
    summary_from_counts,
)
from repro.faults.models import FaultTarget

__all__ = [
    "StreamingAggregator",
    "StreamingCampaignReport",
]


class StreamingAggregator:
    """Folds ordered injection records into fixed-size aggregate state.

    Records must arrive in schedule order (the supervisor and journal
    recovery both guarantee it); the aggregator enforces the expected
    index sequence so a shuffled or foreign record stream fails loudly
    instead of silently corrupting the fingerprint.

    Args:
        config: the campaign being aggregated.
        indices: the expected trial indices, in order (the full
            schedule, or one shard's slice).
        bounds: per-shard ``[start, stop)`` ranges; each completed
            trial also feeds its shard's own fingerprint stream.
    """

    def __init__(
        self,
        config: CampaignConfig,
        indices: Iterable[int],
        bounds: tuple[tuple[int, int], ...] = (),
    ) -> None:
        self.config = config
        self._expected = iter(indices)
        self.by_target: dict[FaultTarget, Counter] = {}
        self.overall: Counter = Counter()
        self.count = 0
        self._stream = FingerprintStream()
        self._bounds = tuple(bounds)
        self._shard_streams = [FingerprintStream() for _ in self._bounds]
        self.event_counts: Counter = Counter()

    def add(self, index: int, record: dict) -> str:
        """Fold one canonical record; returns its per-trial digest.

        Raises :class:`ValueError` when *index* is not the next trial
        the aggregate expects - out-of-order folding would silently
        change the fingerprint, so it is never allowed.
        """
        expected = next(self._expected, None)
        if expected != index:
            raise ValueError(
                f"streaming aggregation is ordered: expected trial "
                f"{expected}, got {index}"
            )
        target = FaultTarget(record["target"])
        outcome = Outcome(record["outcome"])
        self.by_target.setdefault(target, Counter())[outcome] += 1
        self.overall[outcome] += 1
        self.count += 1
        digest = self._stream.add_record(record)
        for shard, (start, stop) in enumerate(self._bounds):
            if start <= index < stop:
                self._shard_streams[shard].add(digest)
                break
        return digest

    def fold_events(self, events: Iterable[dict]) -> int:
        """Tally a JSONL trace-event stream (PR 5 schema) by kind.

        Counts land in :attr:`event_counts` and surface through the
        campaign manifest's ``events`` section - constant memory, so a
        multi-gigabyte event stream folds as cheaply as an empty one.
        Returns how many events were folded.
        """
        folded = 0
        for event in events:
            kind = event.get("event")
            if isinstance(kind, str):
                self.event_counts[kind] += 1
                folded += 1
        return folded

    def fingerprint(self) -> str:
        """The ordered hash-of-hashes over every folded record."""
        return self._stream.hexdigest()

    def shard_fingerprints(self) -> list[str]:
        """Per-shard fingerprints (compose to :meth:`fingerprint`)."""
        return [stream.hexdigest() for stream in self._shard_streams]

    def shard_sizes(self) -> list[int]:
        """Folded trial counts per shard."""
        return [stream.count for stream in self._shard_streams]


class StreamingCampaignReport:
    """A campaign report built without retaining per-trial results.

    Offers the same aggregate surface as
    :class:`~repro.faults.campaign.CampaignReport` - ``rate_table()``,
    ``summary()``, ``fingerprint()``, ``manifest()`` - and produces
    byte-identical output for the same executed trials.  What it does
    *not* offer is ``results`` / ``as_records()``: per-trial data lives
    in the journal, not in memory.

    Attributes:
        config: the campaign configuration.
        golden: benchmark name -> :class:`GoldenRun` reference.
        aggregate: the folded :class:`StreamingAggregator`.
        resume_info: operational counters of this execution
            (``resumed_trials``, ``executed_trials``, ``retries``,
            ``timeouts``, ``infra_errors``, ``pool_restarts``).
        n_shards: shard count of the schedule partition.
        shard_index: the single shard this report covers, or None for
            the whole campaign.
    """

    def __init__(
        self,
        config: CampaignConfig,
        golden: dict[str, GoldenRun],
        aggregate: StreamingAggregator,
        *,
        resume_info: dict | None = None,
        n_shards: int = 1,
        shard_index: int | None = None,
    ) -> None:
        self.config = config
        self.golden = golden
        self.aggregate = aggregate
        self.n_shards = n_shards
        self.shard_index = shard_index
        self.resume_info = resume_info or {
            "resumed_trials": 0,
            "executed_trials": aggregate.count,
            "retries": 0,
            "timeouts": 0,
            "infra_errors": aggregate.overall[Outcome.INFRA_ERROR],
            "pool_restarts": 0,
        }

    @property
    def count(self) -> int:
        """Trials folded into this report."""
        return self.aggregate.count

    def outcome_counts(self) -> Counter:
        """Tally of trials by outcome across the whole campaign."""
        return Counter(self.aggregate.overall)

    def counts_by_target(self) -> dict[FaultTarget, Counter]:
        """Per-fault-target tallies of trials by outcome."""
        return {
            target: Counter(counts)
            for target, counts in self.aggregate.by_target.items()
        }

    def rate_table(self):
        """The R1 rate table - identical to the in-memory report's."""
        return rate_table_from_counts(
            self.config, self.aggregate.by_target, self.aggregate.count
        )

    def fingerprint(self) -> str:
        """Ordered hash-of-hashes fingerprint (equals the in-memory one)."""
        return self.aggregate.fingerprint()

    def summary(self) -> dict:
        """Aggregate outcome counts plus the campaign fingerprint."""
        return summary_from_counts(
            self.config, self.aggregate.overall, self.aggregate.count,
            self.fingerprint(),
        )

    def shards_section(self) -> dict:
        """The manifest's ``shards`` section (count/sizes/fingerprints)."""
        if self.aggregate.shard_sizes():
            return {
                "count": self.n_shards,
                "sizes": self.aggregate.shard_sizes(),
                "fingerprints": self.aggregate.shard_fingerprints(),
            }
        return {
            "count": self.n_shards,
            "sizes": [self.aggregate.count],
            "fingerprints": [self.fingerprint()],
        }

    def manifest(self) -> dict:
        """Canonical campaign manifest with shard and resume sections.

        Deterministic given the same executed trials and the same
        infrastructure history; the ``resume`` section is operational
        by design (a resumed run reports its resumed count), while
        ``summary.fingerprint`` stays byte-identical either way.
        """
        return campaign_manifest_doc(
            self.config,
            self.golden,
            self.aggregate.by_target,
            self.summary(),
            shards=self.shards_section(),
            resume=dict(self.resume_info),
            events=dict(self.aggregate.event_counts),
        )

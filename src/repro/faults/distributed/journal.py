"""Crash-safe, resumable trial journals (JSONL, one line per trial).

The journal is the campaign's write-ahead record: every completed
trial is appended as one canonical-JSON line and fsynced before the
runner moves on, so ``kill -9`` at any instant loses at most the trial
in flight.  Recovery (:func:`recover_journal`) streams the file back,
verifies it belongs to the same campaign (config digest), drops a torn
final line (the partial write of the trial that was dying with the
process), and hands each intact record to a sink - O(1) memory however
many trials the journal holds.

Layout::

    line 0    header   {"schema", "config", "digest"}
    line 1..  entries  {"trial", "attempt", "record"}   (trial strictly
                                                         increasing)

Alongside the journal an *index* sidecar (``<path>.idx``) summarises
progress (completed count, last trial, byte offset).  It is written
with the classic crash-safe dance - write to a temp file, fsync,
atomic ``os.replace`` - so the sidecar is always either the old or the
new version, never a torn one.  Recovery never *requires* the index
(the journal is self-describing); it exists as a cheap integrity
cross-check and a progress probe for operators.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

from repro.faults.campaign import CampaignConfig, config_dict, config_digest

__all__ = [
    "INDEX_SCHEMA",
    "JOURNAL_SCHEMA",
    "JournalError",
    "RecoveryStats",
    "TrialJournal",
    "read_index",
    "recover_journal",
]

#: Schema tag on the journal's header line.
JOURNAL_SCHEMA = "risc1-repro/fault-journal/v1"
#: Schema tag of the atomic index sidecar.
INDEX_SCHEMA = "risc1-repro/fault-journal-index/v1"

#: Journal entries between two index-sidecar rewrites.
DEFAULT_INDEX_INTERVAL = 64

#: A sink receives ``(trial_index, attempt, record)`` per intact entry.
RecoverySink = Callable[[int, int, dict], None]


class JournalError(ValueError):
    """The journal is unusable: wrong campaign, corrupt body, or both."""


@dataclass(frozen=True)
class RecoveryStats:
    """What :func:`recover_journal` found.

    Attributes:
        completed: intact trial entries recovered (after torn-line drop).
        last_trial: highest recovered trial index, or None when empty.
        torn_lines: trailing partial lines dropped (0 or 1).
        good_bytes: byte offset of the last intact line's newline; a
            resume truncates the file here before appending.
        digest: the campaign config digest from the journal header.
    """

    completed: int
    last_trial: int | None
    torn_lines: int
    good_bytes: int
    digest: str


def _canonical_line(payload: dict) -> str:
    """One canonical-JSON journal line (sorted keys, trailing newline)."""
    return json.dumps(payload, sort_keys=True) + "\n"


def recover_journal(
    path: str,
    *,
    expected_digest: str | None = None,
    sink: RecoverySink | None = None,
) -> RecoveryStats:
    """Stream a journal back, validating as it goes.

    Checks, in order: the header line parses and carries
    :data:`JOURNAL_SCHEMA`; the header digest matches
    *expected_digest* when one is given (resuming under a different
    :class:`CampaignConfig` is always an error, never a silent merge);
    trial indices are strictly increasing (the runner folds and
    journals in schedule order, so anything else is corruption).  A
    torn **final** line - the in-flight write of a killed process - is
    detected (missing newline or undecodable JSON) and dropped; a
    malformed line anywhere else raises :class:`JournalError`.

    Each intact entry is passed to *sink* as
    ``(trial_index, attempt, record)`` in order, so callers can rebuild
    results one entry at a time without reading the whole file first.
    """
    completed = 0
    last_trial: int | None = None
    torn = 0
    good_bytes = 0
    digest = ""
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle):
            complete = raw.endswith(b"\n")
            try:
                payload = json.loads(raw)
                if not isinstance(payload, dict):
                    raise ValueError("journal lines are JSON objects")
            except ValueError:
                if complete:
                    raise JournalError(
                        f"{path}: corrupt journal line {line_no}"
                    ) from None
                torn += 1
                break
            if not complete:
                # Decodable but unterminated: still a torn tail - the
                # fsync that would have sealed it never happened.
                torn += 1
                break
            if line_no == 0:
                if payload.get("schema") != JOURNAL_SCHEMA:
                    raise JournalError(
                        f"{path}: not a fault journal "
                        f"(schema {payload.get('schema')!r})"
                    )
                digest = payload.get("digest", "")
                if expected_digest is not None and digest != expected_digest:
                    raise JournalError(
                        f"{path}: journal belongs to a different campaign "
                        f"(config digest {digest[:16]}... != "
                        f"expected {expected_digest[:16]}...)"
                    )
                good_bytes += len(raw)
                continue
            trial = payload.get("trial")
            record = payload.get("record")
            if not isinstance(trial, int) or not isinstance(record, dict):
                raise JournalError(
                    f"{path}: malformed entry on line {line_no}"
                )
            if last_trial is not None and trial <= last_trial:
                raise JournalError(
                    f"{path}: trial indices must strictly increase "
                    f"({trial} after {last_trial} on line {line_no})"
                )
            if sink is not None:
                sink(trial, int(payload.get("attempt", 1)), record)
            last_trial = trial
            completed += 1
            good_bytes += len(raw)
    if not digest:
        raise JournalError(f"{path}: empty journal (no header line)")
    return RecoveryStats(
        completed=completed,
        last_trial=last_trial,
        torn_lines=torn,
        good_bytes=good_bytes,
        digest=digest,
    )


def read_index(path: str) -> dict | None:
    """Parse a journal's index sidecar, or None when absent/unreadable.

    The sidecar is advisory (recovery trusts only the journal body), so
    a missing or stale index is never an error.
    """
    try:
        with open(path + ".idx") as handle:
            payload = json.load(handle)
    except (FileNotFoundError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


class TrialJournal:
    """Append-only crash-safe trial log for one campaign.

    Create with :meth:`create` (fresh journal, fails on an existing
    file) or :meth:`resume` (recover + reopen for append).  Every
    :meth:`append` writes one canonical-JSON line, flushes, and fsyncs
    before returning, so a completed trial survives any subsequent
    crash; the index sidecar is refreshed atomically every
    ``index_interval`` entries and on :meth:`close`.
    """

    def __init__(
        self,
        path: str,
        config: CampaignConfig,
        *,
        index_interval: int = DEFAULT_INDEX_INTERVAL,
    ) -> None:
        self.path = str(path)
        self.config = config
        self.digest = config_digest(config)
        self.index_interval = max(1, index_interval)
        self.completed = 0
        self.last_trial: int | None = None
        self.syncs = 0
        self._handle = None
        self._since_index = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls, path: str, config: CampaignConfig, **kwargs
    ) -> "TrialJournal":
        """Start a fresh journal at *path* (refuses to overwrite one)."""
        journal = cls(path, config, **kwargs)
        handle = open(journal.path, "x", encoding="utf-8")
        journal._handle = handle
        handle.write(_canonical_line({
            "schema": JOURNAL_SCHEMA,
            "config": config_dict(config),
            "digest": journal.digest,
        }))
        journal._fsync()
        return journal

    @classmethod
    def resume(
        cls,
        path: str,
        config: CampaignConfig,
        *,
        sink: RecoverySink | None = None,
        **kwargs,
    ) -> tuple["TrialJournal", RecoveryStats]:
        """Recover *path* and reopen it for appending.

        Replays every intact entry through *sink* (in order), truncates
        any torn tail off the file, and positions the journal so the
        next :meth:`append` continues the same stream.  Raises
        :class:`JournalError` when the journal belongs to a different
        campaign config.
        """
        journal = cls(path, config, **kwargs)
        stats = recover_journal(
            path, expected_digest=journal.digest, sink=sink
        )
        if stats.torn_lines:
            # Drop the torn tail so appended lines start on a clean
            # boundary; the dropped trial simply re-executes.
            with open(path, "r+b") as raw:
                raw.truncate(stats.good_bytes)
                raw.flush()
                os.fsync(raw.fileno())
        journal._handle = open(path, "a", encoding="utf-8")
        journal.completed = stats.completed
        journal.last_trial = stats.last_trial
        return journal, stats

    # -- writing -------------------------------------------------------------

    def _fsync(self) -> None:
        """Flush Python and OS buffers for the journal body."""
        assert self._handle is not None
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.syncs += 1

    def append(self, trial: int, record: dict, attempt: int = 1) -> None:
        """Durably log one completed trial (one fsynced JSONL line)."""
        if self._handle is None:
            raise JournalError(f"{self.path}: journal is closed")
        if self.last_trial is not None and trial <= self.last_trial:
            raise JournalError(
                f"{self.path}: trial {trial} appended after {self.last_trial}"
            )
        self._handle.write(_canonical_line({
            "trial": trial,
            "attempt": attempt,
            "record": record,
        }))
        self._fsync()
        self.last_trial = trial
        self.completed += 1
        self._since_index += 1
        if self._since_index >= self.index_interval:
            self.write_index()

    def write_index(self) -> None:
        """Atomically refresh the index sidecar (temp + fsync + rename)."""
        if self._handle is None:
            return
        payload = _canonical_line({
            "schema": INDEX_SCHEMA,
            "digest": self.digest,
            "completed": self.completed,
            "last_trial": self.last_trial,
            "bytes": self._handle.tell(),
        })
        tmp_path = self.path + ".idx.tmp"
        with open(tmp_path, "w", encoding="utf-8") as tmp:
            tmp.write(payload)
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_path, self.path + ".idx")
        self._since_index = 0

    def close(self) -> None:
        """Flush everything, write a final index record, and close."""
        if self._handle is None:
            return
        self._fsync()
        self.write_index()
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "TrialJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

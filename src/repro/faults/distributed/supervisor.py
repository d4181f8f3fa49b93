"""Worker supervision: retries, timeouts, and dead-pool recovery.

The supervisor sits between the sharded schedule and the trial
executors and guarantees *progress* and *byte-identity* in the face of
infrastructure failure:

* **per-trial wall-clock timeouts** - each trial runs with a monotonic
  deadline; the trial step loop checks it every 1024 steps (the same
  cadence as the machine's ``wall_clock_limit`` watchdog) and raises
  :class:`~repro.faults.campaign.TrialTimeoutError` past it;
* **bounded retry with exponential backoff + deterministic jitter** -
  transient failures (timeouts, worker exceptions) re-dispatch the
  trial up to :attr:`RetryPolicy.max_attempts` times; backoff delays
  are a pure function of ``(policy.seed, trial index, attempt)``, so
  the retry order of a flaky campaign is itself reproducible;
* **permanent-failure quarantine** - a trial that exhausts its
  attempts is recorded as :attr:`~repro.faults.campaign.Outcome.
  INFRA_ERROR` and the campaign continues: one poisoned trial degrades
  the report, it does not abort it;
* **dead-worker detection and re-dispatch** - the process pool is a
  :class:`~concurrent.futures.ProcessPoolExecutor`; a worker dying
  (OOM kill, ``kill -9``) breaks the pool, which the supervisor
  detects, rebuilds, and re-dispatches the in-flight window into.

Trial *execution* is deterministic (same spec, same machine image =>
same record), so none of this machinery can change a healthy
campaign's fingerprint - it only decides how many times the host gets
to fail before a trial is written off.
"""

from __future__ import annotations

import functools
import hashlib
import random
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.faults.campaign import (
    TrialTimeoutError,
    _benchmark_state,
    _run_injection,
    injection_record,
)
from repro.faults.distributed.sharding import Trial

__all__ = [
    "RetryPolicy",
    "SupervisionStats",
    "TrialSupervisor",
    "execute_trial",
    "infra_record",
]

#: A sink receives ``(trial_index, record, attempts)`` per finished trial.
TrialSink = Callable[[int, dict, int], None]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Attributes:
        max_attempts: total attempts per trial before quarantine.
        base_delay_s: backoff before the second attempt.
        factor: multiplier per further attempt.
        max_delay_s: backoff ceiling.
        jitter: fraction of the backoff added as seeded jitter.
        seed: jitter seed; same seed => same delay schedule, so a
            retried campaign replays its waits exactly.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    factor: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delay(self, trial_index: int, attempt: int) -> float:
        """Seconds to wait before re-dispatching *trial_index*.

        *attempt* is the 1-based count of attempts already performed.
        Pure function of ``(seed, trial_index, attempt)``: the jitter
        comes from a :class:`random.Random` seeded with a digest of the
        triple, not from global randomness or the clock.
        """
        backoff = min(
            self.base_delay_s * self.factor ** (attempt - 1),
            self.max_delay_s,
        )
        token = f"{self.seed}:{trial_index}:{attempt}".encode()
        digest = hashlib.sha256(token).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        return backoff * (1.0 + self.jitter * rng.random())


@dataclass
class SupervisionStats:
    """Operational counters of one supervised execution."""

    executed: int = 0
    retries: int = 0
    timeouts: int = 0
    infra_errors: int = 0
    pool_restarts: int = 0
    #: per-trial error strings of quarantined trials (trial -> detail)
    quarantined: dict[int, str] = field(default_factory=dict)
    #: steps the executed trials ran, by phase: ``observed``
    #: single-stepped under the fault injector, ``compiled`` unobserved
    trial_steps: Counter = field(default_factory=Counter)


def execute_trial(
    trial: Trial, timeout_s: float | None = None, tally: Counter | None = None
) -> dict:
    """Run one trial in this process and return its canonical record.

    Uses the per-process machine cache (the same one the worker pool
    uses), arms the wall-clock deadline when *timeout_s* is given, and
    serialises the classification via
    :func:`~repro.faults.campaign.injection_record`.  *tally*, when
    given, counts the trial's steps by phase.
    """
    machine, checkpoint = _benchmark_state(trial.golden.benchmark)
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    result = _run_injection(
        machine, checkpoint, trial.golden, trial.spec, trial.budget,
        deadline=deadline, tally=tally,
    )
    return injection_record(result)


def _worker_execute(payload) -> tuple[int, dict, Counter]:
    """Pool-side entry point: run a trial, return ``(index, record,
    steps by phase)``."""
    trial, timeout_s = payload
    tally: Counter = Counter()
    record = execute_trial(trial, timeout_s, tally)
    return trial.index, record, tally


def infra_record(trial: Trial, error: BaseException | str) -> dict:
    """The quarantine record of a trial the infrastructure failed.

    Mirrors :func:`~repro.faults.campaign.injection_record` so INFRA
    quarantines flow through journals, fingerprints, and rate tables
    exactly like architectural outcomes.
    """
    from repro.faults.campaign import Outcome

    spec = trial.spec
    return {
        "benchmark": trial.golden.benchmark,
        "target": spec.target.value,
        "kind": spec.kind.value,
        "location": spec.location,
        "bits": list(spec.bits),
        "trigger": spec.trigger.describe(),
        "outcome": Outcome.INFRA_ERROR.value,
        "halt": "INFRA_ERROR",
        "trap_cause": None,
        "instructions": 0,
        "result": None,
    }


def _is_timeout(error: BaseException) -> bool:
    """Whether *error* is (or wraps) a trial wall-clock timeout."""
    return isinstance(error, TrialTimeoutError)


class TrialSupervisor:
    """Executes a trial sequence with retry, timeout, and pool recovery.

    Results are delivered to the sink **in schedule order** whatever
    the completion order, which is what lets the streaming aggregator
    fold them with O(1) memory and reproduce the serial fingerprint.

    Args:
        workers: pool size; None or <= 1 executes in-process.
        timeout_s: per-trial wall-clock budget (None disables).
        policy: the :class:`RetryPolicy`; default allows 3 attempts.
        sleep: backoff sleep hook (injectable for tests).
        execute: trial executor hook (injectable for tests); receives
            ``(trial, timeout_s)`` and returns the canonical record.
        event_writer: optional
            :class:`~repro.telemetry.events.JsonlEventWriter` receiving
            ``retry`` events as supervision decisions happen.
        chaos_hook: optional callable ``(done, worker_pids)`` invoked
            after every folded trial - CI uses it to SIGKILL a live
            worker mid-campaign and prove the pool recovers.
    """

    #: In-flight submission window per worker (bounds parent memory).
    WINDOW_PER_WORKER = 4

    def __init__(
        self,
        *,
        workers: int | None = None,
        timeout_s: float | None = None,
        policy: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
        execute: Callable[[Trial, float | None], dict] | None = None,
        event_writer=None,
        chaos_hook: Callable[[int, list[int]], None] | None = None,
    ) -> None:
        self.workers = workers or 1
        self.timeout_s = timeout_s
        self.policy = policy or RetryPolicy()
        self.sleep = sleep
        self.stats = SupervisionStats()
        self.execute = execute or functools.partial(
            execute_trial, tally=self.stats.trial_steps
        )
        self.event_writer = event_writer
        self.chaos_hook = chaos_hook

    # -- shared failure handling --------------------------------------------

    def _note_failure(
        self, trial: Trial, attempts: int, error: BaseException
    ) -> dict | None:
        """Account one failed attempt; returns a quarantine record when
        the trial is out of attempts, else None (meaning: retry)."""
        if _is_timeout(error):
            self.stats.timeouts += 1
        if attempts >= self.policy.max_attempts:
            self.stats.infra_errors += 1
            detail = f"{type(error).__name__}: {error}"
            self.stats.quarantined[trial.index] = detail
            return infra_record(trial, error)
        self.stats.retries += 1
        delay = self.policy.delay(trial.index, attempts)
        if self.event_writer is not None:
            self.event_writer.write({
                "event": "retry",
                "trial": trial.index,
                "attempt": attempts,
                "delay_s": round(delay, 6),
                "error": f"{type(error).__name__}: {error}",
            })
        self.sleep(delay)
        return None

    # -- serial path ---------------------------------------------------------

    def _run_serial(self, trials: Sequence[Trial], sink: TrialSink) -> None:
        for trial in trials:
            attempts = 0
            while True:
                attempts += 1
                try:
                    record = self.execute(trial, self.timeout_s)
                except KeyboardInterrupt:
                    raise
                except BaseException as error:  # noqa: BLE001 - supervised
                    record = self._note_failure(trial, attempts, error)
                    if record is None:
                        continue
                break
            self.stats.executed += 1
            sink(trial.index, record, attempts)
            if self.chaos_hook is not None:
                self.chaos_hook(self.stats.executed, [])

    # -- pool path -----------------------------------------------------------

    def _make_executor(self):
        """A fresh fork-preferring :class:`ProcessPoolExecutor`."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            ctx = multiprocessing.get_context("spawn")
        return ProcessPoolExecutor(max_workers=self.workers, mp_context=ctx)

    @staticmethod
    def _worker_pids(executor) -> list[int]:
        """Live worker PIDs of *executor* (best effort)."""
        processes = getattr(executor, "_processes", None) or {}
        return sorted(processes.keys())

    @staticmethod
    def _shutdown(executor, *, kill: bool) -> None:
        """Tear an executor down, optionally killing stuck workers."""
        import signal

        pids = TrialSupervisor._worker_pids(executor)
        executor.shutdown(wait=not kill, cancel_futures=True)
        if kill:
            import os

            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass

    def _run_pool(self, trials: Sequence[Trial], sink: TrialSink) -> None:
        from concurrent.futures import TimeoutError as FutureTimeout
        from concurrent.futures.process import BrokenProcessPool

        executor = self._make_executor()
        window: deque = deque()  # (trial, future, attempts)
        pending = deque(trials)
        window_size = self.workers * self.WINDOW_PER_WORKER
        # Parent-side hard deadline: the in-worker deadline is
        # cooperative (checked at step boundaries), so a truly wedged
        # worker is reaped from outside at a generous multiple.
        hard_timeout = (
            None if self.timeout_s is None else self.timeout_s * 5 + 60.0
        )

        def submit(trial: Trial, attempts: int) -> None:
            future = executor.submit(
                _worker_execute, (trial, self.timeout_s)
            )
            window.append((trial, future, attempts))

        try:
            while window or pending:
                while pending and len(window) < window_size:
                    try:
                        submit(pending[0], 0)
                    except BrokenProcessPool:
                        # A worker died since the last result.  With
                        # futures in flight, the head's result raises
                        # and recovers below; with none, rebuild here.
                        if window:
                            break
                        self.stats.pool_restarts += 1
                        self._shutdown(executor, kill=True)
                        executor = self._make_executor()
                        continue
                    pending.popleft()
                trial, future, attempts = window[0]
                attempts += 1
                try:
                    _index, record, tally = future.result(timeout=hard_timeout)
                except KeyboardInterrupt:
                    raise
                except (BrokenProcessPool, FutureTimeout) as error:
                    # A worker died out from under the pool (or wedged
                    # past the hard deadline): every queued future is
                    # void.  Rebuild the pool and re-dispatch the whole
                    # window; the head trial is charged the attempt,
                    # since the dead worker was most likely running it.
                    self.stats.pool_restarts += 1
                    resubmit = [(t, a) for t, _f, a in window]
                    window.clear()
                    self._shutdown(executor, kill=True)
                    executor = self._make_executor()
                    record = self._note_failure(trial, attempts, error)
                    if record is not None:
                        resubmit = resubmit[1:]  # head quarantined
                    for other, other_attempts in resubmit:
                        submit(
                            other,
                            other_attempts + (1 if other is trial else 0),
                        )
                    if record is None:
                        continue
                    # fall through: deliver the head's quarantine record
                except BaseException as error:  # noqa: BLE001 - supervised
                    window.popleft()
                    record = self._note_failure(trial, attempts, error)
                    if record is None:
                        # Preserve schedule order: the retried trial
                        # goes back to the *front* of the window.
                        future = executor.submit(
                            _worker_execute, (trial, self.timeout_s)
                        )
                        window.appendleft((trial, future, attempts))
                        continue
                else:
                    window.popleft()
                    self.stats.trial_steps.update(tally)
                self.stats.executed += 1
                sink(trial.index, record, attempts)
                if self.chaos_hook is not None:
                    self.chaos_hook(
                        self.stats.executed, self._worker_pids(executor)
                    )
        except KeyboardInterrupt:
            self._shutdown(executor, kill=True)
            raise
        self._shutdown(executor, kill=False)

    # -- entry point ---------------------------------------------------------

    def run(self, trials: Sequence[Trial], sink: TrialSink) -> SupervisionStats:
        """Execute *trials*, delivering records to *sink* in order.

        Returns the accumulated :class:`SupervisionStats`.  Raises
        :class:`KeyboardInterrupt` through (after tearing the pool
        down) so the campaign runner can flush its journal and surface
        a structured :class:`~repro.faults.campaign.CampaignInterrupted`.
        """
        if self.workers > 1:
            self._run_pool(trials, sink)
        else:
            self._run_serial(trials, sink)
        return self.stats

"""Async execution scheduler: the service's brain.

One :class:`ExecutionScheduler` multiplexes every concurrent client
session over a shared ``ProcessPoolExecutor`` (simulation is CPU-bound;
the asyncio loop only coordinates).  A submitted job flows through, in
order:

1. **token-bucket rate limiting** per tenant (:class:`TokenBucket`);
2. **manifest-store lookup** - a hit answers in microseconds without
   touching the pool;
3. **single-flight deduplication** - concurrent identical (key, engine)
   requests collapse onto one in-flight simulation and all receive its
   manifest;
4. **dispatch** - scalar jobs run one-per-worker; ``batch``-tier jobs
   with the same workload/config coalesce for a few milliseconds and
   run as one numpy lockstep call (:func:`repro.cpu.batch.run_batch`);
5. **supervision** - per-job wall-clock deadline (the machine's own
   cooperative watchdog) plus a parent-side hard timeout, bounded retry
   with the deterministic backoff of
   :class:`repro.faults.distributed.RetryPolicy`, dead-pool rebuild on
   ``BrokenProcessPool`` (a SIGKILLed worker fails only its own
   attempt; other in-flight sessions retry on the fresh pool), and
   quarantine as an ``INFRA_ERROR`` response when attempts run out;
6. **store write-back** - deterministic results are persisted for the
   next request; host-wall-clock-preempted runs are *not* cached.

Every stage counts through the :class:`~repro.telemetry.registry.
MetricsRegistry` (``service.*``) and, when an event writer is attached,
emits PR 5 JSONL trace events (``request``/``response``/``cache_*``/
``rate_limited``).  See ``docs/SERVICE.md`` for the catalog.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any

from repro.faults.distributed.supervisor import RetryPolicy, TrialSupervisor
from repro.service.jobs import JobError, JobSpec
from repro.service.store import ManifestStore
from repro.telemetry.manifest import RunManifest
from repro.telemetry.registry import MetricsRegistry

__all__ = [
    "ExecutionScheduler",
    "InfraError",
    "RateLimitedError",
    "ServiceResult",
    "TokenBucket",
]

#: Halt reasons that mean "the watchdog stopped the guest", not "done".
_PREEMPTED_HALTS = frozenset({"STEP_LIMIT", "CYCLE_LIMIT", "WALL_CLOCK_LIMIT"})
#: Halt reasons that depend on host speed and must never be cached.
_UNCACHEABLE_HALTS = frozenset({"WALL_CLOCK_LIMIT"})


class RateLimitedError(Exception):
    """The tenant's token bucket rejected the request (HTTP 429)."""

    def __init__(self, tenant: str, retry_after_s: float) -> None:
        super().__init__(f"tenant {tenant!r} is over its request rate")
        self.tenant = tenant
        self.retry_after_s = retry_after_s


class InfraError(Exception):
    """A job exhausted its attempts on infrastructure failures (HTTP 500).

    Mirrors the fault campaigns' ``Outcome.INFRA_ERROR`` quarantine: the
    job is written off, the fleet keeps serving.
    """

    def __init__(self, detail: str, attempts: int) -> None:
        super().__init__(detail)
        self.detail = detail
        self.attempts = attempts


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    ``rate=None`` disables limiting.  The clock is injectable so tests
    can drive refill deterministically.
    """

    def __init__(
        self,
        rate: float | None,
        burst: int,
        *,
        clock=time.monotonic,
    ) -> None:
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive (or None to disable)")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._refilled = clock()

    def try_acquire(self) -> bool:
        """Take one token if available; False means rate-limited."""
        if self.rate is None:
            return True
        now = self._clock()
        self._tokens = min(
            float(self.burst), self._tokens + (now - self._refilled) * self.rate
        )
        self._refilled = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after_s(self) -> float:
        """Seconds until one token will be available (advisory)."""
        if self.rate is None or self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self.rate


@dataclass
class ServiceResult:
    """One answered job: the manifest plus cache/scheduling metadata."""

    manifest: RunManifest
    #: "hit" (store), "miss" (simulated), or "coalesced" (single-flight)
    cache: str
    #: engine-independent store key of the job
    key: str
    #: concrete engine that served (or would serve) the simulation
    engine: str
    #: whether a watchdog stopped the guest before it returned
    preempted: bool = False

    def response_doc(self) -> dict:
        """The client-facing JSON document.

        ``manifest`` is the *canonical* (host-less) document, so a
        warm response is byte-identical to the cold run that populated
        the store; host facts (wall clock, compile-cache counters) ride
        beside it and are empty on store hits.
        """
        return {
            "cache": self.cache,
            "key": self.key,
            "engine": self.engine,
            "preempted": self.preempted,
            "fingerprint": self.manifest.fingerprint(),
            "manifest": self.manifest.as_dict(include_host=False),
            "host": dict(self.manifest.host),
        }


# -- worker-side execution (module level: must be picklable) -----------------


def _build_machine(payload: dict):
    """Compile (memoized) and load one machine for *payload*."""
    from repro.workloads.cache import compile_cached

    config = payload["config"]
    compiled = compile_cached(
        payload["source"], use_windows=config["use_windows"]
    )
    machine = compiled.make_machine(
        num_windows=config["num_windows"],
        memory_size=config["memory_size"],
        engine=payload["engine"],
    )
    return compiled, machine


def _execute_job(payload: dict) -> dict:
    """Pool entry point: run one scalar job, return its manifest doc.

    User-input failures (Mini-C that does not compile) come back as a
    ``job_error`` document - they are the client's fault and must not
    be retried; anything else that raises is an infrastructure failure
    the supervisor handles.
    """
    from repro.errors import CompileError, HLLError
    from repro.telemetry.manifest import capture_manifest

    try:
        compiled, machine = _build_machine({**payload, "engine": payload["engine"]})
    except (CompileError, HLLError, SyntaxError, ValueError) as error:
        return {"job_error": f"{type(error).__name__}: {error}"}
    config = payload["config"]
    machine.run(
        compiled.program.entry,
        max_steps=config["max_steps"],
        wall_clock_limit=payload["deadline_s"],
    )
    manifest = capture_manifest(
        machine,
        workload=payload["workload"],
        seed=payload["seed"],
        entry=compiled.program.entry,
    )
    return {"manifest": manifest.as_dict(include_host=True)}


def _execute_batch(payloads: list[dict]) -> list[dict]:
    """Pool entry point: run N same-workload jobs in numpy lockstep.

    Every lane ends bit-identical to a scalar run (the batch executor's
    contract), so each lane's manifest carries the same shared sections
    a scalar tier would produce; the simulation section reports the
    lockstep executor's telemetry, as in ``run_all --engine batch``.
    Batch lanes are bounded by ``max_steps`` only - the deadline
    watchdog is per-machine and lanes share the step loop.
    """
    from repro.cpu.batch import run_batch
    from repro.errors import CompileError, HLLError
    from repro.telemetry.manifest import capture_manifest

    try:
        compiled, _probe = _build_machine({**payloads[0], "engine": "reference"})
    except (CompileError, HLLError, SyntaxError, ValueError) as error:
        return [{"job_error": f"{type(error).__name__}: {error}"}] * len(payloads)
    config = payloads[0]["config"]
    machines = []
    for payload in payloads:
        machine = compiled.make_machine(
            num_windows=config["num_windows"],
            memory_size=config["memory_size"],
            engine="reference",
        )
        machine.reset(compiled.program.entry)
        machines.append(machine)
    executor = run_batch(machines, max_steps=config["max_steps"])
    docs = []
    for payload, machine in zip(payloads, machines):
        manifest = capture_manifest(
            machine,
            workload=payload["workload"],
            seed=payload["seed"],
            entry=compiled.program.entry,
        )
        manifest.engine = "batch"
        manifest.engine_detail = executor.telemetry_snapshot()
        docs.append({"manifest": manifest.as_dict(include_host=True)})
    return docs


@dataclass
class _BatchGroup:
    payloads: list[dict]
    futures: list[asyncio.Future]


class ExecutionScheduler:
    """Schedules jobs over a worker pool with caching and supervision.

    Args:
        store: manifest store consulted before (and populated after)
            simulation; ``None`` disables result caching.
        workers: process-pool size.
        policy: retry policy for infrastructure failures (reused from
            the distributed fault campaigns).
        deadline_s: per-job wall-clock budget enforced by the machine's
            cooperative watchdog inside the worker; a parent-side hard
            timeout of ``deadline_s * 5 + 60`` reaps truly wedged
            workers (the supervisor's formula).  ``None`` disables both.
        rate / burst: default per-tenant token-bucket parameters
            (``rate=None`` disables limiting).
        coalesce_s: how long a cold batch-tier job waits for companions
            before dispatch.
        registry: metrics registry for ``service.*`` counters.
        event_writer: optional JSONL event sink (PR 5 schema).
    """

    def __init__(
        self,
        *,
        store: ManifestStore | None = None,
        workers: int = 2,
        policy: RetryPolicy | None = None,
        deadline_s: float | None = 60.0,
        rate: float | None = None,
        burst: int = 100,
        coalesce_s: float = 0.005,
        registry: MetricsRegistry | None = None,
        event_writer=None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = store
        self.workers = workers
        self.policy = policy or RetryPolicy()
        self.deadline_s = deadline_s
        self.rate = rate
        self.burst = burst
        self.coalesce_s = coalesce_s
        self.registry = registry or MetricsRegistry()
        self.event_writer = event_writer
        self._executor = None
        self._generation = 0
        self._buckets: dict[str, TokenBucket] = {}
        self._inflight: dict[tuple[str, str], asyncio.Future] = {}
        self._batch_groups: dict[tuple[str, str], _BatchGroup] = {}

    # -- plumbing ------------------------------------------------------------

    def _count(self, name: str, help_text: str, amount: int = 1) -> None:
        self.registry.counter(f"service.{name}", help_text).inc(amount)

    def _emit(self, event: dict) -> None:
        if self.event_writer is not None:
            self.event_writer.write(event)

    def _ensure_executor(self):
        if self._executor is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # platforms without fork
                ctx = multiprocessing.get_context("spawn")
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=ctx
            )
        return self._executor

    def worker_pids(self) -> list[int]:
        """Live pool worker PIDs (operational introspection, chaos tests)."""
        if self._executor is None:
            return []
        return TrialSupervisor._worker_pids(self._executor)

    def _restart_pool(self, seen_generation: int) -> None:
        """Rebuild the pool once per failure wave.

        Concurrent jobs all observe the same broken pool; only the
        first caller (still holding the generation it dispatched into)
        tears it down - later callers see the bumped generation and
        reuse the fresh pool.
        """
        if self._generation != seen_generation:
            return
        self._generation += 1
        executor, self._executor = self._executor, None
        if executor is not None:
            TrialSupervisor._shutdown(executor, kill=True)
        self._count("pool_restarts", "worker pools rebuilt after a death")

    def shutdown(self) -> None:
        """Tear down the worker pool (idempotent)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst)
            self._buckets[tenant] = bucket
        return bucket

    # -- submission ----------------------------------------------------------

    async def submit(self, job: JobSpec, *, tenant: str = "default") -> ServiceResult:
        """Answer one job: cache hit, coalesced wait, or simulation.

        Raises :class:`RateLimitedError`, :class:`JobError` (bad
        input), or :class:`InfraError` (quarantined after retries).
        """
        self._count("requests", "job submissions accepted for scheduling")
        engine = job.resolve_engine()
        key = job.key()
        self._emit({
            "event": "request", "tenant": tenant, "key": key,
            "workload": job.workload, "engine": engine,
        })
        if not self._bucket(tenant).try_acquire():
            self._count("rate_limited", "requests rejected by a token bucket")
            self._emit({"event": "rate_limited", "tenant": tenant, "key": key})
            raise RateLimitedError(tenant, self._bucket(tenant).retry_after_s())
        try:
            result = await self._answer(job, key, engine)
        except JobError:
            self._count("job_errors", "requests rejected as malformed")
            self._emit({"event": "response", "key": key, "status": 400})
            raise
        except InfraError:
            self._emit({"event": "response", "key": key, "status": 500})
            raise
        self._count("responses", "successfully answered job submissions")
        self._emit({
            "event": "response", "key": key, "status": 200,
            "cache": result.cache, "engine": result.engine,
        })
        return result

    async def _answer(self, job: JobSpec, key: str, engine: str) -> ServiceResult:
        # Single-flight first: an in-flight identical job means the
        # store cannot have the result yet, so joining the flight is
        # both cheaper and correct.
        flight = (key, engine)
        inflight = self._inflight.get(flight)
        if inflight is not None:
            self._count(
                "single_flight",
                "identical concurrent requests coalesced onto one simulation",
            )
            result: ServiceResult = await asyncio.shield(inflight)
            return ServiceResult(
                manifest=result.manifest, cache="coalesced", key=key,
                engine=result.engine, preempted=result.preempted,
            )
        if self.store is not None:
            cached = self.store.get(key, engine)
            if cached is not None:
                self._count("cache_hits", "requests served from the manifest store")
                self._emit({"event": "cache_hit", "key": key, "engine": engine})
                return ServiceResult(
                    manifest=cached, cache="hit", key=key, engine=engine,
                    preempted=cached.halt in _PREEMPTED_HALTS,
                )
            self._count("cache_misses", "requests that fell through to simulation")
            self._emit({"event": "cache_miss", "key": key, "engine": engine})
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[flight] = future
        try:
            result = await self._simulate(job, key, engine)
        except BaseException as error:
            self._inflight.pop(flight, None)
            if not future.cancelled():
                future.set_exception(error)
                # Coalesced waiters (if any) re-raise; keep the event
                # loop from logging "exception never retrieved" when
                # this request was the only flight member.
                future.exception()
            raise
        self._inflight.pop(flight, None)
        if not future.cancelled():
            future.set_result(result)
        return result

    # -- simulation ----------------------------------------------------------

    async def _simulate(self, job: JobSpec, key: str, engine: str) -> ServiceResult:
        payload = job.payload(engine=engine, deadline_s=self.deadline_s)
        if engine == "batch":
            doc = await self._submit_batch(key, payload)
        else:
            doc = await self._supervised(_execute_job, payload, key=key)
        return self._finish(doc, key, engine)

    def _finish(self, doc: dict, key: str, engine: str) -> ServiceResult:
        if "job_error" in doc:
            raise JobError(doc["job_error"])
        manifest = RunManifest.from_dict(doc["manifest"])
        preempted = manifest.halt in _PREEMPTED_HALTS
        if preempted:
            self._count("preempted", "runs stopped by a watchdog budget")
        if self.store is not None and manifest.halt not in _UNCACHEABLE_HALTS:
            evicted = self.store.put(key, manifest)
            self._count("cache_stores", "manifests persisted to the store")
            self._emit({"event": "cache_store", "key": key, "engine": engine})
            for evicted_key in evicted:
                self._count("cache_evictions", "store entries evicted over capacity")
                self._emit({"event": "cache_evict", "key": evicted_key})
        return ServiceResult(
            manifest=manifest, cache="miss", key=key, engine=engine,
            preempted=preempted,
        )

    async def _supervised(self, fn, payload: Any, *, key: str) -> Any:
        """Run *fn(payload)* on the pool with retry/rebuild/quarantine."""
        from concurrent.futures.process import BrokenProcessPool

        loop = asyncio.get_running_loop()
        hard_timeout = (
            None if self.deadline_s is None else self.deadline_s * 5 + 60.0
        )
        # Deterministic jitter wants a stable per-job index; fold the
        # store key down to one (the campaigns use the trial index).
        job_index = int(key[:8], 16)
        attempts = 0
        while True:
            attempts += 1
            generation = self._generation
            executor = self._ensure_executor()
            try:
                return await asyncio.wait_for(
                    loop.run_in_executor(executor, fn, payload),
                    timeout=hard_timeout,
                )
            except (BrokenProcessPool, asyncio.TimeoutError, OSError) as error:
                self._restart_pool(generation)
                if attempts >= self.policy.max_attempts:
                    self._count(
                        "quarantined",
                        "jobs written off as INFRA_ERROR after retries",
                    )
                    raise InfraError(
                        f"{type(error).__name__}: {error}", attempts
                    ) from error
                self._count("retries", "job attempts re-dispatched")
                self._emit({
                    "event": "retry", "key": key, "attempt": attempts,
                    "error": type(error).__name__,
                })
                await asyncio.sleep(self.policy.delay(job_index, attempts))

    # -- batch lanes ---------------------------------------------------------

    def _batch_group_key(self, payload: dict) -> tuple[str, str]:
        import json

        return (
            payload["source"],
            json.dumps(payload["config"], sort_keys=True),
        )

    async def _submit_batch(self, key: str, payload: dict) -> dict:
        """Coalesce same-workload batch jobs into one lockstep call.

        The first job of a group opens a short window
        (``coalesce_s``); compatible jobs arriving inside it join the
        group and the whole group runs as one
        :func:`repro.cpu.batch.run_batch` call on one worker.
        """
        loop = asyncio.get_running_loop()
        group_key = self._batch_group_key(payload)
        group = self._batch_groups.get(group_key)
        future: asyncio.Future = loop.create_future()
        if group is None:
            group = _BatchGroup(payloads=[payload], futures=[future])
            self._batch_groups[group_key] = group
            loop.create_task(self._dispatch_batch(group_key))
        else:
            group.payloads.append(payload)
            group.futures.append(future)
        return await future

    async def _dispatch_batch(self, group_key: tuple[str, str]) -> None:
        await asyncio.sleep(self.coalesce_s)
        group = self._batch_groups.pop(group_key)
        self._count(
            "batched_jobs", "jobs executed through numpy lockstep lanes",
            len(group.payloads),
        )
        try:
            docs = await self._supervised(
                _execute_batch, group.payloads, key="0" * 64
            )
        except BaseException as error:  # noqa: BLE001 - fan the failure out
            for future in group.futures:
                if not future.done():
                    future.set_exception(error)
            return
        for future, doc in zip(group.futures, docs):
            if not future.done():
                future.set_result(doc)

"""Typed metrics registry: counters, gauges, histograms, timers.

One :class:`MetricsRegistry` per process (or per machine, for isolated
sweeps) is the single place simulation components record operational
counters.  The registry exists in two modes:

* **enabled** (the default): instruments record real values and appear
  in :meth:`MetricsRegistry.as_dict` / :meth:`MetricsRegistry.snapshot`.
* **no-op**: every factory returns a shared null instrument whose
  mutators do nothing.  :data:`NULL_REGISTRY` is the process-wide
  singleton; the execution stack holds it by default so uninstrumented
  runs pay nothing.  The contract the engines keep (enforced by
  ``tests/test_telemetry.py``) is that telemetry is only touched at
  *run boundaries* - never once per instruction - so even an enabled
  registry cannot slow the hot loop.

Metric names are dotted lowercase paths (``sim.runs``, ``engine.trace.
traces_compiled``); the catalog of names the execution stack emits is
documented in ``docs/OBSERVABILITY.md``.  Registering the same name
twice returns the existing instrument; registering it as a different
*type* is an error (one name, one meaning).

Determinism note: everything except :class:`Timer` is a pure function
of simulated work.  Timers record host wall-clock and are therefore
excluded from canonical run manifests (see
:mod:`repro.telemetry.manifest`).
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "Timer",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds (powers of ten, ``inf`` implied).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)


class Counter:
    """A monotonically increasing count (events, instructions, bytes)."""

    __slots__ = ("name", "help", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount

    def as_dict(self) -> dict:
        """JSON-friendly view: ``{"kind", "value"}``."""
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value that can move both ways (cache occupancy)."""

    __slots__ = ("name", "help", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def add(self, delta: float) -> None:
        """Move the gauge by *delta* (either sign)."""
        self.value += delta

    def as_dict(self) -> dict:
        """JSON-friendly view: ``{"kind", "value"}``."""
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """A distribution summarised as cumulative bucket counts + sum/count.

    Buckets are upper bounds checked in order; an observation larger
    than every bound lands in the implicit ``inf`` bucket.  Bounds are
    fixed at registration so two snapshots of the same metric are always
    comparable.
    """

    __slots__ = ("name", "help", "buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        if list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name} bucket bounds must be sorted")
        self.name = name
        self.help = help
        self.buckets = tuple(buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # + inf bucket
        self.sum: float = 0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """JSON-friendly view with bucket bounds and counts."""
        return {
            "kind": self.kind,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class Timer:
    """Wall-clock duration recorder (a histogram of seconds).

    Use as a context manager::

        with registry.timer("sim.run_seconds"):
            machine.run(entry)

    Timers measure *host* time and are excluded from canonical run
    manifests; they exist for operator-facing throughput numbers.
    """

    __slots__ = ("name", "help", "histogram", "_started")
    kind = "timer"

    #: bucket bounds in seconds, microseconds up to minutes
    TIME_BUCKETS: tuple[float, ...] = (
        1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 60.0,
    )

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.histogram = Histogram(name, help, buckets=self.TIME_BUCKETS)
        self._started: float | None = None

    def observe(self, seconds: float) -> None:
        """Record an externally measured duration."""
        self.histogram.observe(seconds)

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._started is not None:
            self.observe(time.perf_counter() - self._started)
            self._started = None

    def as_dict(self) -> dict:
        """JSON-friendly view (delegates to the backing histogram)."""
        payload = self.histogram.as_dict()
        payload["kind"] = self.kind
        return payload


class _NullInstrument:
    """Shared do-nothing instrument returned by a disabled registry.

    Implements the full mutator surface of every instrument type so
    call sites never need to branch on whether telemetry is enabled.
    """

    __slots__ = ()
    kind = "null"
    name = ""
    help = ""
    value = 0
    sum = 0
    count = 0

    def inc(self, amount: int = 1) -> None:
        """No-op."""

    def set(self, value: float) -> None:
        """No-op."""

    def add(self, delta: float) -> None:
        """No-op."""

    def observe(self, value: float) -> None:
        """No-op."""

    def __enter__(self) -> "_NullInstrument":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def as_dict(self) -> dict:
        """Empty view; null instruments never appear in snapshots."""
        return {"kind": self.kind}


#: The one shared null instrument; identity-comparable in tests.
_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Namespace of typed metrics with enabled and no-op modes.

    Args:
        enabled: when False, every factory returns the shared null
            instrument and the registry stays permanently empty.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: dict[str, Counter | Gauge | Histogram | Timer] = {}

    # -- factories ----------------------------------------------------------

    def _register(self, name: str, kind: type, factory):
        if not self.enabled:
            return _NULL_INSTRUMENT
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}, "
                    f"not {kind.kind}"  # type: ignore[attr-defined]
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the :class:`Counter` called *name*."""
        return self._register(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the :class:`Gauge` called *name*."""
        return self._register(name, Gauge, lambda: Gauge(name, help))

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create the :class:`Histogram` called *name*."""
        return self._register(name, Histogram, lambda: Histogram(name, help, buckets))

    def timer(self, name: str, help: str = "") -> Timer:
        """Get or create the :class:`Timer` called *name*."""
        return self._register(name, Timer, lambda: Timer(name, help))

    # -- introspection ------------------------------------------------------

    def __iter__(self) -> Iterator[Counter | Gauge | Histogram | Timer]:
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def get(self, name: str):
        """The instrument called *name*, or None."""
        return self._metrics.get(name)

    def as_dict(self) -> dict:
        """Every metric's JSON view, keyed by name (sorted)."""
        return {name: self._metrics[name].as_dict() for name in self.names()}

    def describe(self) -> list[dict]:
        """Catalog rows ``{"name", "kind", "help"}`` for documentation."""
        return [
            {"name": name, "kind": metric.kind, "help": metric.help}
            for name, metric in sorted(self._metrics.items())
        ]

    def reset(self) -> None:
        """Drop every registered metric (names become reusable)."""
        self._metrics.clear()


#: Process-wide no-op registry; the execution stack's default.
NULL_REGISTRY = MetricsRegistry(enabled=False)

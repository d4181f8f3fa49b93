"""Engine-tier registry: the single source of truth for engine dispatch.

Every place that used to hard-code an engine name list (the equivalence
sweep, ``run_all --engine``, the fault-campaign runners, CI gates, test
matrices) resolves engines through this module instead.  A tier is
described by an :class:`EngineSpec` - name, factory, tier number and
description.  No call site outside this module is allowed to dispatch
on ``engine == "..."`` string comparisons.

The two tiers, in ascending speed, each usable as
``RiscMachine(engine=...)`` and as the per-core engine of a
:class:`~repro.multicore.simulator.MulticoreSimulator`::

    reference  the oracle interpreter   (full observer events)
    trace      superblock source traces (~25x+)

The trace tier single-steps whatever it cannot run compiled through
its inner :class:`~repro.cpu.fastengine.FastEngine`, which is not a
tier of its own.

To add a backend: add a spec to the ``_SPECS`` tuple below; the
equivalence harness, which sweeps every registered tier, is what
qualifies it, not code review.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.engine import ExecutionEngine


@dataclass(frozen=True)
class EngineSpec:
    """One registered execution tier.

    ``factory`` builds a fresh per-machine engine instance (engines are
    stateful; they are never shared between machines).  Every tier is
    correct under every observer and legal as a per-core engine over a
    shared, device-mapped memory.
    """

    name: str
    factory: Callable[[], "ExecutionEngine"]
    tier: int
    description: str


def _make_reference() -> "ExecutionEngine":
    from repro.cpu.engine import ReferenceEngine

    return ReferenceEngine()


def _make_trace() -> "ExecutionEngine":
    from repro.cpu.traceengine import TraceEngine

    return TraceEngine()


_SPECS: tuple[EngineSpec, ...] = (
    EngineSpec(
        name="reference",
        factory=_make_reference,
        tier=0,
        description="instruction-at-a-time oracle interpreter",
    ),
    EngineSpec(
        name="trace",
        factory=_make_trace,
        tier=1,
        description="superblock traces compiled to generated source",
    ),
)

#: name -> spec, in tier order.
REGISTRY: dict[str, EngineSpec] = {spec.name: spec for spec in _SPECS}


def get_spec(name: str) -> EngineSpec:
    """Look up a tier by name; raises ``ValueError`` for unknown names."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown execution engine {name!r} (one of {sorted(REGISTRY)})"
        ) from None


def engine_names(*, scalar_only: bool = False) -> tuple[str, ...]:
    """Registered tier names in tier order, oracle first (the
    equivalence sweeps diff the rest against the first name).

    Every registered tier is scalar (usable as
    ``RiscMachine(engine=...)``), so ``scalar_only`` filters nothing; it
    is still accepted because callers ask for "the scalar tiers" by
    name.
    """
    specs = sorted(REGISTRY.values(), key=lambda spec: spec.tier)
    return tuple(spec.name for spec in specs)


def fastest_scalar_engine() -> str:
    """Name of the highest registered tier.

    For callers that want "as fast as this host allows" without naming
    a tier.
    """
    return max(REGISTRY.values(), key=lambda spec: spec.tier).name


def create_engine(engine: "str | ExecutionEngine") -> "ExecutionEngine":
    """Resolve an engine name (or pass through an instance).

    Engine instances are stateful per machine, so each machine gets a
    fresh one; passing a shared instance between machines is not
    supported.
    """
    if not isinstance(engine, str):
        return engine
    return get_spec(engine).factory()


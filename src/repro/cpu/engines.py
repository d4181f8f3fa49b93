"""Engine-tier registry: the single source of truth for engine dispatch.

Every place that used to hard-code an engine name list (the equivalence
sweep, ``run_all --engine``, the fault-campaign runners, CI gates, test
matrices) resolves engines through this module instead.  A tier is
described by an :class:`EngineSpec` - name, factory, and capability
flags - so call sites ask *what an engine can do* rather than matching
on its name.  No call site outside this module is allowed to dispatch
on ``engine == "..."`` string comparisons.

The three tiers, in ascending speed, each usable as
``RiscMachine(engine=...)``::

    reference  the oracle interpreter   (full observer events)
    fast       pre-decoded closures     (~3x)
    trace      superblock source traces (~25x+)

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
    stateful; they are never shared between machines).  The capability
    flags let call sites route work without name matching:

    * ``supports_observers`` - executes every per-step observer event
      natively, ``fetch_word`` and ``mem_access`` included.  Every tier
      is *correct* under observers, but only the oracle sets this flag.
      The fast tier runs ``pre_step``/``step`` observers on its own
      pre-decoded thunks, and the trace tier runs observed stretches
      in its inner fast engine's loop; both hand a step to the oracle
      only for a latched interrupt or a ``fetch_word``/``mem_access``
      observer.
    * ``supports_smp`` - legal as a per-core engine under the multicore
      interleaver (see :mod:`repro.multicore`): every data access goes
      through the :class:`~repro.common.memory.Memory` accessors (so
      MMIO devices are honoured) and the tier installs no compiled-code
      write watch, so any number of cores' engines can share one
      memory.  The trace tier inlines RAM fast paths into generated
      source and installs the memory's single write watch, so it cannot
      share a live device-mapped memory and is flagged ``False``.
    """

    name: str
    factory: Callable[[], "ExecutionEngine"]
    tier: int
    description: str
    supports_observers: bool = False
    supports_smp: bool = False

    def capabilities(self) -> dict:
        """Flags + metadata as plain data (CLI listings, docs, manifests)."""
        return {
            "name": self.name,
            "tier": self.tier,
            "description": self.description,
            "supports_observers": self.supports_observers,
            "supports_smp": self.supports_smp,
        }


def _make_reference() -> "ExecutionEngine":
    from repro.cpu.engine import ReferenceEngine

    return ReferenceEngine()


def _make_fast() -> "ExecutionEngine":
    from repro.cpu.fastengine import FastEngine

    return FastEngine()


def _make_trace() -> "ExecutionEngine":
    from repro.cpu.traceengine import TraceEngine

    return TraceEngine()


_SPECS: tuple[EngineSpec, ...] = (
    EngineSpec(
        name="reference",
        factory=_make_reference,
        tier=0,
        description="instruction-at-a-time oracle interpreter",
        supports_observers=True,
        supports_smp=True,
    ),
    EngineSpec(
        name="fast",
        factory=_make_fast,
        tier=1,
        description="pre-decoded per-instruction closures",
        supports_smp=True,
    ),
    EngineSpec(
        name="trace",
        factory=_make_trace,
        tier=2,
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
    """Registered tier names in tier order.

    Every registered tier is scalar (usable as
    ``RiscMachine(engine=...)``), so ``scalar_only`` filters nothing; it
    is still accepted because callers ask for "the scalar tiers" by
    name.
    """
    specs = sorted(REGISTRY.values(), key=lambda spec: spec.tier)
    return tuple(spec.name for spec in specs)


def smp_engine_names() -> tuple[str, ...]:
    """Engines legal as per-core tiers under the multicore interleaver.

    Tier order, oracle first - the multicore equivalence sweep diffs the
    rest against the first name, as :func:`engine_names` orders the
    single-core sweep.
    """
    specs = sorted(REGISTRY.values(), key=lambda spec: spec.tier)
    return tuple(spec.name for spec in specs if spec.supports_smp)


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


def capability_matrix() -> list[dict]:
    """Per-tier capability rows (``--list-engines``, docs, manifests)."""
    return [
        REGISTRY[name].capabilities() for name in engine_names()
    ]

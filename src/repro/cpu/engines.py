"""Engine-tier registry: the single source of truth for engine dispatch.

Every place that used to hard-code an engine name list (the equivalence
sweep, ``run_all --engine``, the fault-campaign runners, CI gates, test
matrices) resolves engines through this module instead.  A tier is
described by an :class:`EngineSpec` - name, factory, and capability
flags - so call sites ask *what an engine can do* rather than matching
on its name.  No call site outside this module is allowed to dispatch
on ``engine == "..."`` string comparisons.

The four scalar tiers, in ascending speed::

    reference  the oracle interpreter   (full observer events)
    fast       pre-decoded closures     (~3x)
    block      basic-block compilation  (~9x)
    trace      superblock source traces (~25x+)

plus ``batch``, the numpy lockstep executor
(:mod:`repro.cpu.batch`), which is not a scalar
:class:`~repro.cpu.engine.ExecutionEngine` - it steps N machines at
once - and is therefore flagged ``supports_batch`` / ``scalar=False``.

To add a backend: call :func:`register_engine` (or add a spec to the
``_SPECS`` tuple below) and extend the equivalence-harness
parametrisation - the harness, not code review, is what qualifies an
engine.
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

    * ``scalar`` - usable as ``RiscMachine(engine=...)``; the batch
      executor is the one non-scalar tier.
    * ``supports_observers`` - executes every per-step observer event
      natively, ``fetch_word`` and ``mem_access`` included.  Every tier
      is *correct* under observers, but only the oracle sets this flag.
      The fast tier runs ``pre_step``/``step`` observers on its own
      pre-decoded thunks, and the trace tier single-steps observed runs
      through its inner fast engine; both hand a step to the oracle
      only for a latched interrupt or a ``fetch_word``/``mem_access``
      observer.  The block tier hands every observed step to the
      oracle.
    * ``supports_batch`` - steps N independent simulations in lockstep
      (see :mod:`repro.cpu.batch`).
    * ``supports_fusion`` - accepts statically proved macro-op fusion
      pairs via ``engine.arm_fusion(pairs)`` (see
      :mod:`repro.analysis.fusion`) and reports ``fused_dispatches``.
      Fusion never changes architectural results on any tier; this flag
      records which tiers attribute fused dispatches.
    * ``supports_smp`` - legal as a per-core engine under the multicore
      interleaver (see :mod:`repro.multicore`): every data access goes
      through the :class:`~repro.common.memory.Memory` accessors (so
      MMIO devices are honoured) and the tier shares a memory with
      other cores' engines via ``attach_exec_listener``.  The trace
      tier inlines RAM fast paths into generated source and installs an
      exclusive write watch, and the batch executor steps private
      per-lane images - neither can share a live device-mapped memory,
      so both are flagged ``False``.
    * ``requires`` - name of an optional third-party dependency the
      tier needs (``None`` for the pure-python tiers).  Use
      :func:`available` to probe.
    """

    name: str
    factory: Callable[[], "ExecutionEngine"]
    tier: int
    description: str
    scalar: bool = True
    supports_observers: bool = False
    supports_batch: bool = False
    supports_fusion: bool = False
    supports_smp: bool = False
    requires: str | None = None

    def available(self) -> bool:
        """Whether the tier's optional dependency (if any) is importable."""
        if self.requires is None:
            return True
        import importlib.util

        return importlib.util.find_spec(self.requires) is not None

    def capabilities(self) -> dict:
        """Flags + metadata as plain data (CLI listings, docs, manifests)."""
        return {
            "name": self.name,
            "tier": self.tier,
            "description": self.description,
            "scalar": self.scalar,
            "supports_observers": self.supports_observers,
            "supports_batch": self.supports_batch,
            "supports_fusion": self.supports_fusion,
            "supports_smp": self.supports_smp,
            "requires": self.requires,
            "available": self.available(),
        }


def _make_reference() -> "ExecutionEngine":
    from repro.cpu.engine import ReferenceEngine

    return ReferenceEngine()


def _make_fast() -> "ExecutionEngine":
    from repro.cpu.fastengine import FastEngine

    return FastEngine()


def _make_block() -> "ExecutionEngine":
    from repro.cpu.blockengine import BlockEngine

    return BlockEngine()


def _make_trace() -> "ExecutionEngine":
    from repro.cpu.traceengine import TraceEngine

    return TraceEngine()


def _make_batch() -> "ExecutionEngine":
    raise ValueError(
        '"batch" is not a scalar engine; use repro.cpu.batch.BatchExecutor '
        "(or run_all --engine batch) to step N machines in lockstep"
    )


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
        supports_fusion=True,
        supports_smp=True,
    ),
    EngineSpec(
        name="block",
        factory=_make_block,
        tier=2,
        description="CFG basic blocks compiled to single closures",
        supports_fusion=True,
        supports_smp=True,
    ),
    EngineSpec(
        name="trace",
        factory=_make_trace,
        tier=3,
        description="superblock traces compiled to generated source",
        supports_fusion=True,
    ),
    EngineSpec(
        name="batch",
        factory=_make_batch,
        tier=4,
        description="numpy lockstep executor over N machines",
        scalar=False,
        supports_batch=True,
        requires="numpy",
    ),
)

#: name -> spec, in tier order.  Mutated only by :func:`register_engine`.
REGISTRY: dict[str, EngineSpec] = {spec.name: spec for spec in _SPECS}


def register_engine(spec: EngineSpec) -> EngineSpec:
    """Add (or replace) a tier in the registry; returns the spec."""
    REGISTRY[spec.name] = spec
    return spec


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

    ``scalar_only=True`` restricts to engines usable as
    ``RiscMachine(engine=...)`` - the list test matrices and the
    differential sweep parametrise over.
    """
    specs = sorted(REGISTRY.values(), key=lambda spec: spec.tier)
    return tuple(
        spec.name for spec in specs if spec.scalar or not scalar_only
    )


def default_sweep_engines() -> tuple[str, ...]:
    """Engines the differential equivalence sweep covers by default.

    All scalar tiers, oracle first - the first name is the oracle the
    rest are diffed against.
    """
    return engine_names(scalar_only=True)


def smp_engine_names() -> tuple[str, ...]:
    """Engines legal as per-core tiers under the multicore interleaver.

    Tier order, oracle first - the multicore equivalence sweep diffs the
    rest against the first name, mirroring :func:`default_sweep_engines`.
    """
    specs = sorted(REGISTRY.values(), key=lambda spec: spec.tier)
    return tuple(spec.name for spec in specs if spec.supports_smp)


def fastest_scalar_engine() -> str:
    """Name of the fastest *available* scalar tier.

    Capability-driven selection for callers that want "as fast as this
    host allows" without naming a tier: the execution service resolves
    ``engine="auto"`` jobs through this, and batch-tier requests fall
    back to it when the optional numpy dependency is missing.  Scalar
    tiers are pure python, so today this is always the top tier; the
    ``available()`` probe keeps the choice honest if a scalar tier ever
    grows an optional dependency.
    """
    for spec in sorted(REGISTRY.values(), key=lambda s: -s.tier):
        if spec.scalar and spec.available():
            return spec.name
    raise ValueError("no scalar execution engine is available")


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

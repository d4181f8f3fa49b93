"""Deterministic N-core RISC I simulation over one shared memory.

A :class:`MulticoreSimulator` owns N cores - each an independent
:class:`~repro.cpu.machine.RiscMachine` (own register windows, PSW,
decode cache, engine instance) - attached to one shared
:class:`~repro.common.memory.Memory` with the
:class:`~repro.multicore.device.PlatformDevice` mapped as MMIO.  Every
core executes the same image; ``main()`` dispatches on
``core_id()``.

**Interleaving model.**  Cores run one at a time, round-robin, for a
fixed *quantum* of instructions per slice (a slice is shortened so an
armed timer comes due exactly at a boundary whenever possible).  The
schedule is a pure function of (image, core count, quantum, engine-
independent architectural behaviour), so a run is byte-reproducible:
the (core, start-count, length) slice log hashes to a *schedule
fingerprint*, and per-core run manifests compose with it into one
multicore manifest whose fingerprint must match on every engine tier
in :mod:`repro.cpu.engines`.

Memory is sequentially consistent by construction - there is only one
memory and one core touching it at a time - and *every instruction is
atomic* (cores interleave only at instruction boundaries), which is
what makes the device's load-test-and-set lock cells sound.

**Why engines agree on interrupt take points.**  The device latches an
interrupt with :meth:`~repro.cpu.state.ArchState.request_interrupt`
only at slice boundaries; the trace engine falls back to reference
stepping while an interrupt is pending, so the interrupt is taken at
the same instruction on every tier - and never between a delayed jump
and its delay slot.

**Why compiled code is safe on shared memory.**  Every core's trace
engine attaches to the one memory and registers its traces with the
memory's shared write watch, so a store by any core drops the stale
traces of every core; the traces' inline RAM paths stay out of the
device window, so every device access goes through the MMIO hook.

Per-core resources carved out of the shared address space (all
configurable):

====================  ==================================================
region                default layout (1 MiB memory, <= 4 cores)
====================  ==================================================
code + data           image at 0, data from ``.org 16``
guest stacks          ``0xC0000 - core_id * 0x10000``, growing down
tick mailboxes        ``0xE0000 + 4 * core_id`` (RAM, handler-written)
console byte          ``0xF0000`` (single-core-compatible)
MMIO window           ``0xF1000`` (:mod:`repro.multicore.device`)
window-save stacks    ``memory.size - core_id * 0x2000``, growing down
====================  ==================================================
"""

from __future__ import annotations

import hashlib
import json

from repro.common.memory import Memory
from repro.cpu.engines import get_spec
from repro.cpu.machine import RiscMachine
from repro.cpu.state import HaltReason
from repro.isa.registers import NUM_WINDOWS
from repro.multicore.device import PlatformDevice

__all__ = [
    "MULTICORE_SCHEMA",
    "DEFAULT_QUANTUM",
    "MulticoreSimulator",
]

#: Schema tag of a composed multicore manifest document.
MULTICORE_SCHEMA = "risc1-repro/multicore-manifest/v1"

#: Default instructions per slice.  Small enough that interrupt latency
#: (granularity = one quantum) stays low, large enough that a compiled
#: tier still amortises its run-loop entry across a slice.
DEFAULT_QUANTUM = 200

#: Default bytes of guest stack per core (r9 spacing).
STACK_BYTES = 0x10000
#: Default bytes of window-save stack per core (top-of-memory spacing).
SAVE_BYTES = 0x2000
#: Top of core 0's guest stack (the single-core bootstrap convention).
STACK_TOP = 0xC0000


class MulticoreSimulator:
    """N cores, one shared memory, a platform device, and a scheduler.

    Args:
        program: assembled :class:`~repro.asm.assembler.Program` whose
            image every core executes (use
            :func:`repro.multicore.scenarios.build_scenario` to get one
            with the interrupt handler linked in).
        num_cores: core count (the evaluation sweeps {1, 2, 4}).
        engine: per-core execution tier (any registered tier).
        quantum: instructions per round-robin slice.
        entry_symbol: per-core entry label.  Defaults to ``_main`` -
            cores skip the single-core bootstrap (which would give every
            core the same stack) and the host performs its job instead:
            per-core ``r9`` stacks, partitioned window-save regions,
            interrupts enabled, handler vector installed.
        handler_symbol: interrupt handler label to install in every
            core's ``IRQ_VECTOR`` (``None`` installs nothing).
        memory_size: bytes of shared memory.
        num_windows: per-core register-window file size.
    """

    def __init__(
        self,
        program,
        *,
        num_cores: int = 2,
        engine: str = "reference",
        quantum: int = DEFAULT_QUANTUM,
        entry_symbol: str = "_main",
        handler_symbol: str | None = "__irq_handler",
        memory_size: int = 1 << 20,
        num_windows: int = NUM_WINDOWS,
    ):
        get_spec(engine)  # unknown names raise ValueError
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.program = program
        self.num_cores = num_cores
        self.engine = engine
        self.quantum = quantum
        self.entry = program.symbols[entry_symbol]
        self.handler_address = (
            program.symbols[handler_symbol] if handler_symbol else 0
        )

        self.memory = Memory(size=memory_size)
        program.load_into(self.memory)
        self.device = PlatformDevice(num_cores)
        self.memory.map_mmio(self.device)

        self.cores = [
            RiscMachine(self.memory, num_windows=num_windows, engine=engine)
            for _ in range(num_cores)
        ]
        #: slice log: ``(core_id, start_instruction_count, executed)``.
        self.schedule: list[tuple[int, int, int]] = []
        self.watchdog_expired = False
        self._ran = False
        self._reset_cores()

    # -- setup ---------------------------------------------------------------

    def _reset_cores(self) -> None:
        """Point every core at the entry with its own stack partitions."""
        for core_id, core in enumerate(self.cores):
            core.reset(self.entry)
            save_top = self.memory.size - core_id * SAVE_BYTES
            core.window_save_pointer = save_top
            core.window_stack_limit = save_top - SAVE_BYTES
            core.write_reg(9, STACK_TOP - core_id * STACK_BYTES)
            # The paper's machine boots with interrupts off; the host
            # (acting as firmware) enables them and installs the vector.
            core.psw.interrupts_enabled = True
            if self.handler_address:
                self.device.irq_vector[core_id] = self.handler_address

    # -- execution -----------------------------------------------------------

    def run(self, max_total_steps: int = 5_000_000) -> "MulticoreSimulator":
        """Interleave the cores until all halt or the watchdog expires.

        ``max_total_steps`` bounds the *sum* of instructions across
        cores - the liveness watchdog for lock-contention scenarios
        gone wrong.  On expiry, still-running cores are halted with
        :attr:`~repro.cpu.state.HaltReason.STEP_LIMIT` and
        :attr:`watchdog_expired` is set.  Returns ``self`` for
        chaining.
        """
        device = self.device
        cores = self.cores
        total = 0
        running = True
        while running:
            running = False
            for core_id, core in enumerate(cores):
                if core.halted is not None:
                    continue
                running = True
                device.active_core = core_id
                start = core.stats.instructions
                device.service(core_id, start, core)
                slice_steps = self.quantum
                due = device.steps_until_timer(core_id, start)
                if due is not None and 0 < due < slice_steps:
                    slice_steps = due
                core.engine.run_loop(core, slice_steps, None, None)
                executed = core.stats.instructions - start
                self.schedule.append((core_id, start, executed))
                if core.halted is HaltReason.STEP_LIMIT:
                    core.halted = None  # budget boundary, not a real halt
                # A slice always advances the watchdog even if every
                # step trapped without retiring an instruction.
                total += max(executed, 1)
                if total >= max_total_steps:
                    self.watchdog_expired = True
                    running = False
                    break
        if self.watchdog_expired:
            for core in cores:
                if core.halted is None:
                    core._set_halted(HaltReason.STEP_LIMIT)
        # Final boundary service: cache final counts and close any
        # acknowledged latency sample from the last slice.
        for core_id, core in enumerate(cores):
            device.active_core = core_id
            device.service(core_id, core.stats.instructions, core)
        self._ran = True
        return self

    # -- results -------------------------------------------------------------

    @property
    def results(self) -> list[int]:
        """Per-core entry-procedure return values."""
        return [core.result for core in self.cores]

    @property
    def total_instructions(self) -> int:
        """Instructions retired across all cores."""
        return sum(core.stats.instructions for core in self.cores)

    @property
    def console_output(self) -> str:
        """Shared console text (memory-mapped byte + device register)."""
        return self.memory.console_output + "".join(self.device.console)

    def utilization(self) -> list[float]:
        """Per-core share of all retired instructions (sums to 1.0)."""
        total = self.total_instructions
        if total == 0:
            return [0.0] * self.num_cores
        return [core.stats.instructions / total for core in self.cores]

    # -- manifests -----------------------------------------------------------

    def schedule_fingerprint(self) -> str:
        """SHA-256 over the canonical slice log.

        Engine-independent by the equivalence contract: slice lengths
        are instruction-count deltas, which every tier reports
        identically.
        """
        doc = {
            "num_cores": self.num_cores,
            "quantum": self.quantum,
            "slices": [list(entry) for entry in self.schedule],
        }
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()
        ).hexdigest()

    def manifest(self, *, workload: str = "unnamed", seed: int | None = None) -> dict:
        """The composed multicore manifest document.

        Per-core sections are the ``shared_dict()`` of each core's
        :class:`~repro.telemetry.manifest.RunManifest` (note the
        ``memory`` counters are the *shared* memory's totals, identical
        in every core section); the ``simulation`` section carries the
        engine-dependent detail and is excluded from the composed
        fingerprint, exactly like single-run manifests.
        """
        from repro.telemetry.manifest import capture_manifest

        core_sections = []
        core_fingerprints = []
        core_simulation = []
        for core_id, core in enumerate(self.cores):
            m = capture_manifest(
                core,
                workload=f"{workload}/core{core_id}",
                seed=seed,
                entry=self.entry,
            )
            core_sections.append(m.shared_dict())
            core_fingerprints.append(m.fingerprint())
            core_simulation.append(
                {
                    "engine": m.engine,
                    "decode_cache": dict(m.decode_cache),
                    "engine_detail": dict(m.engine_detail),
                }
            )
        doc = {
            "schema": MULTICORE_SCHEMA,
            "run": {
                "workload": workload,
                "seed": seed,
                "entry": self.entry,
                "num_cores": self.num_cores,
                "quantum": self.quantum,
                "results": self.results,
            },
            "schedule": {
                "slices": len(self.schedule),
                "total_instructions": self.total_instructions,
                "fingerprint": self.schedule_fingerprint(),
                "watchdog_expired": self.watchdog_expired,
            },
            "device": self.device.counters_snapshot(),
            "console": {
                "text": self.console_output,
            },
            "cores": core_sections,
            "core_fingerprints": core_fingerprints,
            "simulation": {
                "engine": self.engine,
                "cores": core_simulation,
            },
        }
        doc["fingerprint"] = compose_fingerprint(doc)
        return doc

    def fingerprint(self, *, workload: str = "unnamed", seed: int | None = None) -> str:
        """The composed fingerprint of the finished run (engine-independent)."""
        return self.manifest(workload=workload, seed=seed)["fingerprint"]


def compose_fingerprint(doc: dict) -> str:
    """SHA-256 over the engine-independent portion of a multicore manifest.

    Excludes ``simulation`` (engine-dependent by design) and the
    ``fingerprint`` field itself; everything else - schedule, device
    counters, console text, per-core shared sections - must agree
    bit-for-bit across the tiers' runs of the same scenario.
    """
    shared = {
        key: value
        for key, value in doc.items()
        if key not in ("simulation", "fingerprint")
    }
    return hashlib.sha256(
        json.dumps(shared, sort_keys=True).encode()
    ).hexdigest()


__all__.append("compose_fingerprint")

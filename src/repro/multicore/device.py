"""The multicore platform device: timers, doorbells, locks, console.

One :class:`PlatformDevice` instance serves every core of a
:class:`~repro.multicore.simulator.MulticoreSimulator`.  It is mapped
into the shared :class:`~repro.common.memory.Memory` as a word-addressed
MMIO window (see :meth:`~repro.common.memory.Memory.map_mmio`), so guest
code talks to it with ordinary ``ldl``/``stl`` instructions - or, from
Mini-C, with the ``mmio_read``/``mmio_write`` builtins.

Register addressing is *banked by core*: every core sees the same
addresses, and the per-core registers (timer, vector, cause) resolve
against the core that performs the access.  The interleaver keeps
exactly one core running at a time and points :attr:`active_core` at it,
which is what makes the bank deterministic.

Determinism contract (why this device is bit-identical on every engine
tier): register reads and writes happen at architecturally identical
points on all tiers, so handlers may mutate device state freely - but
the device may only *sample a core's instruction count* at slice
boundaries, inside :meth:`service`.  A compiled tier may batch
``ExecutionStats`` updates until a compiled unit retires, so a mid-slice
sample would read engine-dependent garbage; the boundary state after an exact
``max_steps`` budget is precise on every tier.  That is also why
``TIMER_COUNT`` reads return the *boundary-cached* count and why
interrupt latency is measured boundary-to-boundary (granularity = the
interleaver quantum).

The register table below is the source of truth for the map in
``docs/MULTICORE.md`` (rendered by :func:`register_table` behind
``ci/check_docs.py`` markers) - edit here, regenerate there.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.state import TrapCause
from repro.errors import MemoryFaultError

__all__ = [
    "MMIO_BASE",
    "MMIO_LIMIT",
    "NUM_LOCKS",
    "CAUSE_TIMER",
    "CAUSE_DOORBELL",
    "MmioRegister",
    "REGISTERS",
    "PlatformDevice",
    "register_address",
    "register_table",
]

#: Base byte address of the MMIO window.  Above the memory-mapped
#: console byte (0xF0000), below the window-save region at the top of
#: the default 1 MiB memory.
MMIO_BASE = 0xF1000

#: Number of test-and-set lock cells in the lock bank.
NUM_LOCKS = 8

#: ``IRQ_CAUSE`` bit flagging a fired timer
#: (:attr:`~repro.cpu.state.TrapCause.TIMER_INTERRUPT`).
CAUSE_TIMER = 1
#: ``IRQ_CAUSE`` bit flagging a rung doorbell
#: (:attr:`~repro.cpu.state.TrapCause.DOORBELL_INTERRUPT`).
CAUSE_DOORBELL = 2


@dataclass(frozen=True)
class MmioRegister:
    """One row of the platform device's register map.

    Attributes:
        name: symbolic register name (``TIMER_COMPARE``, ``LOCK``, ...).
        offset: byte offset of the (first) word from :data:`MMIO_BASE`.
        access: ``"R"``, ``"W"`` or ``"RW"`` - which word accesses the
            register accepts (the other direction reads 0 / is ignored).
        banked: True when the register resolves against the accessing
            core (per-core state), False for globally shared state.
        count: number of consecutive word cells (1 for everything but
            the lock bank).
        description: one-line semantics, rendered into the docs table.
    """

    name: str
    offset: int
    access: str
    banked: bool
    count: int
    description: str


#: The register map, in address order - the single source of truth for
#: the device implementation, the guest runtime constants, and the
#: generated table in ``docs/MULTICORE.md``.
REGISTERS: tuple[MmioRegister, ...] = (
    MmioRegister(
        "CORE_ID", 0x00, "R", True, 1,
        "Identity of the accessing core (0-based)."),
    MmioRegister(
        "NUM_CORES", 0x04, "R", False, 1,
        "Number of cores in the simulation."),
    MmioRegister(
        "TIMER_COUNT", 0x08, "R", True, 1,
        "Accessing core's instruction count as of its last slice "
        "boundary (never mid-slice; see the determinism contract)."),
    MmioRegister(
        "TIMER_COMPARE", 0x0C, "RW", True, 1,
        "One-shot timer: fires (IRQ_CAUSE bit 0) at the first slice "
        "boundary where the core's instruction count reaches this "
        "value, then disarms.  0 disarms explicitly."),
    MmioRegister(
        "IRQ_VECTOR", 0x10, "RW", True, 1,
        "Interrupt handler address for the accessing core; 0 (the "
        "reset value) suppresses delivery."),
    MmioRegister(
        "IRQ_CAUSE", 0x14, "R", True, 1,
        "Pending cause bits: bit 0 timer (TrapCause.TIMER_INTERRUPT), "
        "bit 1 doorbell (TrapCause.DOORBELL_INTERRUPT).  Level-"
        "triggered: re-delivered each boundary until acknowledged."),
    MmioRegister(
        "IRQ_ACK", 0x18, "W", True, 1,
        "Write a mask to clear the corresponding IRQ_CAUSE bits."),
    MmioRegister(
        "DOORBELL", 0x1C, "W", False, 1,
        "Write a target core id to raise that core's doorbell cause "
        "bit.  Out-of-range ids are ignored."),
    MmioRegister(
        "LOCK", 0x20, "RW", False, NUM_LOCKS,
        "Test-and-set lock bank: a word *load* returns the old value "
        "and sets the cell to 1 (atomic - cores only interleave at "
        "instruction boundaries); a word *store* writes the value "
        "directly (store 0 to release)."),
    MmioRegister(
        "CONSOLE", 0x40, "W", False, 1,
        "Write: low byte appears on the shared console.  Reads return "
        "0 (always ready)."),
)

#: End of the MMIO window (half-open ``[MMIO_BASE, MMIO_LIMIT)``).
MMIO_LIMIT = MMIO_BASE + max(r.offset + 4 * r.count for r in REGISTERS)

_BY_NAME = {register.name: register for register in REGISTERS}


def register_address(name: str, index: int = 0) -> int:
    """Absolute byte address of register *name* (cell *index* for banks)."""
    register = _BY_NAME[name]
    if not 0 <= index < register.count:
        raise ValueError(
            f"register {name} has {register.count} cell(s), not index {index}"
        )
    return MMIO_BASE + register.offset + 4 * index


def register_table() -> str:
    """The device register map as a markdown table (for MULTICORE.md).

    Generated from :data:`REGISTERS` so the docs can never drift from
    the implementation; ``ci/check_docs.py`` re-renders this and
    compares it against the committed file.
    """
    lines = [
        "| Address | Name | Access | Scope | Semantics |",
        "|---|---|---|---|---|",
    ]
    for register in REGISTERS:
        address = MMIO_BASE + register.offset
        if register.count == 1:
            span = f"`{address:#x}`"
            name = register.name
        else:
            end = address + 4 * (register.count - 1)
            span = f"`{address:#x}`-`{end:#x}`"
            name = f"{register.name}0-{register.name}{register.count - 1}"
        scope = "per-core" if register.banked else "shared"
        lines.append(
            f"| {span} | `{name}` | {register.access} | {scope} "
            f"| {register.description} |"
        )
    return "\n".join(lines)


class PlatformDevice:
    """Timer + doorbell + lock + console device shared by all cores.

    Implements the ``base``/``limit``/``read``/``write`` protocol of
    :meth:`~repro.common.memory.Memory.map_mmio`.  The interleaver owns
    the instance: it sets :attr:`active_core` before running a core's
    slice and calls :meth:`service` at every slice boundary.

    Args:
        num_cores: number of cores the simulation runs.
    """

    base = MMIO_BASE
    limit = MMIO_LIMIT

    def __init__(self, num_cores: int):
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        self.num_cores = num_cores
        #: id of the core whose slice is currently executing; the
        #: interleaver updates this, the banked registers read it.
        self.active_core = 0
        # Per-core state, indexed by core id.
        self.timer_count = [0] * num_cores   # boundary-cached inst count
        self.timer_compare = [0] * num_cores  # 0 = disarmed
        self.irq_vector = [0] * num_cores     # 0 = no handler installed
        self.irq_cause = [0] * num_cores      # pending cause bits
        # Shared state.
        self.locks = [0] * NUM_LOCKS
        self.console: list[str] = []
        # Latency bookkeeping: the boundary count at which each core's
        # timer came due, and a flag set by IRQ_ACK so the *next*
        # boundary closes the sample (mid-slice counts are off-limits).
        self._timer_due_at = [0] * num_cores
        self._latency_open = [False] * num_cores
        self._ack_seen = [False] * num_cores
        # Observable counters (rendered by s4_multicore and exported as
        # multicore.* metrics by the simulator).
        self.timer_fires = 0
        self.doorbell_rings = 0
        self.interrupts_delivered = 0
        self.lock_acquires = 0
        self.lock_misses = 0
        #: closed interrupt-latency samples, in instructions between the
        #: boundary that latched the timer interrupt and the first
        #: boundary after the guest acknowledged it.
        self.latency_samples: list[int] = []

    # -- MMIO protocol -------------------------------------------------------

    def read(self, address: int) -> int:
        """Word load from the MMIO window (may have side effects: LOCK)."""
        offset = address - MMIO_BASE
        core = self.active_core
        if offset == 0x00:
            return core
        if offset == 0x04:
            return self.num_cores
        if offset == 0x08:
            return self.timer_count[core]
        if offset == 0x0C:
            return self.timer_compare[core]
        if offset == 0x10:
            return self.irq_vector[core]
        if offset == 0x14:
            return self.irq_cause[core]
        if 0x20 <= offset < 0x20 + 4 * NUM_LOCKS:
            index = (offset - 0x20) >> 2
            old = self.locks[index]
            self.locks[index] = 1
            if old == 0:
                self.lock_acquires += 1
            else:
                self.lock_misses += 1
            return old
        if offset in (0x18, 0x1C, 0x40):
            return 0  # write-only registers read as 0
        raise MemoryFaultError(
            f"read of unmapped MMIO address {address:#x}",
            address=address, kind="mmio_unmapped",
        )

    def write(self, address: int, value: int) -> None:
        """Word store into the MMIO window."""
        offset = address - MMIO_BASE
        core = self.active_core
        if offset == 0x0C:
            self.timer_compare[core] = value
            return
        if offset == 0x10:
            self.irq_vector[core] = value
            return
        if offset == 0x18:
            cleared = self.irq_cause[core] & value
            self.irq_cause[core] &= ~value
            if cleared & CAUSE_TIMER and self._latency_open[core]:
                self._ack_seen[core] = True
            return
        if offset == 0x1C:
            if 0 <= value < self.num_cores:
                self.irq_cause[value] |= CAUSE_DOORBELL
                self.doorbell_rings += 1
            return
        if 0x20 <= offset < 0x20 + 4 * NUM_LOCKS:
            self.locks[(offset - 0x20) >> 2] = value
            return
        if offset == 0x40:
            self.console.append(chr(value & 0xFF))
            return
        if offset in (0x00, 0x04, 0x08, 0x14):
            return  # read-only registers ignore writes
        raise MemoryFaultError(
            f"write to unmapped MMIO address {address:#x}",
            address=address, kind="mmio_unmapped",
        )

    # -- slice boundaries ----------------------------------------------------

    def steps_until_timer(self, core_id: int, count: int) -> int | None:
        """Instructions until core *core_id*'s armed timer is due, or None.

        The interleaver shortens a slice to end exactly at the due
        count, so timer delivery is quantum-independent where possible.
        """
        compare = self.timer_compare[core_id]
        if compare == 0:
            return None
        return max(0, compare - count)

    def service(self, core_id: int, count: int, core) -> None:
        """Slice-boundary housekeeping for *core_id* at instruction *count*.

        Caches the boundary count (the value ``TIMER_COUNT`` reads),
        fires a due timer, closes an acknowledged latency sample, and -
        when causes are pending, a vector is installed, and the core has
        no interrupt already latched - delivers the interrupt through
        :meth:`~repro.cpu.state.ArchState.request_interrupt`.
        """
        self.timer_count[core_id] = count
        compare = self.timer_compare[core_id]
        if compare and count >= compare:
            self.timer_compare[core_id] = 0  # one-shot: disarm
            self.irq_cause[core_id] |= CAUSE_TIMER
            self.timer_fires += 1
            self._timer_due_at[core_id] = count
            self._latency_open[core_id] = True
            self._ack_seen[core_id] = False
        if self._ack_seen[core_id]:
            self.latency_samples.append(count - self._timer_due_at[core_id])
            self._latency_open[core_id] = False
            self._ack_seen[core_id] = False
        if (
            self.irq_cause[core_id]
            and self.irq_vector[core_id]
            and core.pending_interrupt is None
        ):
            core.request_interrupt(self.irq_vector[core_id])
            self.interrupts_delivered += 1

    # -- introspection -------------------------------------------------------

    def pending_causes(self, core_id: int) -> list[TrapCause]:
        """The :class:`~repro.cpu.state.TrapCause` values pending on a core."""
        causes = []
        if self.irq_cause[core_id] & CAUSE_TIMER:
            causes.append(TrapCause.TIMER_INTERRUPT)
        if self.irq_cause[core_id] & CAUSE_DOORBELL:
            causes.append(TrapCause.DOORBELL_INTERRUPT)
        return causes

    def counters_snapshot(self) -> dict:
        """Device counters for manifests and the ``s4_multicore`` report."""
        return {
            "timer_fires": self.timer_fires,
            "doorbell_rings": self.doorbell_rings,
            "interrupts_delivered": self.interrupts_delivered,
            "lock_acquires": self.lock_acquires,
            "lock_misses": self.lock_misses,
            "latency_samples": list(self.latency_samples),
        }

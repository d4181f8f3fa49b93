"""Attach fault specifications to a live machine and apply them.

The injector is purely event-driven: it subscribes to the machine's
:class:`~repro.cpu.observers.ObserverBus` - ``pre_step`` for trigger
watching (cycle counts, PC execution counts) and ``fetch_word`` for
instruction-word corruption - and mutates architectural state directly
when a trigger fires.  Every mutation is logged as an
:class:`InjectionEvent`, so a campaign can report exactly what was
corrupted and when - and so two runs with the same specs can be compared
event-for-event.

Semantics per target/kind:

* ``REGISTER`` / ``MEMORY`` / ``PSW`` bit-flips XOR the chosen bits once
  at the trigger boundary (a transient upset).
* ``REGISTER`` / ``MEMORY`` / ``PSW`` stuck-at faults force the chosen
  bits to 0/1 at *every* step boundary from the trigger on (a failed
  cell; the dominant-value approximation of a hardware stuck-at).
* ``INSTRUCTION`` faults rewrite the word on the fetch path for the
  spec's PC: a bit-flip corrupts exactly the triggering fetch, a
  stuck-at corrupts that fetch and every later fetch of the same PC.
  Corrupted words bypass the machine's decode cache (see
  :class:`~repro.isa.decode.CachingDecoder.decode_uncached`), so cached
  decodes of the pristine word are never served and the cache is never
  poisoned.

The hooks re-assert a fired stuck-at fault until
:meth:`FaultInjector.pin` hands it to the machine, which then keeps it
where the state can change: a pinned memory word is forced again by
every store that reaches it
(:meth:`~repro.common.memory.Memory.pin_word`), pinned PSW bits and
registers before every instruction
(:meth:`~repro.cpu.state.ArchState.pin_psw`, ``pin_register``), and a
pinned instruction word at every fetch of its PC, compiled fetches
included (:meth:`~repro.cpu.state.ArchState.pin_fetch`).  Each leaves
the state the hooks would, so the run can go on unobserved, on a
compiled tier, until :meth:`FaultInjector.unpin`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bitops import MASK32
from repro.cpu.machine import RiscMachine
from repro.faults.models import FaultKind, FaultSpec, FaultTarget

#: PSW values carry 11 meaningful bits (flags + I + CWP + SWP).
_PSW_MASK = 0x7FF


def _fetch_pc(spec: FaultSpec) -> int:
    """The PC whose fetches an ``INSTRUCTION`` fault corrupts."""
    return spec.trigger.at_pc if spec.trigger.at_pc is not None else spec.location


@dataclass(frozen=True)
class InjectionEvent:
    """One applied corruption: where, when, and the before/after values."""

    spec: FaultSpec
    cycle: int
    pc: int
    original: int
    mutated: int

    def describe(self) -> str:
        """One-line summary: spec, firing point, and the flipped value."""
        return (
            f"{self.spec.describe()} fired at cycle {self.cycle} pc={self.pc:#x}: "
            f"{self.original:#010x} -> {self.mutated:#010x}"
        )


class FaultInjector:
    """Applies a list of :class:`FaultSpec` to one machine.

    Use as::

        injector = FaultInjector(machine, specs)
        injector.attach()
        ... run the machine ...
        injector.detach()
        injector.events  # what actually happened
    """

    def __init__(self, machine: RiscMachine, specs: list[FaultSpec] | tuple[FaultSpec, ...]):
        self.machine = machine
        self.specs = list(specs)
        self.events: list[InjectionEvent] = []
        self._pending = list(self.specs)
        self._stuck: list[FaultSpec] = []  # triggered persistent reg/mem/psw faults
        self._pinned: list[FaultSpec] = []  # stuck faults the machine keeps
        self._fetch_transient: dict[int, list[FaultSpec]] = {}  # pc -> armed one-shot
        self._fetch_stuck: dict[int, list[FaultSpec]] = {}  # pc -> permanent
        self._pc_hits: dict[int, int] = {}
        self._idle = False  # True once no pending trigger or stuck fault remains
        self._filters_fetch = False
        self._attached = False

    # -- lifecycle ---------------------------------------------------------

    def attach(self, *, pc_visits: dict[int, int] | None = None) -> None:
        """Subscribe to the machine's observer bus (idempotent).

        To attach mid-run, pass *pc_visits*: how many times each PC has
        already executed.  PC triggers then count on from those visits,
        exactly as if the injector had watched from the start.
        """
        if pc_visits:
            self._pc_hits.update(pc_visits)
        if self._attached:
            return
        bus = self.machine.observers
        bus.subscribe("pre_step", self._pre_step)
        # The fetch filter runs on every instruction fetch; only pay for
        # it when some spec can actually corrupt the fetch path.
        self._filters_fetch = any(
            spec.target is FaultTarget.INSTRUCTION for spec in self.specs
        )
        if self._filters_fetch:
            bus.subscribe("fetch_word", self._filter_fetch)
        self._attached = True

    def detach(self) -> None:
        """Unsubscribe from the observer bus (idempotent)."""
        if not self._attached:
            return
        bus = self.machine.observers
        bus.unsubscribe("pre_step", self._pre_step)
        if self._filters_fetch:
            bus.unsubscribe("fetch_word", self._filter_fetch)
        self._attached = False

    def pin(self) -> int:
        """Hand every fired stuck-at fault to the machine's pins; returns
        how many faults the machine now keeps.

        A pinned fault leaves the hooks, so once only pinned faults
        remain the injector is :attr:`idle`.  It stays live after
        :meth:`detach`, until :meth:`unpin`.  A memory fault outside
        plain RAM (the console, the MMIO window) stays with the hook.
        A pinned instruction fault logs no further events.
        """
        machine = self.machine
        hooked = []
        for spec in self._stuck:
            stuck = self._mutate(spec, 0, MASK32)  # the value of the stuck bits
            pinned = True
            if spec.target is FaultTarget.PSW:
                machine.pin_psw(spec.mask & _PSW_MASK, stuck & _PSW_MASK)
            elif spec.target is FaultTarget.REGISTER:
                machine.pin_register(spec.location, spec.mask & MASK32, stuck)
            else:
                pinned = machine.memory.pin_word(
                    spec.location, spec.mask & MASK32, stuck
                )
            (self._pinned if pinned else hooked).append(spec)
        self._stuck = hooked
        for pc, specs in self._fetch_stuck.items():
            for spec in specs:
                machine.pin_fetch(pc, spec.mask & MASK32, self._mutate(spec, 0, MASK32))
                self._pinned.append(spec)
        self._fetch_stuck.clear()
        return len(self._pinned)

    def unpin(self) -> None:
        """Drop the machine pins :meth:`pin` installed (idempotent); the
        faulted bits stay as they are, but nothing forces them again."""
        machine = self.machine
        for spec in self._pinned:
            if spec.target is FaultTarget.PSW:
                machine.unpin_psw()
            elif spec.target is FaultTarget.REGISTER:
                machine.unpin_register(spec.location)
            elif spec.target is FaultTarget.MEMORY:
                machine.memory.unpin_word(spec.location)
            else:
                machine.unpin_fetch(_fetch_pc(spec))
        self._pinned.clear()

    @property
    def idle(self) -> bool:
        """True once nothing remains to do: no pending trigger, no stuck
        fault to re-assert (pinned faults need no hook), no armed fetch
        corruption.  An idle injector can be detached without changing
        the rest of the run."""
        return not (
            self._pending or self._stuck
            or self._fetch_transient or self._fetch_stuck
        )

    # -- hook bodies -------------------------------------------------------

    def _pre_step(self, machine: RiscMachine) -> None:
        # This hook runs on every simulated instruction; once every
        # trigger has fired and no stuck-at fault needs re-asserting it
        # reduces to a single boolean test.
        if self._idle:
            return
        if self._pending:
            pc = machine.pc
            cycle = machine.stats.cycles
            hits = None
            fired = None
            for spec in self._pending:
                trigger = spec.trigger
                if trigger.at_cycle is not None:
                    if cycle < trigger.at_cycle:
                        continue
                else:
                    if trigger.at_pc != pc:
                        continue
                    if hits is None:
                        hits = self._pc_hits.get(pc, 0) + 1
                        self._pc_hits[pc] = hits
                    if hits != trigger.pc_hits:
                        continue
                if fired is None:
                    fired = [spec]
                else:
                    fired.append(spec)
            if fired:
                for spec in fired:
                    self._pending.remove(spec)
                    self._fire(spec, machine)
        # Re-assert persistent stuck-at faults each step boundary.
        if self._stuck:
            for spec in self._stuck:
                self._apply_state_fault(spec, machine, log=False)
        elif not self._pending:
            self._idle = True

    def _filter_fetch(self, pc: int, word: int) -> int:
        specs = self._fetch_transient.pop(pc, None)
        if specs:
            for spec in specs:
                word = self._corrupt_word(spec, word, pc)
        for spec in self._fetch_stuck.get(pc, ()):
            word = self._corrupt_word(spec, word, pc, log_once=True)
        return word

    # -- application -------------------------------------------------------

    def _fire(self, spec: FaultSpec, machine: RiscMachine) -> None:
        if spec.target is FaultTarget.INSTRUCTION:
            pc = _fetch_pc(spec)
            if spec.kind is FaultKind.BIT_FLIP:
                self._fetch_transient.setdefault(pc, []).append(spec)
            else:
                self._fetch_stuck.setdefault(pc, []).append(spec)
            return
        self._apply_state_fault(spec, machine, log=True)
        if spec.kind is not FaultKind.BIT_FLIP:
            self._stuck.append(spec)

    def _apply_state_fault(self, spec: FaultSpec, machine: RiscMachine, *, log: bool) -> None:
        if spec.target is FaultTarget.REGISTER:
            original = machine.regs.read_physical(spec.location)
            mutated = self._mutate(spec, original, MASK32)
            if mutated != original:
                machine.regs.write_physical(spec.location, mutated)
        elif spec.target is FaultTarget.MEMORY:
            original = machine.memory.load_word(spec.location, count=False)
            mutated = self._mutate(spec, original, MASK32)
            if mutated != original:
                machine.memory.store_word(spec.location, mutated, count=False)
        else:  # PSW
            original = machine.psw.pack() & _PSW_MASK
            mutated = self._mutate(spec, original, _PSW_MASK)
            if mutated != original:
                machine.psw.unpack(mutated)
        if log:
            # Logged even when the mutation is a no-op (a stuck-at that
            # matches the current value still fired).
            self._log(spec, machine, original, mutated)

    def _corrupt_word(
        self, spec: FaultSpec, word: int, pc: int, *, log_once: bool = False
    ) -> int:
        mutated = self._mutate(spec, word, MASK32)
        if not log_once or not any(e.spec is spec for e in self.events):
            machine = self.machine
            self.events.append(
                InjectionEvent(
                    spec=spec,
                    cycle=machine.stats.cycles,
                    pc=pc,
                    original=word,
                    mutated=mutated,
                )
            )
        return mutated

    def _mutate(self, spec: FaultSpec, value: int, width_mask: int) -> int:
        mask = spec.mask & width_mask
        if spec.kind is FaultKind.BIT_FLIP:
            return value ^ mask
        if spec.kind is FaultKind.STUCK_AT_ZERO:
            return value & ~mask & width_mask
        return (value | mask) & width_mask

    def _log(self, spec: FaultSpec, machine: RiscMachine, original: int, mutated: int) -> None:
        self.events.append(
            InjectionEvent(
                spec=spec,
                cycle=machine.stats.cycles,
                pc=machine.pc,
                original=original,
                mutated=mutated,
            )
        )

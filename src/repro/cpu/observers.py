"""Unified observer/event bus for the execution stack.

Every tool that used to grab the machine through an ad-hoc mechanism -
tracing, profiling, the debugger, pipeline timing, window call-depth
analysis, fault injection - now attaches through one
:class:`ObserverBus` owned by the machine's architectural state.  The
bus replaces the old ``pre_step_hooks`` / ``fetch_filters`` lists and
the machine-internal ``call_trace`` list.

Events and callback signatures:

==============  ============================================================
``pre_step``    ``fn(machine)`` - top of every step, before the interrupt
                check and fetch (fault triggers fire here).
``fetch_word``  ``fn(pc, word) -> word`` - a *filter*: may rewrite the
                fetched instruction word (instruction-fault corruption).
                A mutated word bypasses the decode cache.
``step``        ``fn(machine, pc, inst, taken_jump)`` - after an
                instruction completes (never fires for a trapped step).
``call``        ``fn(machine, depth)`` - after a CALL/CALLR/CALLINT,
                an interrupt entry, or a trap vectoring allocates its
                frame; ``depth`` is the new call depth.
``return``      ``fn(machine, depth)`` - after a RET/RETINT releases its
                frame; ``depth`` is the new (decremented) call depth.
==============  ============================================================

The first three events fire on (nearly) every instruction, so engines
check :attr:`ObserverBus.step_observed` once per step and skip all
bookkeeping when nothing is attached.  While it is set, the trace tier
single-steps through its inner fast engine, which runs one pre-decoded
thunk per step and calls ``pre_step`` and ``step`` observers itself.
A ``fetch_word`` observer changes what a step fetches, so a step with
one attached goes to the reference oracle.  The last two fire only at
procedure boundaries and are honoured by every engine.  Traps and
halts are not events: read :attr:`~repro.cpu.state.ArchState.last_trap`,
the trap log and :attr:`~repro.cpu.state.ArchState.halted` after the
run.

Mutate subscriptions only through :meth:`ObserverBus.subscribe` /
:meth:`ObserverBus.unsubscribe` so ``step_observed`` stays coherent;
engines may *read* the per-event lists directly when emitting.
"""

from __future__ import annotations

#: Event names accepted by subscribe/unsubscribe.
EVENTS = ("pre_step", "fetch_word", "step", "call", "return")

#: Events whose observers impose per-instruction bookkeeping.
STEP_EVENTS = frozenset({"pre_step", "fetch_word", "step"})


class ObserverBus:
    """One machine's observer lists, with a fast "anything per-step?" flag."""

    __slots__ = (
        "on_pre_step",
        "on_fetch_word",
        "on_step",
        "on_call",
        "on_return",
        "step_observed",
    )

    def __init__(self) -> None:
        self.on_pre_step: list = []
        self.on_fetch_word: list = []
        self.on_step: list = []
        self.on_call: list = []
        self.on_return: list = []
        #: True while any per-instruction event has observers attached.
        self.step_observed = False

    def _list(self, event: str) -> list:
        if event not in EVENTS:
            raise ValueError(f"unknown observer event {event!r} (one of {EVENTS})")
        return getattr(self, f"on_{event}")

    def subscribe(self, event: str, fn) -> None:
        """Attach *fn* to *event*; duplicates are allowed (fire in order)."""
        self._list(event).append(fn)
        if event in STEP_EVENTS:
            self.step_observed = True

    def unsubscribe(self, event: str, fn) -> None:
        """Detach one occurrence of *fn*; raises ValueError if absent."""
        self._list(event).remove(fn)
        if event in STEP_EVENTS:
            self.step_observed = bool(
                self.on_pre_step or self.on_fetch_word or self.on_step
            )

    def observer_count(self, event: str | None = None) -> int:
        """Number of observers on *event*, or on every event when None."""
        if event is not None:
            return len(self._list(event))
        return sum(len(getattr(self, f"on_{name}")) for name in EVENTS)

    def emit_call(self, machine, depth: int) -> None:
        """Notify call subscribers: the machine just entered *depth*."""
        for fn in self.on_call:
            fn(machine, depth)

    def emit_return(self, machine, depth: int) -> None:
        """Notify return subscribers: the machine is back at *depth*."""
        for fn in self.on_return:
            fn(machine, depth)


class CallTraceRecorder:
    """Record the +1/-1 call-depth trace through ``call``/``return`` events.

    This is the *single* code path feeding
    :mod:`repro.windows.analysis` and the F4/T6 window sweeps; the
    machine exposes the recorded list as
    :attr:`~repro.cpu.machine.RiscMachine.call_trace` for compatibility.
    """

    __slots__ = ("trace",)

    def __init__(self) -> None:
        self.trace: list[int] = []

    def attach(self, bus: ObserverBus) -> None:
        """Start recording call/return events from *bus*."""
        bus.subscribe("call", self._on_call)
        bus.subscribe("return", self._on_return)

    def detach(self, bus: ObserverBus) -> None:
        """Stop recording and unsubscribe from *bus*."""
        bus.unsubscribe("call", self._on_call)
        bus.unsubscribe("return", self._on_return)

    def _on_call(self, machine, depth: int) -> None:
        self.trace.append(1)

    def _on_return(self, machine, depth: int) -> None:
        self.trace.append(-1)

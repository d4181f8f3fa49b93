"""One unobserved run of a program, kept as numbers.

The paper's tables, the E1 pipeline estimate, the S3 fusion count, the
fault campaign's golden runs and the lint cross-check all read the same
executions.  :func:`profile_machine` runs a machine once on the
``trace`` tier, observing nothing, with :attr:`TraceEngine.path
<repro.cpu.traceengine.TraceEngine.path>` set, and returns a
:class:`RunProfile`: the run's counters and its dispatch path, with no
reference to the machine, which is freed by reference counting.
:meth:`CompiledRisc.profile <repro.cc.compiler.CompiledRisc.profile>`
keeps one profile per (compiled program, window count).

The path keeps each distinct ``(addrs, completed)`` dispatch once and
the run as their indices; a dispatch that completed ``n`` steps ran
exactly ``addrs[:n]``, so :meth:`RunProfile.pcs` rebuilds the pc at
every step (the trace-exit path profile of Dynamo, Bala et al., PLDI
2000).
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass

from repro.common.bitops import to_signed
from repro.cpu.machine import HaltReason, RiscMachine
from repro.cpu.state import ExecutionStats


@dataclass(frozen=True)
class RunProfile:
    """The numbers of one run (see the module docstring)."""

    #: the entry procedure's return value, signed
    result: int
    halted: HaltReason
    stats: ExecutionStats
    data_refs: int
    #: the +1/-1 call-depth trace (:attr:`ArchState.call_trace`)
    call_trace: tuple[int, ...]
    #: the decoder's cache counters (:meth:`ArchState.decode_cache_stats`)
    decode: dict[str, int]
    traces_invalidated: int
    #: the machine's physical registers and memory bytes
    register_count: int
    memory_size: int
    #: each distinct ``(addrs, completed)`` dispatch of the path, once
    entries: tuple[tuple[tuple[int, ...], int], ...]
    #: the path: an index into :attr:`entries` per dispatch, in order
    order: array

    def pcs(self, limit: int | None = None) -> array:
        """The pc at every step, in order; with *limit*, the first
        *limit* steps only."""
        pcs = array("I")
        entries = self.entries
        for index in self.order:
            addrs, done = entries[index]
            if limit is not None and len(pcs) + done >= limit:
                pcs.extend(addrs[: limit - len(pcs)])
                break
            pcs.extend(addrs[:done])
        return pcs

    def pc_counts(self) -> Counter:
        """Retirements per pc, counted per distinct dispatch."""
        counts: Counter = Counter()
        for index, hits in Counter(self.order).items():
            addrs, done = self.entries[index]
            counts.update(dict.fromkeys(addrs[:done], hits))
        return counts


def profile_machine(machine: RiscMachine, entry: int) -> RunProfile:
    """Run *machine* (``trace`` tier) from *entry*, unobserved, with its
    dispatch path logged; returns the run's :class:`RunProfile`."""
    if machine.engine_name != "trace":
        raise ValueError(f"a profile needs the trace tier, not {machine.engine_name}")
    path: list = []
    machine.engine.path = path
    machine.run(entry)
    index: dict = {}
    order = array("I", [index.setdefault(step, len(index)) for step in path])
    return RunProfile(
        result=to_signed(machine.result),
        halted=machine.halted,
        stats=machine.stats.copy(),
        data_refs=machine.memory.stats.data_refs,
        call_trace=tuple(machine.call_trace),
        decode=machine.decode_cache_stats(),
        traces_invalidated=machine.engine.traces_invalidated,
        register_count=machine.regs.physical_count,
        memory_size=machine.memory.size,
        entries=tuple(index),
        order=order,
    )


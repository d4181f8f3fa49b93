"""The windowed register file: 138 physical registers, 8 windows.

Reads and writes index a (window, register) -> physical table built once
per configuration from the overlap mapping in
:func:`repro.isa.registers.physical_index`.  ``r0`` is hardwired to zero:
writes are discarded, reads always return 0, exactly as in the paper
("register 0 always contains zero").

The file can also be instantiated flat (``use_windows=False``) for the A1
ablation, in which case every window number maps to window 0.
"""

from __future__ import annotations

from functools import lru_cache

from repro.common.bitops import MASK32
from repro.isa.registers import (
    NUM_GLOBALS,
    NUM_LOCALS,
    NUM_WINDOWS,
    REGS_PER_WINDOW_UNIQUE,
    VISIBLE_REGISTERS,
    WINDOW_OVERLAP,
    physical_index,
)


@lru_cache(maxsize=None)
def window_table(num_windows: int, use_windows: bool) -> tuple[tuple[int, ...], ...]:
    """``table[window][reg]``: the physical index of visible *reg* in
    *window*, for windows ``0 .. num_windows - 1``; a flat file maps
    every window to window 0.  Shared by every file of one configuration."""
    return tuple(
        tuple(
            physical_index(window if use_windows else 0, reg, num_windows)
            for reg in range(VISIBLE_REGISTERS)
        )
        for window in range(num_windows)
    )


class WindowedRegisterFile:
    """Physical register storage plus the window-relative access paths."""

    def __init__(self, num_windows: int = NUM_WINDOWS, use_windows: bool = True):
        if num_windows < 2:
            raise ValueError("need at least 2 windows (one buffer window)")
        self.num_windows = num_windows
        self.use_windows = use_windows
        size = NUM_GLOBALS + num_windows * REGS_PER_WINDOW_UNIQUE
        self._regs = [0] * size
        self._table = window_table(num_windows, use_windows)
        #: window -> physical starts of its spill unit's LOCAL block and
        #: its HIGH block (the next window's LOW; every window maps to
        #: window 0 in a flat file).
        self.unit_bases = tuple(
            (
                NUM_GLOBALS + REGS_PER_WINDOW_UNIQUE * w + WINDOW_OVERLAP,  # past LOW
                NUM_GLOBALS + REGS_PER_WINDOW_UNIQUE * ((w + 1) % num_windows),
            )
            for w in (range(num_windows) if use_windows else [0] * num_windows)
        )

    @property
    def physical_count(self) -> int:
        """Number of physical registers backing the window file."""
        return len(self._regs)

    def _phys(self, window: int, reg: int) -> int:
        if not self.use_windows:
            window = 0
        return physical_index(window, reg, self.num_windows)

    def read(self, window: int, reg: int) -> int:
        """Window-relative read; r0 is always 0."""
        if reg == 0:
            return 0
        if reg > 0:
            try:
                return self._regs[self._table[window][reg]]
            except IndexError:
                pass
        # Off the table: the mapping wraps the window or rejects the
        # register.
        return self._regs[self._phys(window, reg)]

    def write(self, window: int, reg: int, value: int) -> None:
        """Window-relative write; writes to r0 are discarded."""
        if reg == 0:
            return
        if reg > 0:
            try:
                self._regs[self._table[window][reg]] = value & MASK32
                return
            except IndexError:
                pass
        self._regs[self._phys(window, reg)] = value & MASK32

    def read_physical(self, index: int) -> int:
        """Read a register by physical index, bypassing windowing."""
        return self._regs[index]

    def write_physical(self, index: int, value: int) -> None:
        """Write a register by physical index, bypassing windowing."""
        self._regs[index] = value & MASK32

    def spill_unit(self, window: int) -> list[int]:
        """The 16 registers the overflow trap saves for the frame at *window*.

        The unit is the frame's LOCAL block (r16-r25) plus its HIGH block
        (r26-r31, physically the next window's LOW).  The frame's own LOW
        is *not* part of the unit: it is the HIGH of the frame's callee and
        is saved by the callee's own spill when its turn comes.  This is
        the overlap-respecting save set (the same one SPARC's window
        overflow handler uses: "locals + ins").  Both blocks are
        contiguous in the physical file, so the unit is two list slices,
        in the order ``read(window, 16)`` ... ``read(window, 31)`` gives.
        """
        local, high = self.unit_bases[window % self.num_windows]
        regs = self._regs
        return regs[local : local + NUM_LOCALS] + regs[high : high + WINDOW_OVERLAP]

    def set_spill_unit(self, window: int, values: list[int]) -> None:
        """Restore a previously spilled LOCAL+HIGH unit for *window*.

        Writes the same two slices :meth:`spill_unit` reads, masking each
        value to 32 bits as :meth:`write` does.
        """
        if len(values) != REGS_PER_WINDOW_UNIQUE:
            raise ValueError(f"spill unit must have {REGS_PER_WINDOW_UNIQUE} values")
        local, high = self.unit_bases[window % self.num_windows]
        masked = [value & MASK32 for value in values]
        regs = self._regs
        regs[local : local + NUM_LOCALS] = masked[:NUM_LOCALS]
        regs[high : high + WINDOW_OVERLAP] = masked[NUM_LOCALS:]

    def snapshot(self, window: int) -> dict[str, int]:
        """Visible 32-register view for debugging and tests."""
        return {f"r{reg}": self.read(window, reg) for reg in range(VISIBLE_REGISTERS)}

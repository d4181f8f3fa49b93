"""The windowed register file: 138 physical registers, 8 windows.

Reads and writes go through the overlap mapping in
:func:`repro.isa.registers.physical_index`.  ``r0`` is hardwired to zero:
writes are discarded, reads always return 0, exactly as in the paper
("register 0 always contains zero").

The file can also be instantiated flat (``use_windows=False``) for the A1
ablation, in which case every window number maps to window 0.
"""

from __future__ import annotations

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


class WindowedRegisterFile:
    """Physical register storage plus the window-relative access paths."""

    def __init__(self, num_windows: int = NUM_WINDOWS, use_windows: bool = True):
        if num_windows < 2:
            raise ValueError("need at least 2 windows (one buffer window)")
        self.num_windows = num_windows
        self.use_windows = use_windows
        size = NUM_GLOBALS + num_windows * REGS_PER_WINDOW_UNIQUE
        self._regs = [0] * size

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
        return self._regs[self._phys(window, reg)]

    def write(self, window: int, reg: int, value: int) -> None:
        """Window-relative write; writes to r0 are discarded."""
        if reg == 0:
            return
        self._regs[self._phys(window, reg)] = value & MASK32

    def read_physical(self, index: int) -> int:
        """Read a register by physical index, bypassing windowing."""
        return self._regs[index]

    def write_physical(self, index: int, value: int) -> None:
        """Write a register by physical index, bypassing windowing."""
        self._regs[index] = value & MASK32

    def _unit_bases(self, window: int) -> tuple[int, int]:
        """Physical starts of *window*'s LOCAL block and its HIGH block."""
        nw = self.num_windows
        window = window % nw if self.use_windows else 0
        local = NUM_GLOBALS + REGS_PER_WINDOW_UNIQUE * window + WINDOW_OVERLAP  # past LOW
        high = NUM_GLOBALS + REGS_PER_WINDOW_UNIQUE * ((window + 1) % nw)
        return local, high

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
        local, high = self._unit_bases(window)
        regs = self._regs
        return regs[local : local + NUM_LOCALS] + regs[high : high + WINDOW_OVERLAP]

    def set_spill_unit(self, window: int, values: list[int]) -> None:
        """Restore a previously spilled LOCAL+HIGH unit for *window*.

        Writes the same two slices :meth:`spill_unit` reads, masking each
        value to 32 bits as :meth:`write` does.
        """
        if len(values) != REGS_PER_WINDOW_UNIQUE:
            raise ValueError(f"spill unit must have {REGS_PER_WINDOW_UNIQUE} values")
        local, high = self._unit_bases(window)
        masked = [value & MASK32 for value in values]
        regs = self._regs
        regs[local : local + NUM_LOCALS] = masked[:NUM_LOCALS]
        regs[high : high + WINDOW_OVERLAP] = masked[NUM_LOCALS:]

    def snapshot(self, window: int) -> dict[str, int]:
        """Visible 32-register view for debugging and tests."""
        return {f"r{reg}": self.read(window, reg) for reg in range(VISIBLE_REGISTERS)}

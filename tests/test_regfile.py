"""Tests for the windowed register file."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.bitops import MASK32
from repro.cpu.regfile import WindowedRegisterFile, window_table
from repro.isa.registers import NUM_PHYSICAL_REGISTERS, REGS_PER_WINDOW_UNIQUE, physical_index


class TestBasics:
    def test_physical_count_matches_paper(self):
        assert WindowedRegisterFile().physical_count == NUM_PHYSICAL_REGISTERS

    def test_r0_reads_zero(self):
        rf = WindowedRegisterFile()
        rf.write(0, 0, 12345)
        assert rf.read(0, 0) == 0

    def test_write_read_roundtrip(self):
        rf = WindowedRegisterFile()
        rf.write(2, 17, 99)
        assert rf.read(2, 17) == 99

    def test_values_masked_to_32_bits(self):
        rf = WindowedRegisterFile()
        rf.write(0, 5, 1 << 40)
        assert rf.read(0, 5) == 0

    def test_needs_two_windows(self):
        with pytest.raises(ValueError):
            WindowedRegisterFile(num_windows=1)


class TestOverlap:
    def test_globals_visible_everywhere(self):
        rf = WindowedRegisterFile()
        rf.write(0, 5, 777)
        for window in range(8):
            assert rf.read(window, 5) == 777

    def test_caller_low_equals_callee_high(self):
        rf = WindowedRegisterFile()
        caller, callee = 3, 2  # CALL decrements window number
        rf.write(caller, 10, 42)
        assert rf.read(callee, 26) == 42
        rf.write(callee, 31, 88)
        assert rf.read(caller, 15) == 88

    def test_locals_are_private(self):
        rf = WindowedRegisterFile()
        rf.write(3, 20, 1)
        assert rf.read(2, 20) == 0
        assert rf.read(4, 20) == 0

    @given(window=st.integers(0, 7), k=st.integers(0, 5), value=st.integers(0, 2**32 - 1))
    def test_overlap_property(self, window, k, value):
        rf = WindowedRegisterFile()
        caller = (window + 1) % 8
        rf.write(caller, 10 + k, value)
        assert rf.read(window, 26 + k) == value


class TestSpillUnit:
    def test_unit_size(self):
        rf = WindowedRegisterFile()
        assert len(rf.spill_unit(0)) == REGS_PER_WINDOW_UNIQUE

    def test_unit_is_locals_plus_high(self):
        rf = WindowedRegisterFile()
        for reg in range(16, 32):
            rf.write(4, reg, reg * 10)
        unit = rf.spill_unit(4)
        assert unit == [reg * 10 for reg in range(16, 32)]

    def test_roundtrip(self):
        rf = WindowedRegisterFile()
        values = list(range(100, 116))
        rf.set_spill_unit(5, values)
        assert rf.spill_unit(5) == values

    def test_restore_rejects_bad_length(self):
        rf = WindowedRegisterFile()
        with pytest.raises(ValueError):
            rf.set_spill_unit(0, [1, 2, 3])

    def test_unit_does_not_touch_low(self):
        """A frame's LOW block belongs to its callee's spill unit."""
        rf = WindowedRegisterFile()
        rf.write(4, 10, 123)
        rf.set_spill_unit(4, [0] * 16)
        assert rf.read(4, 10) == 123


def oracle_index(rf: WindowedRegisterFile, window: int, reg: int) -> int:
    """The per-register mapping the slice-based spill unit must reproduce."""
    return physical_index(window if rf.use_windows else 0, reg, rf.num_windows)


def oracle_spill_unit(rf: WindowedRegisterFile, window: int) -> list[int]:
    return [rf._regs[oracle_index(rf, window, reg)] for reg in range(16, 32)]


def oracle_set_spill_unit(rf: WindowedRegisterFile, window: int, values: list[int]) -> None:
    for reg, value in zip(range(16, 32), values):
        rf._regs[oracle_index(rf, window, reg)] = value & MASK32


class TestSpillUnitAgainstPerRegisterOracle:
    @pytest.mark.parametrize("use_windows", [True, False], ids=["windowed", "flat"])
    @pytest.mark.parametrize("num_windows", range(2, 17))
    def test_every_window_matches_oracle(self, num_windows, use_windows):
        rf = WindowedRegisterFile(num_windows=num_windows, use_windows=use_windows)
        rf._regs[:] = [0x1000 + i for i in range(rf.physical_count)]
        # Out-of-range window numbers wrap exactly as physical_index does.
        for window in range(-1, num_windows + 1):
            assert rf.spill_unit(window) == oracle_spill_unit(rf, window)
            values = [(window << 20) + 0xFFFF_FFF0 + i for i in range(16)]  # wider than 32 bits
            expected = WindowedRegisterFile(num_windows=num_windows, use_windows=use_windows)
            expected._regs[:] = rf._regs
            oracle_set_spill_unit(expected, window, values)
            rf.set_spill_unit(window, values)
            assert rf._regs == expected._regs


class TestWindowTable:
    @pytest.mark.parametrize("use_windows", [True, False], ids=["windowed", "flat"])
    @pytest.mark.parametrize("num_windows", range(2, 9))
    def test_table_matches_physical_index(self, num_windows, use_windows):
        rf = WindowedRegisterFile(num_windows=num_windows, use_windows=use_windows)
        assert rf._table == tuple(
            tuple(oracle_index(rf, window, reg) for reg in range(32))
            for window in range(num_windows)
        )
        # Window numbers off the table wrap exactly as physical_index does.
        rf._regs[:] = [0x1000 + i for i in range(rf.physical_count)]
        windows = range(-2 * num_windows, 2 * num_windows)
        for window in windows:
            for reg in range(1, 32):
                assert rf.read(window, reg) == 0x1000 + oracle_index(rf, window, reg)
        for window in windows:
            for reg in range(1, 32):
                rf.write(window, reg, window << 8 | reg)
                assert rf._regs[oracle_index(rf, window, reg)] == (window << 8 | reg) & MASK32

    def test_one_table_per_configuration(self):
        assert WindowedRegisterFile(4)._table is WindowedRegisterFile(4)._table
        assert window_table(4, True) is not window_table(4, False)

    @pytest.mark.parametrize("reg", [-1, -32, 32, 99])
    def test_out_of_range_register_raises(self, reg):
        rf = WindowedRegisterFile()
        with pytest.raises(ValueError, match="out of range"):
            rf.read(0, reg)
        with pytest.raises(ValueError, match="out of range"):
            rf.write(0, reg, 1)


class TestFlatMode:
    def test_windows_collapse(self):
        rf = WindowedRegisterFile(use_windows=False)
        rf.write(0, 16, 55)
        for window in range(8):
            assert rf.read(window, 16) == 55

    def test_r0_still_zero(self):
        rf = WindowedRegisterFile(use_windows=False)
        rf.write(3, 0, 1)
        assert rf.read(5, 0) == 0


class TestSnapshot:
    def test_snapshot_has_32_entries(self):
        rf = WindowedRegisterFile()
        snap = rf.snapshot(0)
        assert len(snap) == 32
        assert snap["r0"] == 0

    def test_snapshot_reflects_writes(self):
        rf = WindowedRegisterFile()
        rf.write(1, 20, 7)
        assert rf.snapshot(1)["r20"] == 7

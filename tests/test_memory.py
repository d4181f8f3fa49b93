"""Unit tests for the byte-addressable memory substrate."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.memory import CONSOLE_ADDRESS, JOURNAL_PAGE_BYTES, Memory
from repro.errors import MemoryError_, MemoryFaultError


class TestWordAccess:
    def test_roundtrip(self):
        mem = Memory(size=1024)
        mem.store_word(16, 0xDEADBEEF)
        assert mem.load_word(16) == 0xDEADBEEF

    def test_big_endian_layout(self):
        mem = Memory(size=64)
        mem.store_word(0, 0x01020304)
        assert mem.load_byte(0) == 0x01
        assert mem.load_byte(3) == 0x04

    def test_misaligned_word_raises(self):
        mem = Memory(size=64)
        with pytest.raises(MemoryFaultError) as excinfo:
            mem.load_word(2)
        assert excinfo.value.address == 2
        assert excinfo.value.kind == "misaligned"
        with pytest.raises(MemoryFaultError):
            mem.store_word(3, 1)

    def test_out_of_range_raises(self):
        mem = Memory(size=64)
        with pytest.raises(MemoryFaultError) as excinfo:
            mem.load_word(64)
        assert excinfo.value.address == 64
        assert excinfo.value.kind == "out_of_range"
        with pytest.raises(MemoryFaultError):
            mem.load_byte(-1)

    def test_deprecated_alias_still_catches(self):
        # MemoryError_ is the pre-1.1 name; existing callers keep working.
        assert MemoryError_ is MemoryFaultError
        mem = Memory(size=64)
        with pytest.raises(MemoryError_):
            mem.load_word(2)

    @given(st.integers(0, 0xFFFFFFFF))
    def test_word_roundtrip_property(self, value):
        mem = Memory(size=64)
        mem.store_word(8, value)
        assert mem.load_word(8) == value


class TestSubWordAccess:
    def test_half_roundtrip(self):
        mem = Memory(size=64)
        mem.store_half(2, 0xBEEF)
        assert mem.load_half(2) == 0xBEEF

    def test_half_signed(self):
        mem = Memory(size=64)
        mem.store_half(2, 0x8000)
        assert mem.load_half(2, signed=True) == -0x8000

    def test_byte_signed(self):
        mem = Memory(size=64)
        mem.store_byte(1, 0xFF)
        assert mem.load_byte(1, signed=True) == -1
        assert mem.load_byte(1) == 0xFF

    def test_misaligned_half_raises(self):
        mem = Memory(size=64)
        with pytest.raises(MemoryFaultError):
            mem.load_half(1)

    def test_store_masks_value(self):
        mem = Memory(size=64)
        mem.store_byte(0, 0x1FF)
        assert mem.load_byte(0) == 0xFF


class TestStats:
    def test_data_counters(self):
        mem = Memory(size=64)
        mem.store_word(0, 1)
        mem.load_word(0)
        mem.load_byte(1)
        assert mem.stats.data_writes == 1
        assert mem.stats.data_reads == 2
        assert mem.stats.data_refs == 3

    def test_fetch_counted_separately(self):
        mem = Memory(size=64)
        mem.fetch_word(0)
        assert mem.stats.inst_reads == 1
        assert mem.stats.data_reads == 0
        assert mem.stats.total_refs == 1

    def test_uncounted_access(self):
        mem = Memory(size=64)
        mem.store_word(0, 5, count=False)
        assert mem.load_word(0, count=False) == 5
        assert mem.stats.total_refs == 0

    def test_reset(self):
        mem = Memory(size=64)
        mem.store_word(0, 1)
        mem.stats.reset()
        assert mem.stats.total_refs == 0


class TestBulkHelpers:
    def test_words_roundtrip(self):
        mem = Memory(size=256)
        mem.store_words(16, [1, 2, 3])
        assert mem.load_words(16, 3) == [1, 2, 3]
        assert mem.stats.total_refs == 0

    def test_load_program(self):
        mem = Memory(size=256)
        mem.load_program([0xAABBCCDD, 0x11223344], base=8)
        assert mem.load_word(8, count=False) == 0xAABBCCDD
        assert mem.load_word(12, count=False) == 0x11223344

    def test_cstring_roundtrip(self):
        mem = Memory(size=256)
        mem.write_cstring(32, "hello")
        assert mem.read_cstring(32) == "hello"

    def test_cstring_empty(self):
        mem = Memory(size=256)
        mem.write_cstring(32, "")
        assert mem.read_cstring(32) == ""


def oracle_load_words(mem: Memory, address: int, n: int, count: bool) -> list[int]:
    """The per-word loop the span path must reproduce."""
    return [mem.load_word(address + 4 * i, count=count) for i in range(n)]


def oracle_store_words(mem: Memory, address: int, values: list[int], count: bool) -> None:
    for i, value in enumerate(values):
        mem.store_word(address + 4 * i, value, count=count)


class RecordingDevice:
    """An MMIO device that logs every access."""

    def __init__(self, base: int, limit: int):
        self.base, self.limit = base, limit
        self.log: list[tuple] = []

    def read(self, address: int) -> int:
        self.log.append(("read", address))
        return address ^ 0x5A5A5A5A

    def write(self, address: int, value: int) -> None:
        self.log.append(("write", address, value))


class RecordingListener:
    """A compiled-code watch that logs every notification."""

    def __init__(self, words):
        self.code_words = dict.fromkeys(words, True)
        self.calls: list = []

    def invalidate_code(self, address: int) -> None:
        self.calls.append(address)

    def flush_code(self) -> None:
        self.calls.append("flush")

    def rewind_code(self, dirty: bool) -> None:
        self.calls.append(("rewind", dirty))


MMIO_BASE = 0x8000
WATCHED = 0x5008

#: name -> (address, words): every span shape the bulk helpers route.
SPANS = {
    "plain": (0x4000, 16),
    "plain-across-pages": (0x4000 + JOURNAL_PAGE_BYTES - 32, 16),
    "long-across-pages": (0x4000, 3 * JOURNAL_PAGE_BYTES // 4 + 5),
    "empty": (0x4000, 0),
    "straddles-console": (CONSOLE_ADDRESS - 32, 16),
    "overlaps-mmio": (MMIO_BASE - 24, 16),
    "covers-watched-word": (WATCHED - 32, 16),
    "misaligned": (0x4002, 16),
    "off-the-end": ((1 << 20) - 32, 16),
    "negative": (-8, 4),
}


def bulk_memory(*, extra_listener: bool = False):
    mem = Memory()
    for i in range(0x3000, 0x6000, 4):
        mem.store_word(i, i * 0x01010101, count=False)
    device = RecordingDevice(MMIO_BASE, MMIO_BASE + 16)
    mem.map_mmio(device)
    listener = RecordingListener([WATCHED >> 2])
    mem.attach_exec_listener(listener)
    listeners = [listener]
    if extra_listener:
        listeners.append(RecordingListener([(0x4000 >> 2) + 3]))
        mem.attach_exec_listener(listeners[-1])
    cp = mem.checkpoint(track_deltas=True)
    return mem, cp, device, listeners


def observe(mem: Memory, device, listeners, outcome) -> tuple:
    return (
        outcome,
        bytes(mem._bytes),
        (mem.stats.inst_reads, mem.stats.data_reads, mem.stats.data_writes),
        list(mem.console),
        list(device.log),
        [list(listener.calls) for listener in listeners],
    )


def attempt(action):
    try:
        return ("ok", action())
    except MemoryFaultError as exc:
        return ("fault", exc.address, exc.kind)


class TestBulkHelpersMatchPerWordOracle:
    @pytest.mark.parametrize("extra_listener", [False, True], ids=["one-watch", "extra-watch"])
    @pytest.mark.parametrize("count", [False, True], ids=["uncounted", "counted"])
    @pytest.mark.parametrize("span", SPANS)
    def test_store_words(self, span, count, extra_listener):
        address, n = SPANS[span]
        # Values wider than 32 bits and negative ones are masked like store_word.
        values = [0x1_0000_0041 + i if i % 3 else -i - 1 for i in range(n)]
        results = []
        for store in (Memory.store_words, oracle_store_words):
            mem, cp, device, listeners = bulk_memory(extra_listener=extra_listener)
            outcome = attempt(lambda: store(mem, address, values, count=count))
            after = observe(mem, device, listeners, outcome)
            mem.restore(cp)
            results.append((after, bytes(mem._bytes)))
        assert results[0] == results[1]
        # The journal rolled every touched page back.
        assert results[0][1] == bytes(bulk_memory()[0]._bytes)

    @pytest.mark.parametrize("count", [False, True], ids=["uncounted", "counted"])
    @pytest.mark.parametrize("span", SPANS)
    def test_load_words(self, span, count):
        address, n = SPANS[span]
        results = []
        for load in (Memory.load_words, oracle_load_words):
            mem, __, device, listeners = bulk_memory()
            outcome = attempt(lambda: load(mem, address, n, count=count))
            results.append(observe(mem, device, listeners, outcome))
        assert results[0] == results[1]

    def test_fallback_spans_reach_devices(self):
        mem, __, device, (listener,) = bulk_memory()
        mem.store_words(SPANS["overlaps-mmio"][0], list(range(16)), count=True)
        # The span covers all four device registers, one write each.
        assert [entry[0] for entry in device.log] == ["write"] * 4
        mem.store_words(SPANS["covers-watched-word"][0], [0] * 16)
        assert listener.calls == [WATCHED]
        mem.store_words(SPANS["straddles-console"][0], [ord("x")] * 16)
        assert mem.console_output == "x"


class TestCheckpoint:
    def test_full_image_restore(self):
        mem = Memory(size=1024)
        mem.store_word(0, 0xAAAA5555)
        cp = mem.checkpoint()
        mem.store_word(0, 1)
        mem.store_word(512, 2)
        mem.restore(cp)
        assert mem.load_word(0, count=False) == 0xAAAA5555
        assert mem.load_word(512, count=False) == 0

    def test_delta_restore_rolls_back_only_touched_pages(self):
        mem = Memory(size=4096)
        mem.store_word(0, 0x11111111)
        cp = mem.checkpoint(track_deltas=True)
        mem.store_word(0, 0x22222222)
        mem.store_byte(3000, 0x7F)
        mem.restore(cp)
        assert mem.load_word(0, count=False) == 0x11111111
        assert mem.load_byte(3000, count=False) == 0

    def test_delta_restore_dirties_code_only_when_a_watched_word_rolls_back(self):
        mem = Memory(size=4096)
        listener = RecordingListener([0x100 >> 2])
        mem.set_exec_listener(listener)
        cp = mem.checkpoint(track_deltas=True)
        mem.store_word(0x104, 7)  # the watched word's page, another word
        mem.restore(cp)
        mem.store_word(0x100, 0)  # the watched word, rewritten unchanged
        mem.restore(cp)
        mem.store_word(0x100, 9)
        mem.restore(cp)
        mem.restore(mem.checkpoint())  # a full image is always dirty
        assert listener.calls == [
            ("rewind", False), 0x100, ("rewind", False), 0x100,
            ("rewind", True), ("rewind", True),
        ]

    def test_restore_rewinds_stats_and_console(self):
        mem = Memory(size=1024)
        cp = mem.checkpoint()
        mem.store_word(0, 1)
        mem.load_word(0)
        mem.restore(cp)
        assert mem.stats.total_refs == 0

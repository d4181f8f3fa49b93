"""Unit tests for the byte-addressable memory substrate."""

import weakref
from types import SimpleNamespace

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
    """An attached engine with one unit of compiled code per watched word
    (given as word indices); logs every notification, a store hitting a
    unit as the unit's address."""

    def __init__(self, words):
        self.units = [
            SimpleNamespace(widx=(wi,), eng=weakref.ref(self)) for wi in words
        ]
        self.calls: list = []

    def attach_to(self, mem: Memory) -> "RecordingListener":
        mem.attach(self)
        for unit in self.units:
            mem.watch(unit)
        return self

    def invalidate_code(self, unit) -> None:
        self.calls.append(unit.widx[0] * 4)

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


def bulk_memory(*, extra_watch: bool = False, attach: bool = True):
    """A memory with a device and one attached compiled-code listener
    (unattached without *attach*); with ``extra_watch`` the listener
    also watches a word inside the plain spans, so their bulk writes
    must take the per-word path."""
    mem = Memory()
    for i in range(0x3000, 0x6000, 4):
        mem.store_word(i, i * 0x01010101, count=False)
    device = RecordingDevice(MMIO_BASE, MMIO_BASE + 16)
    mem.map_mmio(device)
    words = [WATCHED >> 2]
    if extra_watch:
        words.append((0x4000 >> 2) + 3)
    listener = RecordingListener(words)
    if attach:
        listener.attach_to(mem)
    cp = mem.checkpoint(track_deltas=True)
    return mem, cp, device, [listener]


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
    @pytest.mark.parametrize("extra_watch", [False, True], ids=["one-watch", "extra-watch"])
    @pytest.mark.parametrize("count", [False, True], ids=["uncounted", "counted"])
    @pytest.mark.parametrize("span", SPANS)
    def test_store_words(self, span, count, extra_watch):
        address, n = SPANS[span]
        # Values wider than 32 bits and negative ones are masked like store_word.
        values = [0x1_0000_0041 + i if i % 3 else -i - 1 for i in range(n)]
        results = []
        for store in (Memory.store_words, oracle_store_words):
            mem, cp, device, listeners = bulk_memory(extra_watch=extra_watch)
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
        listener = RecordingListener([0x100 >> 2]).attach_to(mem)
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


class TestSharedWatch:
    """One write watch per memory, shared by every attached engine."""

    def test_every_engine_hears_every_notification(self):
        mem = Memory(size=4096)
        first = RecordingListener([0x100 >> 2]).attach_to(mem)
        second = RecordingListener([0x100 >> 2, 0x200 >> 2]).attach_to(mem)
        cp = mem.checkpoint(track_deltas=True)
        mem.store_word(0x100, 1)  # code of both engines
        mem.store_byte(0x203, 1)  # code of the second only
        mem.restore(cp)
        mem.load_program([0], base=0x800)
        mem.map_mmio(None)
        tail = [("rewind", True), "flush", "flush"]
        assert first.calls == [0x100, *tail]
        assert second.calls == [0x100, 0x200, *tail]

    def test_units_of_a_dead_engine_leave_at_the_next_attach(self):
        mem = Memory(size=4096)
        RecordingListener([0x100 >> 2]).attach_to(mem)  # dies at once
        mem.pin_word(0x100, 1, 1)
        live = RecordingListener([0x200 >> 2]).attach_to(mem)
        assert mem._exec_watch == {0x100 >> 2: [], 0x200 >> 2: live.units}
        mem.store_word(0x100, 0)
        assert live.calls == []


class TestPins:
    """A pinned word keeps its stuck bits through every store path."""

    PINNED = 0x4008

    @pytest.mark.parametrize("listener", [False, True], ids=["no-listener", "listener"])
    def test_every_store_path_re_applies_the_pin(self, listener):
        mem, cp, __, (code,) = bulk_memory(attach=listener)
        watch_before = None if not listener else dict(mem._exec_watch)
        assert mem.pin_word(self.PINNED, 0x0000_00F0, 0x0000_0050)
        assert mem.load_word(self.PINNED, count=False) & 0xF0 == 0x50
        stores = [
            lambda: mem.store_word(self.PINNED, 0xFFFF_FFFF),
            lambda: mem.store_half(self.PINNED + 2, 0xFFFF),
            lambda: mem.store_byte(self.PINNED + 3, 0x0F),
            lambda: mem.store_words(self.PINNED - 8, [0xFFFF_FFFF] * 4),
            lambda: mem.store_words(self.PINNED - 8, [0] * 4),
        ]
        for store in stores:
            store()
            assert mem.load_word(self.PINNED, count=False) & 0xF0 == 0x50
        # A second pin on the word applies after the first.
        mem.pin_word(self.PINNED, 0x0000_0030, 0x0000_0000)
        mem.store_word(self.PINNED, 0xFFFF_FFFF)
        assert mem.load_word(self.PINNED, count=False) == 0xFFFF_FF4F
        mem.unpin_word(self.PINNED)
        mem.store_word(self.PINNED, 0xFFFF_FFFF)
        assert mem.load_word(self.PINNED, count=False) == 0xFFFF_FFFF
        assert mem._pins == {}
        if listener:
            assert mem._exec_watch == watch_before
            assert code.calls == []  # a pin on a word that is not code
        else:
            assert mem._exec_watch is None
        mem.restore(cp)
        assert bytes(mem._bytes) == bytes(bulk_memory()[0]._bytes)

    def test_only_plain_ram_pins(self):
        mem, __, __, __ = bulk_memory()
        for address in (CONSOLE_ADDRESS, MMIO_BASE, 0x4002, 1 << 20, -4):
            assert not mem.pin_word(address, 1, 1)
        assert mem._pins == {}

    def test_a_pinned_code_word_is_forced_before_the_listener_hears(self):
        mem, __, __, (code,) = bulk_memory()
        assert mem.pin_word(WATCHED, 0x1, 0x1)
        forced = []
        code.invalidate_code = lambda unit: forced.append(
            (unit.widx[0] * 4, mem.load_word(WATCHED, count=False))
        )
        mem.store_word(WATCHED, 0x10)
        mem.unpin_word(WATCHED)
        assert forced == [(WATCHED, 0x11)]
        assert mem._exec_watch[WATCHED >> 2] == code.units  # still code after the pin

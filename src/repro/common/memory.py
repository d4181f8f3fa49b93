"""Byte-addressable big-endian memory with access accounting.

The RISC I evaluation hinges on *memory traffic* (the paper weights HLL
operations by the memory references they cost), so every read and write is
counted.  Instruction fetches and data accesses are tracked separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from struct import error as struct_error, pack_into, unpack_from

from repro.errors import MemoryFaultError

WORD_BYTES = 4
HALF_BYTES = 2

#: Granularity of the write journal used by delta checkpoints.  A page
#: is small enough that a faulted run touching a few hundred words rolls
#: back in microseconds, and aligned accesses never straddle a page.
JOURNAL_PAGE_BYTES = 256
_PAGE_WORDS = JOURNAL_PAGE_BYTES // WORD_BYTES

#: Memory-mapped console: bytes stored here appear on the simulated
#: terminal instead of in RAM (reads return 0 = "ready").  Below the
#: window-save region, above the software stack.
CONSOLE_ADDRESS = 0xF0000


@dataclass
class MemoryStats:
    """Counters for one memory instance.

    Attributes:
        inst_reads: instruction-fetch word reads.
        data_reads: data-side reads (any width).
        data_writes: data-side writes (any width).
    """

    inst_reads: int = 0
    data_reads: int = 0
    data_writes: int = 0

    @property
    def data_refs(self) -> int:
        """Total data-side references (reads + writes)."""
        return self.data_reads + self.data_writes

    @property
    def total_refs(self) -> int:
        """All references including instruction fetches."""
        return self.inst_reads + self.data_refs

    def reset(self) -> None:
        self.inst_reads = 0
        self.data_reads = 0
        self.data_writes = 0


@dataclass(frozen=True)
class MemoryCheckpoint:
    """Snapshot of a :class:`Memory` taken by :meth:`Memory.checkpoint`.

    ``image`` is the full byte image for a standalone checkpoint, or
    ``None`` for a delta checkpoint (the memory's write journal carries
    the undo information instead).
    """

    image: bytes | None
    stats: tuple[int, int, int]
    console_len: int


@dataclass
class Memory:
    """A flat big-endian byte-addressable memory.

    Backed by a ``bytearray``; all accesses are bounds-checked, and word /
    halfword accesses must be naturally aligned (RISC I requires alignment;
    misalignment is an addressing trap, modelled here as an exception).
    """

    size: int = 1 << 20
    stats: MemoryStats = field(default_factory=MemoryStats)

    def __post_init__(self) -> None:
        self._bytes = bytearray(self.size)
        self.console: list[str] = []
        # Write journal for delta checkpoints: page index -> original
        # bytes.  ``None`` means journaling is off (the common case; the
        # store paths pay a single identity test per write).
        self._journal: dict[int, bytes] | None = None
        # Executable-code write watch, installed by a block-compiling
        # execution engine (see repro.cpu.blockengine).  ``_exec_watch``
        # maps word index (address >> 2) -> anything truthy for every
        # word covered by compiled code; a store that lands on a watched
        # word notifies the listener so stale compiled blocks are
        # invalidated.  ``None`` means no engine is watching (the common
        # case; store paths pay one identity test per write).
        self._exec_watch: dict | None = None
        self._exec_listener = None
        # Additional compiled-code listeners beyond the primary one -
        # used when several cores' engines share one memory (see
        # repro.multicore).  Empty in the single-core common case, so
        # the store paths pay one truthiness test per write.
        self._extra_exec_listeners: list = []
        # Optional memory-mapped device region (see Memory.map_mmio).
        # ``None`` keeps every access on the plain-RAM fast path.
        self._mmio = None
        self._mmio_base = 0
        self._mmio_limit = 0

    @property
    def console_output(self) -> str:
        """Everything the program printed through the console device."""
        return "".join(self.console)

    # -- raw access -------------------------------------------------------

    def _check(self, address: int, width: int, aligned: int) -> None:
        if address < 0 or address + width > self.size:
            raise MemoryFaultError(
                f"address {address:#x} out of range (size {self.size:#x})",
                address=address, kind="out_of_range",
            )
        if aligned > 1 and address % aligned:
            raise MemoryFaultError(
                f"misaligned {aligned}-byte access at {address:#x}",
                address=address, kind="misaligned",
            )

    def _journal_touch(self, address: int) -> None:
        """Record the pre-write contents of *address*'s journal page."""
        page = address // JOURNAL_PAGE_BYTES
        journal = self._journal
        if page not in journal:  # type: ignore[operator]
            start = page * JOURNAL_PAGE_BYTES
            journal[page] = bytes(self._bytes[start : start + JOURNAL_PAGE_BYTES])  # type: ignore[index]

    def load_byte(self, address: int, *, signed: bool = False, count: bool = True) -> int:
        if address == CONSOLE_ADDRESS:
            if count:
                self.stats.data_reads += 1
            return 0  # console status: always ready
        self._check(address, 1, 1)
        if self._mmio is not None and self._mmio_base <= address < self._mmio_limit:
            raise MemoryFaultError(
                f"byte access to word-only MMIO register at {address:#x}",
                address=address, kind="mmio_width",
            )
        if count:
            self.stats.data_reads += 1
        value = self._bytes[address]
        if signed and value & 0x80:
            value -= 0x100
        return value

    def load_half(self, address: int, *, signed: bool = False, count: bool = True) -> int:
        self._check(address, HALF_BYTES, HALF_BYTES)
        if self._mmio is not None and self._mmio_base <= address < self._mmio_limit:
            raise MemoryFaultError(
                f"halfword access to word-only MMIO register at {address:#x}",
                address=address, kind="mmio_width",
            )
        if count:
            self.stats.data_reads += 1
        value = int.from_bytes(self._bytes[address : address + HALF_BYTES], "big")
        if signed and value & 0x8000:
            value -= 0x10000
        return value

    def load_word(self, address: int, *, count: bool = True) -> int:
        """Read an aligned 32-bit word (unsigned view)."""
        if address == CONSOLE_ADDRESS:
            if count:
                self.stats.data_reads += 1
            return 0
        self._check(address, WORD_BYTES, WORD_BYTES)
        mmio = self._mmio
        if mmio is not None and self._mmio_base <= address < self._mmio_limit:
            if count:
                self.stats.data_reads += 1
            return mmio.read(address) & 0xFFFFFFFF
        if count:
            self.stats.data_reads += 1
        return int.from_bytes(self._bytes[address : address + WORD_BYTES], "big")

    def fetch_word(self, address: int) -> int:
        """Read a word on the instruction-fetch path (counted separately)."""
        self._check(address, WORD_BYTES, WORD_BYTES)
        self.stats.inst_reads += 1
        return int.from_bytes(self._bytes[address : address + WORD_BYTES], "big")

    def store_byte(self, address: int, value: int, *, count: bool = True) -> None:
        if address == CONSOLE_ADDRESS:
            if count:
                self.stats.data_writes += 1
            self.console.append(chr(value & 0xFF))
            return
        self._check(address, 1, 1)
        if self._mmio is not None and self._mmio_base <= address < self._mmio_limit:
            raise MemoryFaultError(
                f"byte access to word-only MMIO register at {address:#x}",
                address=address, kind="mmio_width",
            )
        if count:
            self.stats.data_writes += 1
        if self._journal is not None:
            self._journal_touch(address)
        self._bytes[address] = value & 0xFF
        watch = self._exec_watch
        if watch is not None and (address >> 2) in watch:
            self._exec_listener.invalidate_code(address)
        if self._extra_exec_listeners:
            self._notify_extra_listeners(address)

    def store_half(self, address: int, value: int, *, count: bool = True) -> None:
        self._check(address, HALF_BYTES, HALF_BYTES)
        if self._mmio is not None and self._mmio_base <= address < self._mmio_limit:
            raise MemoryFaultError(
                f"halfword access to word-only MMIO register at {address:#x}",
                address=address, kind="mmio_width",
            )
        if count:
            self.stats.data_writes += 1
        if self._journal is not None:
            self._journal_touch(address)
        self._bytes[address : address + HALF_BYTES] = (value & 0xFFFF).to_bytes(2, "big")
        watch = self._exec_watch
        if watch is not None and (address >> 2) in watch:
            self._exec_listener.invalidate_code(address)
        if self._extra_exec_listeners:
            self._notify_extra_listeners(address)

    def store_word(self, address: int, value: int, *, count: bool = True) -> None:
        if address == CONSOLE_ADDRESS:
            if count:
                self.stats.data_writes += 1
            self.console.append(chr(value & 0xFF))
            return
        self._check(address, WORD_BYTES, WORD_BYTES)
        mmio = self._mmio
        if mmio is not None and self._mmio_base <= address < self._mmio_limit:
            if count:
                self.stats.data_writes += 1
            mmio.write(address, value & 0xFFFFFFFF)
            return
        if count:
            self.stats.data_writes += 1
        if self._journal is not None:
            self._journal_touch(address)
        self._bytes[address : address + WORD_BYTES] = (value & 0xFFFFFFFF).to_bytes(4, "big")
        watch = self._exec_watch
        if watch is not None and (address >> 2) in watch:
            self._exec_listener.invalidate_code(address)
        if self._extra_exec_listeners:
            self._notify_extra_listeners(address)

    # -- memory-mapped devices ----------------------------------------------

    def map_mmio(self, device) -> None:
        """Map (or unmap, with ``None``) a word-addressed device region.

        *device* must expose ``base`` and ``limit`` byte addresses (the
        half-open window ``[base, limit)``), plus ``read(address) -> int``
        and ``write(address, value)`` handlers for aligned word accesses.
        Word loads and stores inside the window are routed to the device
        instead of RAM; byte and halfword accesses inside the window
        raise :class:`~repro.errors.MemoryFaultError` (``kind
        "mmio_width"``) because device registers have no sub-word
        semantics.  Instruction fetches are never routed - code cannot
        execute out of device registers.
        """
        if device is None:
            self._mmio = None
            self._mmio_base = self._mmio_limit = 0
            return
        self._mmio = device
        self._mmio_base = device.base
        self._mmio_limit = device.limit

    # -- compiled-code write watch ------------------------------------------

    def _notify_extra_listeners(self, address: int) -> None:
        """Propagate a store to every non-primary compiled-code watch."""
        word = address >> 2
        for listener in self._extra_exec_listeners:
            if word in listener.code_words:
                listener.invalidate_code(address)

    def set_exec_listener(self, listener) -> None:
        """Install (or clear, with ``None``) a compiled-code write watch.

        *listener* must expose ``code_words`` (a dict keyed by word index,
        ``address >> 2``, covering every word with compiled code behind it),
        ``invalidate_code(address)``, ``flush_code()`` and
        ``rewind_code(dirty)``.  Stores that hit a watched word call
        ``invalidate_code``; ``load_program`` calls ``flush_code``;
        :meth:`restore` calls ``rewind_code``.
        """
        self._exec_listener = listener
        self._exec_watch = listener.code_words if listener is not None else None

    def attach_exec_listener(self, listener) -> None:
        """Add a compiled-code write watch without displacing existing ones.

        Multi-core safe variant of :meth:`set_exec_listener`: the first
        listener becomes the primary fast-path watch, later ones join
        ``_extra_exec_listeners`` so several block-compiling engines over
        one shared memory each see cross-core code writes.  Attaching a
        listener that is already installed is a no-op.
        """
        if listener is self._exec_listener or listener in self._extra_exec_listeners:
            return
        if self._exec_listener is None:
            self.set_exec_listener(listener)
        else:
            self._extra_exec_listeners.append(listener)

    # -- checkpoint / rollback ---------------------------------------------

    def checkpoint(self, *, track_deltas: bool = False) -> MemoryCheckpoint:
        """Snapshot the memory for later :meth:`restore`.

        With ``track_deltas`` the snapshot is O(1): instead of copying the
        image, a write journal starts recording the original contents of
        every page touched after this point, and ``restore`` rolls those
        pages back.  Delta checkpoints are what the fault campaigns use to
        rewind a 1 MiB machine thousands of times cheaply.  A delta
        checkpoint is invalidated by taking another checkpoint (the
        journal restarts).
        """
        if track_deltas:
            self._journal = {}
            image = None
        else:
            image = bytes(self._bytes)
        stats = (self.stats.inst_reads, self.stats.data_reads, self.stats.data_writes)
        return MemoryCheckpoint(image=image, stats=stats, console_len=len(self.console))

    def restore(self, cp: MemoryCheckpoint) -> None:
        """Rewind to *cp*; a delta checkpoint stays live for reuse.

        Every compiled-code listener hears ``rewind_code(dirty)``.  A
        full-image restore is always *dirty*; a delta restore is dirty
        for a listener only when it rolls back a word the listener
        watches.  Compiled code always matches the current value of its
        watched words (stores to them invalidate it), so code whose
        words the restore leaves alone stays valid.
        """
        listeners = self._exec_listeners()
        if cp.image is not None:
            self._bytes[:] = cp.image
            dirty = [True] * len(listeners)
        else:
            journal = self._journal
            if journal is None:
                raise ValueError("delta checkpoint restore without an active journal")
            dirty = [
                self._rolls_back(journal, listener.code_words)
                for listener in listeners
            ]
            data = self._bytes
            for page, original in journal.items():
                start = page * JOURNAL_PAGE_BYTES
                data[start : start + len(original)] = original
            journal.clear()
        self.stats.inst_reads, self.stats.data_reads, self.stats.data_writes = cp.stats
        del self.console[cp.console_len :]
        for listener, code_dirty in zip(listeners, dirty):
            listener.rewind_code(code_dirty)

    def _rolls_back(self, journal: dict[int, bytes], words) -> bool:
        """Whether restoring *journal* changes any of *words* (word
        indices, ``address >> 2``)."""
        data = self._bytes
        for wi in words:
            original = journal.get(wi // _PAGE_WORDS)
            if original is not None:
                offset = (wi % _PAGE_WORDS) * WORD_BYTES
                address = wi * WORD_BYTES
                if original[offset : offset + WORD_BYTES] != data[address : address + WORD_BYTES]:
                    return True
        return False

    def _exec_listeners(self) -> list:
        """The primary compiled-code listener, if any, then the extras."""
        primary = [] if self._exec_listener is None else [self._exec_listener]
        return primary + self._extra_exec_listeners

    def _flush_exec_listeners(self) -> None:
        """Drop all compiled code after a wholesale image rewrite."""
        for listener in self._exec_listeners():
            listener.flush_code()

    def stop_tracking(self) -> None:
        """Drop the delta journal (delta checkpoints become unusable)."""
        self._journal = None

    # -- bulk helpers -------------------------------------------------------

    def _plain_span(self, address: int, end: int) -> bool:
        """Whether ``[address, end)`` is aligned in-range RAM, free of the
        console and MMIO window, so one bytes operation moves all of it."""
        return (
            not address & 3
            and 0 <= address
            and end <= self.size
            and not address <= CONSOLE_ADDRESS < end
            and (
                self._mmio is None or end <= self._mmio_base or address >= self._mmio_limit
            )
        )

    def load_words(self, address: int, n: int, *, count: bool = False) -> list[int]:
        """Read *n* consecutive words, exactly as *n* :meth:`load_word` calls.

        With ``count`` each word raises ``data_reads`` by one.  A span of
        plain RAM (see :meth:`_plain_span`) is read with one
        ``unpack_from``; any other span - one that reaches the console, the
        MMIO window, is misaligned or leaves memory - takes the per-word
        loop, so device reads and the faulting word stay exact.
        """
        if self._plain_span(address, address + 4 * n):
            if count:
                self.stats.data_reads += n
            return list(unpack_from(f">{n}I", self._bytes, address))
        return [self.load_word(address + 4 * i, count=count) for i in range(n)]

    def store_words(self, address: int, values: list[int], *, count: bool = False) -> None:
        """Write consecutive words, exactly as one :meth:`store_word` each.

        With ``count`` each word raises ``data_writes`` by one.  A span of
        plain RAM that covers no watched code word and has no extra
        compiled-code listener is written with one ``pack_into`` after
        journaling its pages.  Any other span takes the per-word loop, so
        console output, MMIO writes, code invalidation after each word and
        the partial writes before a fault stay exact.
        """
        n = len(values)
        end = address + 4 * n
        watch = self._exec_watch
        if (
            self._plain_span(address, end)
            and (watch is None or watch.keys().isdisjoint(range(address >> 2, end >> 2)))
            and not self._extra_exec_listeners
        ):
            if count:
                self.stats.data_writes += n
            if self._journal is not None and n:
                for page_start in range(address, end, JOURNAL_PAGE_BYTES):
                    self._journal_touch(page_start)
                self._journal_touch(end - 1)
            try:
                pack_into(f">{n}I", self._bytes, address, *values)
            except struct_error:  # a value wider than 32 bits: mask as store_word does
                masked = [value & 0xFFFFFFFF for value in values]
                pack_into(f">{n}I", self._bytes, address, *masked)
            return
        for i, value in enumerate(values):
            self.store_word(address + 4 * i, value, count=count)

    def load_program(self, words: list[int], base: int = 0) -> None:
        """Copy an encoded program image into memory starting at *base*.

        The image goes through :meth:`store_words` uncounted (one span
        write on plain RAM); compiled code is then dropped wholesale.
        """
        self.store_words(base, words)
        self._flush_exec_listeners()

    def read_cstring(self, address: int, limit: int = 4096) -> str:
        """Read a NUL-terminated byte string (for the sed-style workloads)."""
        chars = []
        for offset in range(limit):
            byte = self.load_byte(address + offset, count=False)
            if byte == 0:
                break
            chars.append(chr(byte))
        return "".join(chars)

    def write_cstring(self, address: int, text: str) -> None:
        for offset, char in enumerate(text):
            self.store_byte(address + offset, ord(char), count=False)
        self.store_byte(address + len(text), 0, count=False)

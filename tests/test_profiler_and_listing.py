"""Tests for the per-function profiler, listings, and the ISA doc generator."""

from repro import RiscMachine, assemble
from repro.cc import compile_for_risc
from repro.cpu.profiler import Profiler, function_symbols
from repro.isa.docs import (
    aliases_table,
    condition_table,
    instruction_table,
    register_map,
    render_reference,
)


class TestProfiler:
    SOURCE = """
    int slow(int n) { int i; int s = 0; for (i = 0; i < n; i = i + 1) s = s + i; return s; }
    int fast(int n) { return n + 1; }
    int main() {
        int total = 0;
        total = total + slow(200);
        total = total + fast(1);
        return total;
    }
    """

    def profile(self):
        compiled = compile_for_risc(self.SOURCE)
        machine = compiled.make_machine(engine="reference")
        profiler = Profiler(machine, function_symbols(compiled.program.symbols))
        profiler.run(compiled.program.entry)
        return profiler

    def test_function_symbols_filter(self):
        compiled = compile_for_risc(self.SOURCE)
        names = set(function_symbols(compiled.program.symbols))
        assert {"main", "_main", "_slow", "_fast"} <= names
        assert not any(name.startswith("L0") for name in names)
        assert not any(name.startswith("__epi") for name in names)

    def test_hot_function_dominates(self):
        profiler = self.profile()
        hotspots = profiler.hotspots()
        assert hotspots[0].name == "_slow"

    def test_call_counts(self):
        profiler = self.profile()
        by_name = {p.name: p for p in profiler.hotspots()}
        assert by_name["_slow"].calls == 1
        assert by_name["_fast"].calls == 1

    def test_cycles_attributed_completely(self):
        profiler = self.profile()
        machine_cycles = profiler.machine.stats.cycles
        attributed = sum(p.cycles for p in profiler.profiles)
        assert attributed == machine_cycles

    def test_report_format(self):
        report = self.profile().report()
        assert "_slow" in report
        assert "%" in report

    def test_data_symbols_show_no_instructions(self):
        program = assemble("main:\n ret\n nop\ndata:\n .word 1, 2, 3")
        machine = RiscMachine()
        program.load_into(machine.memory)
        profiler = Profiler(machine, dict(program.symbols))
        profiler.run(program.entry)
        names = [p.name for p in profiler.hotspots()]
        assert "data" not in names


class TestListing:
    def test_listing_contains_symbols_and_lines(self):
        program = assemble("main:\n add r1, r2, r3\nloop:\n b loop\n nop")
        listing = program.listing()
        assert "main:" in listing
        assert "loop:" in listing
        assert "add r1, r2, r3" in listing
        assert "; line 2" in listing

    def test_listing_survives_data_words(self):
        program = assemble("main:\n ret\n nop\n .word 0xFFFFFFFF")
        listing = program.listing()
        assert ".word" in listing or "0xffffffff" in listing.lower()


class TestIsaDocs:
    def test_instruction_table_has_all_31(self):
        table = instruction_table()
        assert table.count("| `") == 31

    def test_register_map_mentions_138(self):
        assert "138" in register_map()

    def test_condition_table_has_16_entries(self):
        assert condition_table().count("| `") == 16

    def test_aliases(self):
        table = aliases_table()
        assert "`sp`" in table and "`ra`" in table

    def test_full_reference_renders(self):
        text = render_reference()
        assert text.startswith("# RISC I instruction-set reference")
        for section in ("## Instructions", "## Registers", "## Jump conditions"):
            assert section in text

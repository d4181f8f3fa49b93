"""Tests for the experiment drivers (tables, figures, ablations).

Heavier full-suite runs live in benchmarks/; these tests use the fast
benchmark subset and check the *shape* claims each experiment makes.
"""

import pytest

from repro.baselines import ALL_TRAITS, CiscExecutor
from repro.cc import compile_to_ir, compiler
from repro.cc.ciscgen import compile_for_cisc
from repro.evaluation import Table, run_benchmark_matrix
from repro.evaluation import (
    ablations,
    common,
    f1_formats,
    f2_windows,
    f3_delayed_branch,
    f4_window_sweep,
    t1_hll_frequency,
    t2_machines,
    t3_call_overhead,
    t4_code_size,
    t5_exec_time,
    t6_window_overflow,
    t7_chip_area,
)
from repro.evaluation.common import FAST_SUBSET, RISC_NAME, VAX_NAME
from repro.workloads import benchmark


class TestTableRendering:
    def test_alignment_and_title(self):
        table = Table("Demo", ["name", "value"])
        table.add_row("alpha", 1)
        table.add_row("b", 22.5)
        text = table.render()
        assert "Demo" in text
        assert "22.50" in text

    def test_column_access(self):
        table = Table("Demo", ["a", "b"])
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.column("b") == [2, 4]


class TestMatrix:
    def test_records_have_consistent_results(self):
        records = run_benchmark_matrix(FAST_SUBSET)
        for name in FAST_SUBSET:
            values = {records[(name, machine)].result
                      for __, machine in records if __ == name}
            assert len(values) == 1, f"{name}: targets disagree {values}"

    def test_cisc_records_match_direct_per_machine_runs(self):
        # The matrix runs each distinct program once and prices it per
        # machine; a direct run of every machine must agree on every field.
        records = run_benchmark_matrix(FAST_SUBSET)
        for name in FAST_SUBSET:
            ir = compile_to_ir(benchmark(name).source)
            for traits in ALL_TRAITS:
                generated = compile_for_cisc(ir, traits)
                executor = CiscExecutor(generated.program, traits)
                result = executor.run()
                record = records[(name, traits.name)]
                assert (record.result, record.instructions, record.cycles,
                        record.data_refs, record.code_bytes) == (
                    result, executor.instructions_executed, executor.cycles,
                    executor.memory.stats.data_refs, generated.static_bytes,
                ), (name, traits.name)

    def test_subsets_reuse_every_run(self, monkeypatch):
        # RISC records come from each program's memoized profile and the
        # baseline records are cached per benchmark, so any subset of an
        # earlier matrix runs nothing again.
        first = run_benchmark_matrix(FAST_SUBSET)

        def no_run(*args):
            raise AssertionError("the matrix ran a program again")

        monkeypatch.setattr(common, "run_distinct", no_run)
        monkeypatch.setattr(compiler, "profile_machine", no_run)
        subset = FAST_SUBSET[1:]
        assert run_benchmark_matrix(subset) == {
            key: record for key, record in first.items() if key[0] in subset
        }


class TestT1:
    def test_call_dominates_weighted_columns(self):
        table = t1_hll_frequency.run(FAST_SUBSET)
        operations = table.column("operation")
        refs = table.column("memory-ref %")
        by_op = dict(zip(operations, refs))
        assert by_op["CALL"] == max(refs)

    def test_occurrence_of_call_is_not_dominant(self):
        table = t1_hll_frequency.run(FAST_SUBSET)
        by_op = dict(zip(table.column("operation"), table.column("occurrence %")))
        assert by_op["CALL"] < 50.0


class TestT2:
    def test_risc_row_claims(self):
        table = t2_machines.run()
        risc = [row for row in table.rows if row[0] == "RISC I"][0]
        assert risc[2] == 31  # instructions
        assert risc[3] == 0  # microcode bits
        assert risc[4] == "32-32"  # fixed size
        assert risc[5] == 138

    def test_all_machines_present(self):
        names = set(table_row[0] for table_row in t2_machines.run().rows)
        assert {"RISC I", "VAX-11/780", "MC68000", "Z8002", "IBM 370/168"} <= names


class TestT3:
    def test_windows_cut_call_memory_traffic(self):
        table = t3_call_overhead.run(calls=100)
        by_machine = {row[0]: row for row in table.rows}
        risc_refs = by_machine["RISC I"][2]
        for machine in (VAX_NAME, "MC68000"):
            assert by_machine[machine][2] > risc_refs + 4

    def test_risc_call_nearly_free(self):
        table = t3_call_overhead.run(calls=100)
        by_machine = {row[0]: row for row in table.rows}
        assert by_machine["RISC I"][2] < 2.0  # data refs per call


class TestT4T5:
    def test_code_size_shape(self):
        ratio = t4_code_size.mean_risc_to_vax_ratio(FAST_SUBSET)
        assert 1.0 < ratio < 2.0  # paper: modestly larger, not smaller

    def test_risc_wins_execution_time_on_call_heavy_code(self):
        slowdowns = t5_exec_time.speedup_over("MC68000", FAST_SUBSET)
        assert all(factor > 1.0 for factor in slowdowns.values())
        assert slowdowns["towers"] > 2.0

    def test_t5_table_renders(self):
        text = t5_exec_time.run(FAST_SUBSET).render()
        assert "RISC I" in text


class TestT6:
    def test_more_windows_fewer_overflows(self):
        table = t6_window_overflow.run(FAST_SUBSET, window_counts=(4, 8, 16))
        for row in table.rows:
            rates = [float(cell.rstrip("%")) for cell in row[3:]]
            assert rates == sorted(rates, reverse=True)

    def test_towers_rarely_overflows_with_8_windows(self):
        assert t6_window_overflow.overflow_rate("towers", 8) < 0.05

    def test_ackermann_pathology(self):
        assert t6_window_overflow.overflow_rate("ackermann", 8) > 0.2


class TestT7:
    def test_control_percentages(self):
        table = t7_chip_area.run()
        by_machine = {row[0]: row[1] for row in table.rows}
        assert by_machine["RISC I"] < 10
        assert by_machine["MC68000"] > 30


class TestFigures:
    def test_f1_mentions_both_formats(self):
        text = f1_formats.run()
        assert "short-immediate" in text
        assert "long-immediate" in text
        assert "opcode" in text

    def test_f2_shows_overlap_identity(self):
        text = f2_windows.run()
        assert "==" in text
        assert "138" in text

    def test_f2_consistent_for_all_windows(self):
        for window in range(8):
            assert "!!" not in f2_windows.run(window)

    def test_f3_illustration_shows_cycle_savings(self):
        text = f3_delayed_branch.illustration()
        assert "cycles: 4" in text
        assert "cycles: 3" in text

    def test_f3_fill_rate_positive(self):
        table = f3_delayed_branch.fill_rate_table(FAST_SUBSET)
        total = [row for row in table.rows if row[0] == "TOTAL"][0]
        assert total[2] > 0

    def test_f4_spills_decrease_with_windows(self):
        table = f4_window_sweep.run(FAST_SUBSET)
        for row in table.rows:
            values = [float(cell) for cell in row[1:]]
            assert values[0] >= values[-1]


class TestAblations:
    def test_a1_windows_help(self):
        table = ablations.a1_windows(("towers", "recursive_qsort"))
        for row in table.rows:
            assert row[5] > row[4]  # flat mode makes more data references

    def test_a2_slot_filling_helps(self):
        table = ablations.a2_delay_slots(("towers",))
        row = table.rows[0]
        assert row[1] < row[2]  # fewer cycles when filled

    def test_a3_zero_overlap_never_best(self):
        table = ablations.a3_overlap(("towers", "ackermann"))
        for row in table.rows:
            values = [float(cell) for cell in row[1:]]
            assert values[0] > min(values)

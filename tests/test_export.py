"""Tests for the JSON export of the benchmark matrix."""

import json

from repro.evaluation.common import FAST_SUBSET, RISC_NAME
from repro.evaluation.export import export_json, matrix_as_records


class TestExport:
    def test_records_shape(self):
        rows = matrix_as_records(FAST_SUBSET)
        assert len(rows) == len(FAST_SUBSET) * 5  # RISC I + 4 baselines
        sample = rows[0]
        for key in ("benchmark", "machine", "code_bytes", "cycles",
                    "data_refs", "time_ms", "result"):
            assert key in sample

    def test_rows_name_the_tier_that_decoded_them(self):
        rows = matrix_as_records(FAST_SUBSET)
        for row in rows:
            if row["machine"] == RISC_NAME:
                assert row["engine"] == "trace"
                assert row["decode_misses"] > 0
            else:
                assert row["engine"] is None
                assert row["decode_misses"] == 0

    def test_call_trace_not_exported(self):
        rows = matrix_as_records(FAST_SUBSET)
        assert all("call_trace" not in row for row in rows)

    def test_json_file_roundtrip(self, tmp_path):
        path = tmp_path / "matrix.json"
        count = export_json(str(path), FAST_SUBSET)
        payload = json.loads(path.read_text())
        assert payload["schema"].startswith("risc1-repro/")
        assert len(payload["records"]) == count

    def test_results_agree_across_machines(self):
        rows = matrix_as_records(FAST_SUBSET)
        by_bench = {}
        for row in rows:
            by_bench.setdefault(row["benchmark"], set()).add(row["result"])
        assert all(len(values) == 1 for values in by_bench.values())

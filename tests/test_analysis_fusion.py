"""Unit tests for the macro-op fusion analyzer and its CLI surface.

The dynamic count (s3's profile join against a per-step oracle count)
lives in ``tests/test_fusion_count.py``; this file covers the static
side: idiom detection, legality-proof rejections, the report schema,
lint integration, and the hardened baseline/--only CLI paths.
"""

import json

import pytest

from repro import assemble
from repro.analysis.fusion import (
    FUSION_KINDS,
    FUSION_SCHEMA,
    analyze_program,
)
from repro.analysis.lint import main as lint_main
from repro.analysis.lints import LINT_CATALOG, lint_program


def report_for(source: str, name: str = "test"):
    return analyze_program(assemble(source), name=name)


LI_PAIR = """
main:
    li   r16, 0x123456
    mov  r26, r16
    ret
    nop
"""

CMP_BRANCH = """
main:
    li   r16, 3
    cmp  r16, #0
    bgt  skip
    nop
    add  r16, r16, #1
skip:
    mov  r26, r16
    ret
    nop
"""

CALL_SLOT = """
main:
    callr r31, fn
    li   r10, 7
    mov  r26, r16
    ret
    nop
fn:
    mov  r16, r10
    ret
    nop
"""

LOAD_OP_DEAD = """
main:
    li   r15, 0x9000
    stl  r15, r15, 0
    ldl  r16, r15, 0
    add  r17, r16, #1
    mov  r26, r17
    ret
    nop
"""

LOAD_OP_LIVE = """
main:
    li   r15, 0x9000
    ldl  r16, r15, 0
    add  r17, r16, #1
    add  r18, r16, #2
    mov  r26, r17
    ret
    nop
"""

OP_STORE_DEAD = """
main:
    li   r15, 0x9000
    add  r16, r15, #1
    stl  r16, r15, 0
    mov  r26, r0
    ret
    nop
"""

STATIC_SMC = """
main:
    ldl  r16, r0, donor
    stl  r16, r0, target
    nop
target:
    li   r26, 0x123456
    ret
    nop
donor:
    li   r16, 42
"""

# The store rewrites the second half of the ``li`` pair at ``slot``
# through a register base, which the analyzer cannot resolve, so the
# pair is still proved.
REGISTER_BASED_STORE = """
main:
    li   r20, slot
    add  r20, r20, #4
    ldl  r19, r0, donor
    li   r17, 0
    li   r18, 0
loop:
slot:
    li   r16, 0x123456
    add  r18, r18, r16
    cmp  r17, #0
    bne  done
    nop
    stl  r19, r20, 0
    add  r17, r17, #1
    b    loop
    nop
done:
    mov  r26, r18
    ret
    nop
donor:
    add  r16, r16, #100
"""


class TestIdiomDetection:
    def test_two_word_li(self):
        report = report_for(LI_PAIR)
        assert [pair.kind for pair in report.pairs] == ["li"]
        pair = report.pairs[0]
        assert pair.second == pair.first + 4
        assert pair.lint == "FUS001"

    def test_cmp_branch(self):
        report = report_for(CMP_BRANCH)
        assert "cmp-branch" in {pair.kind for pair in report.pairs}

    def test_call_slot(self):
        report = report_for(CALL_SLOT)
        kinds = {pair.kind for pair in report.pairs}
        assert "call-slot" in kinds
        slot_pair = next(p for p in report.pairs if p.kind == "call-slot")
        assert slot_pair.proof["own_delay_slot"] is True

    def test_load_op_with_dead_intermediate(self):
        report = report_for(LOAD_OP_DEAD)
        pair = next(p for p in report.pairs if p.kind == "load-op")
        assert pair.intermediate == 16
        assert pair.proof["intermediate_dead"] is not None

    def test_op_store_with_dead_intermediate(self):
        report = report_for(OP_STORE_DEAD)
        assert "op-store" in {pair.kind for pair in report.pairs}


class TestLegalityRejections:
    def test_live_intermediate_rejected(self):
        report = report_for(LOAD_OP_LIVE)
        assert "load-op" not in {pair.kind for pair in report.pairs}
        reasons = [c.reason for c in report.rejected if c.kind == "load-op"]
        assert reasons and "live" in reasons[0]

    def test_statically_self_modified_rejected(self):
        report = report_for(STATIC_SMC)
        assert not report.pairs
        reasons = [c.reason for c in report.rejected]
        assert any("self-modifying" in reason for reason in reasons)

    def test_store_through_a_register_is_not_resolved(self):
        program = assemble(REGISTER_BASED_STORE)
        report = analyze_program(program, name="register-store")
        assert program.symbols["slot"] in {pair.first for pair in report.pairs}
        assert not report.rejected

    def test_every_pair_is_proved(self):
        # The proof dict is part of the report's contract.
        for source in (LI_PAIR, CMP_BRANCH, CALL_SLOT, LOAD_OP_DEAD):
            for pair in report_for(source).pairs:
                assert pair.proof["adjacent"] is True
                assert pair.proof["intra_block"] is True
                assert pair.proof["self_modifying"] is False


class TestReportSchema:
    def test_schema_and_summary_shape(self):
        report = report_for(LI_PAIR, name="li_pair")
        data = report.as_dict()
        assert data["schema"] == FUSION_SCHEMA == "repro.fusion/v1"
        assert data["program"] == "li_pair"
        summary = data["summary"]
        assert set(summary) == {
            "program", "pairs", "rejected", "by_kind", "static_cycles_saved",
        }
        for entry in data["pairs"]:
            assert set(entry) >= {
                "kind", "first", "second", "word1", "word2",
                "intermediate", "cycles_saved", "proof",
            }
        json.loads(report.to_json())  # round-trips

    def test_kind_to_lint_mapping_is_in_catalog(self):
        catalog_ids = {lint_id for lint_id, __, __ in LINT_CATALOG}
        for kind, lint_id in FUSION_KINDS.items():
            assert lint_id in catalog_ids, (kind, lint_id)


class TestLintIntegration:
    def test_fus_notes_and_summary(self):
        report = lint_program(assemble(LI_PAIR), name="li_pair")
        assert not report.findings  # FUS lints are notes, never findings
        fus = [note for note in report.notes if note.lint.startswith("FUS")]
        assert [note.lint for note in fus] == ["FUS001"]
        summary = report.summary()["fusion"]
        assert summary["pairs"] == 1
        assert summary["by_kind"] == {"li": 1}

    def test_rejected_candidates_surface_as_fus006(self):
        report = lint_program(assemble(STATIC_SMC), name="smc")
        assert any(note.lint == "FUS006" for note in report.notes)


class TestLintCli:
    def test_only_family_filters_notes(self, capsys):
        assert lint_main(["towers", "--only", "FUS"]) == 0
        out = capsys.readouterr().out
        assert "FUS00" in out
        assert "WD001" not in out

    def test_only_unknown_family_lists_known(self, capsys):
        assert lint_main(["towers", "--only", "NOPE"]) == 2
        err = capsys.readouterr().err
        assert "families:" in err and "FUS" in err

    def test_only_incompatible_with_baseline(self, capsys):
        code = lint_main(
            ["--all", "--only", "FUS", "--baseline", "ci/lint_baseline.json"]
        )
        assert code == 2
        assert "--only" in capsys.readouterr().err

    def test_unknown_baseline_code_fails_clearly(self, tmp_path, capsys):
        stale = {
            "towers": {
                "findings": 0, "errors": 0, "warnings": 0,
                "by_lint": {"ZZ999": 1}, "depth_bound": None, "fusion": None,
            }
        }
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(stale))
        assert lint_main(["towers", "--baseline", str(path)]) == 1
        err = capsys.readouterr().err
        assert "unknown or retired lint code 'ZZ999'" in err
        assert "--write-baseline" in err

    def test_committed_baseline_is_fresh(self):
        assert lint_main(
            ["--all", "--extended", "--baseline", "ci/lint_baseline.json"]
        ) == 0


@pytest.mark.parametrize("kind,lint_id", sorted(FUSION_KINDS.items()))
def test_catalog_covers_every_kind(kind, lint_id):
    assert lint_id.startswith("FUS")

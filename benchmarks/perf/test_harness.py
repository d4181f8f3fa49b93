"""Tests of the benchmark harness: ``python -m pytest benchmarks/perf``.

They cover the statistics, the span arithmetic, the shims, the golden
checks and one short pass of every workload function, run in-process.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from benchmarks.perf import trace  # noqa: E402
from benchmarks.perf.compare import compare, verdict  # noqa: E402
from benchmarks.perf.harness import end_to_end, load_spec, per_layer, tally  # noqa: E402
from benchmarks.perf.stats import percentile_value, tail, tail_percentile  # noqa: E402
from benchmarks.perf.trace import Span, ShimError, Tracer, self_times  # noqa: E402
from benchmarks.perf.workloads import CAMPAIGN_SEEDS, GOLDEN_PATH, run_child  # noqa: E402

GOLDEN = json.loads(GOLDEN_PATH.read_text())


# -- percentiles -------------------------------------------------------------


@pytest.mark.parametrize("count", range(20, 400))
def test_tail_percentile_is_highest_with_ten_beyond(count):
    def beyond(percentile):
        values = list(range(count))
        return sum(v > percentile_value(values, percentile) for v in values)

    percentile = tail_percentile(count)
    assert percentile <= 90
    assert beyond(percentile) >= 10
    if percentile < 90:
        assert beyond(percentile + 1) < 10


@pytest.mark.parametrize("count,expected", [(110, 90), (1000, 90), (54, 81),
                                            (20, 50), (19, 100), (11, 100),
                                            (10, 100), (1, 100)])
def test_tail_percentile_examples(count, expected):
    assert tail_percentile(count) == expected


def test_tail_reports_the_maximum_of_few_samples():
    assert tail([3.0, 1.0, 2.0]) == (100, 3.0)


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a.inner", 2.0, 3.0, 1, "r"),
        Span("b", 5.0, 9.0, 0, "r"),
        # overlaps b and runs past the root's end: only 9..10 is new
        Span("c", 8.0, 12.0, 0, "r"),
    ]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 4.0])


def test_tracer_nests_spans_and_stamps_the_run():
    tracer = Tracer()
    tracer.run = "job-1"
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    assert [(s.name, s.parent, s.run) for s in tracer.spans] == [
        ("outer", None, "job-1"), ("inner", 0, "job-1"),
    ]
    tracer.check_fired(["outer", "inner"])
    with pytest.raises(ShimError, match="never fired: missing"):
        tracer.check_fired(["outer", "missing"])


def test_a_missing_shim_target_fails_loudly_and_undoes_the_rest(monkeypatch):
    from repro.cpu.machine import RiscMachine

    original = RiscMachine.run
    monkeypatch.setattr(trace, "SHIM_TARGETS", (
        *trace.SHIM_TARGETS, ("cpu.gone", "repro.cpu.machine", "RiscMachine.gone"),
    ))
    with pytest.raises(ShimError, match="RiscMachine.gone"):
        trace.install_shims(Tracer(), "trace")
    assert RiscMachine.run is original


# -- the workload functions --------------------------------------------------


def _run(spec: dict, golden: dict | None = None) -> dict:
    spec = {"order_seed": "test", "lap": 0, "child": 0, **spec}
    record = run_child(spec, time.perf_counter(), golden)
    record.update(spec=spec, wall_s=1.0)
    assert not record["fatal"], record["error"]
    return record


def test_paper_warm_one_pass():
    record = _run({"kind": "paper_warm", "passes": 1})
    assert tally([record]) == (22, 0)
    metrics, detail = end_to_end([record])
    assert detail["passes"] == 1 and detail["sim_mips"] > 0
    assert all(value > 0 for value in metrics.values())


def test_paper_cold_one_round_traced_fires_every_shim():
    from repro.cpu.engines import fastest_scalar_engine
    from repro.cpu.machine import RiscMachine

    original = RiscMachine.run
    record = _run({"kind": "paper_cold", "traced": True})
    assert record["error"] is None
    assert tally([record]) == (22, 0)
    names = {row[0] for row in record["spans"]}
    assert {"cpu.run", "telemetry.manifest", "asm.assemble"} <= names
    assert record["counters"][f"cpu.instructions.{fastest_scalar_engine()}"] > 0
    assert RiscMachine.run is original


def test_report_renders_every_golden_section_traced():
    record = _run({"kind": "report", "traced": True})
    assert record["error"] is None
    assert sorted(op["section"] for op in record["jobs"]) == sorted(GOLDEN["report"])
    names = {row[0] for row in record["spans"]}
    assert {f"evaluation.{key}" for key in GOLDEN["report"]} <= names
    assert tally([record]) == (len(GOLDEN["report"]), 0)
    metrics, detail = end_to_end([record])
    assert detail["jobs"] == 1
    assert metrics["pass_s"] == pytest.approx(metrics["job_ms_p50"] / 1000)


def test_campaign_call_matches_its_golden_fingerprint():
    record = _run({"kind": "campaign", "campaign_seed": CAMPAIGN_SEEDS[0]})
    assert tally([record]) == (1, 0)
    assert record["jobs"][0]["trials"] == 16


def test_setup_only_child_adds_a_setup_sample_only():
    record = _run({"kind": "paper_cold"})
    setup = _run({"kind": "paper_cold", "setup_only": True})
    assert setup["error"] is None and setup["jobs"] == []
    assert tally([setup]) == (0, 0)
    metrics, _ = end_to_end([record, setup])
    assert metrics["setup_s"] == pytest.approx(
        (record["setup_n"] + setup["setup_n"]) / 2
    )
    assert metrics["peak_rss_mb"] == record["rss_mb"]


def test_tiers_warm_one_tier(monkeypatch):
    import repro.cpu.engines as engines

    tier = engines.fastest_scalar_engine()
    monkeypatch.setattr(engines, "engine_names", lambda scalar_only: [tier])
    record = _run({"kind": "tiers_warm"})
    assert record["error"] is None
    assert list(record["tiers"]) == [tier]
    assert record["tiers"][tier]["instructions"] > 0
    # a warm-up pass and a timed pass over the four-program subset
    assert tally([record]) == (8, 0)


def test_tier_cold_one_tier():
    from repro.cpu.engines import fastest_scalar_engine

    tier = fastest_scalar_engine()
    record = _run({"kind": "tier_cold", "tier": tier})
    assert record["error"] is None
    assert list(record["tiers"]) == [tier]
    assert record["tiers"][tier]["seconds"] > 0
    assert tally([record]) == (4, 0)


def test_prime_reports_the_scalar_tiers():
    from repro.cpu.engines import engine_names

    record = _run({"kind": "prime"})
    assert record["error"] is None
    assert record["info"]["tiers"] == list(engine_names(scalar_only=True))


# -- per-layer aggregation ---------------------------------------------------


def _record(kind: str, wall_s: float, spans: list, jobs: list, probes=(),
            counters=None, info=None) -> dict:
    return {
        "spec": {"kind": kind, "lap": 0, "child": 0}, "wall_s": wall_s,
        "spans": spans, "jobs": jobs, "probes": list(probes),
        "counters": counters or {}, "info": info or {},
    }


def test_per_layer_of_a_cold_round():
    first = {"id": "0.towers", "s": 3.0, "n": 3.3, "ok": True, "pass": "0",
             "program": "towers", "phase": "first"}
    steady = {"id": "steady.towers", "s": 1.0, "ok": True,
              "program": "towers", "phase": "steady"}
    traced = _record("paper_cold", 10.0, [
        ["bench.setup", 0.0, 1.0, None, "setup"],
        ["bench.job", 1.0, 4.0, None, "0.towers"],
        ["hll.parse", 1.0, 1.5, 1, "0.towers"],
        ["cpu.run", 1.5, 3.5, 1, "0.towers"],
        ["bench.probe", 4.0, 5.0, None, "steady.towers"],
        ["cpu.run", 4.0, 4.5, 4, "steady.towers"],
    ], [first], [steady], counters={"cpu.run_calls.trace": 2})
    untraced = _record("paper_cold", 5.0, [], [dict(first, n=3.0)])
    extras = [
        {"spec": {"kind": "tiers_warm"},
         "tiers": {"fast": {"seconds": 2.0, "instructions": 4_000_000}}},
        {"spec": {"kind": "tier_cold"},
         "tiers": {"fast": {"seconds": 4.0, "instructions": 4_000_000}}},
    ]
    values = per_layer([untraced], [traced], extras)
    assert values["cpu.run_s"] == pytest.approx(2.5)
    assert values["hll.parse_s"] == pytest.approx(0.5)
    assert values["cpu.first_run_s"] == pytest.approx(2.0)
    assert values["cpu.warmup_s"] == pytest.approx(1.5)
    instructions = GOLDEN["programs"]["towers"]["instructions"]
    assert values["cpu.mips.towers"] == pytest.approx(instructions / 2.0 / 1e6)
    assert values["cpu.run_calls.trace"] == 2
    assert values["cpu.tier.fast.mips_warm"] == pytest.approx(2.0)
    assert values["cpu.tier.fast.mips_cold"] == pytest.approx(1.0)
    assert values["trace.overhead_frac"] == pytest.approx(0.1)
    assert values["trace.coverage_frac"] == pytest.approx(0.5)


def test_per_layer_of_a_campaign():
    job = {"id": "0.1981", "s": 4.0, "n": 4.0, "ok": True, "pass": "0",
           "trials": 16}
    traced = _record("campaign", 5.0, [
        ["bench.setup", 0.0, 1.0, None, "setup"],
        ["bench.job", 1.0, 5.0, None, "0.1981"],
        ["cpu.run", 1.0, 2.0, 1, "0.1981"],
    ], [job], info={"outcomes": {"masked": 12, "crash": 0}, "steps": 600})
    values = per_layer([], [traced], [])
    assert values["faults.golden_s"] == pytest.approx(1.0)
    assert values["faults.trial_s"] == pytest.approx(3.0)
    assert values["faults.steps_per_s"] == pytest.approx(200.0)
    assert values["faults.outcome.masked"] == 12
    assert values["trace.coverage_frac"] == pytest.approx(1.0)
    assert "trace.overhead_frac" not in values


def test_golden_mismatch_counts_in_the_error_rate():
    golden = copy.deepcopy(GOLDEN)
    golden["programs"]["towers"]["cycles"] += 1
    record = _run({"kind": "paper_cold"}, golden)
    failures = [op for op in record["jobs"] if not op["ok"]]
    assert [op["program"] for op in failures] == ["towers"]
    assert "cycles" in failures[0]["error"]
    _, detail = end_to_end([record])
    assert detail["error_rate"] == pytest.approx(1 / 11)


# -- compare -----------------------------------------------------------------


def test_verdicts_follow_the_bound_and_the_spread():
    base = [1.00, 1.01, 0.99, 1.00]
    assert verdict(base, [1.00, 1.02, 0.99, 1.01], 0.1, higher=False) == "unchanged"
    assert verdict(base, [1.20, 1.21, 1.19, 1.20], 0.1, higher=False) == "worse"
    assert verdict(base, [1.20, 1.21, 1.19, 1.20], 0.1, higher=True) == "better"
    noisy = [0.5, 1.5, 0.7, 1.3]
    assert verdict(base, noisy, 0.1, higher=False) == "unresolved"
    assert verdict(noisy, [0.10, 0.11, 0.12, 0.13], 0.1, higher=False) == "better"


def test_compare_rows_cover_every_metric_and_count_failures():
    spec = load_spec()

    def run(value, failed):
        metrics = {metric["name"]: value for metric in spec["end_to_end"]}
        return {"metrics": metrics, "failed": failed}

    rows = compare({"report": [run(1.0, 0)]}, {"report": [run(1.0, 2)]}, spec)
    states = {metric: state for _, metric, state, _ in rows}
    assert set(states) == {m["name"] for m in spec["end_to_end"]} | {"error_rate"}
    assert states.pop("error_rate") == "worse"
    assert set(states.values()) == {"unchanged"}

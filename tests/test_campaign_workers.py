"""Campaign execution in process and on a worker pool, and its CLI.

The invariant under test: the executed trials are a pure function of
the campaign config, so a campaign mapped over worker processes reports
the in-process run's fingerprint, records and manifest byte for byte.
A worker that dies fails the run at once instead of hanging it.

A module-scoped reference run (small, ``towers``-only) keeps the suite
fast; every scenario compares against it.
"""

import json
import multiprocessing
import os
import pickle
import threading
from collections import defaultdict
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.faults import campaign as campaign_module
from repro.faults.campaign import (
    CampaignConfig,
    CampaignReport,
    _campaign_schedule,
    _execute,
    injection_record,
    main,
    run_campaign,
)
from repro.telemetry import (
    CAMPAIGN_SCHEMA,
    MetricsRegistry,
    validate_campaign_manifest,
)

CONFIG = CampaignConfig(seed=7, injections=12, benchmarks=("towers",))
N = CONFIG.injections

#: CLI flags naming CONFIG's campaign.
CLI_CONFIG = ["--injections", str(N), "--seed", "7", "--benchmarks", "towers"]


@pytest.fixture(scope="module")
def serial_report():
    """The in-process reference run."""
    return run_campaign(CONFIG)


class TestPoolPath:
    def test_pool_matches_serial(self, serial_report):
        registry = MetricsRegistry()
        report = run_campaign(CONFIG, workers=2, registry=registry)
        assert report.fingerprint() == serial_report.fingerprint()
        assert report.as_records() == serial_report.as_records()
        assert report.manifest() == serial_report.manifest()
        # Workers ship each trial's step split back with its result.
        assert registry.get("campaign.steps_observed").value + registry.get(
            "campaign.steps_compiled"
        ).value == sum(r.instructions for r in serial_report.results)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the dying trial is patched in before the workers fork",
    )
    def test_dead_worker_raises_broken_pool(self, monkeypatch):
        def die(*args, **kwargs):
            os._exit(3)

        # Forked workers inherit the patch; the parent never runs a trial.
        monkeypatch.setattr(campaign_module, "_fast_forward", die)
        raised = []

        def run():
            try:
                run_campaign(CONFIG, workers=2)
            except Exception as exc:  # noqa: BLE001 - inspected below
                raised.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive(), "run_campaign hung on a dead worker"
        assert len(raised) == 1 and isinstance(raised[0], BrokenProcessPool)


class TestReport:
    def test_add_rejects_out_of_order_trials(self, serial_report):
        report = CampaignReport(CONFIG, serial_report.golden)
        report.add(0, serial_report.results[0])
        with pytest.raises(ValueError, match="expected trial 1"):
            report.add(2, serial_report.results[2])

    def test_manifest_validates_as_v3(self, serial_report):
        doc = serial_report.manifest()
        assert validate_campaign_manifest(doc) == []
        assert doc["schema"] == CAMPAIGN_SCHEMA
        assert sorted(doc) == [
            "config", "golden", "outcomes_by_target", "schema", "summary",
        ]
        assert doc["summary"]["fingerprint"] == serial_report.fingerprint()

    def test_metrics_registry_counters(self, serial_report):
        registry = MetricsRegistry()
        run_campaign(CONFIG, registry=registry)
        assert registry.names() == [
            "campaign.steps_compiled", "campaign.steps_observed",
            "campaign.steps_pinned", "campaign.trials",
        ]
        assert registry.get("campaign.trials").value == N
        assert registry.get("campaign.steps_observed").value + registry.get(
            "campaign.steps_compiled"
        ).value == sum(r.instructions for r in serial_report.results)

    def test_execute_matches_serial_record(self, serial_report):
        trial = _campaign_schedule(CONFIG, {})[0]
        result, tally = _execute(trial)
        assert injection_record(result) == serial_report.as_records()[0]
        assert tally["observed"] + tally["compiled"] == result.instructions


class TestCli:
    def test_json_is_written(self, serial_report, tmp_path):
        out = tmp_path / "out.json"
        assert main([*CLI_CONFIG, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["records"] == serial_report.as_records()

    def test_interrupt_prints_one_line(self, capsys, monkeypatch):
        def interrupted(config, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(campaign_module, "run_campaign", interrupted)
        assert main(CLI_CONFIG) == 130
        out = capsys.readouterr().out
        assert out.strip().splitlines() == ["campaign interrupted"]
        assert "resume" not in out

    @pytest.mark.parametrize("flag", ["--workers", "--injections"])
    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_non_positive_values_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([flag, value])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("names", "message"),
        [
            (",", "names no benchmark"),
            ("", "names no benchmark"),
            ("nosuch", "unknown benchmark(s) nosuch "),
            ("towers,nosuch", "unknown benchmark(s) nosuch "),
        ],
        ids=["comma", "empty", "unknown", "one-unknown"],
    )
    def test_bad_benchmarks_exit_2(self, names, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--injections", "2", "--benchmarks", names])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err.splitlines()[-1]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag",
        ["--shards", "--shard-index", "--journal", "--resume", "--timeout-s",
         "--retries"],
    )
    def test_removed_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([flag, "1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestTrialPayload:
    def test_trial_pickles_without_its_golden_run(self):
        trial = _campaign_schedule(CONFIG, {})[0]
        payload = pickle.dumps(trial)
        assert len(payload) < 1024
        assert len(pickle.dumps(trial.golden)) > 10 * 1024
        assert pickle.loads(payload).golden is trial.golden

    def test_worker_without_the_golden_run_rebuilds_it(self, monkeypatch):
        trial = _campaign_schedule(CONFIG, {})[0]
        payload = pickle.dumps(trial)
        # A spawned worker starts with no golden runs at all.
        monkeypatch.setattr(
            campaign_module, "_POOL_STATE",
            defaultdict(campaign_module._BenchmarkState),
        )
        rebuilt = pickle.loads(payload)
        assert rebuilt == trial
        assert rebuilt.golden.trace == trial.golden.trace

"""Crash-safe distributed campaigns: sharding, journal, supervision.

The load-bearing invariant under test everywhere here: the executed
trials are a pure function of the campaign config, so however a
campaign is sharded, killed, resumed, retried, or parallelised, its
fingerprint is byte-identical to the uninterrupted serial run's.

A module-scoped reference run with no options (small, ``towers``-only)
keeps the suite fast; every scenario compares against its fingerprint.
"""

import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.campaign import (
    CampaignConfig,
    CampaignInterrupted,
    CampaignReport,
    FingerprintStream,
    Outcome,
    TrialTimeoutError,
    config_digest,
    injection_record,
    run_campaign,
    trial_digest,
)
from repro.faults.distributed import (
    JournalError,
    RetryPolicy,
    TrialJournal,
    TrialSupervisor,
    compose_fingerprints,
    execute_trial,
    recover_journal,
    shard_bounds,
    shard_schedule,
)
from repro.telemetry import (
    JsonlEventWriter,
    MetricsRegistry,
    events_from_journal,
    validate_campaign_manifest,
)

CONFIG = CampaignConfig(seed=7, injections=12, benchmarks=("towers",))
N = CONFIG.injections


@pytest.fixture(scope="module")
def serial_report():
    """The uninterrupted reference run: one shard, in process, no journal."""
    return run_campaign(CONFIG)


@pytest.fixture(scope="module")
def serial_fp(serial_report):
    return serial_report.fingerprint()


@pytest.fixture(scope="module")
def serial_records(serial_report):
    return [injection_record(r) for r in serial_report.results]


@pytest.fixture(scope="module")
def full_journal_lines(tmp_path_factory):
    """A complete journalled run's raw journal lines (header + trials)."""
    path = tmp_path_factory.mktemp("journal") / "full.jsonl"
    run_campaign(CONFIG, journal=str(path))
    with open(path, "rb") as handle:
        return handle.readlines()


class TestSharding:
    def test_bounds_are_contiguous_and_balanced(self):
        assert shard_bounds(10, 3) == ((0, 4), (4, 7), (7, 10))
        assert shard_bounds(12, 4) == ((0, 3), (3, 6), (6, 9), (9, 12))
        assert shard_bounds(2, 5) == ((0, 1), (1, 2), (2, 2), (2, 2), (2, 2))
        with pytest.raises(ValueError):
            shard_bounds(10, 0)

    def test_schedule_is_deterministic(self):
        a = shard_schedule(CONFIG, 3)
        b = shard_schedule(CONFIG, 3)
        assert [t.spec for t in a.trials] == [t.spec for t in b.trials]
        assert a.bounds == b.bounds
        assert [t.index for t in a.trials] == list(range(N))

    def test_shard_accessors(self):
        plan = shard_schedule(CONFIG, 5)
        assert sum(plan.sizes()) == N
        recombined = [t for i in range(5) for t in plan.shard(i)]
        assert recombined == list(plan.trials)
        assert plan.shard_of(0) == 0
        assert plan.shard_of(N - 1) == 4
        with pytest.raises(IndexError):
            plan.shard(5)
        with pytest.raises(IndexError):
            plan.shard_of(N)

    @pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
    def test_fingerprints_compose_to_serial(
        self, n_shards, serial_fp, serial_records
    ):
        plan = shard_schedule(CONFIG, n_shards)
        streams = [
            [trial_digest(r) for r in serial_records[start:stop]]
            for start, stop in plan.bounds
        ]
        assert compose_fingerprints(streams) == serial_fp

    def test_single_shard_execution_matches_digest_stream(
        self, serial_records
    ):
        plan = shard_schedule(CONFIG, 3)
        report = run_campaign(CONFIG, shards=3, shard_index=1)
        start, stop = plan.bounds[1]
        expected = FingerprintStream()
        for record in serial_records[start:stop]:
            expected.add_record(record)
        assert report.fingerprint() == expected.hexdigest()
        assert len(report.results) == stop - start


class TestStreamingReport:
    def test_streaming_matches_batch(self, serial_report, serial_fp, tmp_path):
        """A sharded, journalled run folds each trial as it arrives; its
        report equals the default run's in every view."""
        report = run_campaign(
            CONFIG, shards=2, journal=str(tmp_path / "j.jsonl")
        )
        assert report.fingerprint() == serial_fp
        assert report.as_records() == serial_report.as_records()
        assert report.rate_table().render() == serial_report.rate_table().render()
        assert report.summary() == serial_report.summary()
        assert report.outcome_counts() == serial_report.outcome_counts()

    def test_batch_manifest_has_same_schema_sections(
        self, serial_report, tmp_path
    ):
        batch_doc = serial_report.manifest()
        assert validate_campaign_manifest(batch_doc) == []
        assert batch_doc["shards"]["count"] == 1
        doc = run_campaign(
            CONFIG, shards=2, journal=str(tmp_path / "j.jsonl")
        ).manifest()
        assert doc["shards"]["count"] == 2
        assert {k: v for k, v in doc.items() if k != "shards"} == {
            k: v for k, v in batch_doc.items() if k != "shards"
        }

    def test_manifest_validates_and_has_v2_sections(self, serial_fp):
        report = run_campaign(CONFIG, shards=2)
        doc = report.manifest()
        assert validate_campaign_manifest(doc) == []
        assert doc["shards"]["count"] == 2
        assert sum(doc["shards"]["sizes"]) == N
        assert len(doc["shards"]["fingerprints"]) == 2
        assert doc["resume"]["resumed_trials"] == 0
        assert doc["summary"]["fingerprint"] == serial_fp

    def test_aggregator_rejects_out_of_order_folds(self, serial_report):
        report = CampaignReport(CONFIG, serial_report.golden)
        report.add(0, serial_report.results[0])
        with pytest.raises(ValueError, match="expected trial 1"):
            report.add(2, serial_report.results[2])


class TestJournal:
    def test_create_refuses_overwrite(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        TrialJournal.create(path, CONFIG).close()
        with pytest.raises(FileExistsError):
            TrialJournal.create(path, CONFIG)

    def test_roundtrip_and_index(self, tmp_path, serial_records):
        path = str(tmp_path / "j.jsonl")
        with TrialJournal.create(path, CONFIG, index_interval=2) as journal:
            for index, record in enumerate(serial_records[:5]):
                journal.append(index, record)
        seen = []
        stats = recover_journal(
            path, sink=lambda t, a, r: seen.append((t, r))
        )
        assert stats.completed == 5
        assert stats.torn_lines == 0
        assert stats.digest == config_digest(CONFIG)
        assert [t for t, _ in seen] == list(range(5))
        assert [r for _, r in seen] == serial_records[:5]
        index_doc = json.loads(open(path + ".idx").read())
        assert index_doc["completed"] == 5
        assert index_doc["last_trial"] == 4

    def test_append_enforces_increasing_trials(self, tmp_path, serial_records):
        journal = TrialJournal.create(str(tmp_path / "j.jsonl"), CONFIG)
        journal.append(3, serial_records[3])
        with pytest.raises(JournalError, match="appended after"):
            journal.append(3, serial_records[3])

    def test_torn_final_line_is_dropped(self, full_journal_lines, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        with open(path, "wb") as handle:
            handle.writelines(full_journal_lines[:4])
            handle.write(full_journal_lines[4][:10])
        stats = recover_journal(path)
        assert stats.completed == 3
        assert stats.torn_lines == 1

    def test_corrupt_middle_line_is_an_error(self, full_journal_lines, tmp_path):
        path = str(tmp_path / "corrupt.jsonl")
        with open(path, "wb") as handle:
            handle.writelines(full_journal_lines[:3])
            handle.write(b"not json\n")
            handle.writelines(full_journal_lines[3:])
        with pytest.raises(JournalError, match="corrupt"):
            recover_journal(path)

    def test_wrong_campaign_is_rejected(self, full_journal_lines, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "wb") as handle:
            handle.writelines(full_journal_lines)
        other = CampaignConfig(seed=8, injections=12, benchmarks=("towers",))
        with pytest.raises(JournalError, match="different campaign"):
            TrialJournal.resume(path, other)

    def test_resume_truncates_torn_tail(self, full_journal_lines, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        with open(path, "wb") as handle:
            handle.writelines(full_journal_lines[:6])
            handle.write(full_journal_lines[6][:-5])
        journal, stats = TrialJournal.resume(path, CONFIG)
        journal.close()
        assert stats.torn_lines == 1
        assert stats.completed == 5
        # the torn bytes are gone: recovery is now clean
        assert recover_journal(path).torn_lines == 0

    def test_events_from_journal_adapter(self, full_journal_lines):
        entries = [json.loads(line) for line in full_journal_lines]
        events = events_from_journal(entries)
        assert len(events) == N  # header skipped
        assert events[0]["event"] == "trial"
        assert events[0]["trial"] == 0
        assert events[0]["benchmark"] == "towers"


class TestResume:
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        kill_index=st.integers(min_value=0, max_value=N - 1),
        n_shards=st.sampled_from([1, 2, 4, 7]),
        torn_bytes=st.integers(min_value=0, max_value=40),
    )
    def test_resume_after_crash_matches_serial(
        self, kill_index, n_shards, torn_bytes,
        full_journal_lines, serial_fp, tmp_path,
    ):
        """Property: kill at any trial, optionally tearing the final
        line, resume under any shard count - fingerprint unchanged."""
        path = str(
            tmp_path / f"crash-{kill_index}-{n_shards}-{torn_bytes}.jsonl"
        )
        with open(path, "wb") as handle:
            # header + the trials completed before the "crash"
            handle.writelines(full_journal_lines[: 1 + kill_index])
            if torn_bytes:
                # the in-flight trial's partial write
                handle.write(full_journal_lines[1 + kill_index][:torn_bytes])
        report = run_campaign(CONFIG, resume=path, shards=n_shards)
        assert report.fingerprint() == serial_fp
        assert len(report.results) == N
        expected_resumed = kill_index - (
            1 if torn_bytes >= len(full_journal_lines[1 + kill_index]) else 0
        )
        assert report.resume_info["resumed_trials"] in (
            kill_index, max(0, expected_resumed)
        )
        # and the journal is now complete: resuming again re-executes nothing
        again = run_campaign(CONFIG, resume=path)
        assert again.fingerprint() == serial_fp
        assert again.resume_info["executed_trials"] == 0

    def test_resumed_report_keeps_every_record(
        self, full_journal_lines, serial_report, tmp_path
    ):
        path = str(tmp_path / "half.jsonl")
        with open(path, "wb") as handle:
            handle.writelines(full_journal_lines[: 1 + N // 2])
        report = run_campaign(CONFIG, resume=path)
        assert report.resume_info["resumed_trials"] == N // 2
        assert report.as_records() == serial_report.as_records()

    def test_record_that_contradicts_the_schedule_is_a_journal_error(
        self, full_journal_lines, tmp_path
    ):
        path = str(tmp_path / "bad.jsonl")
        entry = json.loads(full_journal_lines[3])
        entry["record"]["outcome"] = "bogus"
        with open(path, "wb") as handle:
            handle.writelines(full_journal_lines[:3])
            handle.write((json.dumps(entry, sort_keys=True) + "\n").encode())
        with pytest.raises(JournalError, match="trial 2 "):
            run_campaign(CONFIG, resume=path)

    def test_journalled_run_is_fully_recoverable(self, tmp_path, serial_fp):
        path = str(tmp_path / "j.jsonl")
        report = run_campaign(CONFIG, journal=path)
        assert report.fingerprint() == serial_fp
        assert recover_journal(path).completed == N

    def test_metrics_registry_counters(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        run_campaign(CONFIG, journal=path)
        registry = MetricsRegistry()
        report = run_campaign(CONFIG, resume=path, registry=registry)
        assert registry.get("campaign.trials").value == N
        assert registry.get("campaign.trials_resumed").value == N
        assert report.resume_info["executed_trials"] == 0
        assert registry.get("campaign.journal_syncs").value >= 1


def _plan():
    return shard_schedule(CONFIG, 1)


class TestSupervision:
    def test_retry_then_success(self):
        plan = _plan()
        calls = {}

        def flaky(trial, timeout_s):
            calls[trial.index] = calls.get(trial.index, 0) + 1
            if trial.index == 2 and calls[trial.index] < 3:
                raise RuntimeError("transient")
            return injection_record_for(trial)

        slept = []
        supervisor = TrialSupervisor(
            policy=RetryPolicy(max_attempts=3, seed=1),
            sleep=slept.append, execute=flaky,
        )
        out = []
        stats = supervisor.run(
            plan.trials[:4], lambda i, r, a: out.append((i, a))
        )
        assert stats.retries == 2
        assert stats.infra_errors == 0
        assert [i for i, _ in out] == [0, 1, 2, 3]
        assert dict(out)[2] == 3  # third attempt succeeded
        assert len(slept) == 2

    def test_quarantine_after_max_attempts(self):
        plan = _plan()

        def broken(trial, timeout_s):
            if trial.index == 1:
                raise RuntimeError("permanent")
            return injection_record_for(trial)

        supervisor = TrialSupervisor(
            policy=RetryPolicy(max_attempts=3, seed=1),
            sleep=lambda s: None, execute=broken,
        )
        out = []
        stats = supervisor.run(
            plan.trials[:3], lambda i, r, a: out.append((i, r))
        )
        assert stats.infra_errors == 1
        assert 1 in stats.quarantined
        result = dict(out)[1]
        assert result.outcome is Outcome.INFRA_ERROR
        assert result.halt == "INFRA_ERROR"
        assert result.detail == "RuntimeError: permanent"
        # quarantine preserves delivery order
        assert [i for i, _ in out] == [0, 1, 2]

    def test_timeout_is_counted_and_quarantined(self):
        plan = _plan()

        def too_slow(trial, timeout_s):
            raise TrialTimeoutError("past deadline")

        supervisor = TrialSupervisor(
            policy=RetryPolicy(max_attempts=2, seed=1),
            sleep=lambda s: None, execute=too_slow,
        )
        stats = supervisor.run(plan.trials[:1], lambda i, r, a: None)
        assert stats.timeouts == 2  # both attempts timed out
        assert stats.infra_errors == 1

    def test_zero_timeout_quarantines_via_real_deadline(self):
        plan = _plan()
        supervisor = TrialSupervisor(
            timeout_s=0.0,
            policy=RetryPolicy(max_attempts=2, seed=1),
            sleep=lambda s: None,
        )
        out = []
        stats = supervisor.run(
            plan.trials[:1], lambda i, r, a: out.append(r)
        )
        assert stats.timeouts == 2
        assert out[0].outcome is Outcome.INFRA_ERROR

    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.1, factor=2.0,
            max_delay_s=0.5, jitter=0.5, seed=9,
        )
        delays = [policy.delay(3, attempt) for attempt in (1, 2, 3, 4)]
        assert delays == [policy.delay(3, a) for a in (1, 2, 3, 4)]
        assert delays != [
            RetryPolicy(max_attempts=5, seed=10).delay(3, a)
            for a in (1, 2, 3, 4)
        ]
        for delay in delays:
            assert delay <= 0.5 * 1.5  # ceiling * max jitter
        assert RetryPolicy(max_attempts=1).delay(0, 1) >= 0.0
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_retry_events_are_emitted(self):
        plan = _plan()
        buffer = io.StringIO()

        def broken(trial, timeout_s):
            raise RuntimeError("nope")

        supervisor = TrialSupervisor(
            policy=RetryPolicy(max_attempts=2, seed=1),
            sleep=lambda s: None, execute=broken,
            event_writer=JsonlEventWriter(buffer),
        )
        supervisor.run(plan.trials[:1], lambda i, r, a: None)
        events = [json.loads(line) for line in buffer.getvalue().splitlines()]
        retries = [e for e in events if e["event"] == "retry"]
        assert len(retries) == 1
        assert retries[0]["trial"] == 0
        assert retries[0]["attempt"] == 1

    def test_execute_trial_matches_serial_record(self, serial_records):
        plan = _plan()
        result = execute_trial(plan.trials[0], None)
        assert injection_record(result) == serial_records[0]


def injection_record_for(trial):
    """A real result for *trial* (used by injected fake executors)."""
    return execute_trial(trial, None)


class TestPoolPath:
    def test_supervised_pool_matches_serial(
        self, serial_fp, serial_report, tmp_path
    ):
        path = str(tmp_path / "j.jsonl")
        registry = MetricsRegistry()
        report = run_campaign(
            CONFIG, workers=2, journal=path, registry=registry
        )
        assert report.fingerprint() == serial_fp
        assert recover_journal(path).completed == N
        assert registry.get("campaign.pool_restarts").value == 0
        # Workers ship each trial's step split back with its record.
        assert registry.get("campaign.steps_observed").value + registry.get(
            "campaign.steps_compiled"
        ).value == sum(r.instructions for r in serial_report.results)

    def test_worker_death_seen_at_submit_rebuilds_the_pool(self, serial_fp):
        import signal
        import time

        killed = []

        def chaos(done, pids):
            if done == 3 and pids:
                os.kill(pids[0], signal.SIGKILL)
                killed.append(pids[0])
                # Let the pool notice, so the next submit (not a pending
                # result) is what raises BrokenProcessPool.
                time.sleep(0.5)

        report = run_campaign(CONFIG, workers=2, chaos_hook=chaos)
        assert killed
        assert report.fingerprint() == serial_fp
        assert report.resume_info["pool_restarts"] >= 1
        assert report.resume_info["infra_errors"] == 0


class TestInterruption:
    def test_ctrl_c_flushes_journal_and_is_resumable(
        self, tmp_path, serial_fp
    ):
        path = str(tmp_path / "j.jsonl")

        def chaos(done, pids):
            if done == 5:
                raise KeyboardInterrupt

        with pytest.raises(CampaignInterrupted) as excinfo:
            run_campaign(CONFIG, journal=path, chaos_hook=chaos)
        exc = excinfo.value
        assert isinstance(exc, KeyboardInterrupt)
        assert exc.completed == 5
        assert exc.total == N
        assert exc.journal == path
        assert "--resume" in exc.describe()
        # every completed trial survived the interrupt
        assert recover_journal(path).completed == 5
        resumed = run_campaign(CONFIG, resume=path)
        assert resumed.fingerprint() == serial_fp

    def test_cli_interrupt_prints_resume_hint(self, tmp_path, capsys, monkeypatch):
        from repro.faults import campaign as campaign_module

        def interrupted(config, **kwargs):
            raise CampaignInterrupted(
                completed=3, total=12, journal="/tmp/j.jsonl"
            )

        monkeypatch.setattr(campaign_module, "run_campaign", interrupted)
        rc = campaign_module.main(
            ["--injections", "12", "--journal", "/tmp/j.jsonl"]
        )
        assert rc == 130
        out = capsys.readouterr().out
        assert "--resume /tmp/j.jsonl" in out
        assert "Traceback" not in out


class TestCliValidation:
    @pytest.mark.parametrize("flag", ["--workers", "--injections", "--retries"])
    @pytest.mark.parametrize("value", ["0", "-3", "x"])
    def test_non_positive_values_rejected(self, flag, value, capsys):
        from repro.faults.campaign import main

        with pytest.raises(SystemExit) as excinfo:
            main([flag, value])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_shard_index_range_checked(self, capsys):
        from repro.faults.campaign import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--shards", "2", "--shard-index", "2"])
        assert excinfo.value.code == 2

    def test_timeout_default_documented(self, capsys):
        from repro.faults.campaign import DEFAULT_TRIAL_TIMEOUT_S, main

        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = capsys.readouterr().out
        assert "--timeout-s" in help_text
        assert f"default {DEFAULT_TRIAL_TIMEOUT_S:.0f}" in help_text

    def test_journal_and_resume_are_exclusive(self, tmp_path, capsys):
        from repro.faults.campaign import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--journal", str(tmp_path / "a"),
                  "--resume", str(tmp_path / "b")])
        assert excinfo.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "x"])
    def test_timeout_must_be_positive_and_finite(self, value, capsys):
        from repro.faults.campaign import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--timeout-s", value])
        assert excinfo.value.code == 2
        assert "positive number" in capsys.readouterr().err


#: CLI flags naming CONFIG's campaign.
CLI_CONFIG = ["--injections", str(N), "--seed", "7", "--benchmarks", "towers"]


class TestCli:
    def _fails_cleanly(self, argv, capsys) -> str:
        from repro.faults.campaign import main

        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    def test_resume_of_a_missing_journal(self, tmp_path, capsys):
        path = str(tmp_path / "missing.jsonl")
        assert path in self._fails_cleanly(
            [*CLI_CONFIG, "--resume", path], capsys
        )

    def test_journal_onto_an_existing_file(self, tmp_path, capsys):
        path = tmp_path / "exists.jsonl"
        path.write_text("keep me\n")
        self._fails_cleanly([*CLI_CONFIG, "--journal", str(path)], capsys)
        assert path.read_text() == "keep me\n"

    def test_resume_of_another_campaigns_journal(
        self, full_journal_lines, tmp_path, capsys
    ):
        path = str(tmp_path / "other.jsonl")
        with open(path, "wb") as handle:
            handle.writelines(full_journal_lines)
        line = self._fails_cleanly(
            ["--injections", str(N), "--seed", "8", "--benchmarks", "towers",
             "--resume", path],
            capsys,
        )
        assert "different campaign" in line

    def test_json_needs_no_journal(self, serial_report, tmp_path):
        from repro.faults.campaign import main

        out = tmp_path / "out.json"
        assert main([*CLI_CONFIG, "--shards", "2", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["records"] == serial_report.as_records()

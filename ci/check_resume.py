"""Gate CI on crash-safe fault-campaign resume byte-identity.

Usage::

    python ci/check_resume.py [--injections N] [--kill-after K]

The gate proves the crash/resume contract end to end, with real
process death at both failure layers:

1. **whole-process crash**: launch the campaign CLI as a subprocess
   (2 workers, crash-safe journal), wait until the journal shows at
   least ``--kill-after`` completed trials, then SIGKILL the whole
   process group - the moral equivalent of a machine losing power
   mid-campaign;
2. **resume + dead worker**: resume the journal in-process
   (:func:`repro.faults.campaign.run_campaign`) with a
   chaos hook that SIGKILLs one live pool worker mid-flight, so the
   supervisor's dead-pool recovery runs inside the gate too;
3. **byte-identity**: the resumed campaign's fingerprint must equal
   the committed uninterrupted-serial fingerprint in
   ``ci/fault_baseline.json``, its manifest must validate against the
   campaign-manifest schema, and the resume counters must show that
   both the resume and the pool restart actually happened.

Any lost trial, double-counted trial, reordered fold, or
non-deterministic re-execution changes the fingerprint and fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

BASELINE_PATH = os.path.join(REPO, "ci", "fault_baseline.json")

#: How long to wait for the crash-phase subprocess to make progress.
CRASH_PHASE_TIMEOUT_S = 600.0


def journal_completed(path: str) -> int:
    """Completed-trial count currently visible in the journal at *path*.

    Counts raw newline-terminated lines minus the header - cheap enough
    to poll, and an undercount during a partial write only delays the
    kill by one poll interval.
    """
    try:
        with open(path, "rb") as handle:
            return max(0, sum(1 for line in handle if line.endswith(b"\n")) - 1)
    except FileNotFoundError:
        return 0


def crash_campaign_subprocess(
    journal: str, injections: int, seed: int, kill_after: int
) -> int:
    """Run the campaign CLI until *kill_after* trials land, then SIGKILL.

    Returns the journalled trial count at the moment of the kill.  The
    subprocess runs in its own process group so the kill takes its
    worker pool down with it - nothing survives to keep appending.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.faults.campaign",
            "--seed", str(seed),
            "--injections", str(injections),
            "--workers", "2",
            "--journal", journal,
        ],
        env=env,
        cwd=REPO,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    deadline = time.monotonic() + CRASH_PHASE_TIMEOUT_S
    try:
        while True:
            done = journal_completed(journal)
            if done >= kill_after:
                break
            if proc.poll() is not None:
                raise SystemExit(
                    f"campaign subprocess exited (rc {proc.returncode}) after "
                    f"{done} trial(s), before the kill threshold {kill_after}"
                )
            if time.monotonic() > deadline:
                raise SystemExit(
                    f"campaign subprocess made only {done}/{kill_after} "
                    f"trial(s) within {CRASH_PHASE_TIMEOUT_S:.0f}s"
                )
            time.sleep(0.2)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return journal_completed(journal)


def main(argv: list[str] | None = None) -> int:
    """Run the crash/resume gate; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--injections", type=int, default=200,
        help="campaign size; must match ci/fault_baseline.json (default 200)",
    )
    parser.add_argument(
        "--kill-after", type=int, default=60,
        help="SIGKILL the campaign once this many trials are journalled",
    )
    args = parser.parse_args(argv)

    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    if baseline["injections"] != args.injections:
        raise SystemExit(
            f"--injections {args.injections} does not match the baseline's "
            f"{baseline['injections']} - fingerprints would never agree"
        )

    from repro.faults.campaign import CampaignConfig, run_campaign
    from repro.telemetry.manifest import validate_campaign_manifest

    config = CampaignConfig(
        seed=baseline["seed"],
        injections=baseline["injections"],
        benchmarks=tuple(baseline["benchmarks"]),
    )

    workdir = tempfile.mkdtemp(prefix="check_resume_")
    journal = os.path.join(workdir, "campaign.jsonl")

    print(f"phase 1: crash - journalling to {journal}, "
          f"SIGKILL at >= {args.kill_after} trial(s)")
    survived = crash_campaign_subprocess(
        journal, args.injections, baseline["seed"], args.kill_after
    )
    print(f"  killed campaign process group; journal holds {survived} trial(s)")

    chaos_state = {"killed": False}

    def chaos(done: int, worker_pids: list[int]) -> None:
        """SIGKILL one live pool worker partway through the resume."""
        if chaos_state["killed"] or done < 20 or not worker_pids:
            return
        chaos_state["killed"] = True
        os.kill(worker_pids[0], signal.SIGKILL)
        print(f"  chaos: SIGKILLed worker {worker_pids[0]} "
              f"after {done} resumed-run trial(s)")

    print("phase 2: resume with 2 workers + mid-flight worker kill")
    report = run_campaign(
        config, workers=2, resume=journal, shards=2, chaos_hook=chaos,
    )
    info = report.resume_info

    failures: list[str] = []
    if report.fingerprint() != baseline["fingerprint"]:
        failures.append(
            "resumed fingerprint differs from the committed serial baseline: "
            f"{report.fingerprint()} != {baseline['fingerprint']}"
        )
    if len(report.results) != args.injections:
        failures.append(
            f"resumed campaign folded {len(report.results)} trial(s), "
            f"expected {args.injections}"
        )
    if info["resumed_trials"] == 0:
        failures.append("no trials were resumed - the crash phase was a no-op")
    if info["resumed_trials"] + info["executed_trials"] != args.injections:
        failures.append(
            f"resumed ({info['resumed_trials']}) + executed "
            f"({info['executed_trials']}) != {args.injections}"
        )
    if chaos_state["killed"] and info["pool_restarts"] < 1:
        failures.append(
            "a worker was SIGKILLed but the supervisor recorded no pool restart"
        )
    if info["infra_errors"]:
        failures.append(
            f"{info['infra_errors']} trial(s) quarantined as INFRA_ERROR - "
            "retries should have absorbed a single worker kill"
        )
    manifest = report.manifest()
    for problem in validate_campaign_manifest(manifest):
        failures.append(f"campaign manifest invalid: {problem}")
    shards = manifest["shards"]
    if shards["count"] != 2 or sum(shards["sizes"]) != args.injections:
        failures.append(f"unexpected shards section: {shards}")

    if failures:
        print("resume gate FAILED:")
        for line in failures:
            print("  " + line)
        return 1
    print(
        f"ok: killed at {survived} trial(s), resumed {info['resumed_trials']}, "
        f"executed {info['executed_trials']}, "
        f"{info['pool_restarts']} pool restart(s), "
        f"{info['retries']} retry(ies); fingerprint matches baseline "
        f"({report.fingerprint()[:16]})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

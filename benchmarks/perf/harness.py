"""Parent side of the benchmark: start children, drive laps, compute metrics.

The parent never imports ``repro``.  It starts one child process at a
time (closed loop, one client) and turns their records into metrics.

A workload is a *lap*, a fixed list of child specs, repeated in whole
laps while the next one is predicted to end within the run's seconds
(always at least one).  So runs on any workload seed do the same work,
and a faster commit runs more laps of it rather than different work.

A traced run has three phases: the first lap's children untraced, for
about a third of the run's seconds; the first lap again with the shims
installed, which yields the spans; and the workload's extra children
(tier passes), untraced.  ``trace.overhead_frac`` compares the jobs the
first two phases share.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import statistics
import subprocess
import sys
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from benchmarks.perf.stats import tail
from benchmarks.perf.trace import Span, self_times
from benchmarks.perf.workloads import (
    CALIBRATION_REF_S,
    CAMPAIGN_SEEDS,
    GOLDEN_PATH,
    WARM_PASSES,
)

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Every run ends within this many seconds of starting.
RUN_LIMIT_S = 170.0

#: An untraced run measures set-up at least this many times; see
#: :func:`setup_children`.
SETUP_SAMPLES = 5


class HarnessError(RuntimeError):
    """The benchmark cannot run or cannot trust its measurements."""


def load_spec() -> dict:
    """``BENCHMARK.json``: metric names, units and bounds."""
    return json.loads(SPEC_PATH.read_text())


@dataclass(frozen=True)
class Workload:
    """How to build the child specs of one workload."""

    name: str
    lap: Callable[[int, int], list[dict]]
    extras: Callable[[int, list[str]], list[dict]] = field(
        default=lambda seed, tiers: []
    )


def _one_child(kind: str, **fields) -> Callable[[int, int], list[dict]]:
    def lap(seed: int, index: int) -> list[dict]:
        return [{"kind": kind, "order_seed": f"{seed}:{index}:0", **fields}]

    return lap


def _campaign_lap(seed: int, index: int) -> list[dict]:
    order = random.Random(f"{seed}:{index}").sample(
        CAMPAIGN_SEEDS, len(CAMPAIGN_SEEDS)
    )
    return [
        {"kind": "campaign", "campaign_seed": campaign_seed,
         "order_seed": f"{seed}:{index}:{child}"}
        for child, campaign_seed in enumerate(order)
    ]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "paper_warm", _one_child("paper_warm", passes=WARM_PASSES),
            lambda seed, tiers: [
                {"kind": "tiers_warm", "order_seed": f"{seed}:tiers"}
            ],
        ),
        Workload(
            "paper_cold", _one_child("paper_cold"),
            lambda seed, tiers: [
                {"kind": "tier_cold", "tier": tier, "order_seed": f"{seed}:{tier}"}
                for tier in tiers
            ],
        ),
        Workload("report", _one_child("report")),
        Workload("campaign", _campaign_lap),
    )
}


# -- running children --------------------------------------------------------


class Runner:
    """Starts children one at a time, never past the run's time limit."""

    def __init__(self, started: float) -> None:
        self.deadline = started + RUN_LIMIT_S
        self.env = dict(os.environ)
        paths = [str(ROOT / "src"), str(ROOT)]
        if self.env.get("PYTHONPATH"):
            paths.append(self.env["PYTHONPATH"])
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        # Same string hashing in every child, so set iteration order
        # cannot differ between runs.
        self.env["PYTHONHASHSEED"] = "0"

    def spawn(self, spec: dict) -> dict:
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise HarnessError("run time limit reached")
        started = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "benchmarks.perf.workloads"],
                input=json.dumps(spec), capture_output=True, text=True,
                cwd=ROOT, env=self.env, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"child {spec['kind']} timed out") from exc
        wall = perf_counter() - started
        if proc.returncode != 0 or not proc.stdout:
            raise HarnessError(
                f"child {spec['kind']} exited with {proc.returncode}:\n"
                + proc.stderr[-4000:]
            )
        record = json.loads(proc.stdout)
        if record["fatal"]:
            raise HarnessError(record["error"])
        if record["error"]:
            print(record["error"], file=sys.stderr)
        record.update(spec=spec, wall_s=wall)
        return record


def drive(runner: Runner, units: Iterable[list[dict]],
          budget: float | None = None) -> list[dict]:
    """Run *units* (lists of specs) while the next is predicted to fit."""
    records: list[dict] = []
    start = perf_counter()
    last = 0.0
    for unit in units:
        now = perf_counter()
        if records and (
            (budget is not None and now - start + last > budget)
            or now + last > runner.deadline
        ):
            break
        for spec in unit:
            records.append(runner.spawn(spec))
        last = perf_counter() - now
    return records


def _laps(workload: Workload, seed: int):
    for index in itertools.count():
        yield [
            dict(spec, lap=index, child=child)
            for child, spec in enumerate(workload.lap(seed, index))
        ]


def setup_children(runner: Runner, records: list[dict]) -> list[dict]:
    """Children that stop after set-up, so that the run has
    :data:`SETUP_SAMPLES` set-up times when its laps have fewer children."""
    spec = records[0]["spec"]
    return [
        runner.spawn(dict(spec, setup_only=True, child=f"setup.{index}"))
        for index in range(SETUP_SAMPLES - len(records))
    ]


def prime(runner: Runner) -> list[str]:
    """Import everything once, unmeasured; returns the scalar tiers."""
    record = runner.spawn({"kind": "prime", "order_seed": "prime"})
    if record["error"]:
        raise HarnessError("the program cannot be imported")
    return record["info"]["tiers"]


# -- end-to-end metrics ------------------------------------------------------


def _jobs(records: list[dict]) -> Iterable[tuple[dict, dict]]:
    for record in records:
        for op in record["jobs"]:
            yield record, op


def tally(records: list[dict]) -> tuple[int, int]:
    """(attempted, failed) operations; a child that broke off counts one."""
    attempted = failed = 0
    for record in records:
        ops = record["jobs"] + record["probes"]
        attempted += len(ops)
        failed += sum(not op["ok"] for op in ops)
        if record["error"]:
            attempted += 1
            failed += 1
    return attempted, failed


@dataclass
class _Job:
    ops: list[dict]
    seconds: float

    @property
    def ok(self) -> bool:
        return all(op["ok"] for op in self.ops)


def _timings(records: list[dict], key: str) -> tuple[dict, dict]:
    """Time metrics of *records* from each op's *key* (``s`` as measured,
    ``n`` host-normalized); plus the sample counts and rates."""
    setups: list[float] = []
    passes: dict[tuple, list[_Job]] = defaultdict(list)
    # A child that broke off during set-up timed nothing.
    for record in records:
        if record["setup_s"] is None:
            continue
        setups.append(record["setup_" + key])
        groups: dict[str, list[dict]] = defaultdict(list)
        for op in record["jobs"]:
            groups[op.get("group", op["id"])].append(op)
        for ops in groups.values():
            job = _Job(ops, sum(op[key] for op in ops))
            passes[(record["spec"]["lap"], ops[0]["pass"])].append(job)
    jobs = [job.seconds for pass_jobs in passes.values() for job in pass_jobs if job.ok]
    if not jobs:
        raise HarnessError("no job completed")
    size = max(len(pass_jobs) for pass_jobs in passes.values())
    complete = [
        pass_jobs for pass_jobs in passes.values()
        if len(pass_jobs) == size and all(job.ok for job in pass_jobs)
    ] or list(passes.values())
    pass_seconds = [sum(job.seconds for job in pass_jobs) for pass_jobs in complete]
    percentile, tail_seconds = tail(jobs)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(pass_seconds),
        "job_ms_p50": 1000 * statistics.median(jobs),
        "job_ms_p90": 1000 * tail_seconds,
    }
    info = {"jobs": len(jobs), "passes": len(complete), "tail_percentile": percentile}
    instructions = [
        sum(op.get("instructions", 0) for job in pass_jobs for op in job.ops)
        for pass_jobs in complete
    ]
    if any(instructions):
        info["sim_mips"] = statistics.median(
            count / seconds / 1e6
            for count, seconds in zip(instructions, pass_seconds)
        )
    trials = [
        job.ops[0]["trials"] / job.seconds
        for pass_jobs in passes.values() for job in pass_jobs
        if "trials" in job.ops[0]
    ]
    if trials:
        info["trials_per_s"] = statistics.median(trials)
    return metrics, info


def end_to_end(records: list[dict]) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics of untraced *records*, plus what they rest on.

    Times are host-normalized (see
    :class:`~benchmarks.perf.workloads.HostSampler`);
    ``detail["measured"]`` holds the same metrics as measured.
    """
    metrics, detail = _timings(records, "n")
    measured, measured_info = _timings(records, "s")
    rss = statistics.median(
        record["rss_mb"] for record in records
        if not record["spec"].get("setup_only")
    )
    metrics["peak_rss_mb"] = measured["peak_rss_mb"] = rss
    attempted, failed = tally(records)
    slices = [seconds for record in records for seconds in record["calibration"]]
    detail.update(
        children=len(records),
        host_factor=statistics.median(slices) / CALIBRATION_REF_S,
        measured={**measured, **measured_info},
        error_rate=failed / attempted if attempted else 0.0,
    )
    return metrics, detail


# -- per-layer metrics -------------------------------------------------------


def _median_by_program(ops: list[tuple[dict, float]]) -> dict[str, float]:
    seconds: dict[str, list[float]] = defaultdict(list)
    for op, run_s in ops:
        seconds[op["program"]].append(run_s)
    return {name: statistics.median(values) for name, values in seconds.items()}


def per_layer(untraced: list[dict], traced: list[dict],
              extras: list[dict]) -> dict[str, float]:
    """Every per-layer value the traced run measured, by metric name."""
    golden = json.loads(GOLDEN_PATH.read_text())["programs"]
    values: dict[str, float] = defaultdict(float)
    covered = wall = 0.0
    jobs: list[tuple[dict, float]] = []
    first: list[tuple[dict, float]] = []
    steady: list[tuple[dict, float]] = []
    for record in traced:
        spans = [Span.from_list(row) for row in record["spans"]]
        run_s: dict[str, float] = defaultdict(float)
        campaign = record["spec"]["kind"] == "campaign"
        for span, own in zip(spans, self_times(spans)):
            if span.parent is None:
                covered += span.seconds
            if span.name.startswith("bench."):
                if campaign and span.name == "bench.job":
                    values["faults.trial_s"] += own
                continue
            values[f"{span.name}_s"] += own
            if span.name == "cpu.run":
                run_s[span.run] += own
                if campaign:
                    values["faults.golden_s"] += own
        wall += record["wall_s"]
        for name, count in record["counters"].items():
            values[name] += count
        for key in ("jobs", "probes"):
            for op in record[key]:
                if "program" not in op:
                    continue
                pair = (op, run_s[op["id"]])
                if key == "jobs":
                    jobs.append(pair)
                if op.get("phase") == "first":
                    first.append(pair)
                elif op.get("phase") == "steady":
                    steady.append(pair)
        for outcome, count in record["info"].get("outcomes", {}).items():
            values[f"faults.outcome.{outcome}"] += count
        values["faults.steps"] += record["info"].get("steps", 0)
    if values["faults.trial_s"]:
        values["faults.steps_per_s"] = values["faults.steps"] / values["faults.trial_s"]
    for name, seconds in _median_by_program(jobs).items():
        if seconds:
            values[f"cpu.mips.{name}"] = golden[name]["instructions"] / seconds / 1e6
    first_s, steady_s = _median_by_program(first), _median_by_program(steady)
    values["cpu.first_run_s"] = sum(first_s.values())
    values["cpu.warmup_s"] = sum(
        first_s[name] - steady_s[name] for name in first_s if name in steady_s
    )
    for record in extras:
        temperature = "warm" if record["spec"]["kind"] == "tiers_warm" else "cold"
        for tier, totals in record["tiers"].items():
            if totals["seconds"]:
                values[f"cpu.tier.{tier}.mips_{temperature}"] = (
                    totals["instructions"] / totals["seconds"] / 1e6
                )
    # Host-normalized: the two phases ran at different times.
    untraced_s = {
        (r["spec"]["lap"], r["spec"]["child"], op["id"]): op["n"]
        for r, op in _jobs(untraced)
    }
    shared = [
        (untraced_s[key], op["n"]) for r, op in _jobs(traced)
        if (key := (r["spec"]["lap"], r["spec"]["child"], op["id"])) in untraced_s
    ]
    if shared:
        values["trace.overhead_frac"] = (
            sum(t for _, t in shared) / sum(u for u, _ in shared) - 1
        )
    values["trace.coverage_frac"] = covered / wall if wall else 0.0
    return dict(values)


# -- one run -----------------------------------------------------------------


@dataclass
class RunResult:
    """One workload run: the driver-facing metrics and everything behind them."""

    workload: str
    seed: int
    seconds: int
    traced: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    detail: dict
    spans: dict = field(default_factory=dict)


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> RunResult:
    """Run workload *name* for about *seconds* and measure it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise HarnessError(f"no program source under {ROOT / 'src'}")
    workload = WORKLOADS[name]
    runner = Runner(perf_counter())
    tiers = prime(runner)
    if not traced:
        records = drive(runner, _laps(workload, seed), seconds)
        records += setup_children(runner, records)
        metrics, detail = end_to_end(records)
        attempted, failed = tally(records)
        return RunResult(name, seed, seconds, False, attempted, failed, metrics,
                         detail)
    first_lap = next(_laps(workload, seed))
    untraced = drive(runner, ([spec] for spec in first_lap), seconds / 3)
    traced_lap = [dict(spec, traced=True) for spec in first_lap]
    traced_records = drive(runner, [traced_lap])
    extras = drive(runner, [[
        dict(spec, lap=0, child=child)
        for child, spec in enumerate(workload.extras(seed, tiers))
    ]])
    everything = untraced + traced_records + extras
    attempted, failed = tally(everything)
    _, detail = end_to_end(untraced)
    spans = {
        f"{r['spec']['lap']}.{r['spec']['child']}": r["spans"]
        for r in traced_records
    }
    return RunResult(name, seed, seconds, True, attempted, failed,
                     per_layer(untraced, traced_records, extras), detail, spans)

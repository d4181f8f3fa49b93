"""What one benchmark child process runs.

The parent (:mod:`benchmarks.perf.harness`) starts each child as
``python -m benchmarks.perf.workloads`` with a JSON spec on stdin.  The
child sets up, runs its jobs one after another, checks every output
against ``golden.json`` outside the timed region, and prints one JSON
record on stdout.  Set-up time is counted from the first line of this
module, before anything from ``repro`` is imported.

A spec names a ``kind`` (one function below) and an ``order_seed``: the
workload seed reaches the child only as the order in which it runs its
fixed inputs.  Traced specs install the shims of
:mod:`benchmarks.perf.trace` right after the imports.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections.abc import Callable  # noqa: E402
from pathlib import Path  # noqa: E402

from benchmarks.perf.trace import ShimError, Tracer, install_shims  # noqa: E402

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Timed passes over the 11 paper programs in one paper_warm child
#: (about 3 s here, after about 1.5 s of set-up).  Six children fit a
#: 30-s run; more children average out how fast each process happens
#: to be.
WARM_PASSES = 8

#: The report workload renders every ``run_all`` section for these
#: benchmarks (the default fault-campaign pair); see :func:`report_sections`.
REPORT_NAMES = ("towers", "ackermann")

#: Trials of the report's r1 campaign (``run_all`` runs 120).
REPORT_R1_INJECTIONS = 8

#: One campaign child per seed; every run executes all of them, so runs
#: on different workload seeds do the same work in another order.
CAMPAIGN_SEEDS = (1981, 1982, 1983, 1984, 1985)
CAMPAIGN_INJECTIONS = 16

#: Spans every traced child of a kind must record at least once.
COMPILE_SHIMS = (
    "hll.parse", "hll.sema", "cc.lower", "cc.optimize", "cc.codegen",
    "asm.assemble",
)
PAPER_SHIMS = ("cpu.run", "cpu.make_machine", *COMPILE_SHIMS)
REPORT_SHIMS = (
    *PAPER_SHIMS, "baselines.run", "hll.interp", "multicore.run",
)
CAMPAIGN_SHIMS = (*PAPER_SHIMS, "cpu.restore")


#: Every SAMPLE_INTERVAL_S of a child's life, a timer signal runs one
#: :func:`calibration_slice` (about 2 ms here) in the middle of whatever
#: the child is doing.  An operation is normalized by the slices taken
#: while it ran and up to SAMPLE_WINDOW_S before and after it, so short
#: operations borrow their neighbours' slices.
SAMPLE_INTERVAL_S = 0.1
SAMPLE_WINDOW_S = 0.25
CALIBRATION_STEPS = 15_000

#: Median :func:`calibration_slice` time on the reference host (2-core
#: Intel Xeon, Python 3.11) when idle, so that host-normalized times
#: read as seconds on that host.
CALIBRATION_REF_S = 0.0021


class SetupOnly(Exception):
    """Ends a child that only measures set-up (see :meth:`Child.setup_done`)."""


def calibration_slice() -> float:
    """Seconds taken by a fixed loop shaped like an instruction interpreter.

    The loop uses nothing from ``repro``, so no change to the program
    can move it: only the host can.  Each operation's time is also
    reported divided by the host's speed while it ran (see
    :class:`HostSampler`), which cancels the host slowing down or
    speeding up, in bursts of a second or for minutes, as other tenants
    load it.
    """
    regs = [0] * 32
    memory: dict[int, int] = {}
    acc = 0
    start = time.perf_counter()
    for step in range(CALIBRATION_STEPS):
        op = step % 5
        value = regs[step & 31]
        if op == 0:
            regs[(step + 1) & 31] = (value + step) & 0xFFFFFFFF
        elif op == 1:
            memory[value & 1023] = step
        elif op == 2:
            regs[(step + 3) & 31] = memory.get(step & 1023, value)
        elif op == 3:
            regs[(step + 5) & 31] = ((value << 1) | (value >> 31)) & 0xFFFFFFFF
        else:
            acc = (acc + value) & 0xFFFF
    return time.perf_counter() - start


class HostSampler:
    """Times a calibration slice on every tick of an interval timer.

    The slices run in a ``SIGALRM`` handler, between two bytecodes of
    whatever the child is running, so they sample the host's speed
    throughout a long operation without a thread.  They change no state
    of the program under test.  The time they take is taken out of
    every measured time (:meth:`taken`), and a traced child records
    each as a ``bench.sample`` span, so self times leave it out too.
    """

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        #: (perf_counter at the slice's end, slice seconds)
        self.samples: list[tuple[float, float]] = []
        self._previous = signal.SIG_DFL

    def _tick(self, signum, frame) -> None:
        index = self.tracer.begin("bench.sample") if self.tracer else None
        seconds = calibration_slice()
        if index is not None:
            self.tracer.end(index)
        self.samples.append((time.perf_counter(), seconds))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer, then take one last slice, so there is one."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append((time.perf_counter(), calibration_slice()))

    def taken(self, start: float, end: float) -> float:
        """Seconds the slices took between *start* and *end*."""
        return sum(seconds for at, seconds in self.samples if start <= at <= end)

    def normalized(self, seconds: float, start: float, end: float) -> float:
        """*seconds*, spent between *start* and *end*, in reference-host
        seconds: times :data:`CALIBRATION_REF_S` over the mean slice
        around it."""
        around = [
            taken for at, taken in self.samples
            if start - SAMPLE_WINDOW_S <= at <= end + SAMPLE_WINDOW_S
        ] or [taken for _, taken in self.samples]
        return seconds * CALIBRATION_REF_S / statistics.fmean(around)


def report_sections() -> dict[str, Callable[[], str]]:
    """Renderer of each ``run_all`` section, by key, in report order.

    Each section is rendered through its public module, as
    ``run_all.render_sections`` would render it for :data:`REPORT_NAMES`,
    except for sizes: ``render_sections`` cannot leave a section out, and
    its r1 (120 injections) and a1/a2 (always the four-program fast
    subset) alone take about 45 s, more than a run.  Here r1 runs
    :data:`REPORT_R1_INJECTIONS` trials and a1/a2 sweep the pair.
    """
    from repro.evaluation import (
        ablations,
        e1_three_stage,
        f1_formats,
        f2_windows,
        f3_delayed_branch,
        f4_window_sweep,
        m1_instruction_mix,
        m2_instruction_counts,
        r1_fault_campaign,
        s1_static_analysis,
        s3_fusion,
        s4_multicore,
        t1_hll_frequency,
        t2_machines,
        t3_call_overhead,
        t4_code_size,
        t5_exec_time,
        t6_window_overflow,
        t7_chip_area,
    )

    names = REPORT_NAMES
    return {
        "t1": lambda: t1_hll_frequency.run(names).render(),
        "t2": lambda: t2_machines.run().render(),
        "t3": lambda: t3_call_overhead.run().render(),
        "t4": lambda: t4_code_size.run(names).render(),
        "t5": lambda: t5_exec_time.run(names).render(),
        "t6": lambda: t6_window_overflow.run(names).render(),
        "t7": lambda: t7_chip_area.run().render(),
        "f1": f1_formats.run,
        "f2": f2_windows.run,
        "f3": lambda: f3_delayed_branch.run(names),
        "f4": lambda: f4_window_sweep.run(names).render(),
        "a1": lambda: ablations.a1_windows(names).render(),
        "a2": lambda: ablations.a2_delay_slots(names).render(),
        "a3": lambda: ablations.a3_overlap(names).render(),
        "e1": lambda: e1_three_stage.run(names).render(),
        "m1": lambda: m1_instruction_mix.run(names).render(),
        "m2": lambda: m2_instruction_counts.run(names).render(),
        "s1": lambda: s1_static_analysis.run(names).render(),
        "s3": lambda: s3_fusion.run(names).render(),
        "s4": lambda: s4_multicore.run().render(),
        "r1": lambda: r1_fault_campaign.run(
            names, injections=REPORT_R1_INJECTIONS
        ).render(),
    }


def _run_program(compiled, engine: str):
    """A fresh machine on *engine*, run from the program's entry."""
    machine = compiled.make_machine(engine=engine)
    machine.run(compiled.program.entry)
    return machine


class Child:
    """Measurements of one child process: set-up, jobs, probes, spans.

    A *job* is one timed operation of the workload; end-to-end metrics
    come from jobs only.  Jobs that share a ``group`` (the sections of
    one report) count as one job.  A *probe* is an operation run for
    the per-layer metrics (warm-up runs, steady re-runs, tier passes).
    Both are checked against the golden.
    """

    def __init__(self, spec: dict, golden: dict, t0: float) -> None:
        self.spec = spec
        self.golden = golden
        self.t0 = t0
        self.rng = random.Random(spec["order_seed"])
        self.tracer = Tracer() if spec.get("traced") else None
        self.sampler = HostSampler(self.tracer)
        self.setup_s: float | None = None
        self.jobs: list[dict] = []
        self.probes: list[dict] = []
        self.tiers: dict[str, dict] = {}
        self.info: dict = {}
        self._setup_end = 0.0
        #: (entry, start, end) of every operation, normalized in record()
        self._timed: list[tuple[dict, float, float]] = []
        self._expected: tuple[str, ...] = ()
        self._uninstall = None
        self._setup_span: int | None = None

    # -- phases --------------------------------------------------------------

    def start_tracing(self, expected: tuple[str, ...]) -> None:
        """Install the shims (traced children only); call after imports."""
        if self.tracer is None:
            return
        from repro.cpu.engines import fastest_scalar_engine

        self._uninstall = install_shims(self.tracer, fastest_scalar_engine())
        self._expected = expected
        self.tracer.run = "setup"
        self._setup_span = self.tracer.begin("bench.setup", start=self.t0)

    def setup_done(self) -> None:
        """End set-up; a ``setup_only`` child stops here."""
        if self._setup_span is not None:
            self.tracer.end(self._setup_span)
            self._setup_span = None
        self._setup_end = time.perf_counter()
        self.setup_s = self.seconds(self.t0, self._setup_end)
        if self.spec.get("setup_only"):
            raise SetupOnly

    def seconds(self, start: float, end: float) -> float:
        """Time from *start* to *end*, less the calibration slices in it."""
        return end - start - self.sampler.taken(start, end)

    def finish(self) -> None:
        """Uninstall the shims and check that every expected one fired."""
        if self._uninstall is not None:
            self._uninstall()
            self._uninstall = None
            self.tracer.check_fired(self._expected)

    # -- timed operations ----------------------------------------------------

    def shuffled(self, items) -> list:
        items = list(items)
        return self.rng.sample(items, len(items))

    def _operation(self, entries: list, span: str, op_id: str, fn, check,
                   **info):
        tracer = self.tracer
        if tracer is not None:
            tracer.run = op_id
            index = tracer.begin(span)
        start = time.perf_counter()
        try:
            value, error = fn(), None
        except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
            value, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if tracer is not None:
            tracer.end(index)
        if error is None:
            error = check(value)
        entry = {"id": op_id, "s": self.seconds(start, end), "ok": error is None,
                 **info}
        if error is not None:
            entry["error"] = error
        entries.append(entry)
        self._timed.append((entry, start, end))
        return value

    def job(self, op_id: str, pass_id: str, fn, check, span: str = "bench.job",
            **info):
        """Time one job; its output is checked after the clock stops.

        A traced job records a span named *span*; names outside
        ``bench.*`` become per-layer metrics of their own.
        """
        return self._operation(
            self.jobs, span, op_id, fn, check, **{"pass": pass_id, **info}
        )

    def probe(self, op_id: str, fn, check, **info):
        """Time one probe operation (not part of the end-to-end metrics)."""
        return self._operation(self.probes, "bench.probe", op_id, fn, check, **info)

    # -- golden checks -------------------------------------------------------

    def check_program(self, name: str, *, manifest: bool = False):
        """Checker of one paper program's run against the oracle golden."""
        from repro.common.bitops import to_signed

        want = self.golden["programs"][name]

        def check(value) -> str | None:
            machine, fingerprint = value if manifest else (value, None)
            got = {
                "result": to_signed(machine.result),
                "instructions": machine.stats.instructions,
                "cycles": machine.stats.cycles,
            }
            if manifest:
                got["fingerprint"] = fingerprint
            wrong = [key for key, seen in got.items() if seen != want[key]]
            if wrong:
                return f"{name}: {', '.join(wrong)} differ from the golden"
            return None

        return check

    def programs(self) -> dict[str, str]:
        """The paper workloads' sources; must match the golden's list."""
        from repro.workloads import BENCHMARKS

        sources = {bench.name: bench.source for bench in BENCHMARKS}
        if sorted(sources) != sorted(self.golden["programs"]):
            raise RuntimeError(
                "repro.workloads.BENCHMARKS no longer matches golden.json"
            )
        return sources

    def record(self, error: str | None, fatal: bool) -> dict:
        """The child's record, once the sampler has stopped.

        Each operation and the set-up get their host-normalized time
        ``n`` here, when the slices after them have been taken too.
        """
        sampler = self.sampler
        for entry, start, end in self._timed:
            entry["n"] = sampler.normalized(entry["s"], start, end)
        setup_n = (
            None if self.setup_s is None
            else sampler.normalized(self.setup_s, self.t0, self._setup_end)
        )
        record = {
            "setup_s": self.setup_s,
            "setup_n": setup_n,
            "calibration": [seconds for _, seconds in sampler.samples],
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "jobs": self.jobs,
            "probes": self.probes,
            "tiers": self.tiers,
            "info": self.info,
            "error": error,
            "fatal": fatal,
        }
        if self.tracer is not None:
            from repro.workloads import compile_cache_info

            cache = compile_cache_info()
            record["spans"] = [span.as_list() for span in self.tracer.spans]
            record["counters"] = dict(self.tracer.counters)
            record["counters"]["workloads.compile_cache_hits"] = cache["hits"]
            record["counters"]["workloads.compile_cache_misses"] = cache["misses"]
        return record


# -- the workload kinds ------------------------------------------------------


def paper_warm(child: Child) -> None:
    """Compile once, warm up, then time runs on the auto tier.

    Set-up is the imports, one compile of each program and one warm-up
    pass, so the jobs measure steady-state execution only.
    """
    from repro.cpu.engines import fastest_scalar_engine
    from repro.workloads import compile_cached

    child.start_tracing(PAPER_SHIMS)
    engine = fastest_scalar_engine()
    compiled = {
        name: compile_cached(source) for name, source in child.programs().items()
    }
    for name in child.shuffled(sorted(compiled)):
        child.probe(
            f"first.{name}",
            functools.partial(_run_program, compiled[name], engine),
            child.check_program(name), program=name, phase="first",
        )
    child.setup_done()
    for index in range(child.spec["passes"]):
        for name in child.shuffled(sorted(compiled)):
            machine = child.job(
                f"{index}.{name}", str(index),
                functools.partial(_run_program, compiled[name], engine),
                child.check_program(name), program=name, phase="steady",
            )
            if machine is not None:
                child.jobs[-1]["instructions"] = machine.stats.instructions


def paper_cold(child: Child) -> None:
    """One round in a fresh process: compile, run and fingerprint each
    program once on the auto tier, paying every first-use cost."""
    from repro.cc import compile_for_risc
    from repro.cc import optimize  # noqa: F401 - imported lazily by the compiler
    from repro.cpu.engines import create_engine, fastest_scalar_engine
    from repro.telemetry import manifest  # noqa: F401 - imported lazily by runs

    child.start_tracing((*PAPER_SHIMS, "telemetry.manifest"))
    engine = fastest_scalar_engine()
    # Import the tier's modules now, so that no job in the round pays
    # for it just because it came first.
    create_engine(engine)
    sources = child.programs()
    child.setup_done()

    def cold_job(name: str):
        compiled = compile_for_risc(sources[name])
        machine = _run_program(compiled, engine)
        manifest = machine.run_manifest(workload=name, entry=compiled.program.entry)
        return compiled, machine, manifest.fingerprint()

    compiled = {}
    for name in child.shuffled(sorted(sources)):
        check = child.check_program(name, manifest=True)
        value = child.job(
            f"0.{name}", "0", functools.partial(cold_job, name),
            lambda value, check=check: check(value[1:]),
            program=name, phase="first",
        )
        if value is not None:
            compiled[name] = value[0]
            child.jobs[-1]["instructions"] = value[1].stats.instructions
    if child.tracer is not None:
        # The same runs again, warm, so cpu.warmup_s can subtract them.
        for name in child.shuffled(sorted(compiled)):
            child.probe(
                f"steady.{name}",
                functools.partial(_run_program, compiled[name], engine),
                child.check_program(name), program=name, phase="steady",
            )


def report(child: Child) -> None:
    """Render the report's sections in one process, as ``run_all`` does.

    The whole report is one job.  Sections share in-process caches, so
    they render in report order on every seed, and each shared result
    is paid by the same section as in ``run_all``.  Each section is
    timed on its own so that it is normalized by the host speed around
    it, and traced as ``evaluation.<key>``.
    """
    renderers = report_sections()
    want = child.golden["report"]
    if sorted(renderers) != sorted(want):
        raise RuntimeError("the report's sections no longer match golden.json")
    child.start_tracing(REPORT_SHIMS)
    child.setup_done()
    for key in renderers:
        child.job(
            f"0.{key}", "0", renderers[key],
            lambda text, key=key: (
                None if hashlib.sha256(text.encode()).hexdigest() == want[key]
                else f"section {key} differs from the golden"
            ),
            span=f"evaluation.{key}", group="report", section=key,
        )


def campaign(child: Child) -> None:
    """One ``run_campaign`` call, golden runs included."""
    from repro.faults.campaign import CampaignConfig, run_campaign

    child.start_tracing(CAMPAIGN_SHIMS)
    child.setup_done()
    seed = child.spec["campaign_seed"]
    config = CampaignConfig(seed=seed, injections=CAMPAIGN_INJECTIONS)
    want = child.golden["campaign"][str(seed)]

    def check(campaign_report) -> str | None:
        summary = campaign_report.summary()
        if summary["crash"] or summary["infra_error"]:
            return f"campaign {seed}: crashed or infrastructure-failed trials"
        if summary["fingerprint"] != want:
            return f"campaign {seed}: fingerprint differs from the golden"
        return None

    result = child.job(
        f"0.{seed}", "0", lambda: run_campaign(config), check, trials=config.injections
    )
    if result is not None and child.tracer is not None:
        summary = result.summary()
        child.info["outcomes"] = {
            key: summary[key] for key in (
                "masked", "detected", "silent_corruption", "timeout", "crash",
                "infra_error",
            )
        }
        child.info["steps"] = sum(trial.instructions for trial in result.results)


def _tier_pass(child: Child, compiled: dict, tier: str, label: str) -> dict:
    """One pass of *compiled* on *tier*; returns host run time and
    instructions, summed."""
    totals = {"seconds": 0.0, "instructions": 0}

    def timed_run(name: str):
        machine = compiled[name].make_machine(engine=tier)
        start = time.perf_counter()
        machine.run(compiled[name].program.entry)
        totals["seconds"] += child.seconds(start, time.perf_counter())
        totals["instructions"] += machine.stats.instructions
        return machine

    for name in child.shuffled(sorted(compiled)):
        child.probe(
            f"{tier}.{label}.{name}", functools.partial(timed_run, name),
            child.check_program(name), program=name,
        )
    return totals


def _tier_programs(child: Child, compile_fn) -> dict:
    from repro.evaluation.common import FAST_SUBSET

    sources = child.programs()
    return {name: compile_fn(sources[name]) for name in FAST_SUBSET}


def tiers_warm(child: Child) -> None:
    """Every scalar tier on the fast subset, timed after a warm-up pass."""
    from repro.cpu.engines import engine_names
    from repro.workloads import compile_cached

    compiled = _tier_programs(child, compile_cached)
    child.setup_done()
    for tier in engine_names(scalar_only=True):
        _tier_pass(child, compiled, tier, "warmup")
        child.tiers[tier] = _tier_pass(child, compiled, tier, "warm")


def tier_cold(child: Child) -> None:
    """The first pass of one scalar tier in a fresh process."""
    from repro.cc import compile_for_risc

    compiled = _tier_programs(child, compile_for_risc)
    child.setup_done()
    tier = child.spec["tier"]
    child.tiers[tier] = _tier_pass(child, compiled, tier, "cold")


def prime(child: Child) -> None:
    """Import everything once (writes bytecode caches, warms the page
    cache) and report the scalar tiers; nothing here is measured."""
    from repro.cpu.engines import engine_names
    from repro.faults import campaign as _campaign  # noqa: F401

    report_sections()
    child.info["tiers"] = list(engine_names(scalar_only=True))
    child.setup_done()


KINDS = {
    fn.__name__: fn
    for fn in (paper_warm, paper_cold, report, campaign, tiers_warm, tier_cold, prime)
}


def run_child(spec: dict, t0: float, golden: dict | None = None) -> dict:
    """Run one spec in this process and return its record."""
    if golden is None:
        golden = json.loads(GOLDEN_PATH.read_text())
    child = Child(spec, golden, t0)
    error, fatal = None, False
    child.sampler.start()
    try:
        KINDS[spec["kind"]](child)
    except SetupOnly:
        pass
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        error, fatal = traceback.format_exc(), isinstance(exc, ShimError)
    finally:
        child.sampler.stop()
    try:
        child.finish()
    except ShimError:
        if error is None:
            error, fatal = traceback.format_exc(), True
    return child.record(error, fatal)


def main() -> int:
    spec = json.load(sys.stdin)
    out = sys.stdout
    # Programs under test may print; only the record goes to stdout.
    sys.stdout = sys.stderr
    record = run_child(spec, T0)
    out.write(json.dumps(record))
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compiled-tier specifics: invalidation, watchdogs, rollback, fuzzing.

The differential harness in ``tests/test_engine_equivalence.py`` already
sweeps every workload and trap path across every tier.  This file
targets what compiling code adds:

* self-modifying code must invalidate compiled traces (including the
  trace currently executing) and re-compile from the rewritten image;
* watchdog budgets (``max_steps`` / ``max_cycles``) must stop at exactly
  the same instruction as the reference engine, even mid-trace;
* checkpoints taken mid-trace and mid-delay-slot must round-trip through
  ``restore`` and resume through the compiled path bit-identically;
* randomly generated instruction sequences (hypothesis) must execute
  identically on every tier;
* a finished machine must be freed by reference counting, and observed
  stretches must hand back to compiled traces with exact watchdogs.
"""

import gc
import time
import traceback
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RiscMachine, assemble
from repro.cpu.equivalence import diff_digests, state_digest
from repro.cpu.machine import HaltReason
from repro.workloads import benchmark
from repro.workloads.cache import compile_cached

from repro.cpu.engines import engine_names

ENGINES = engine_names()


def assert_all_engines_identical(source: str, *, max_steps: int = 20_000_000):
    machines = []
    for engine in ENGINES:
        program = assemble(source)
        machine = RiscMachine(engine=engine)
        program.load_into(machine.memory)
        machine.run(program.entry, max_steps=max_steps)
        machines.append(machine)
    digests = [state_digest(machine) for machine in machines]
    for engine, digest in zip(ENGINES[1:], digests[1:]):
        mismatches = diff_digests(digests[0], digest)
        assert not mismatches, f"[{engine}] " + "\n".join(mismatches)
    return machines[0]


# The store at `stl` rewrites the `li r26, 1` *later in the same
# straight-line block* with the word at `donor` (li r26, 42); a compiled
# tier must abort the running trace and re-compile from the patched
# image, exactly as the reference engine simply fetches the new word.
SAME_BLOCK_PATCH = """
main:
    ldl  r16, r0, donor
    stl  r16, r0, slot
    nop
slot:
    li   r26, 1
    ret
    nop
donor:
    li   r26, 42
"""

# The store patches the *head* of the loop block that is currently
# executing (an address already behind the store's program point), so
# the patched instruction takes effect on the next iteration:
# r18 = 1 (original) + 42 (patched) = 43.
LOOP_HEAD_PATCH = """
main:
    li   r17, 0
    li   r18, 0
loop:
    li   r16, 1
    add  r18, r18, r16
    ldl  r19, r0, donor
    stl  r19, r0, loop
    add  r17, r17, #1
    cmp  r17, #2
    blt  loop
    nop
    mov  r26, r18
    ret
    nop
donor:
    li   r16, 42
"""


class TestSelfModifyingCode:
    def test_same_block_patch_identical(self):
        machine = assert_all_engines_identical(SAME_BLOCK_PATCH)
        assert machine.halted is HaltReason.RETURNED
        assert machine.result == 42

    def test_loop_head_patch_identical(self):
        machine = assert_all_engines_identical(LOOP_HEAD_PATCH)
        assert machine.halted is HaltReason.RETURNED
        assert machine.result == 43

    def test_trace_engine_recompiles_after_patch(self):
        program = assemble(LOOP_HEAD_PATCH)
        machine = RiscMachine(engine="trace")
        program.load_into(machine.memory)
        machine.run(program.entry)
        assert machine.result == 43
        assert machine.engine.telemetry_snapshot()["traces_invalidated"] > 0


# Same program as the equivalence suite's delay-slot workhorse: the
# bgt's slot executes on every iteration, 5+4+3+2+1 + 5*100 = 515.
DELAY_SLOT_PROGRAM = """
main:
    li    r16, 5
    li    r17, 0
loop:
    add   r17, r17, r16
    sub   r16, r16, #1
    cmp   r16, #0
    bgt   loop
    add   r17, r17, #100
    mov   r26, r17
    ret
    nop
"""
DELAY_SLOT_RESULT = 515


class TestWatchdogExactness:
    @pytest.mark.parametrize("limit", [1, 2, 3, 5, 8, 13, 21, 34, 100])
    def test_step_limit_stops_identically(self, limit):
        # A trace must never overshoot the step budget: the engine has
        # to single-step the tail of a partially affordable trace so
        # STEP_LIMIT lands on the same instruction.
        digests = []
        for engine in ENGINES:
            program = assemble(DELAY_SLOT_PROGRAM)
            machine = RiscMachine(engine=engine)
            program.load_into(machine.memory)
            machine.run(program.entry, max_steps=limit)
            digests.append(state_digest(machine))
        for engine, digest in zip(ENGINES[1:], digests[1:]):
            mismatches = diff_digests(digests[0], digest)
            assert not mismatches, f"[{engine}] " + "\n".join(mismatches)

    @pytest.mark.parametrize("cycles", [1, 7, 19, 50, 200])
    def test_cycle_limit_stops_identically(self, cycles):
        digests = []
        for engine in ENGINES:
            program = assemble(DELAY_SLOT_PROGRAM)
            machine = RiscMachine(engine=engine)
            program.load_into(machine.memory)
            machine.run(program.entry, max_cycles=cycles)
            digests.append(state_digest(machine))
        for engine, digest in zip(ENGINES[1:], digests[1:]):
            mismatches = diff_digests(digests[0], digest)
            assert not mismatches, f"[{engine}] " + "\n".join(mismatches)


class TestCompiledRollback:
    def _mid_slot_run(self, engine):
        """Checkpoint mid-delay-slot, finish via run_loop, rewind, redo."""
        program = assemble(DELAY_SLOT_PROGRAM)
        machine = RiscMachine(engine=engine)
        program.load_into(machine.memory)
        machine.reset(program.entry)
        for __ in range(200):
            machine.step()
            if machine._pending_jump:
                break
        assert machine._pending_jump, "program never took a jump"
        cp = machine.checkpoint(track_memory_deltas=True)
        machine.engine.run_loop(machine, 100_000, None, None)
        first = state_digest(machine)
        machine.restore(cp)
        assert machine._pending_jump
        machine.engine.run_loop(machine, 100_000, None, None)
        second = state_digest(machine)
        assert not diff_digests(first, second)
        assert machine.result == DELAY_SLOT_RESULT
        return first

    def test_mid_delay_slot_rollback_through_compiled_path(self):
        # The rewound run resumes through each tier's compiled path
        # (not the oracle), and must still match the reference.
        finals = [self._mid_slot_run(engine) for engine in ENGINES]
        for engine, final in zip(ENGINES[1:], finals[1:]):
            mismatches = diff_digests(finals[0], final)
            assert not mismatches, f"[{engine}] " + "\n".join(mismatches)

    def test_restore_flushes_compiled_traces(self):
        # A full-image restore rewrites memory wholesale; every compiled
        # trace must be dropped, not just ones a store touched.
        program = assemble(DELAY_SLOT_PROGRAM)
        machine = RiscMachine(engine="trace")
        program.load_into(machine.memory)
        machine.reset(program.entry)
        cp = machine.checkpoint()
        machine.engine.run_loop(machine, 100_000, None, None)
        first = state_digest(machine)
        flushes = machine.engine.telemetry_snapshot()["code_flushes"]
        machine.restore(cp)
        assert machine.engine.telemetry_snapshot()["code_flushes"] > flushes
        machine.engine.run_loop(machine, 100_000, None, None)
        assert not diff_digests(first, state_digest(machine))

    def test_rerun_after_halt(self):
        program = assemble(DELAY_SLOT_PROGRAM)
        machine = RiscMachine(engine="trace")
        program.load_into(machine.memory)
        machine.run(program.entry)
        first = machine.result
        machine.run(program.entry)  # resets and re-executes
        assert machine.result == first == DELAY_SLOT_RESULT


# -- hypothesis: random instruction sequences --------------------------------

_REGS = list(range(16, 26))
_SCRATCH = 0x9000

_alu = st.tuples(
    st.sampled_from(["add", "sub", "and", "or", "xor"]),
    st.sampled_from(_REGS), st.sampled_from(_REGS),
    st.integers(-256, 255),
).map(lambda t: f"{t[0]} r{t[1]}, r{t[2]}, #{t[3]}")

_alu_scc = st.tuples(
    st.sampled_from(["adds", "subs", "ands", "ors", "xors"]),
    st.sampled_from(_REGS), st.sampled_from(_REGS),
    st.integers(-256, 255),
).map(lambda t: f"{t[0]} r{t[1]}, r{t[2]}, #{t[3]}")

_alu_reg = st.tuples(
    st.sampled_from(["add", "sub", "and", "or", "xor"]),
    st.sampled_from(_REGS), st.sampled_from(_REGS), st.sampled_from(_REGS),
).map(lambda t: f"{t[0]} r{t[1]}, r{t[2]}, r{t[3]}")

_shift = st.tuples(
    st.sampled_from(["sll", "srl", "sra"]),
    st.sampled_from(_REGS), st.sampled_from(_REGS),
    st.integers(0, 31),
).map(lambda t: f"{t[0]} r{t[1]}, r{t[2]}, #{t[3]}")

# r15 is loaded with the scratch base in the prologue (main is a leaf,
# so the out registers are free); 13-bit displacements select the slot.
_store_load = st.tuples(
    st.sampled_from(_REGS), st.sampled_from(_REGS), st.integers(0, 63),
).map(lambda t: f"stl r{t[0]}, r15, {4 * t[2]}\n"
                f"    ldl r{t[1]}, r15, {4 * t[2]}")

# A forward-only conditional skip: terminates regardless of the flags,
# exercises scc + condition codes + the taken and fall-through arms of
# a compiled conditional (the delay slot is a real instruction).
_branch = st.tuples(
    st.sampled_from(["bgt", "ble", "beq", "bne", "bge", "blt"]),
    st.sampled_from(_REGS), st.integers(-64, 63), st.sampled_from(_REGS),
).map(lambda t: ("cmp r{a}, #{imm}\n"
                 "    {cond} __skip_MARK\n"
                 "    add r{d}, r{d}, #1\n"
                 "    add r{d}, r{d}, #2\n"
                 "__skip_MARK:").format(cond=t[0], a=t[1], imm=t[2], d=t[3]))

_op = st.one_of(_alu, _alu_scc, _alu_reg, _shift, _store_load, _branch)


def _render_program(seeds, ops):
    lines = ["main:", f"    li   r15, {_SCRATCH}"]
    for reg, value in zip(_REGS, seeds):
        lines.append(f"    li   r{reg}, {value}")
    for index, op in enumerate(ops):
        lines.append("    " + op.replace("MARK", str(index)))
    lines.append("    mov  r26, r16")
    for reg in _REGS[1:]:
        lines.append(f"    add  r26, r26, r{reg}")
    lines.append("    ret")
    lines.append("    nop")
    return "\n".join(lines)


class TestRandomPrograms:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.integers(-1_000_000, 1_000_000),
                 min_size=len(_REGS), max_size=len(_REGS)),
        st.lists(_op, min_size=1, max_size=40),
    )
    def test_random_sequences_identical_on_all_engines(self, seeds, ops):
        source = _render_program(seeds, ops)
        machine = assert_all_engines_identical(source)
        assert machine.halted is HaltReason.RETURNED


class _Boom(Exception):
    pass


@pytest.mark.parametrize("engine", ENGINES)
class TestMachineLifetime:
    """With the cyclic collector off, weakrefs to a machine's memory and
    engine die with the last reference to the machine: no engine keeps a
    path back to the machine or its memory once a run ends, and none
    forms a cycle with its own traces."""

    @pytest.fixture(autouse=True)
    def collector_off(self):
        enabled = gc.isenabled()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    @pytest.fixture
    def towers(self):
        return compile_cached(benchmark("towers").source)

    def test_freed_after_run(self, engine, towers):
        machine = towers.make_machine(engine=engine)
        machine.run(towers.program.entry)
        assert machine.halted is HaltReason.RETURNED
        memory, engine = weakref.ref(machine.memory), weakref.ref(machine.engine)
        del machine
        assert memory() is None and engine() is None

    def test_freed_after_exception_in_dispatch(self, engine, towers):
        machine = towers.make_machine(engine=engine)
        calls = []

        def on_call(m, depth):
            calls.append(depth)
            if len(calls) == 50:
                raise _Boom

        machine.observers.subscribe("call", on_call)
        files = []
        try:
            machine.run(towers.program.entry)
        except _Boom as exc:
            files = [frame.f_code.co_filename
                     for frame, _ in traceback.walk_tb(exc.__traceback__)]
        assert len(calls) == 50
        if engine == "trace":  # raised inside a compiled trace's thunk
            assert any(name.startswith("<trace ") for name in files), files
        memory, engine = weakref.ref(machine.memory), weakref.ref(machine.engine)
        del machine, on_call
        assert memory() is None and engine() is None

    def test_freed_after_restore_and_rerun(self, engine, towers):
        machine = towers.make_machine(engine=engine)
        machine.reset(towers.program.entry)
        checkpoint = machine.checkpoint(track_memory_deltas=True)
        machine.engine.run_loop(machine, 10**7, None, None)
        first = state_digest(machine)
        machine.restore(checkpoint)
        machine.engine.run_loop(machine, 10**7, None, None)
        assert not diff_digests(first, state_digest(machine))
        memory, engine = weakref.ref(machine.memory), weakref.ref(machine.engine)
        del machine, checkpoint
        assert memory() is None and engine() is None


class TestObservedStretches:
    """The trace tier runs an observed stretch in its inner fast
    engine's loop; the steps stay attributed and the watchdogs exact."""

    @staticmethod
    def observed(engine, max_steps, max_cycles, detach_after=None,
                 deadline=None):
        """A towers run under a ``pre_step`` PC recorder: (pcs, steps,
        digest, machine); the recorder detaches itself after
        *detach_after* steps."""
        compiled = compile_cached(benchmark("towers").source)
        machine = compiled.make_machine(engine=engine)
        pcs = []

        def hook(m):
            pcs.append(m.pc)
            if len(pcs) == detach_after:
                m.observers.unsubscribe("pre_step", hook)

        machine.observers.subscribe("pre_step", hook)
        machine.reset(compiled.program.entry)
        steps = machine.engine.run_loop(
            machine, max_steps, max_cycles, deadline
        )
        return pcs, steps, state_digest(machine), machine

    @pytest.mark.parametrize(
        ("max_steps", "max_cycles", "far_deadline"),
        [
            (777, None, False),
            (777, None, True),
            (10**7, 2_001, False),
            (10**7, 2_001, True),
            (10**7, None, False),
        ],
        ids=[
            "step-limit",
            "step-limit-deadline",
            "cycle-limit",
            "cycle-limit-deadline",
            "to-completion",
        ],
    )
    def test_watchdogs_exact_under_observers(
        self, max_steps, max_cycles, far_deadline
    ):
        # A far-off deadline never fires, but makes every tier poll the
        # clock; the step and cycle watchdogs must stay exact regardless.
        deadline = time.monotonic() + 3600 if far_deadline else None
        pcs, steps, digest, _machine = self.observed(
            "reference", max_steps, max_cycles, deadline=deadline
        )
        for engine in ENGINES[1:]:
            got_pcs, got_steps, got, machine = self.observed(
                engine, max_steps, max_cycles, deadline=deadline
            )
            assert (got_pcs, got_steps) == (pcs, steps), engine
            assert not diff_digests(digest, got), engine
            if engine == "trace":
                assert machine.engine.fallback_observed == steps

    def test_detached_observer_hands_back_to_traces(self):
        pcs, steps, digest, _machine = self.observed(
            "reference", 10**7, None, detach_after=500
        )
        got_pcs, got_steps, got, machine = self.observed(
            "trace", 10**7, None, detach_after=500
        )
        assert (got_pcs, got_steps) == (pcs, steps)
        assert not diff_digests(digest, got)
        engine = machine.engine
        assert engine.fallback_observed == 500
        assert engine.traces_compiled > 0
        assert engine.fallback_steps < steps - 500

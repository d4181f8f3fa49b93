"""Structured differential fuzzing: random programs with control flow.

Goes beyond the straight-line generator in test_cc_differential by
generating whole functions with arrays, bounded loops, conditionals, and
helper-function calls - the constructs most likely to expose codegen
bugs (window clobbering, delay-slot illegality, spilled-temp aliasing).
Generated recursive programs drive the register windows through
overflow, underflow and save-stack exhaustion on every tier.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import Pdp11Traits, Z8002Traits, CiscExecutor
from repro.cc import compile_for_risc, compile_to_ir
from repro.cc.ciscgen import compile_for_cisc
from repro.common.bitops import to_signed
from repro.cpu.engines import default_sweep_engines
from repro.cpu.equivalence import diff_digests, state_digest
from repro.cpu.machine import HaltReason, TrapCause
from repro.hll import run_program
from repro.isa.registers import REGS_PER_WINDOW_UNIQUE

VARS = ["a", "b", "c"]


@st.composite
def simple_exprs(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        return draw(st.one_of(
            st.integers(-30, 30).map(str),
            st.sampled_from(VARS),
            st.sampled_from(["g[0]", "g[1]", "g[i & 7]"]),
        ))
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
    left = draw(simple_exprs(depth=depth + 1))
    right = draw(simple_exprs(depth=depth + 1))
    return f"(({left}) {op} ({right}))"


@st.composite
def statements(draw, depth=0):
    kind = draw(st.sampled_from(
        ["assign", "array", "if", "loop", "call"] if depth < 2 else ["assign", "array"]
    ))
    if kind == "assign":
        return f"{draw(st.sampled_from(VARS))} = {draw(simple_exprs())};"
    if kind == "array":
        return f"g[i & 7] = {draw(simple_exprs())};"
    if kind == "if":
        cond = f"{draw(st.sampled_from(VARS))} {draw(st.sampled_from(['<', '>', '==', '!=']))} {draw(st.integers(-10, 10))}"
        then = draw(statements(depth=depth + 1))
        if draw(st.booleans()):
            other = draw(statements(depth=depth + 1))
            return f"if ({cond}) {{ {then} }} else {{ {other} }}"
        return f"if ({cond}) {{ {then} }}"
    if kind == "loop":
        # distinct induction variable per nesting depth, or the loops
        # would reset each other and never terminate
        var = ["i", "j"][depth]
        body = draw(statements(depth=depth + 1))
        bound = draw(st.integers(1, 6))
        return (f"for ({var} = 0; {var} < {bound}; {var} = {var} + 1) {{ {body} }}")
    # call
    args = ", ".join(draw(simple_exprs()) for __ in range(2))
    return f"{draw(st.sampled_from(VARS))} = helper({args});"


@st.composite
def structured_programs(draw):
    body = " ".join(draw(statements()) for __ in range(draw(st.integers(2, 5))))
    return f"""
int g[8];
int helper(int x, int y) {{
    if (x > y) return x - y;
    return x + y + g[0];
}}
int main() {{
    int a = {draw(st.integers(-20, 20))};
    int b = {draw(st.integers(-20, 20))};
    int c = {draw(st.integers(-20, 20))};
    int i = 0;
    int j = 0;
    {body}
    return a + b * 3 + c * 5 + g[2];
}}
"""


COMMON_SETTINGS = dict(deadline=None,
                       suppress_health_check=[HealthCheck.too_slow,
                                              HealthCheck.data_too_large])


def _check_every_tier(source, compiled, expected):
    """Every tier returns *expected* and the oracle's manifest fingerprint."""
    oracle_fingerprint = None
    for engine in default_sweep_engines():  # oracle first
        value, machine = compiled.run(engine=engine)
        assert value == expected, (engine, source)
        fingerprint = machine.run_manifest(
            workload="fuzz", entry=compiled.program.entry
        ).fingerprint()
        if oracle_fingerprint is None:
            oracle_fingerprint = fingerprint
        assert fingerprint == oracle_fingerprint, (engine, source)


@settings(max_examples=25, **COMMON_SETTINGS)
@given(structured_programs())
def test_structured_interp_vs_risc(source):
    expected = run_program(source, max_ops=2_000_000).value
    compiled = compile_for_risc(source)
    _check_every_tier(source, compiled, expected)


@settings(max_examples=10, **COMMON_SETTINGS)
@given(structured_programs())
def test_structured_interp_vs_risc_flat(source):
    expected = run_program(source, max_ops=2_000_000).value
    compiled = compile_for_risc(source, use_windows=False)
    _check_every_tier(source, compiled, expected)


@settings(max_examples=10, **COMMON_SETTINGS)
@given(structured_programs())
def test_structured_interp_vs_small_register_machines(source):
    """PDP-11 (3 allocatable regs) stresses the CISC spill paths."""
    expected = run_program(source, max_ops=2_000_000).value
    ir = compile_to_ir(source)
    for traits in (Pdp11Traits(), Z8002Traits()):
        generated = compile_for_cisc(ir, traits)
        executor = CiscExecutor(generated.program, traits)
        assert executor.run() == expected, (traits.name, source)


@st.composite
def recursive_programs(draw, max_depth):
    """A linear recursion ``depth`` frames deep (1..*max_depth*), with
    generated statements before and after the recursive call."""
    depth = draw(st.integers(1, max_depth))
    pre = " ".join(draw(statements(depth=1)) for __ in range(draw(st.integers(1, 3))))
    post = " ".join(draw(statements(depth=1)) for __ in range(draw(st.integers(0, 2))))
    return f"""
int g[8];
int helper(int x, int y) {{
    if (x > y) return x - y;
    return x + y + g[0];
}}
int rec(int n, int a) {{
    int b = {draw(st.integers(-20, 20))};
    int c = {draw(st.integers(-20, 20))};
    int i = 0;
    int j = 0;
    {pre}
    if (n > 0) {{
        b = b + rec(n - 1, {draw(simple_exprs())});
    }}
    {post}
    g[n & 7] = a ^ c;
    return a + b * 3 + c * 5 + g[(n + 1) & 7];
}}
int main() {{
    return rec({depth}, {draw(st.integers(-20, 20))});
}}
"""


def _run_recursion(compiled, num_windows, stack_limit=None):
    """Run *compiled* on every tier; assert each ends as the oracle does
    (full state digest, traps and halt included); return the oracle."""
    oracle = None
    for engine in default_sweep_engines():  # oracle first
        machine = compiled.make_machine(engine=engine, num_windows=num_windows)
        if stack_limit is not None:
            machine.window_stack_limit = stack_limit
        machine.run(compiled.program.entry)
        if oracle is None:
            oracle, digest = machine, state_digest(machine)
            continue
        mismatches = diff_digests(digest, state_digest(machine))
        assert not mismatches, f"[{engine}] " + "\n".join(mismatches)
        assert machine.window_save_pointer == oracle.window_save_pointer
    return oracle


@pytest.mark.parametrize("num_windows", [2, 3, 4, 8])
@settings(max_examples=6, **COMMON_SETTINGS)
@given(data=st.data())
def test_generated_recursion_every_tier(num_windows, data):
    source = data.draw(recursive_programs(3 * num_windows))
    compiled = compile_for_risc(source)
    oracle = _run_recursion(compiled, num_windows)
    assert oracle.halted is HaltReason.RETURNED
    assert to_signed(oracle.result) == run_program(source, max_ops=2_000_000).value
    # At call depth k, k - (num_windows - 1) units sit on the save stack:
    # leave room for one fewer at the deepest call, whose spill traps.
    units = oracle.stats.max_call_depth - (num_windows - 1)
    size = oracle.memory.size
    limit = size - max(units - 1, 0) * 4 * REGS_PER_WINDOW_UNIQUE
    exhausted = _run_recursion(compiled, num_windows, stack_limit=limit)
    if units > 0:
        assert exhausted.halted is HaltReason.TRAPPED
        assert exhausted.last_trap.cause is TrapCause.WINDOW_OVERFLOW_STACK
        assert exhausted.stats.max_call_depth == oracle.stats.max_call_depth
    else:
        assert exhausted.result == oracle.result

"""Structured differential fuzzing: random programs with control flow.

Goes beyond the straight-line generator in test_cc_differential by
generating whole functions with arrays, bounded loops, conditionals, and
helper-function calls - the constructs most likely to expose codegen
bugs (window clobbering, delay-slot illegality, spilled-temp aliasing).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import Pdp11Traits, Z8002Traits, CiscExecutor
from repro.cc import compile_for_risc, compile_to_ir
from repro.cc.ciscgen import compile_for_cisc
from repro.hll import run_program

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


@settings(max_examples=25, **COMMON_SETTINGS)
@given(structured_programs())
def test_structured_interp_vs_risc(source):
    expected = run_program(source, max_ops=2_000_000).value
    compiled = compile_for_risc(source)
    for engine in ("reference", "fast"):
        value, __ = compiled.run(engine=engine)
        assert value == expected, (engine, source)


@settings(max_examples=10, **COMMON_SETTINGS)
@given(structured_programs())
def test_structured_interp_vs_risc_flat(source):
    expected = run_program(source, max_ops=2_000_000).value
    compiled = compile_for_risc(source, use_windows=False)
    for engine in ("reference", "fast"):
        value, __ = compiled.run(engine=engine)
        assert value == expected, (engine, source)


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

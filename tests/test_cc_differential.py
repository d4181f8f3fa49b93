"""Differential testing: interpreter == RISC I == every CISC baseline.

The core correctness property of the whole reproduction: a Mini-C
program produces the same result through the reference interpreter, the
compiled RISC I image (with and without windows / delay-slot filling,
on the reference oracle and on ``CompiledRisc.run``'s default tier), and
the generic-CISC images for all four baseline machines, each run
directly and through the priced-once path (one run per distinct
program, priced per machine).  Hypothesis generates random
straight-line programs on top of the curated cases.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import ALL_TRAITS, CiscExecutor, run_distinct
from repro.cc import compile_for_risc, compile_to_ir
from repro.cc.ciscgen import compile_for_cisc
from repro.hll import run_program

CASES = [
    "int main() { return 0; }",
    "int main() { return -2147483647 - 1; }",
    "int main() { int x = -2147483647 - 1; return x / 2; }",
    "int main() { int x = -2147483647 - 1; return x % 4; }",
    "int main() { int a = 13; int b = -5; return a / b * 1000 + a % b; }",
    "int main() { int i; int s = 0; for (i = 0; i < 17; i = i + 1) s = s ^ (s + i); return s; }",
    "int main() { int x = 1; int y = 2; int z = 3; return (x < y) + (y < z) * 2 + (z < x) * 4; }",
    "int main() { int x = 0 - 12; return (x >> 2) + (x << 2); }",
    "int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); } int main() { return fact(10); }",
    "int gcd(int a, int b) { while (b != 0) { int t = a % b; a = b; b = t; } return a; }"
    " int main() { return gcd(462, 1071); }",
    "int a[16]; int rev(int n) { int i; for (i = 0; i < n; i = i + 1) a[i] = n - i;"
    " return 0; } int main() { rev(16); return a[0] * 100 + a[15]; }",
    "char buf[32]; int main() { int i; for (i = 0; i < 26; i = i + 1) buf[i] = 'a' + i;"
    " return buf[25] * 256 + buf[0]; }",
    "int swap(int *x, int *y) { int t = *x; *x = *y; *y = t; return 0; }"
    " int main() { int a = 3; int b = 9; swap(&a, &b); return a * 10 + b; }",
    "int main() { int depth = 0; int i; for (i = 0; i < 3; i = i + 1) {"
    " int j; for (j = 0; j < 3; j = j + 1) { depth = depth + i * j; } } return depth; }",
    "int deep(int n) { if (n == 0) return 0; return deep(n - 1) + 1; }"
    " int main() { return deep(40); }",  # forces window overflow (depth > 8)
]


def all_targets(source: str) -> dict[str, int]:
    """Run *source* everywhere; returns {target: result}."""
    results = {"interp": run_program(source, max_ops=20_000_000).value}
    for use_windows in (True, False):
        for optimize in (True, False):
            key = f"risc(w={int(use_windows)},opt={int(optimize)})"
            compiled = compile_for_risc(source, use_windows=use_windows,
                                        optimize_delay_slots=optimize)
            results[key], __ = compiled.run(engine="reference")
            results[key + "/default"], __ = compiled.run()
    for name, (value, __) in baseline_runs(source).items():
        results[name] = value
    return results


def baseline_runs(source: str) -> dict[str, tuple[int, int]]:
    """(result, cycles) per baseline: a direct run of every machine, and
    the priced-once path that runs each distinct program once."""
    ir = compile_to_ir(source)
    machines = [(traits, compile_for_cisc(ir, traits).program)
                for traits in ALL_TRAITS]
    runs = {}
    for traits, program in machines:
        executor = CiscExecutor(program, traits)
        runs[traits.name] = executor.run(), executor.cycles
    for traits, value, executor in run_distinct(machines):
        runs[traits.name + "/priced-once"] = value, executor.price(traits)[0]
    return runs


@pytest.mark.parametrize("source", CASES, ids=range(len(CASES)))
def test_curated_cases_agree_everywhere(source):
    results = all_targets(source)
    expected = results.pop("interp")
    for target, value in results.items():
        assert value == expected, f"{target}: {value} != {expected}\n{source}"


# -- hypothesis: random expression programs ------------------------------------


@st.composite
def expressions(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(st.one_of(
            st.integers(-100, 100).map(str),
            st.sampled_from(["a", "b", "c"]),
        ))
        return leaf
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^", "<<", ">>",
                               "/", "%", "<", "==", ">"]))
    left = draw(expressions(depth=depth + 1))
    right = draw(expressions(depth=depth + 1))
    if op in ("/", "%"):
        right = f"(({right}) | 1)"  # never zero
    if op in ("<<", ">>"):
        right = f"(({right}) & 7)"  # sane shift counts
    return f"(({left}) {op} ({right}))"


@st.composite
def programs(draw):
    statements = ["int a = %d;" % draw(st.integers(-50, 50)),
                  "int b = %d;" % draw(st.integers(-50, 50)),
                  "int c = %d;" % draw(st.integers(1, 50))]
    for __ in range(draw(st.integers(1, 4))):
        target = draw(st.sampled_from(["a", "b", "c"]))
        statements.append(f"{target} = {draw(expressions())};")
    statements.append(f"return {draw(expressions())};")
    return "int main() { %s }" % " ".join(statements)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_random_programs_interp_vs_risc(source):
    expected = run_program(source, max_ops=5_000_000).value
    compiled = compile_for_risc(source)
    got, __ = compiled.run(engine="reference")
    assert got == expected, source
    got, __ = compiled.run()
    assert got == expected, source


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(programs())
def test_random_programs_interp_vs_every_baseline(source):
    expected = run_program(source, max_ops=5_000_000).value
    runs = baseline_runs(source)
    for traits in ALL_TRAITS:
        direct = runs[traits.name]
        assert direct[0] == expected, (traits.name, source)
        assert runs[traits.name + "/priced-once"] == direct, (traits.name, source)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(2, 16), programs())
def test_window_count_never_changes_results(num_windows, source):
    expected = run_program(source, max_ops=5_000_000).value
    compiled = compile_for_risc(source)
    got, __ = compiled.run(num_windows=num_windows, engine="reference")
    assert got == expected
    got, __ = compiled.run(num_windows=num_windows)
    assert got == expected

"""Argument handling of the two equivalence sweep CLIs.

``python -m repro.cpu.equivalence`` and ``python -m repro.multicore``
must reject a bad argument with exit status 2 *before* any run starts:
an unknown or non-SMP engine, a single engine, an unknown workload or
scenario anywhere in the list, or a core count below one.  Each test
replaces the per-workload (per-scenario) runner with one that fails the
test if it is ever called.
"""

from types import SimpleNamespace

import pytest

import repro.cpu.equivalence as cpu_equivalence
import repro.multicore.equivalence as mc_equivalence
from repro.cpu.engines import engine_names


def _refuse(*args, **kwargs):
    raise AssertionError("a run started despite a bad argument")


def _recorder(calls):
    def run(name_or_source, **kwargs):
        calls.append(kwargs)
        return SimpleNamespace(
            equivalent=True, instructions=1, engines=kwargs["engines"]
        )

    return run


@pytest.fixture
def cpu_refuses(monkeypatch):
    monkeypatch.setattr(cpu_equivalence, "run_differential", _refuse)


@pytest.fixture
def mc_refuses(monkeypatch):
    monkeypatch.setattr(mc_equivalence, "run_differential_multicore", _refuse)


def _exit_code(main, argv) -> int:
    with pytest.raises(SystemExit) as info:
        main(argv)
    return info.value.code


class TestEngineSweepCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--engines", "bogus"],
            ["--engines", "reference,bogus"],
            ["--engines", "reference,fast,block"],
            ["--engines", "trace"],
            ["--engines"],
            ["towers", "no_such_workload"],
            ["--fusion", "towers"],
        ],
        ids=["bogus", "ref-bogus", "deleted-tier", "one-engine", "no-value",
             "unknown-workload-after-valid", "deleted-flag"],
    )
    def test_bad_arguments_exit_2_before_any_run(self, cpu_refuses, argv, capsys):
        assert _exit_code(cpu_equivalence.main, argv) == 2
        assert "error" in capsys.readouterr().err

    def test_engines_and_workloads_reach_the_runner(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cpu_equivalence, "run_differential", _recorder(calls))
        assert cpu_equivalence.main(["--engines", "reference,trace", "towers"]) == 0
        assert calls == [{"engines": ("reference", "trace")}]
        assert "1/1 workloads equivalent" in capsys.readouterr().out

    def test_list_engines_names_every_tier(self, cpu_refuses, capsys):
        assert cpu_equivalence.main(["--list-engines"]) == 0
        out = capsys.readouterr().out
        for name in engine_names():
            assert name in out


class TestMulticoreSweepCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--engines", "trace"],
            ["--engines", "bogus"],
            ["--engines", "reference,bogus"],
            ["--engines", "reference,fast,block"],
            ["--engines", "reference"],
            ["barrier", "no_such_scenario"],
            ["--cores", "0"],
            ["--cores", "2,0"],
            ["--cores", "two"],
        ],
        ids=["trace", "bogus", "ref-bogus", "deleted-tier",
             "one-engine", "unknown-scenario-after-valid", "zero-cores",
             "zero-in-list", "not-an-int"],
    )
    def test_bad_arguments_exit_2_before_any_run(self, mc_refuses, argv, capsys):
        assert _exit_code(mc_equivalence.main, argv) == 2
        assert "error" in capsys.readouterr().err

    def test_engines_cores_and_scenarios_reach_the_runner(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(
            mc_equivalence, "run_differential_multicore", _recorder(calls)
        )
        assert mc_equivalence.main(["--cores", "1,3", "barrier"]) == 0
        assert calls == [
            {"num_cores": 1, "engines": engine_names()},
            {"num_cores": 3, "engines": engine_names()},
        ]
        assert "2/2 runs equivalent" in capsys.readouterr().out

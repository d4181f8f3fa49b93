"""``run_all`` flag validation: bad flags fail before any section renders."""

import pytest

from repro.evaluation import run_all


@pytest.fixture
def no_render(monkeypatch):
    """Fail the test if ``main`` gets as far as rendering the report."""
    def render_sections(*args, **kwargs):
        raise AssertionError("render_sections called before flags were checked")

    monkeypatch.setattr(run_all, "render_sections", render_sections)


@pytest.mark.parametrize("argv", [
    ["--manifest", "out.json", "--engine", "nope"],
    ["--manifest", "out.json", "--engine", "batch"],
    ["--engine", "fast"],                      # --engine needs --manifest
    ["--store", "dir"],                        # deleted flag
    ["--workers"],                             # trailing flag, no value
    ["--workers", "two"],
    ["--mystery"],
])
def test_bad_flags_exit_2_before_rendering(no_render, argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_all.main(argv)
    assert excinfo.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_engine_choices_come_from_the_registry(no_render, capsys):
    from repro.cpu.engines import engine_names

    with pytest.raises(SystemExit):
        run_all.main(["--manifest", "out.json", "--engine", "nope"])
    err = capsys.readouterr().err
    for name in engine_names():
        assert name in err


def test_valid_flags_reach_the_renderer(monkeypatch, tmp_path):
    calls = []

    def render_sections(names, *, workers=None):
        calls.append((names, workers))
        return ["section"]

    monkeypatch.setattr(run_all, "render_sections", render_sections)
    out = tmp_path / "report.txt"
    assert run_all.main(["--fast", "--workers", "3", "--out", str(out)]) == "section"
    assert calls == [(run_all.FAST_SUBSET, 3)]
    assert out.read_text() == "section\n"

"""``python -m repro.check`` CLI tests: exit codes, rule listing, the
stage order of the bare run, and the repo-wide clean contract CI relies
on."""

from pathlib import Path

import pytest

import repro
from repro.check import __main__ as cli
from repro.check.__main__ import main
from repro.check.lint import ALL_RULES, WAIVER_SYNTAX

PKG = Path(repro.__file__).parent


def test_static_pass_on_the_shipped_package(capsys):
    assert main(["lint", str(PKG)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_quiet_suppresses_the_summary(capsys):
    assert main(["lint", str(PKG), "-q"]) == 0
    assert capsys.readouterr().out == ""


def test_static_failure_on_seeded_violation(tmp_path, capsys):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nt = time.time()\n")
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "[wallclock]" in out
    assert "bad.py:2:" in out


def test_missing_path_is_a_usage_error(capsys):
    assert main(["lint", str(PKG / "no_such_dir")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_empty_directory_is_a_usage_error(tmp_path, capsys):
    assert main(["lint", str(tmp_path)]) == 2
    assert "no Python files" in capsys.readouterr().err


def test_mutually_exclusive_stage_flags(capsys):
    """One command line names at most one stage."""
    with pytest.raises(SystemExit) as exc:
        main(["shake", "2", "chaos", "2"])
    assert exc.value.code == 2


def test_list_rules_names_every_rule(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule in out


def test_list_rules_shows_waiver_syntax(capsys):
    """Every rule line advertises its escape hatch."""
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert WAIVER_SYNTAX.format(rule=rule) in out


def test_shake_flag_exclusions(capsys):
    """The shake stage takes a non-negative schedule count."""
    with pytest.raises(SystemExit) as exc:
        main(["shake", "-1"])
    assert exc.value.code == 2
    assert "at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--jobs", "1"],
    [str(PKG)],
    ["lint", "--resume"],
    ["lint", "--seed", "1"],
    ["shake", "--jobs", "2"],
    ["shake", str(PKG)],
    ["chaos", "2", "--require-docstrings"],
    ["chaos", str(PKG)],
    ["crash", "2", "--resume"],
    ["crash", str(PKG)],
], ids=["jobs", "paths", "resume", "shake-seed", "jobs-with-shake",
        "paths-with-shake", "require-docstrings-with-chaos",
        "paths-with-chaos", "resume-with-crash", "paths-with-crash"])
def test_an_option_outside_its_mode_is_a_usage_error(argv, capsys):
    """The bare run and every stage refuse another stage's option and a
    path they do not lint, before running anything."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("quiet", [False, True])
def test_bare_run_runs_every_stage_in_order(monkeypatch, quiet):
    """With no stage named, the CLI runs lint, shake, chaos and crash at
    their defaults (CI's sizes) and exits with the worst status."""
    calls = []

    def stage(name, status):
        def run(**options):
            calls.append((name, options))
            return status
        return run

    monkeypatch.setattr(cli, "run_lint", stage("lint", 0))
    monkeypatch.setattr(cli, "run_shake", stage("shake", 1))
    monkeypatch.setattr(cli, "run_chaos", stage("chaos", 0))
    monkeypatch.setattr(cli, "run_crash", stage("crash", 0))
    assert main(["-q"] if quiet else []) == 1
    assert calls == [
        ("lint", {"paths": [], "require_docstrings": False,
                  "list_rules": False, "quiet": quiet}),
        ("shake", {"k": 4, "seed": 0, "quiet": quiet}),
        ("chaos", {"n": 24, "seed": 0, "jobs": 1, "resume": False,
                   "quiet": quiet}),
        ("crash", {"n": 8, "seed": 0, "quiet": quiet}),
    ]


@pytest.mark.slow
def test_shake_battery_is_clean(capsys):
    """The schedule CI gate: the shaken scenario battery finds no
    schedule-dependent data."""
    assert main(["shake", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "bit-identical across 3 schedules" in out


@pytest.mark.slow
def test_smoke_battery_is_clean(capsys):
    """``shake 0`` runs every scenario once, sanitizers on, and each
    scenario's own invariant holds against a real simulated schedule."""
    assert main(["shake", "0"]) == 0
    out = capsys.readouterr().out
    for label in ("iterative plan reuse", "two-level equals one-level",
                  "faulted equals healthy"):
        assert f"repro.check shake: {label} invariant" in out
    assert "bit-identical across 1 schedules" in out

"""``python -m repro.check`` CLI tests: exit codes, rule listing, and
the repo-wide clean contract CI relies on."""

from pathlib import Path

import pytest

import repro
from repro.check.__main__ import main
from repro.check.lint import ALL_RULES, WAIVER_SYNTAX

PKG = Path(repro.__file__).parent


def test_static_pass_on_the_shipped_package(capsys):
    assert main([str(PKG), "--static-only"]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_quiet_suppresses_the_summary(capsys):
    assert main([str(PKG), "--static-only", "-q"]) == 0
    assert capsys.readouterr().out == ""


def test_static_failure_on_seeded_violation(tmp_path, capsys):
    bad = tmp_path / "repro" / "sim" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import time\nt = time.time()\n")
    assert main([str(tmp_path), "--static-only"]) == 1
    out = capsys.readouterr().out
    assert "[wallclock]" in out
    assert "bad.py:2:" in out


def test_missing_path_is_a_usage_error(capsys):
    assert main([str(PKG / "no_such_dir"), "--static-only"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_empty_directory_is_a_usage_error(tmp_path, capsys):
    assert main([str(tmp_path), "--static-only"]) == 2
    assert "no Python files" in capsys.readouterr().err


def test_mutually_exclusive_stage_flags(capsys):
    assert main(["--static-only", "--smoke-only"]) == 2


def test_list_rules_names_every_rule(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule in out


def test_list_rules_shows_waiver_syntax(capsys):
    """Every rule line advertises its escape hatch."""
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert WAIVER_SYNTAX.format(rule=rule) in out


def test_shake_flag_exclusions(capsys):
    assert main(["--shake", "--static-only"]) == 2
    assert main(["--shake", "2", "--smoke-only"]) == 2
    assert main(["--shake", "2", "--chaos", "2"]) == 2
    assert main(["--shake", "2", "--crash", "2"]) == 2
    assert main(["--shake", "-1"]) == 2


@pytest.mark.parametrize("argv, option, mode", [
    (["--static-only", "--shake-seed", "9"], "--shake-seed", "--shake"),
    (["--static-only", "--chaos-seed", "5"], "--chaos-seed", "--chaos"),
    (["--static-only", "--jobs", "1"], "--jobs", "--chaos"),
    (["--shake", "2", "--jobs", "2"], "--jobs", "--chaos"),
    (["--static-only", "--crash-seed", "3"], "--crash-seed", "--crash"),
    (["--chaos", "2", "--crash-seed", "3"], "--crash-seed", "--crash"),
    (["--resume"], "--resume", "--chaos"),
    (["--chaos", "2"], "a path to lint", "--chaos"),
    (["--crash", "2"], "a path to lint", "--crash"),
    (["--smoke-only"], "a path to lint", "--smoke-only"),
    (["--chaos", "2", "--require-docstrings"], "--require-docstrings",
     "--chaos"),
], ids=["shake-seed", "chaos-seed", "jobs", "jobs-with-shake",
        "crash-seed", "crash-seed-with-chaos", "resume", "paths-with-chaos",
        "paths-with-crash", "paths-with-smoke-only",
        "require-docstrings-with-chaos"])
def test_an_option_outside_its_mode_is_a_usage_error(argv, option, mode,
                                                     capsys):
    """An option only one mode reads is refused, never silently dropped,
    and the message names the option and the mode it needs (for the
    lint's inputs, the mode that does not lint)."""
    assert main([str(PKG)] + argv) == 2
    err = capsys.readouterr().err
    assert option in err and mode in err


@pytest.mark.slow
def test_shake_battery_is_clean(capsys):
    """The schedule CI gate: lint plus the shaken scenario battery find
    no schedule-dependent data."""
    assert main([str(PKG), "--shake", "2", "--shake-seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "bit-identical across 3 schedules" in out


@pytest.mark.slow
def test_smoke_battery_is_clean(capsys):
    """The runtime half of the CI gate: every sanitizer scenario passes
    against real simulated schedules."""
    assert main(["--smoke-only"]) == 0
    out = capsys.readouterr().out
    assert "all runtime sanitizers passed" in out

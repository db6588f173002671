"""Tests for the ``python -m repro.experiments`` CLI."""

import pytest

from repro.experiments.__main__ import main


def test_cli_lists_experiments(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "fig13" in out


def test_cli_runs_one_experiment(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "FLASH" in out
    assert "regenerated in" in out


def test_cli_csv_mode(capsys):
    assert main(["table1", "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "Project,On-Line Data,Off-Line Data"


def test_cli_outdir_writes_artifacts(tmp_path, capsys):
    assert main(["table1", "--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "table1.txt").exists()
    assert (tmp_path / "table1.csv").exists()
    assert "FLASH" in (tmp_path / "table1.txt").read_text()


def test_cli_unknown_experiment():
    with pytest.raises(KeyError):
        main(["fig99"])


def test_cli_manifest_records_the_flags_in_force(tmp_path, monkeypatch):
    """``--check --obs`` is one override around the run and its
    manifest, so the manifest's flags section says check was on.  Run
    in a fresh interpreter with every switch unset, so the flags come
    from the command line alone."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    monkeypatch.chdir(tmp_path)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-m", "repro.experiments", "table1",
                    "--quick", "--check", "--obs"],
                   env=env, check=True, capture_output=True)
    manifest = json.loads(
        (tmp_path / "results" / "table1" / "manifest.json").read_text())
    assert manifest["flags"] == {"check": True, "shake": None, "obs": True}
    assert manifest["config"]["check"] is True

"""The chaos campaign: clean sweeps pass, broken invariants fail loudly.

The negative tests sabotage the stack the way a real regression would —
a recovery path that combines a window twice, a forged wire digest, a
receiver that keeps a corrupted payload — and assert the campaign exits
non-zero naming the seed and scenario, which is the property the CI
gate depends on.
"""

import pytest

from repro.check.__main__ import main as check_main
from repro.check.chaos import run_campaign
from repro.faults import resilient


def test_campaign_clean_sweep_exits_zero(capsys):
    # 4 jobs = each scenario once at the lowest corruption rate.
    assert run_campaign(4, quiet=True) == 0
    assert capsys.readouterr().err == ""


def test_campaign_reports_injections(capsys):
    assert run_campaign(2) == 0
    out = capsys.readouterr().out
    assert "seed=0 scenario=cc-all-to-one" in out
    assert "seed=1 scenario=cc-all-to-all" in out
    assert "all clean" in out


def test_cli_chaos_flag(capsys):
    """The chaos stage runs N jobs and refuses N < 1 or a negative
    worker count."""
    assert check_main(["chaos", "2", "-q"]) == 0
    for bad in (["0"], ["2", "--jobs", "-1"]):
        with pytest.raises(SystemExit) as exc:
            check_main(["chaos"] + bad)
        assert exc.value.code == 2


def test_campaign_catches_double_combine(monkeypatch, capsys):
    # The classic silent recovery bug: a re-served window combined on
    # top of an already-combined copy.  Only faulted runs take the
    # recovery path, so the fault-free reference stays sound and the
    # sabotaged runs must diverge from it.
    real = resilient.combine_partials

    def doubled(ctx, op, partials, stats):
        if getattr(ctx.machine, "faults", None) is not None and partials:
            partials = list(partials) + [partials[0]]
        return real(ctx, op, partials, stats)

    monkeypatch.setattr(resilient, "combine_partials", doubled)
    assert run_campaign(2, quiet=True) == 1
    err = capsys.readouterr().err
    assert "repro.check chaos FAILED" in err
    assert "seed=" in err and "scenario=" in err


def test_campaign_catches_forged_wire_digests(monkeypatch, capsys):
    # A constant digest lets in-transit corruption through the receive
    # check; the reduce-time provenance check (or the reference
    # comparison) must then fail the run.  8 jobs cover two corruption
    # rates so several deliveries are actually corrupted.
    monkeypatch.setattr(resilient, "payload_digest",
                        lambda payload: b"\x00\x00\x00\x00")
    assert run_campaign(8, quiet=True) == 1
    err = capsys.readouterr().err
    assert "seed=" in err and "scenario=" in err


def test_campaign_catches_skipped_repair(monkeypatch, capsys):
    # Detection without re-serve: the receiver notices the corruption
    # but never NACKs the window, so no repair round runs.  Either the
    # ledger check (detections with no recover records) or the missing
    # window's effect on the result must fail the run.
    real = resilient._take_window

    def keep_quiet(ctx, integ, msg, key, got):
        real(ctx, integ, msg, key, got)
        return False  # never report the window as corrupt-missed

    monkeypatch.setattr(resilient, "_take_window", keep_quiet)
    assert run_campaign(8, quiet=True) == 1
    assert "seed=" in capsys.readouterr().err

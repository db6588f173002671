"""The one flags record: parsing, the scoped override, and the
observability registry that is derived from it."""

import os
import subprocess
import sys

import pytest

from repro import flags
from repro.errors import ConfigError
from repro.flags import Flags, override
from repro.obs import metrics


def test_unset_environment_means_every_switch_off():
    assert flags.parse({}) == Flags(check=False, shake=None, obs=False)


def test_documented_spellings_parse():
    record = flags.parse({"REPRO_CHECK": " Yes ", "REPRO_SHAKE": " 7 ",
                          "REPRO_OBS": "TRUE"})
    assert record == Flags(check=True, shake=7, obs=True)
    record = flags.parse({"REPRO_CHECK": "0", "REPRO_SHAKE": "",
                          "REPRO_OBS": "no"})
    assert record == Flags()


@pytest.mark.parametrize("var, value", [
    ("REPRO_CHECK", "2"),
    ("REPRO_SHAKE", "abc"),
    ("REPRO_OBS", "2"),
])
def test_malformed_value_fails_loudly(var, value):
    """A typo must not silently run without the check it asked for."""
    with pytest.raises(ConfigError) as err:
        flags.parse({var: value})
    assert f"{var}={value!r}" in str(err.value)


def test_malformed_environment_fails_at_import():
    proc = subprocess.run(
        [sys.executable, "-c", "import repro"],
        env={"PYTHONPATH": "src", "REPRO_SHAKE": "abc", "PATH": "",
             # The caller's choice not to write .pyc files holds here too.
             **{k: v for k, v in os.environ.items()
                if k == "PYTHONDONTWRITEBYTECODE"}},
        cwd=".", capture_output=True, text=True, check=False)
    assert proc.returncode != 0
    assert "ConfigError: REPRO_SHAKE='abc' is not an integer seed" \
        in proc.stderr


def test_override_is_scoped_and_nests():
    before = flags.current()
    flipped = not before.check
    with override(check=flipped, shake=7) as outer:
        assert flags.current() is outer
        assert (outer.check, outer.shake, outer.obs) == \
            (flipped, 7, before.obs)
        with override(shake=None):
            assert flags.current() == Flags(flipped, None, before.obs)
        assert flags.current() is outer
    assert flags.current() is before


def test_override_restores_after_an_exception():
    before = flags.current()
    with pytest.raises(RuntimeError):
        with override(check=True, shake=3):
            raise RuntimeError("boom")
    assert flags.current() is before


def test_override_rejects_unknown_fields():
    with pytest.raises(TypeError):
        with override(journal_die_after=1):
            pass


def test_obs_field_and_registry_never_disagree():
    assert metrics.current() is None and not flags.current().obs
    with override(obs=True):
        outer = metrics.current()
        assert outer is not None and flags.current().obs
        with override(obs=False):
            assert metrics.current() is None and not flags.current().obs
        with metrics.override_obs(True):
            assert metrics.current() not in (None, outer)
            assert flags.current().obs
        with override(check=True):
            assert metrics.current() is outer  # obs not named: untouched
        assert metrics.current() is outer
    assert metrics.current() is None and not flags.current().obs

"""Suite-wide fixtures: run every test with the verification layer on.

The runtime sanitizers (`repro.check`) are opt-in for normal runs but
on by default here, so the whole suite doubles as a regression harness
for the collective protocol and the two-phase plan invariants.  Set
``REPRO_CHECK=0`` to run the suite with the production (unchecked)
configuration, e.g. when timing the tests themselves.
"""

import os

import pytest

from repro import flags


@pytest.fixture(autouse=True, scope="session")
def _sanitizers_on():
    """Enable the runtime sanitizers unless the caller opted out: the
    one parser reads ``REPRO_CHECK`` with "on" as the unset default."""
    wanted = flags.parse({"REPRO_CHECK": "1", **os.environ})
    with flags.override(check=wanted.check):
        yield

"""The three ``REPRO_*`` switches as one frozen record.

* ``check`` (``REPRO_CHECK``) — the runtime sanitizers: protocol
  verifier, plan sanitizers, recovery-coverage check.
* ``shake`` (``REPRO_SHAKE``) — the schedule shaker's tie-break seed
  (``None``: the kernel's documented FIFO tie-break).
* ``obs`` (``REPRO_OBS``) — the metrics registry, which exists exactly
  when this field is on, so the hot-path test stays
  ``metrics.current() is None``.

:func:`parse` is the only code that reads the three variables (once, at
import); :func:`current` reads the record and the scoped
:func:`override` is the only way to change it.  The sweep engine ships
the record whole to pool workers and hashes it whole into point-cache
and journal keys, and run manifests write it as their ``flags``
section.  Objects that bind a switch at construction (a kernel's
shake seed, a communicator's protocol ledger) keep it for life;
per-call checks read :func:`current` live.  Imports nothing from the
library but :mod:`repro.errors` (and, inside :func:`override`, the
metrics registry), so any layer may read it without an import cycle.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Optional

from .errors import ConfigError

#: The environment variable behind each field of :class:`Flags`.
ENV_VARS = {"check": "REPRO_CHECK", "shake": "REPRO_SHAKE",
            "obs": "REPRO_OBS"}

#: Accepted spellings of a boolean switch (case-insensitive, stripped);
#: anything else is a :class:`~repro.errors.ConfigError`.
TRUTHY = frozenset({"1", "true", "yes", "on"})
FALSY = frozenset({"", "0", "false", "no", "off"})


@dataclass(frozen=True)
class Flags:
    """The switches in force: see the module docstring for each field."""

    check: bool = False
    shake: Optional[int] = None
    obs: bool = False


def parse(environ: Mapping[str, str]) -> Flags:
    """The record ``environ`` asks for (unset variables mean off).

    Raises :class:`~repro.errors.ConfigError`, naming the variable and
    its value, for a boolean outside :data:`TRUTHY`/:data:`FALSY` or a
    ``REPRO_SHAKE`` seed that is not an integer — a typo must not
    silently run without the check it asked for.
    """
    fields = {}
    for name, var in ENV_VARS.items():
        raw = environ.get(var, "")
        text = raw.strip().lower()
        if name == "shake":
            try:
                fields[name] = int(text) if text else None
            except ValueError:
                raise ConfigError(
                    f"{var}={raw!r} is not an integer seed") from None
        elif text in TRUTHY or text in FALSY:
            fields[name] = text in TRUTHY
        else:
            raise ConfigError(
                f"{var}={raw!r} is not a switch value; use one of "
                f"{sorted(TRUTHY)} or {sorted(FALSY - {''})}")
    return Flags(**fields)


_CURRENT = parse(os.environ)


def current() -> Flags:
    """The record in force."""
    return _CURRENT


@contextmanager
def override(**fields) -> Iterator[Flags]:
    """Replace the named fields for the scope of a ``with`` block.

    Unnamed fields keep their current values, and the previous record
    is restored on exit.  Naming ``obs`` installs a fresh metrics
    registry (or none, for ``obs=False``) and restores the previous
    registry on exit.  An unknown field name is a ``TypeError``.
    """
    global _CURRENT
    previous = _CURRENT
    record = replace(previous, **fields)
    swap = nullcontext()
    if "obs" in fields:
        from .obs import metrics
        swap = metrics._swapped(
            metrics.MetricsRegistry() if record.obs else None)
    with swap:
        _CURRENT = record
        try:
            yield record
        finally:
            _CURRENT = previous

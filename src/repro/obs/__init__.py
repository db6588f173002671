"""repro.obs — the unified observability layer.

One process-local, deterministic metrics registry
(:mod:`repro.obs.metrics`) threaded through the hot layers — ``pfs``
(OST service counts and bytes, block-cache hits), ``mpi`` (messages,
wire bytes, per-collective call counts), ``sim`` (event counts and
simulated time per run, per-phase time), ``io`` (plan reuse, shuffle
bytes closed-form vs observed), ``faults``/``integrity`` (the whole
ledger as counters) and ``parallel`` (point-cache traffic, per-point
wall) — plus the run-manifest writer (:mod:`repro.obs.manifest`) and
the report renderer behind ``python -m repro.report``
(:mod:`repro.obs.report`).

Everything is opt-in via the ``obs`` field of the
:class:`~repro.flags.Flags` record (``REPRO_OBS``, or
``repro.flags.override(obs=True)``), next to the ``check`` and
``shake`` switches: with it off, instrumented call sites pay one
is-None test and the library's outputs are bit-identical to an
uninstrumented build.  See docs/OBSERVABILITY.md for the metrics
catalogue, the manifest schema and the report-CLI runbook.
"""

from .metrics import (MetricsRegistry, VOLATILE_PREFIXES, capture_point,
                      current, override_obs, reset, suppressed)

__all__ = [
    "MetricsRegistry",
    "VOLATILE_PREFIXES",
    "capture_point",
    "current",
    "override_obs",
    "reset",
    "suppressed",
]

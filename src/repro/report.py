"""``python -m repro.report`` — render and cross-check run manifests.

Thin entry point for :mod:`repro.obs.report`: takes one or two
``results/<run>/manifest.json`` files (written by
``python -m repro.experiments`` or by the ``chaos`` and ``crash``
stages of ``python -m repro.check`` when ``REPRO_OBS=1``), renders
markdown tables — bytes by layer, cache efficiency, fault recovery,
simulated wall — and verifies the manifest invariants (closed-form vs
observed wire bytes, inject/detect matching).  With two manifests it
also renders a metric-by-metric diff.  Exit status: 0 clean, 1 invariant violation, 2 usage error.
"""

from __future__ import annotations

import sys

from .obs.report import main

if __name__ == "__main__":  # pragma: no cover - CLI glue
    sys.exit(main())

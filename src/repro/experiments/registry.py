"""Experiment registry: id → runner.

``python -m repro.experiments <id>`` regenerates one paper table or
figure; ``all`` runs everything in order.
"""

from __future__ import annotations

from types import ModuleType
from typing import Dict, List

from . import (fig01_io_profile, fig02_cpu_collective, fig03_cpu_independent,
               fig09_ratio_speedup, fig10_scalability, fig11_overhead,
               fig12_metadata, fig13_wrf, fig14_faults, fig15_integrity,
               fig16_intranode, table1_incite)
from .common import ExperimentResult

#: All experiment modules, in paper order.  Every module exposes a
#: ``run(*, jobs=1, cache=None, journal=None)`` entrypoint and a
#: ``QUICK_KWARGS`` dict for ``--quick``; its sweep points come from a
#: ``points()`` + ``run_point()`` pair consumed by
#: :func:`repro.parallel.run_sweep` (Figure 3 runs Figure 2's).
MODULES: Dict[str, ModuleType] = {
    "table1": table1_incite,
    "fig1": fig01_io_profile,
    "fig2": fig02_cpu_collective,
    "fig3": fig03_cpu_independent,
    "fig9": fig09_ratio_speedup,
    "fig10": fig10_scalability,
    "fig11": fig11_overhead,
    "fig12": fig12_metadata,
    "fig13": fig13_wrf,
    "fig14": fig14_faults,
    "fig15": fig15_integrity,
    "fig16": fig16_intranode,
}


def names() -> List[str]:
    """Experiment ids in paper order."""
    return list(MODULES)


def run(name: str, *, quick: bool = False, **kwargs) -> ExperimentResult:
    """Run one experiment by id.

    ``quick=True`` merges the module's ``QUICK_KWARGS`` (a smaller,
    faster configuration of the same sweep) under any explicit kwargs.
    """
    try:
        module = MODULES[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(MODULES)}"
        ) from None
    if quick:
        merged = dict(getattr(module, "QUICK_KWARGS", {}))
        merged.update(kwargs)
        kwargs = merged
    return module.run(**kwargs)

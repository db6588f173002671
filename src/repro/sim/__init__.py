"""Deterministic discrete-event simulation kernel.

**Role.** The substrate for the whole reproduction: the cluster, the
parallel file system, the MPI library, and the collective-computing
runtime all execute on one :class:`Kernel`, as coroutine processes (the
ranks) and background occupancies (messages, OST requests), with
events, timeouts, FIFO resources and deadlock detection.  Identical
inputs replay identical event orders — the determinism contract every
figure rests on.

**Paper mapping.** Not in the paper: this layer replaces its physical
testbed (§V), turning wall-clock measurement into cost-model
simulation — the substitution DESIGN.md §2 argues for.
"""

from .events import AllOf, AnyOf, Event, Timeout
from .kernel import Kernel
from .process import Process
from .resources import Resource, hold, occupy

__all__ = [
    "AllOf", "AnyOf", "Event", "Timeout",
    "Kernel",
    "Process",
    "Resource", "hold", "occupy",
]

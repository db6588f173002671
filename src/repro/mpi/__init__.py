"""Simulated MPI: point-to-point, collectives, ops, runtime.

**Role.** The message-passing substrate: ranks as coroutines
(:func:`mpi_run`), point-to-point with MPI's exact-match ``(source,
tag)`` semantics (no wildcards: every receive schedule comes from the
exchanged plan), the binomial/Bruck/pairwise collectives the protocols
call, and reduction ops.

**Paper mapping.** Stands in for the MPICH 3.1.2 of the §V testbed;
the §III-C results reduce (all-to-one / all-to-all) and the two-phase
shuffle ride these primitives, and the fault injector
(:mod:`repro.faults`) intercepts this layer's messages for drop/delay
faults.
"""

from . import collectives
from .comm import (MIN_RESERVED_TAG, CommHandle, Communicator, Message,
                   Request)
from .op import SUM, Op
from .runtime import RankContext, build_contexts, mpi_run
from .wire import wire_size

__all__ = [
    "collectives",
    "MIN_RESERVED_TAG",
    "CommHandle", "Communicator", "Message", "Request",
    "SUM", "Op",
    "RankContext", "build_contexts", "mpi_run",
    "wire_size",
]

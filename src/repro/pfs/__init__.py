"""Parallel file system model (Lustre-like: OSTs + round-robin striping).

**Role.** The storage side of every read: OST servers with seek +
bandwidth costs and FIFO queueing, round-robin striping, and procedural
TB-scale files whose bytes are generated (and cached) on demand.

**Paper mapping.** The §V testbed's Lustre (156 OSTs, 4 MB stripes,
35 GB/s peak); OST contention and stripe alignment drive the read phase
exactly as in Lustre's data path.  The fault injector
(:mod:`repro.faults`) hooks :meth:`~repro.pfs.ost.OST.start_service` for
slow/failed request faults.
"""

from .datasource import (ArraySource, BlockCache, CompositeSource,
                         DataSource, ProceduralSource, default_field,
                         linear_field)
from .file import PFSFile
from .lustre import LustreFS
from .ost import OST
from .striping import Segment, StripeLayout

__all__ = [
    "ArraySource", "BlockCache", "CompositeSource", "DataSource",
    "ProceduralSource", "default_field", "linear_field",
    "PFSFile", "LustreFS", "OST", "Segment", "StripeLayout",
]

"""repro — Collective Computing for Scientific Big Data Analysis.

A full, from-scratch reproduction of Liu, Chen & Byna (ICPP 2015) as a
deterministic discrete-event simulation: a Hopper-like cluster model
(nodes, mesh interconnect, Lustre-style parallel file system), a
simulated MPI with ROMIO-style two-phase collective I/O, and — on top —
the paper's contribution: **collective computing**, which breaks the
two-phase protocol to run the analysis *inside* the I/O pipeline and
shuffle only small partial results.

Quick start::

    import numpy as np
    from repro import (Kernel, Machine, hopper_like, mpi_run,
                       DatasetSpec, full_selection, block_partition,
                       ObjectIO, object_get, SUM_OP)

    kernel = Kernel()
    machine = Machine(kernel, hopper_like(nodes=2, n_osts=8))
    spec = DatasetSpec((48, 64, 64), np.float64, name="temperature")
    file = machine.fs.create_procedural_file("t.nc", spec.n_elements)
    parts = block_partition(full_selection(spec), 48, axis=1)

    def main(ctx):
        oio = ObjectIO(spec, parts[ctx.rank], SUM_OP)
        result = yield from object_get(ctx, file, oio)
        return result.global_result

    results = mpi_run(machine, 48, main)
    print(results[0], "computed in", kernel.now, "simulated seconds")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from ._version import __version__
from .cluster import Machine, MeshTopology, Network, Node
from .config import (CostModel, GiB, KiB, MiB, PlatformSpec, TiB,
                     hopper_like, small_test_machine)
from .core import (CCResult, CCStats, MapReduceOp, ObjectIO, PartialResult,
                   SUM_OP, MAX_OP, MIN_OP, MAXLOC_OP, MINLOC_OP, MEAN_OP,
                   COUNT_OP, MOMENTS_OP, HistogramOp, UserOp, locate,
                   object_get, traditional_read_compute)
from .dataspace import (DatasetSpec, LogicalBlock, RunList, Subarray,
                        block_partition, flatten_subarray, full_selection,
                        grid_partition, merge_runlists, reconstruct_run)
from .errors import (CollectiveComputingError, ConfigError, DataspaceError,
                     DeadlockError, IOLayerError, MPIError, PFSError,
                     ReproError, SimulationError)
from .highlevel import NCFile, Variable, VariableDef, create_dataset
from .io import (AccessRequest, CollectiveHints, collective_read,
                 collective_write, icollective_read, independent_read,
                 sieving_read)
from .mpi import RankContext, mpi_run
from .pfs import (ArraySource, CompositeSource, LustreFS, PFSFile,
                  ProceduralSource, StripeLayout)
from .profiling import CpuProfiler, PhaseTimeline
from .sim import Kernel

__all__ = [
    "__version__",
    # simulation + machine
    "Kernel", "Machine", "MeshTopology", "Network", "Node",
    "CostModel", "PlatformSpec", "hopper_like", "small_test_machine",
    "KiB", "MiB", "GiB", "TiB",
    # storage
    "ArraySource", "CompositeSource", "LustreFS", "PFSFile",
    "ProceduralSource", "StripeLayout",
    # data model
    "DatasetSpec", "LogicalBlock", "RunList", "Subarray",
    "block_partition", "flatten_subarray", "full_selection",
    "grid_partition", "merge_runlists", "reconstruct_run",
    # MPI + IO
    "RankContext", "mpi_run",
    "AccessRequest", "CollectiveHints", "collective_read",
    "collective_write", "icollective_read", "independent_read",
    "sieving_read",
    # collective computing
    "CCResult", "CCStats", "MapReduceOp", "ObjectIO", "PartialResult",
    "SUM_OP", "MAX_OP", "MIN_OP", "MAXLOC_OP", "MINLOC_OP", "MEAN_OP",
    "COUNT_OP", "MOMENTS_OP", "HistogramOp", "UserOp",
    "locate", "object_get", "traditional_read_compute",
    # high level
    "NCFile", "Variable", "VariableDef", "create_dataset",
    # profiling
    "CpuProfiler", "PhaseTimeline",
    # errors
    "ReproError", "SimulationError", "DeadlockError", "MPIError",
    "IOLayerError", "PFSError", "DataspaceError",
    "CollectiveComputingError", "ConfigError",
]

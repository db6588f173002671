"""Launching MPI jobs on the simulated machine.

:func:`mpi_run` is the simulator's ``mpiexec``: it places ``nprocs``
ranks on the machine, hands each a :class:`RankContext`, runs every rank
body as a kernel process and returns their return values.

:class:`RankContext` is what a rank's code sees: its rank/size, the
communicator handle, the machine (file system, network), and CPU-time
primitives (:meth:`RankContext.compute`, :meth:`RankContext.memcpy`)
that occupy a core slot on the rank's node and feed the CPU profiler.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from ..cluster import Machine, Node
from ..errors import MPIError
from ..obs import metrics
from ..profiling import CpuProfiler
from ..sim import Event, Kernel, hold
from .comm import CommHandle, Communicator


class RankContext:
    """Everything one MPI rank can touch.

    Attributes
    ----------
    rank / size:
        This rank's id and the job size.
    comm:
        The rank's :class:`~repro.mpi.comm.CommHandle` (COMM_WORLD view).
    machine:
        The simulated machine (``machine.fs`` is the file system).
    node:
        The compute node hosting this rank.
    profiler:
        Optional :class:`~repro.profiling.CpuProfiler` receiving
        user/sys/wait intervals.
    """

    def __init__(self, comm_handle: CommHandle, machine: Machine,
                 node: Node, profiler: Optional[CpuProfiler] = None) -> None:
        self.comm = comm_handle
        self.machine = machine
        self.node = node
        self.profiler = profiler

    @property
    def rank(self) -> int:
        """This rank's id."""
        return self.comm.rank

    @property
    def size(self) -> int:
        """Number of ranks in the job."""
        return self.comm.size

    @property
    def kernel(self) -> Kernel:
        """The simulation kernel."""
        return self.comm.kernel

    @property
    def fs(self):
        """The machine's parallel file system."""
        return self.machine.fs

    @property
    def cost(self):
        """The platform cost model."""
        return self.machine.cost

    # -- CPU primitives ------------------------------------------------------
    def compute(self, elements: int, ops_per_element: float = 1.0) -> Generator:
        """Occupy one core for the time to process ``elements`` values.

        Recorded as *user* time.
        """
        yield from self._occupy_cores(
            self.cost.compute_time(elements, ops_per_element), "user")

    def compute_parallel(self, elements: int,
                         ops_per_element: float = 1.0) -> Generator:
        """Compute on every core of this node concurrently (at most one
        core per element).

        Models the threaded runtime of the paper's Figure 7: a
        collective-computing aggregator maps the freshly read window
        with worker threads on its node's otherwise-idle cores (the
        node's other ranks are blocked waiting for partial results).
        Work splits evenly, and the fan-out is one multi-unit
        :func:`~repro.sim.resources.hold` on the node's cores: one
        event when the cores are free, FIFO queueing per core when
        other ranks are genuinely computing.  Each core's share is one
        profiler interval.
        """
        ways = max(1, min(self.node.n_cores, elements))
        total = self.cost.compute_time(elements, ops_per_element)
        yield from self._occupy_cores(total / ways, "user", ways)

    def memcpy(self, nbytes: int) -> Generator:
        """Occupy one core for a pack/unpack/copy of ``nbytes``
        (*system* time)."""
        yield from self._occupy_cores(self.cost.memcpy_time(nbytes), "sys")

    def _occupy_cores(self, duration: float, kind: str,
                      units: int = 1) -> Generator:
        if duration <= 0:
            return
        spans = yield from hold(self.node.cores, duration, units)
        if self.profiler is not None:
            for start, end in spans:
                self.profiler.record(self.rank, kind, start, end)

    def wait_recording(self, event: Event) -> Generator:
        """Yield on ``event`` and record the blocked span in the profiler.

        Used by the I/O layer so time blocked on disk or on the shuffle
        shows up as *wait* in CPU profiles (Figures 2-3).
        """
        start = self.kernel.now
        value = yield event
        if self.profiler is not None and self.kernel.now > start:
            self.profiler.record(self.rank, "wait", start, self.kernel.now)
        return value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RankContext rank={self.rank}/{self.size} node={self.node.index}>"


def build_contexts(machine: Machine, nprocs: int,
                   profiler: Optional[CpuProfiler] = None
                   ) -> List[RankContext]:
    """Create the communicator and one context per rank."""
    machine.validate_job(nprocs)
    comm = Communicator(machine.kernel, machine, nprocs)
    return [
        RankContext(comm.handle(r), machine,
                    machine.nodes[machine.node_of_rank(r, nprocs)],
                    profiler=profiler)
        for r in range(nprocs)
    ]


def mpi_run(machine: Machine, nprocs: int,
            main: Callable[..., Generator], *args: Any,
            profiler: Optional[CpuProfiler] = None) -> List[Any]:
    """Run ``main(ctx, *args)`` as an ``nprocs``-rank MPI job.

    Returns the list of per-rank return values (rank order).  Under
    ``REPRO_CHECK`` the job ends with the collective ledger's
    end-of-job check (:meth:`~repro.check.protocol.CollectiveLedger.finish`)
    on the world communicator and every communicator split from it:
    a rank that skipped a trailing collective raises
    :class:`~repro.errors.MPIError` here.
    """
    contexts = build_contexts(machine, nprocs, profiler=profiler)
    procs = [
        machine.kernel.process(main(ctx, *args), name=f"rank{ctx.rank}")
        for ctx in contexts
    ]
    machine.kernel.run()
    m = metrics.current()
    if m is not None:
        # Sampled once per job (never inside the event loop): the event
        # count is the kernel's schedule sequence number, the simulated
        # wall is its clock at quiescence.
        m.count("sim.runs")
        m.count("sim.events", machine.kernel._seq)
        m.count("sim.time", machine.kernel.now)
    for p in procs:
        if not p.triggered:  # pragma: no cover - defensive
            raise MPIError(f"rank process {p!r} never finished")
    # Breadth-first over the world communicator and its splits.
    comms = [contexts[0].comm.comm]
    for comm in comms:
        if comm.sanitizer is not None:
            comm.sanitizer.finish()
        comms.extend(comm._subcomms.values())
    return [p.value for p in procs]

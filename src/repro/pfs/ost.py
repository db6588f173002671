"""Object Storage Target model.

Each OST is a FIFO server: one outstanding request at a time, service
time ``seek + bytes/bandwidth`` (from the cost model).  Queueing at hot
OSTs is what produces realistic contention when many aggregators read a
striped file concurrently.  A straggling disk is a fault: a
:class:`~repro.faults.FaultPlan` decides per request how much slower
it is served (``fault_mult``) and whether it fails.
"""

from __future__ import annotations

from functools import partial

from ..config import CostModel
from ..errors import TransientIOError
from ..obs import metrics
from ..sim import Event, Kernel, Resource, occupy


class OST:
    """One object storage target.

    Parameters
    ----------
    kernel:
        Owning simulation kernel.
    index:
        Global OST index.
    cost:
        Platform cost model (provides seek/bandwidth).
    """

    def __init__(self, kernel: Kernel, index: int, cost: CostModel) -> None:
        self.kernel = kernel
        self.index = index
        self.cost = cost
        self._server = Resource(kernel, capacity=1, name=f"ost{index}")
        #: Total bytes served (reads + writes), for experiment reports.
        self.bytes_served = 0
        #: Number of requests served.
        self.requests_served = 0

    def start_service(self, nbytes: int, fault_mult: float = 1.0,
                      fault_fail: bool = False) -> Event:
        """Serve one request in the background: queue for the device,
        then spend the service time (:func:`repro.sim.occupy`).

        Returns the request's completion event.  The caller is
        responsible for actually producing/consuming the bytes; this
        models only the device occupancy.  ``fault_mult`` scales this
        one request's service time (an injected straggling device) and
        ``fault_fail`` makes the request pay its seek cost and then
        complete with a :class:`~repro.errors.TransientIOError` as its
        value (it never fails, so sibling segments of the same read
        drain their queues before the caller raises the error) — both
        decided up front by the fault injector so a fault-free run's
        event order is untouched.
        """
        if fault_fail:
            # A failing request occupies the device for the seek before
            # the EIO surfaces, like a real timed-out disk op.
            duration = self.cost.ost_seek
        else:
            duration = self.cost.ost_time(nbytes) * fault_mult
        done = Event(self.kernel, name=self._server.name)
        occupy(self.kernel, (self._server,), duration,
               partial(self._served, nbytes, fault_fail, done))
        return done

    def _served(self, nbytes: int, fault_fail: bool, done: Event) -> None:
        self.requests_served += 1
        m = metrics.current()
        if m is not None:
            m.count("pfs.ost.requests")
        if fault_fail:
            done.succeed(TransientIOError(
                f"injected transient EIO at OST {self.index}"))
            return
        self.bytes_served += nbytes
        if m is not None:
            m.count("pfs.ost.bytes", nbytes)
        done.succeed(None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<OST {self.index} served={self.requests_served}>"

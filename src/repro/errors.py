"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures distinctly from
programming errors.  Sub-hierarchies mirror the package layout: simulation
kernel, MPI semantics, file system, and the collective-computing runtime.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event kernel (e.g. re-triggering
    an already-triggered event, or running a finished simulation)."""


class DeadlockError(SimulationError):
    """Raised when the event queue drains while processes are still
    waiting — the simulated program can never make progress."""


class MPIError(ReproError):
    """Raised for violations of MPI call semantics (bad rank, mismatched
    collective participation, truncated receive, invalid datatype...)."""


class IOLayerError(ReproError):
    """Raised by the MPI-IO layer for invalid access requests or file
    handle misuse."""


class PFSError(ReproError):
    """Raised by the parallel-file-system model (unknown file, read past
    end of file, invalid striping configuration)."""


class TransientIOError(PFSError):
    """An injected, retryable storage fault (a transient EIO from one
    OST).  Raised only by the fault-injection layer; the resilient read
    path (:func:`repro.faults.read_with_retry`) absorbs it with bounded
    exponential backoff."""


class FaultError(ReproError):
    """Base class for the fault-injection/resilience subsystem
    (:mod:`repro.faults`): invalid fault plans, recovery-invariant
    violations detected by the sanitizers."""


class RecoveryError(FaultError):
    """Raised when recovery is exhausted: an OST read failed on its last
    permitted retry, or so many aggregators were lost that not even the
    degraded (independent-I/O) path can complete the job."""


class IntegrityError(FaultError):
    """Raised when checksummed data fails verification: a served extent
    whose per-stripe-block CRC32C digests no longer match the file's
    (silent storage corruption), or a partial result whose provenance
    digest diverges from its payload at reduce time.  Retryable on the
    read path — :func:`repro.faults.read_with_retry` absorbs it like a
    transient EIO, since a re-read serves fresh bytes."""


class DataspaceError(ReproError):
    """Raised for invalid logical data-space descriptions (negative
    extents, out-of-bounds subarrays, dtype mismatches)."""


class CollectiveComputingError(ReproError):
    """Raised by the collective-computing runtime (unknown operator,
    inconsistent ObjectIO across ranks, reduction shape mismatch)."""


class SweepInterrupted(ReproError):
    """A sweep was interrupted (SIGINT/SIGTERM) before every point ran.

    Raised by :func:`repro.parallel.run_sweep` after a clean teardown:
    worker processes are terminated, and when the sweep keeps a run
    journal (``journaled``) every point that completed before the
    signal is already in it (the journal is written point-by-point with
    atomic replaces, so there is nothing left to flush).  The message
    reports progress, whether it was journaled and, when the caller
    supplied one, the exact resume command.
    """

    def __init__(self, completed: int, total: int, signame: str = "SIGINT",
                 resume_hint: str = "", journaled: bool = False) -> None:
        self.completed = completed
        self.total = total
        self.signame = signame
        self.resume_hint = resume_hint
        self.journaled = journaled
        detail = (f"sweep interrupted by {signame} after {completed} of "
                  f"{total} point(s); completed points "
                  f"{'are' if journaled else 'were not'} journaled")
        if resume_hint:
            detail += f"\n  resume with: {resume_hint}"
        else:
            detail += " (no resume command supplied by the caller)"
        super().__init__(detail)

    def __reduce__(self):
        # Default exception pickling calls ``cls(*args)``, which does
        # not match this constructor; rebuild from the fields.
        return (self.__class__, (self.completed, self.total, self.signame,
                                 self.resume_hint, self.journaled))


class ConfigError(ReproError):
    """Raised for invalid platform / cost-model configuration values."""

"""Independent (non-collective) I/O, and bounded retry of one read.

Each rank issues its own runs straight to the file system, one request
per contiguous run — the access pattern the paper profiles in Figure 3,
where per-process non-contiguous requests swamp the OSTs with small
reads and the CPUs sit in I/O wait.

:func:`read_with_retry` is the cheapest defence against transient OST
failures; :func:`independent_read` and the window reader of
:mod:`repro.io.twophase` read through it with the caller's
:class:`RetryPolicy` (:mod:`repro.faults` re-exports both).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

import numpy as np

from ..errors import (FaultError, IntegrityError, RecoveryError,
                      TransientIOError)
from ..mpi import RankContext
from ..obs import metrics
from ..pfs import PFSFile
from .requests import AccessRequest, RunPlacer


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient OST read failures.

    ``max_retries`` is the number of *re*-tries after the first attempt:
    an operation is attempted at most ``max_retries + 1`` times, and a
    failure on the last permitted attempt surfaces as
    :class:`~repro.errors.RecoveryError`.
    """

    max_retries: int = 3
    backoff_base: float = 0.001
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise FaultError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise FaultError(
                "backoff_base must be >= 0 and backoff_factor >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before re-attempt ``attempt`` (0-based): the classic
        ``base * factor**attempt`` exponential schedule."""
        return self.backoff_base * self.backoff_factor ** attempt


def read_with_retry(ctx, file, offset: int, nbytes: int,
                    policy: RetryPolicy) -> Generator:
    """Read with bounded exponential backoff over retryable failures.

    Generator (``yield from`` inside a rank process).  Returns the bytes
    on success.  Both fault classes a re-read can repair are absorbed:
    injected transient EIOs (:class:`~repro.errors.TransientIOError`)
    and checksum mismatches on served extents
    (:class:`~repro.errors.IntegrityError` — the source is pristine, so
    fresh bytes verify).  When the read still fails on the last
    permitted attempt, a :class:`~repro.errors.RecoveryError` is raised
    naming the extent, the retry budget and the final cause (which
    itself names the failing OST).  Each absorbed failure is logged as
    a ``recover:retry`` record on the machine's injector.
    """
    faults = ctx.machine.faults
    for attempt in range(policy.max_retries + 1):
        try:
            data = yield from ctx.fs.read(file, offset, nbytes,
                                          client=ctx.node.index)
            return data
        except (TransientIOError, IntegrityError) as exc:
            if attempt == policy.max_retries:
                raise RecoveryError(
                    f"read [{offset}, {offset + nbytes}) of {file.name!r} "
                    f"still failing after {policy.max_retries} retries "
                    f"({policy.max_retries + 1} attempts; last: {exc})"
                ) from exc
            delay = policy.delay(attempt)
            m = metrics.current()
            if m is not None:
                m.count("pfs.read_retries")
            if faults is not None:
                kind = ("checksum mismatch"
                        if isinstance(exc, IntegrityError) else "EIO")
                faults.record(
                    "recover:retry", f"rank{ctx.rank}",
                    f"{kind} on [{offset}, {offset + nbytes}), retry "
                    f"{attempt + 1}/{policy.max_retries} after {delay:g}s")
            yield ctx.kernel.timeout(delay)
    raise AssertionError("unreachable")  # pragma: no cover


def independent_read(ctx: RankContext, file: PFSFile,
                     request: AccessRequest,
                     retry: RetryPolicy = RetryPolicy()) -> Generator:
    """Read ``request`` with one PFS operation per run, each retried
    under ``retry`` (:func:`read_with_retry`).

    Returns the packed ``uint8`` buffer (runs concatenated in file
    order); use :meth:`AccessRequest.as_array` to view it as elements.
    """
    placer = RunPlacer(request.runs)
    buf = np.empty(placer.total_bytes, dtype=np.uint8)
    for offset, length in request.runs:
        read = ctx.kernel.process(
            read_with_retry(ctx, file, offset, length, retry),
            name=f"iread:r{ctx.rank}@{offset}",
        )
        data = yield from ctx.wait_recording(read)
        for local, _file_off, piece in placer.place(offset, length):
            buf[local:local + piece] = np.frombuffer(data, dtype=np.uint8)
        yield from ctx.memcpy(length)
    return buf

"""Reference answers, computed without the simulator.

Every read job covers a whole procedural dataset, so its answer is a
plain reduction over ``field(0..n-1)``; the reference generates the same
values chunk by chunk with numpy and reduces them directly.  The write
round trip's reference is the digest of the data it was asked to write.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, Hashable

import numpy as np

from .workloads import RoundTripJob, field_values, slices

#: Relative tolerance for floating-point sums, whose combine order
#: differs between the simulated pipelines and the reference.
REL_TOL = 1e-12

CHUNK = 1 << 20


def _values(func, n: int, dtype):
    """``func(0..n-1)`` as ``dtype``, one chunk at a time."""
    for lo in range(0, n, CHUNK):
        hi = min(n, lo + CHUNK)
        yield lo, np.asarray(func(np.arange(lo, hi, dtype=np.int64)),
                             dtype=dtype)


def _sum(func, n: int, dtype) -> float:
    return math.fsum(float(v.sum(dtype=np.float64))
                     for _, v in _values(func, n, dtype))


def _maxloc(func, n: int, dtype):
    best = None
    for lo, v in _values(func, n, dtype):
        pos = int(np.argmax(v))
        cand = (float(v[pos]), lo + pos)
        # Strictly greater: ties keep the lower index, like MPI_MAXLOC.
        if best is None or cand[0] > best[0]:
            best = cand
    return best


_REDUCTIONS = {"sum": _sum, "maxloc": _maxloc}


def reference(job, memo: Dict[Hashable, Any]) -> Any:
    """The answer ``job`` must produce; ``memo`` shares work between
    jobs reading the same dataset."""
    w = job.workload
    n, dtype = w.dspec.n_elements, w.dspec.dtype
    if isinstance(job, RoundTripJob):
        data = field_values(job.field, n, dtype).reshape(w.dspec.shape)
        reads = b"".join(np.ascontiguousarray(data[slices(p)]).tobytes()
                         for p in w.parts)
        return (hashlib.sha256(data.tobytes()).hexdigest(),
                hashlib.sha256(reads).hexdigest())
    if w.gsub.count != w.dspec.shape or any(w.gsub.start):
        raise ValueError(f"{job.label}: reference needs a full selection")
    key = (job.field, n, np.dtype(dtype).str, job.op.name)
    if key not in memo:
        memo[key] = _REDUCTIONS[job.op.name](job.field, n, dtype)
    return memo[key]


def answer_ok(got: Any, want: Any) -> bool:
    """Sums agree to :data:`REL_TOL`; everything else exactly."""
    if isinstance(want, float):
        return isinstance(got, float) and math.isclose(
            got, want, rel_tol=REL_TOL, abs_tol=0.0)
    return got == want

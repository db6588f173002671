"""MPI derived datatypes and their flattening.

ROMIO drives two-phase I/O from *flattened* datatypes — lists of
``(offset, length)`` runs describing one type instance.  This module
implements the constructors the paper's workloads rely on
(``MPI_Type_contiguous``, ``MPI_Type_vector``,
``MPI_Type_create_subarray``) plus flattening, so the MPI-IO file-view
path mirrors the real stack.

Offsets in a flattened type are **relative to the type's origin**;
:meth:`Datatype.flatten` returns a
:class:`~repro.dataspace.flatten.RunList`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..dataspace import DatasetSpec, RunList, Subarray, flatten_subarray
from ..errors import MPIError


class Datatype:
    """Base class for MPI datatypes."""

    @property
    def size(self) -> int:
        """Bytes of actual data in one instance (sum of run lengths)."""
        raise NotImplementedError

    @property
    def extent(self) -> int:
        """Span in bytes from the first to one-past-the-last byte the
        type touches (MPI extent, without resizing)."""
        raise NotImplementedError

    def flatten(self) -> RunList:
        """Runs of one type instance, offsets relative to its origin."""
        raise NotImplementedError

    def tiled(self, count: int) -> RunList:
        """Runs of ``count`` consecutive instances (each shifted by one
        extent) — what an MPI-IO read of ``count`` items accesses."""
        if count < 0:
            raise MPIError(f"negative count {count}")
        base = self.flatten()
        if count == 0 or not len(base):
            return RunList.empty()
        ext = self.extent
        offs = np.concatenate([base.offsets + k * ext for k in range(count)])
        lens = np.tile(base.lengths, count)
        order = np.argsort(offs, kind="stable")
        return RunList(offs[order], lens[order]).coalesce()


class Basic(Datatype):
    """A basic type wrapping a numpy dtype (MPI_FLOAT, MPI_DOUBLE...)."""

    def __init__(self, dtype) -> None:
        self.dtype = np.dtype(dtype)

    @property
    def size(self) -> int:
        return self.dtype.itemsize

    @property
    def extent(self) -> int:
        return self.dtype.itemsize

    def flatten(self) -> RunList:
        return RunList.single(0, self.dtype.itemsize)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Basic({self.dtype})"


#: Common basic types, named as in MPI.
BYTE = Basic(np.uint8)
INT = Basic(np.int32)
LONG = Basic(np.int64)
FLOAT = Basic(np.float32)
DOUBLE = Basic(np.float64)


class Contiguous(Datatype):
    """``MPI_Type_contiguous``: ``count`` back-to-back base instances."""

    def __init__(self, count: int, base: Datatype) -> None:
        if count < 0:
            raise MPIError(f"negative count {count}")
        self.count = count
        self.base = base

    @property
    def size(self) -> int:
        return self.count * self.base.size

    @property
    def extent(self) -> int:
        return self.count * self.base.extent

    def flatten(self) -> RunList:
        return self.base.tiled(self.count)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Contiguous({self.count}, {self.base!r})"


class Vector(Datatype):
    """``MPI_Type_vector``: ``count`` blocks of ``blocklength`` base
    instances, block starts ``stride`` base-extents apart."""

    def __init__(self, count: int, blocklength: int, stride: int,
                 base: Datatype) -> None:
        if count < 0 or blocklength < 0:
            raise MPIError(f"negative vector geometry ({count}, {blocklength})")
        if count > 1 and stride < blocklength:
            raise MPIError(
                f"stride {stride} < blocklength {blocklength} would overlap"
            )
        self.count = count
        self.blocklength = blocklength
        self.stride = stride
        self.base = base

    @property
    def size(self) -> int:
        return self.count * self.blocklength * self.base.size

    @property
    def extent(self) -> int:
        if self.count == 0 or self.blocklength == 0:
            return 0
        be = self.base.extent
        return ((self.count - 1) * self.stride + self.blocklength) * be

    def flatten(self) -> RunList:
        be = self.base.extent
        block = self.base.tiled(self.blocklength)
        pairs = []
        for k in range(self.count):
            start = k * self.stride * be
            pairs.extend((start + o, n) for o, n in block)
        return RunList.from_pairs(pairs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Vector({self.count}, {self.blocklength}, "
                f"{self.stride}, {self.base!r})")


class SubarrayType(Datatype):
    """``MPI_Type_create_subarray`` (C order): a hyperslab of an N-D array.

    The extent is the whole array (as in MPI), making it directly usable
    as an MPI-IO file view for one variable.
    """

    def __init__(self, sizes: Sequence[int], subsizes: Sequence[int],
                 starts: Sequence[int], base: Datatype) -> None:
        if not isinstance(base, Basic):
            raise MPIError("subarray base must be a basic type")
        self.sizes = tuple(int(s) for s in sizes)
        self.subsizes = tuple(int(s) for s in subsizes)
        self.starts = tuple(int(s) for s in starts)
        if not (len(self.sizes) == len(self.subsizes) == len(self.starts)):
            raise MPIError("sizes/subsizes/starts rank mismatch")
        self.base = base
        # Validation via the dataspace layer.
        self._spec = DatasetSpec(self.sizes, base.dtype)
        self._sub = Subarray(self.starts, self.subsizes)
        self._sub.validate(self._spec)

    @property
    def size(self) -> int:
        return self._sub.n_elements * self.base.size

    @property
    def extent(self) -> int:
        return self._spec.nbytes

    def flatten(self) -> RunList:
        return flatten_subarray(self._spec, self._sub)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SubarrayType(sizes={self.sizes}, subsizes={self.subsizes}, "
                f"starts={self.starts}, base={self.base!r})")

"""Logical dataset description.

A :class:`DatasetSpec` ties an N-dimensional logical shape (C order —
slowest dimension first, matching PnetCDF/HDF5 ``start``/``count``
conventions) to a byte region of a file.  It provides the linear-index
and coordinate arithmetic every layer above relies on.

Note on the paper's notation: the paper lists dims "from fast dimension
to slowest"; this library always uses the opposite (C) order, and the
workload builders perform the flip.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from ..errors import DataspaceError


@dataclass(frozen=True)
class DatasetSpec:
    """Shape + dtype + file binding of one dataset (one "variable").

    Parameters
    ----------
    shape:
        Logical extent per dimension, slowest first (C order).
    dtype:
        Element type (anything ``np.dtype`` accepts).
    file_offset:
        Byte offset of element (0, ..., 0) within the backing file.
    name:
        Optional variable name for diagnostics.
    """

    shape: Tuple[int, ...]
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float64))
    file_offset: int = 0
    name: str = "var"

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        if len(self.shape) == 0:
            raise DataspaceError("dataset needs at least one dimension")
        if any(s <= 0 for s in self.shape):
            raise DataspaceError(f"non-positive extent in shape {self.shape}")
        if self.file_offset < 0:
            raise DataspaceError(f"negative file offset {self.file_offset}")

    # -- geometry -------------------------------------------------------
    @property
    def ndims(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    @property
    def n_elements(self) -> int:
        """Total element count."""
        return math.prod(self.shape)

    @property
    def itemsize(self) -> int:
        """Bytes per element."""
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        """Total dataset size in bytes."""
        return self.n_elements * self.itemsize

    @property
    def strides(self) -> Tuple[int, ...]:
        """Element strides per dimension (C order)."""
        out = [1] * self.ndims
        for d in range(self.ndims - 2, -1, -1):
            out[d] = out[d + 1] * self.shape[d + 1]
        return tuple(out)

    # -- coordinate arithmetic ---------------------------------------------
    def linear_index(self, coords: Sequence[int]) -> int:
        """Linear element index of a coordinate tuple."""
        if len(coords) != self.ndims:
            raise DataspaceError(
                f"{len(coords)} coords for {self.ndims}-D dataset"
            )
        idx = 0
        for c, s, extent in zip(coords, self.strides, self.shape):
            if not 0 <= c < extent:
                raise DataspaceError(f"coordinate {tuple(coords)} outside {self.shape}")
            idx += c * s
        return idx

    def coords_of(self, linear: int) -> Tuple[int, ...]:
        """Coordinate tuple of a linear element index."""
        if not 0 <= linear < self.n_elements:
            raise DataspaceError(
                f"linear index {linear} outside [0, {self.n_elements})"
            )
        coords = []
        for s in self.strides:
            coords.append(linear // s)
            linear %= s
        return tuple(coords)

    # -- file mapping ------------------------------------------------------
    def element_of_byte(self, abs_offset: int) -> int:
        """Linear element index containing the file byte ``abs_offset``."""
        rel = abs_offset - self.file_offset
        if rel < 0 or rel >= self.nbytes:
            raise DataspaceError(
                f"byte {abs_offset} outside dataset region "
                f"[{self.file_offset}, {self.file_offset + self.nbytes})"
            )
        return rel // self.itemsize

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DatasetSpec {self.name!r} {self.shape} {self.dtype}>"

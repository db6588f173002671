"""Hyperslab (subarray) selections: ``start``/``count`` per dimension.

This is the access-description vocabulary of PnetCDF's
``ncmpi_get_vara`` family that all paper examples use (Figures 5-6).
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..errors import DataspaceError
from .dataset import DatasetSpec


@dataclass(frozen=True)
class Subarray:
    """A rectangular selection: element ``(start, start+count)`` per dim.

    Immutable; validated against a dataset with :meth:`validate`.
    """

    start: Tuple[int, ...]
    count: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", tuple(int(s) for s in self.start))
        object.__setattr__(self, "count", tuple(int(c) for c in self.count))
        if len(self.start) != len(self.count):
            raise DataspaceError(
                f"start has {len(self.start)} dims, count has {len(self.count)}"
            )
        if any(s < 0 for s in self.start):
            raise DataspaceError(f"negative start {self.start}")
        if any(c < 0 for c in self.count):
            raise DataspaceError(f"negative count {self.count}")

    @property
    def ndims(self) -> int:
        """Number of dimensions."""
        return len(self.start)

    @property
    def n_elements(self) -> int:
        """Elements selected (product of counts)."""
        return math.prod(self.count) if self.count else 0

    @property
    def empty(self) -> bool:
        """True if any count is zero."""
        return any(c == 0 for c in self.count)

    @property
    def end(self) -> Tuple[int, ...]:
        """Exclusive upper corner per dimension."""
        return tuple(s + c for s, c in zip(self.start, self.count))

    def validate(self, spec: DatasetSpec) -> None:
        """Raise :class:`DataspaceError` unless fully inside ``spec``."""
        if self.ndims != spec.ndims:
            raise DataspaceError(
                f"{self.ndims}-D selection on {spec.ndims}-D dataset"
            )
        for d, (s, c, extent) in enumerate(zip(self.start, self.count, spec.shape)):
            if s + c > extent:
                raise DataspaceError(
                    f"dim {d}: selection [{s}, {s + c}) exceeds extent {extent}"
                )

    def nbytes(self, spec: DatasetSpec) -> int:
        """Selected data volume in bytes for a dataset of ``spec``'s dtype."""
        return self.n_elements * spec.itemsize

    def contains(self, coords: Sequence[int]) -> bool:
        """Whether a coordinate tuple falls inside the selection."""
        if len(coords) != self.ndims:
            raise DataspaceError(
                f"{len(coords)} coords for {self.ndims}-D selection"
            )
        return all(s <= c < s + n
                   for c, s, n in zip(coords, self.start, self.count))

    def intersect(self, other: "Subarray") -> Optional["Subarray"]:
        """Rectangular intersection with ``other`` or None if disjoint."""
        if other.ndims != self.ndims:
            raise DataspaceError("intersecting selections of different rank")
        start = []
        count = []
        for (a, ca), (b, cb) in zip(zip(self.start, self.count),
                                    zip(other.start, other.count)):
            lo = max(a, b)
            hi = min(a + ca, b + cb)
            if hi <= lo:
                return None
            start.append(lo)
            count.append(hi - lo)
        return Subarray(tuple(start), tuple(count))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Subarray(start={self.start}, count={self.count})"


def full_selection(spec: DatasetSpec) -> Subarray:
    """The selection covering the entire dataset."""
    return Subarray(tuple(0 for _ in spec.shape), spec.shape)

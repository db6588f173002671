"""Map/reduce operator library for collective computing.

A :class:`MapReduceOp` is the computation a user embeds into an object
I/O (paper Figure 6): a vectorized *map* over a block of raw values
producing a small partial result, an associative *combine* merging
partials, and a *finalize* step.  The ``ops_per_element`` weight feeds
the CPU cost model, which is how experiments dial the paper's
computation-to-I/O ratio (Figure 9).

Partials must be small — that is the whole point of collective
computing: after the map, the shuffle moves partials instead of raw
data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Tuple, Union

import numpy as np

from ..errors import CollectiveComputingError

#: Index information handed to ``map_chunk``: either the linear index of
#: the first element (contiguous chunk) or an explicit index array.
IndexInfo = Union[int, np.ndarray, None]


def _index_of(indices: IndexInfo, pos: int, op_name: str) -> int:
    """Resolve the dataset linear index of local position ``pos``."""
    if indices is None:
        raise CollectiveComputingError(
            f"{op_name} needs element indices; map_chunk got indices=None"
        )
    if isinstance(indices, (int, np.integer)):
        return int(indices) + pos
    return int(indices[pos])


@dataclass(frozen=True)
class MapReduceOp:
    """Base operator.  Subclasses override the three hooks below.

    Parameters
    ----------
    name:
        Diagnostic label.
    ops_per_element:
        Relative CPU cost of mapping one element (1.0 = one unit of the
        cost model's ``core_element_rate``).
    """

    name: str = "op"
    ops_per_element: float = 1.0

    #: Whether :meth:`map_chunk` consults ``indices``.  Not a dataclass
    #: field — a plain class attribute overridden by location-aware
    #: operators, letting callers skip materializing index arrays for
    #: the (common) value-only operators.
    needs_indices = False

    #: Whether re-associating :meth:`combine` is *bit-exact*: any
    #: grouping of the same partials yields the identical result.  True
    #: for integer sums and selection operators (count, max/min with or
    #: without location, histogram); False for floating-point
    #: accumulations, where ``(a+b)+c != a+(b+c)`` in general, and for
    #: user ops, whose combine we cannot inspect.  The two-level CC
    #: path only pre-combines partials node-locally when this is True —
    #: otherwise it falls back to one-level so results stay
    #: bit-identical.  A plain class attribute, like ``needs_indices``.
    reassociable = False

    # -- hooks ------------------------------------------------------------
    def map_chunk(self, values: np.ndarray, indices: IndexInfo = None) -> Any:
        """Map a 1-D value block to a partial result."""
        raise NotImplementedError

    def combine(self, a: Any, b: Any) -> Any:
        """Merge two partials (associative)."""
        raise NotImplementedError

    def finalize(self, partial: Any) -> Any:
        """Turn the fully-combined partial into the user-facing result."""
        return partial

    # -- helpers -----------------------------------------------------------
    def combine_many(self, partials) -> Any:
        """Left fold of :meth:`combine` over a non-empty iterable."""
        it = iter(partials)
        try:
            acc = next(it)
        except StopIteration:
            raise CollectiveComputingError(
                f"{self.name}: cannot combine zero partials"
            ) from None
        for p in it:
            acc = self.combine(acc, p)
        return acc

    def partial_nbytes(self, partial: Any) -> int:
        """Wire size of a partial's payload (default: 8-byte scalar)."""
        if isinstance(partial, np.ndarray):
            return partial.nbytes
        if isinstance(partial, tuple):
            return 8 * len(partial)
        return 8

    def with_cost(self, ops_per_element: float) -> "MapReduceOp":
        """Copy of this operator with a different CPU weight — the knob
        behind the paper's computation:I/O ratio sweep."""
        return replace(self, ops_per_element=float(ops_per_element))


@dataclass(frozen=True)
class SumOp(MapReduceOp):
    """Sum of all selected elements (the paper's running example)."""

    name: str = "sum"

    def map_chunk(self, values: np.ndarray, indices: IndexInfo = None) -> float:
        return float(values.sum(dtype=np.float64))

    def combine(self, a: float, b: float) -> float:
        return a + b


@dataclass(frozen=True)
class CountOp(MapReduceOp):
    """Number of selected elements (sanity baseline: result is exact)."""

    name: str = "count"
    ops_per_element: float = 0.1

    reassociable = True

    def map_chunk(self, values: np.ndarray, indices: IndexInfo = None) -> int:
        return int(values.size)

    def combine(self, a: int, b: int) -> int:
        return a + b


@dataclass(frozen=True)
class MaxOp(MapReduceOp):
    """Maximum value."""

    name: str = "max"

    reassociable = True

    def map_chunk(self, values: np.ndarray, indices: IndexInfo = None) -> float:
        if values.size == 0:
            raise CollectiveComputingError("max over an empty chunk")
        return float(values.max())

    def combine(self, a: float, b: float) -> float:
        return a if a >= b else b


@dataclass(frozen=True)
class MinOp(MapReduceOp):
    """Minimum value."""

    name: str = "min"

    reassociable = True

    def map_chunk(self, values: np.ndarray, indices: IndexInfo = None) -> float:
        if values.size == 0:
            raise CollectiveComputingError("min over an empty chunk")
        return float(values.min())

    def combine(self, a: float, b: float) -> float:
        return a if a <= b else b


@dataclass(frozen=True)
class MaxLocOp(MapReduceOp):
    """Maximum with the dataset linear index where it occurs.

    This is where the logical map earns its keep: the WRF max-wind task
    needs the *location* of the extremum, which only exists once byte
    offsets are mapped back to logical coordinates.
    """

    name: str = "maxloc"
    ops_per_element: float = 1.5

    needs_indices = True
    # Selection with a total order (value, then lower index): any
    # combine grouping picks the same winner.
    reassociable = True

    def map_chunk(self, values: np.ndarray,
                  indices: IndexInfo = None) -> Tuple[float, int]:
        if values.size == 0:
            raise CollectiveComputingError("maxloc over an empty chunk")
        pos = int(np.argmax(values))
        return (float(values[pos]), _index_of(indices, pos, self.name))

    def combine(self, a: Tuple[float, int], b: Tuple[float, int]
                ) -> Tuple[float, int]:
        # Ties resolve to the lower linear index, like MPI_MAXLOC.
        if a[0] > b[0] or (a[0] == b[0] and a[1] <= b[1]):
            return a
        return b

    def partial_nbytes(self, partial: Any) -> int:
        return 16


@dataclass(frozen=True)
class MinLocOp(MapReduceOp):
    """Minimum with location (the WRF min sea-level-pressure task)."""

    name: str = "minloc"
    ops_per_element: float = 1.5

    needs_indices = True
    reassociable = True

    def map_chunk(self, values: np.ndarray,
                  indices: IndexInfo = None) -> Tuple[float, int]:
        if values.size == 0:
            raise CollectiveComputingError("minloc over an empty chunk")
        pos = int(np.argmin(values))
        return (float(values[pos]), _index_of(indices, pos, self.name))

    def combine(self, a: Tuple[float, int], b: Tuple[float, int]
                ) -> Tuple[float, int]:
        if a[0] < b[0] or (a[0] == b[0] and a[1] <= b[1]):
            return a
        return b

    def partial_nbytes(self, partial: Any) -> int:
        return 16


@dataclass(frozen=True)
class MeanOp(MapReduceOp):
    """Arithmetic mean; partial is ``(sum, count)``."""

    name: str = "mean"

    def map_chunk(self, values: np.ndarray,
                  indices: IndexInfo = None) -> Tuple[float, int]:
        return (float(values.sum(dtype=np.float64)), int(values.size))

    def combine(self, a: Tuple[float, int], b: Tuple[float, int]
                ) -> Tuple[float, int]:
        return (a[0] + b[0], a[1] + b[1])

    def finalize(self, partial: Tuple[float, int]) -> float:
        s, n = partial
        if n == 0:
            raise CollectiveComputingError("mean over zero elements")
        return s / n

    def partial_nbytes(self, partial: Any) -> int:
        return 16


@dataclass(frozen=True)
class MomentsOp(MapReduceOp):
    """Count/sum/sum-of-squares; finalizes to ``(mean, variance)``.

    The canonical "additive operation that can be map-and-reduced" for
    statistics over a climate variable.
    """

    name: str = "moments"
    ops_per_element: float = 2.0

    def map_chunk(self, values: np.ndarray,
                  indices: IndexInfo = None) -> Tuple[int, float, float]:
        v = values.astype(np.float64, copy=False)
        return (int(v.size), float(v.sum()), float((v * v).sum()))

    def combine(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])

    def finalize(self, partial) -> Tuple[float, float]:
        n, s, ss = partial
        if n == 0:
            raise CollectiveComputingError("moments over zero elements")
        mean = s / n
        var = max(0.0, ss / n - mean * mean)
        return (mean, var)

    def partial_nbytes(self, partial: Any) -> int:
        return 24


@dataclass(frozen=True)
class HistogramOp(MapReduceOp):
    """Fixed-range histogram; partial is the bin-count vector.

    Parameters
    ----------
    bins / lo / hi:
        Bin count and value range (out-of-range values are clipped into
        the edge bins, so counts always sum to the element count).
    """

    name: str = "histogram"
    ops_per_element: float = 2.0
    bins: int = 16
    lo: float = 0.0
    hi: float = 1.0

    # Integer bin counts: addition is exact in any grouping.
    reassociable = True

    def __post_init__(self) -> None:
        if self.bins < 1:
            raise CollectiveComputingError(f"need >= 1 bin, got {self.bins}")
        if not self.hi > self.lo:
            raise CollectiveComputingError(
                f"empty histogram range [{self.lo}, {self.hi})"
            )

    def map_chunk(self, values: np.ndarray,
                  indices: IndexInfo = None) -> np.ndarray:
        scaled = (values.astype(np.float64) - self.lo) / (self.hi - self.lo)
        which = np.clip((scaled * self.bins).astype(np.int64), 0, self.bins - 1)
        return np.bincount(which, minlength=self.bins).astype(np.int64)

    def combine(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def partial_nbytes(self, partial: Any) -> int:
        return self.bins * 8


@dataclass(frozen=True)
class UserOp(MapReduceOp):
    """A user-defined operator built from plain functions — the
    ``MPI_Op_create`` analogue of Figure 6.

    Parameters
    ----------
    map_fn:
        ``map_fn(values, indices) -> partial``.
    combine_fn:
        ``combine_fn(a, b) -> partial``.
    finalize_fn:
        Optional ``finalize_fn(partial) -> result``.
    """

    name: str = "user"
    map_fn: Optional[Callable[[np.ndarray, IndexInfo], Any]] = None
    combine_fn: Optional[Callable[[Any, Any], Any]] = None
    finalize_fn: Optional[Callable[[Any], Any]] = None

    # A user map may do anything with its indices argument.
    needs_indices = True

    def __post_init__(self) -> None:
        if self.map_fn is None or self.combine_fn is None:
            raise CollectiveComputingError(
                "UserOp needs both map_fn and combine_fn"
            )

    def map_chunk(self, values: np.ndarray, indices: IndexInfo = None) -> Any:
        return self.map_fn(values, indices)

    def combine(self, a: Any, b: Any) -> Any:
        return self.combine_fn(a, b)

    def finalize(self, partial: Any) -> Any:
        if self.finalize_fn is None:
            return partial
        return self.finalize_fn(partial)


#: Ready-made instances for the common operations the paper simulates
#: ("sum, max, and average, etc.").
SUM_OP = SumOp()
COUNT_OP = CountOp()
MAX_OP = MaxOp()
MIN_OP = MinOp()
MAXLOC_OP = MaxLocOp()
MINLOC_OP = MinLocOp()
MEAN_OP = MeanOp()
MOMENTS_OP = MomentsOp()

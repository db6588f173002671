"""MPI reduction operators (``MPI_Op``), including user-defined ones.

The paper's object I/O passes the analysis as an ``MPI_Op`` created with
``MPI_Op_create`` (Figure 6, line 10); this module provides the same
vocabulary.  An operator combines two *Python values* (numbers, numpy
arrays, partial results).  The library's own reductions wrap a
:class:`~repro.core.ops.MapReduceOp` with :meth:`Op.create`
(:func:`repro.core.reduction.make_reduce_op`); :data:`SUM` is the one
built-in operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..errors import MPIError


@dataclass(frozen=True)
class Op:
    """A reduction operator.

    Parameters
    ----------
    name:
        Diagnostic label.
    func:
        Binary combiner ``func(a, b) -> combined``.  Must be
        associative; :func:`~repro.mpi.collectives.reduce` combines
        operands in a fixed order (rank order relative to the root), so
        it need not commute.
    """

    name: str
    func: Callable[[Any, Any], Any]

    def __call__(self, a: Any, b: Any) -> Any:
        return self.func(a, b)

    @staticmethod
    def create(func: Callable[[Any, Any], Any],
               name: str = "user_op") -> "Op":
        """``MPI_Op_create``: wrap a user combiner function."""
        if not callable(func):
            raise MPIError(f"MPI_Op_create needs a callable, got {func!r}")
        return Op(name=name, func=func)


def _sum(a, b):
    return a + b


#: Arithmetic sum.
SUM = Op("MPI_SUM", _sum)

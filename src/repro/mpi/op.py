"""MPI reduction operators (``MPI_Op``), including user-defined ones.

The paper's object I/O passes the analysis as an ``MPI_Op`` created with
``MPI_Op_create`` (Figure 6, line 10); this module provides the same
vocabulary.  Operators combine *Python values* (numbers, numpy arrays,
tuples for the ``*LOC`` variants) element-wise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..errors import MPIError


@dataclass(frozen=True)
class Op:
    """A reduction operator.

    Parameters
    ----------
    name:
        Diagnostic label.
    func:
        Binary combiner ``func(a, b) -> combined``.  Must be associative;
        commutativity is advertised separately (tree reductions reorder
        operands only when ``commutative``).
    commutative:
        Whether operand order may be changed.
    """

    name: str
    func: Callable[[Any, Any], Any]
    commutative: bool = True

    def __call__(self, a: Any, b: Any) -> Any:
        return self.func(a, b)

    @staticmethod
    def create(func: Callable[[Any, Any], Any], commutative: bool = True,
               name: str = "user_op") -> "Op":
        """``MPI_Op_create``: wrap a user combiner function."""
        if not callable(func):
            raise MPIError(f"MPI_Op_create needs a callable, got {func!r}")
        return Op(name=name, func=func, commutative=commutative)


def _sum(a, b):
    return a + b


def _prod(a, b):
    return a * b


def _max(a, b):
    return np.maximum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else max(a, b)


def _min(a, b):
    return np.minimum(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray) else min(a, b)


def _land(a, b):
    return bool(a) and bool(b)


def _lor(a, b):
    return bool(a) or bool(b)


def _band(a, b):
    return a & b


def _bor(a, b):
    return a | b


def _maxloc(a, b):
    """Operands are ``(value, location)`` pairs; ties pick the lower
    location, matching the MPI standard."""
    (va, la), (vb, lb) = a, b
    if va > vb or (va == vb and la <= lb):
        return a
    return b


def _minloc(a, b):
    (va, la), (vb, lb) = a, b
    if va < vb or (va == vb and la <= lb):
        return a
    return b


#: Arithmetic sum.
SUM = Op("MPI_SUM", _sum)
#: Arithmetic product.
PROD = Op("MPI_PROD", _prod)
#: Element-wise maximum.
MAX = Op("MPI_MAX", _max)
#: Element-wise minimum.
MIN = Op("MPI_MIN", _min)
#: Logical and / or.
LAND = Op("MPI_LAND", _land)
LOR = Op("MPI_LOR", _lor)
#: Bitwise and / or.
BAND = Op("MPI_BAND", _band)
BOR = Op("MPI_BOR", _bor)
#: Max/min with location, over ``(value, location)`` pairs.
MAXLOC = Op("MPI_MAXLOC", _maxloc)
MINLOC = Op("MPI_MINLOC", _minloc)

_BUILTINS = {op.name: op for op in
             (SUM, PROD, MAX, MIN, LAND, LOR, BAND, BOR, MAXLOC, MINLOC)}


def lookup(name: str) -> Op:
    """Fetch a built-in operator by its MPI name (e.g. ``"MPI_SUM"``)."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise MPIError(f"unknown built-in op {name!r}") from None

"""Unit tests for the ObjectIO descriptor."""

import numpy as np
import pytest

from repro.core import ObjectIO, SUM_OP
from repro.dataspace import DatasetSpec, Subarray
from repro.errors import CollectiveComputingError, DataspaceError

SPEC = DatasetSpec((4, 4), np.float64, name="v")
SUB = Subarray((0, 0), (2, 2))


def test_defaults():
    oio = ObjectIO(SPEC, SUB, SUM_OP)
    assert oio.mode == "collective"
    assert not oio.block
    assert oio.reduce_mode == "all_to_all"
    assert oio.root == 0


def test_mode_validation():
    with pytest.raises(CollectiveComputingError):
        ObjectIO(SPEC, SUB, SUM_OP, mode="weird")
    with pytest.raises(CollectiveComputingError):
        ObjectIO(SPEC, SUB, SUM_OP, reduce_mode="weird")
    with pytest.raises(CollectiveComputingError):
        ObjectIO(SPEC, SUB, SUM_OP, root=-1)


def test_subarray_validated_against_spec():
    with pytest.raises(DataspaceError):
        ObjectIO(SPEC, Subarray((3, 3), (2, 2)), SUM_OP)


def test_for_rank_copy():
    oio = ObjectIO(SPEC, SUB, SUM_OP)
    other = oio.for_rank(Subarray((2, 2), (2, 2)))
    assert other.sub.start == (2, 2)
    assert oio.sub.start == (0, 0)

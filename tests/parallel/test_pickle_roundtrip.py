"""Pickling audit: everything that crosses the pool boundary.

Sweep points ship kwargs out and results back; errors ship as text but
the richer result/statistics types ride inside experiment payloads, so
each must survive ``pickle.loads(pickle.dumps(x))`` with equal fields.
"""

import pickle

import numpy as np
import pytest

from repro.core import CCStats
from repro.core.metadata import LogicalBlock, PartialResult
from repro.core.runtime import CCResult
from repro.errors import (CollectiveComputingError, ConfigError,
                          DataspaceError, DeadlockError, FaultError,
                          IOLayerError, IntegrityError, MPIError, PFSError,
                          RecoveryError, ReproError, SimulationError,
                          TransientIOError)
from repro.experiments.common import ExperimentResult
from repro.faults import FaultPlan, FaultRecord
from repro.parallel import PointError, SweepPoint


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def test_sweep_point():
    p = SweepPoint.make("m:f", label="p", a=1, b=(2.5, "x"))
    assert roundtrip(p) == p


def test_cc_stats():
    s = CCStats(metadata_bytes=10, payload_bytes=20, partial_count=3,
                block_count=4, map_elements=5, local_reduction_time=0.25,
                map_time=0.5, partials_by_rank={0: 2, 1: 1})
    assert roundtrip(s) == s


def test_cc_result():
    r = CCResult(local=1.5, global_result=6.0, per_rank={0: 1.5, 1: 4.5},
                 stats=CCStats(partial_count=2))
    back = roundtrip(r)
    assert (back.local, back.global_result, back.per_rank) == \
        (r.local, r.global_result, r.per_rank)
    assert back.stats == r.stats


def test_partial_result():
    p = PartialResult(dest_rank=1, iteration=2,
                      blocks=(LogicalBlock((0, 0), (4, 4)),),
                      payload=3.5, payload_nbytes=8, digest=b"\x01\x02")
    assert roundtrip(p) == p


def test_fault_plan_and_record():
    plan = FaultPlan(seed=11, corrupt_ost_rate=0.1, msg_drop_rate=0.05)
    assert roundtrip(plan) == plan
    rec = FaultRecord(time=1.5, kind="inject:msg-drop", location="r0",
                      detail="tag=3")
    assert roundtrip(rec) == rec


def test_experiment_result():
    r = ExperimentResult(
        experiment_id="figX", title="t", headers=["a", "b"],
        rows=[(1, 2.5), (2, 3.5)], settings=[("k", "v")], notes=["n"],
        paper_expectation="e", plot_spec=("a", ("b",)))
    back = roundtrip(r)
    assert back == r
    assert back.render() == r.render()


@pytest.mark.parametrize("exc_type", [
    ReproError, SimulationError, DeadlockError, MPIError, IOLayerError,
    PFSError, FaultError, RecoveryError, TransientIOError, IntegrityError,
    DataspaceError, CollectiveComputingError, ConfigError,
])
def test_errors(exc_type):
    exc = exc_type("boom at rank 3")
    back = roundtrip(exc)
    assert type(back) is exc_type
    assert back.args == exc.args


def test_point_error():
    point = SweepPoint.make("m:f", x=1)
    err = PointError(point, 4, "ValueError: nope", worker_traceback="tb")
    back = roundtrip(err)
    assert type(back) is PointError
    assert str(back) == str(err)


def test_numpy_scalars_in_payloads():
    # Experiment payloads carry numpy scalars (sums, extrema).
    values = (np.float64(1.5), np.int64(7))
    assert roundtrip(values) == values

"""Simulated time and bytes never read the field's values.

Partial sizes are per-op constants and raw pieces are sized by their
length, so a job run over any field must report the same simulated
time, wire bytes, partial count and deterministic metrics; only its
answer may move.  Each job below is a figure or benchmark job, run on
three fields: the climate field, the climate field shifted by a
benchmark seed's stride (3 x 2^30 elements), and an independent float64
field kept here (sinusoids at 1e-5 and 3.7e-3 rad/element plus 31-bit
hash noise).  A change to the field, or a layer that starts reading
values, which moves a figure's numbers fails here.
"""

import math

import numpy as np
import pytest

from repro import flags
from repro.config import KiB, MiB
from repro.core import SUM_OP
from repro.experiments import fig10_scalability as fig10
from repro.experiments import fig11_overhead as fig11
from repro.experiments.common import hopper_platform, run_objectio_job
from repro.io import CollectiveHints
from repro.obs import metrics
from repro.workloads import climate_field, interleaved_workload

#: Elements between two benchmark seeds' regions of the field.
SEED_STRIDE = 1 << 30


def float64_field(idx):
    x = idx.astype(np.float64)
    h = (idx * np.int64(2654435761)) & np.int64(0x7FFFFFFF)
    noise = h.astype(np.float64) / float(0x80000000) - 0.5
    return (288.0 + 15.0 * np.sin(x * 1e-5) + 8.0 * np.sin(x * 3.7e-3)
            + 2.0 * noise)


def shifted_climate_field(idx):
    return climate_field(idx + 3 * SEED_STRIDE)


FIELDS = (climate_field, shifted_climate_field, float64_field)


def fig10_jobs():
    """Figure 10 quick's P = 24 point, with the figure's calibrated
    operator weight."""
    ops = fig10.calibrate_point(per_rank_mib=1.0, p0=24)
    platform = hopper_platform(fig10._nodes_for(24), n_osts=fig10.N_OSTS)
    w = interleaved_workload(24, per_rank_bytes=MiB)
    return [dict(platform=platform, workload=w, op=SUM_OP.with_cost(ops),
                 block=block) for block in (True, False)]


def fig11_jobs():
    """Figure 11's MPI-12 MiB and CC-12 MiB jobs at P = 128."""
    platform = hopper_platform(math.ceil(128 / 24), n_osts=fig11.N_OSTS)
    w = fig11._contiguous_workload(128, 12 * MiB)
    return [dict(platform=platform, workload=w,
                 op=SUM_OP.with_cost(fig11.OP_COST), block=block,
                 hints=fig11.HINTS_FIG11) for block in (True, False)]


def ingest_jobs():
    """The benchmark's ingest read pair at one collective-buffer
    iteration: 72 ranks on 6 nodes x 6 aggregators, float32, a
    256 KiB buffer, striped over 40 OSTs."""
    cb = 256 * KiB
    platform = hopper_platform(6, cores_per_node=12, n_osts=40)
    w = interleaved_workload(72, per_rank_bytes=6 * 6 * cb // 72,
                             dtype=np.float32, time_steps=12, plane=16)
    hints = CollectiveHints(cb_buffer_size=cb, aggregators_per_node=6)
    return [dict(platform=platform, workload=w, op=SUM_OP.with_cost(1e-9),
                 block=block, hints=hints, stripe_size=cb, stripe_count=40)
            for block in (True, False)]


def observe(job, field):
    """Everything a figure or the benchmark reads from one job, plus
    its answer last."""
    with flags.override(obs=True):
        out = run_objectio_job(field_func=field, **job)
        snapshot = metrics.current().snapshot()
    return ((out.time, out.inter_node_bytes, out.intra_node_bytes,
             out.stats.partial_count, snapshot), out.global_result)


@pytest.mark.parametrize("jobs", [fig10_jobs, fig11_jobs, ingest_jobs])
def test_simulated_numbers_do_not_read_values(jobs):
    for job in jobs():
        numbers, answers = zip(*(observe(job, f) for f in FIELDS))
        assert numbers[0][4]["counters"]["sim.events"] > 0
        assert numbers[1] == numbers[0]
        assert numbers[2] == numbers[0]
        # The shift moves the answer, so the job does read the values.
        assert answers[1] != answers[0]

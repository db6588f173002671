"""Exact return tuples of the fig14, fig15 and fig16 sweep points.

``perfbench``'s integrity and many-ranks workloads call these
``run_point`` functions directly and read every position of the tuple
(time first, answer last, wire bytes in between), so a change in how a
figure builds, runs or times its job must not move a single value.
Floats compare exactly (``repr`` round-trips).
"""

import pytest

from repro.experiments import fig14_faults, fig15_integrity, fig16_intranode

#: The SUM answer every fig14/fig15 job at 8 ranks x 16 KiB reduces to.
SUM_8x16 = 98770.05211966595


@pytest.mark.parametrize("rate, block, expected", [
    (0.0, False, (0.0063733602222222265, 1610808, 0, 0, SUM_8x16)),
    (0.0, True, (0.006865349822222225, 3175864, 0, 0, SUM_8x16)),
    (0.2, False, (0.5345704334518517, 4642296, 13, 3, SUM_8x16)),
    (0.2, True, (0.5346184654518518, 6207352, 13, 3, SUM_8x16)),
])
def test_fig14_run_point_tuple(rate, block, expected):
    got = fig14_faults.run_point(nprocs=8, per_rank_kib=16, rate=rate,
                                 seed=fig14_faults.SEED, block=block)
    assert got == expected
    assert [type(v) for v in got] == [float, int, int, int, float]


@pytest.mark.parametrize("rate, checksums, block, expected", [
    (0.0, False, False, (0.0063733602222222265, 1610808, 0, 0, SUM_8x16)),
    (0.0, False, True, (0.006865349822222225, 3175864, 0, 0, SUM_8x16)),
    (0.4, True, False, (0.03378224471111111, 7922248, 8, 4, SUM_8x16)),
    (0.4, True, True, (0.03457334891111111, 10661040, 8, 4, SUM_8x16)),
])
def test_fig15_run_point_tuple(rate, checksums, block, expected):
    got = fig15_integrity.run_point(nprocs=8, per_rank_kib=16, rate=rate,
                                    seed=fig15_integrity.SEED, block=block,
                                    checksums=checksums)
    assert got == expected
    assert [type(v) for v in got] == [float, int, int, int, float]


@pytest.mark.parametrize("block, two_level, expected", [
    (False, False, (0.00359027882962963, 535968, 4128,
                    (0.9994043374794643, 16114))),
    (False, True, (0.003749332222222222, 537656, 12564,
                   (0.9994043374794643, 16114))),
    (True, False, (0.003869701896296296, 927072, 132288,
                   (0.9994043374794643, 16114))),
    (True, True, (0.0039793863111111105, 928952, 400388,
                  (0.9994043374794643, 16114))),
])
def test_fig16_run_point_tuple(block, two_level, expected):
    got = fig16_intranode.run_point(nprocs=8, rpn=2, per_rank_kib=16,
                                    time_steps=8, block=block,
                                    two_level=two_level)
    assert got == expected
    assert [type(v) for v in got] == [float, int, int, tuple]

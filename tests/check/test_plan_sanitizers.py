"""Plan-sanitizer tests: seeded invariant violations are caught with
the failing coordinate, and healthy plans (hand-built and real) pass."""

import numpy as np
import pytest

from repro.check.plan import check_plan, check_translation
from repro.cluster import Machine
from repro.config import small_test_machine
from repro.dataspace import RunList
from repro.errors import IOLayerError
from repro.flags import override
from repro.io.twophase import TwoPhasePlan, shuffle_send, shuffle_wire_bytes
from repro.mpi import mpi_run
from repro.mpi.wire import wire_size
from repro.sim import Kernel


def two_rank_plan():
    """A healthy plan: two ranks, one aggregator, one window covering
    everything."""
    return TwoPhasePlan(
        all_runs=[RunList.from_pairs([(0, 32)]),
                  RunList.from_pairs([(32, 32)])],
        aggregators=[0],
        domains=[(0, 64)],
        windows=[[(0, 64)]],
    )


def two_window_plan():
    """A healthy plan whose ranks each hold data in one window only, so
    the membership table has false entries to flip."""
    return TwoPhasePlan(
        all_runs=[RunList.from_pairs([(0, 32)]),
                  RunList.from_pairs([(32, 32)])],
        aggregators=[0],
        domains=[(0, 64)],
        windows=[[(0, 32), (32, 64)]],
    )


def test_healthy_plan_passes_every_sanitizer():
    check_plan(two_rank_plan())
    plan = two_window_plan()
    for r in range(2):
        for t in range(2):
            plan.window_pieces(r, 0, t)  # memoize every pair, empty too
        plan.read_span(0, r)
    check_plan(plan)


def test_coverage_gap_is_caught():
    plan = TwoPhasePlan(
        all_runs=[RunList.from_pairs([(0, 64)])],
        aggregators=[0],
        domains=[(0, 64)],
        windows=[[(0, 32)]],  # second half of the request never scheduled
    )
    with pytest.raises(IOLayerError, match="cover"):
        check_plan(plan)


def test_window_escaping_its_domain_is_caught():
    plan = TwoPhasePlan(
        all_runs=[RunList.from_pairs([(0, 64)])],
        aggregators=[0],
        domains=[(0, 32)],
        windows=[[(0, 64)]],
    )
    with pytest.raises(IOLayerError, match="escapes its file domain"):
        check_plan(plan)


def test_overlapping_windows_across_aggregators_are_caught():
    plan = TwoPhasePlan(
        all_runs=[RunList.from_pairs([(0, 64)])],
        aggregators=[0, 1],
        domains=[(0, 40), (24, 64)],
        windows=[[(0, 40)], [(24, 64)]],
    )
    with pytest.raises(IOLayerError, match="overlap"):
        check_plan(plan)


def test_corrupted_memoized_read_span_is_caught():
    plan = two_rank_plan()
    assert plan.read_span(0, 0) == (0, 64)
    plan.__dict__["_read_spans"][(0, 0)] = (0, 63)  # poison the memo
    with pytest.raises(IOLayerError, match=r"read_span\(0, 0\)"):
        check_plan(plan)


def test_corrupted_window_pieces_are_caught():
    plan = two_rank_plan()
    plan.window_pieces(1, 0, 0)  # populate the memo ...
    plan.__dict__["_window_pieces"][(1, 0, 0)] = \
        RunList.from_pairs([(32, 16)])  # ... then drop half the bytes
    with pytest.raises(IOLayerError, match="window_pieces"):
        check_plan(plan)


def test_window_pieces_outside_the_membership_are_caught():
    plan = two_window_plan()
    assert not plan.rank_in_window(0, 0, 1)
    plan.__dict__["_window_pieces"] = {
        (0, 0, 1): RunList.from_pairs([(40, 8)])}
    with pytest.raises(IOLayerError,
                       match=r"window_pieces\(0, 0, 1\).*outside"):
        check_plan(plan)


def test_membership_false_positive_is_caught():
    plan = two_window_plan()
    member = plan.membership.copy()
    assert not member[0, 1]
    member[0, 1] = True  # rank 0 holds nothing in window (0, 1)
    plan.__dict__["membership"] = member
    with pytest.raises(IOLayerError,
                       match=r"membership\[0, \(0, 1\)\] is set"):
        check_plan(plan)


def test_membership_false_negative_is_caught():
    plan = two_window_plan()
    member = plan.membership.copy()
    assert member[1, 1]
    member[1, 1] = False  # rank 1's only window dropped from its schedule
    plan.__dict__["membership"] = member
    with pytest.raises(IOLayerError,
                       match="rank 1 requested 32 bytes but its member "
                             "windows schedule 0"):
        check_plan(plan)


def test_shuffle_accounting_closed_form():
    pieces = RunList.from_pairs([(0, 10), (20, 5)])
    assert shuffle_wire_bytes(pieces) == 16 + 24 * 2 + 15
    payload = [(off, np.zeros(n, dtype=np.uint8)) for off, n in pieces]
    assert wire_size(payload) == shuffle_wire_bytes(pieces)


def test_shuffle_send_checks_its_closed_form():
    # A send charged one byte off its payload's wire size is refused
    # under the check, naming the message; an honest one goes through.
    pieces = RunList.from_pairs([(0, 8), (16, 8)])
    payload = [(off, np.zeros(n, dtype=np.uint8)) for off, n in pieces]

    def send(nbytes):
        machine = Machine(Kernel(), small_test_machine(nodes=1,
                                                       cores_per_node=2))

        def main(ctx):
            if ctx.rank == 0:
                yield shuffle_send(ctx, payload, 1, 7, nbytes,
                                   "seeded message").event
                return None
            msg = yield from ctx.comm.recv_msg(0, 7)
            return msg.nbytes
        return mpi_run(machine, 2, main)

    honest = shuffle_wire_bytes(pieces)
    with override(check=True):
        assert send(honest) == [None, honest]
        with pytest.raises(IOLayerError,
                           match="seeded message wire-size accounting "
                                 "drifted: closed form 81 != measured 80 "
                                 "for rank 0 -> 1, tag 7"):
            send(honest + 1)


def test_translation_claim_is_verified():
    base = RunList.from_pairs([(0, 8), (32, 8)])
    plan = two_rank_plan()
    # Honest translation passes.
    check_translation(base, base.shift(64), 64, plan.shifted(64))
    # A lying delta is rejected before any plan is trusted.
    with pytest.raises(IOLayerError, match="not an exact translation"):
        check_translation(base, base.shift(64), 48, plan.shifted(48))


def test_shifted_plan_preserves_invariants():
    check_plan(two_rank_plan().shifted(1024))

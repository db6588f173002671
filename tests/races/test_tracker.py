"""Unit tests for the vector-clock happens-before tracker.

Covers the clock algebra, the findings registry, and the kernel-level
happens-before edges: fork/join ordering, resource-grant edges
(including the uncontended re-acquire that flows through the published
release clock rather than an event), and the shared-state conflict
check on a tracked cell.
"""

import pytest

from repro.check.races import (RaceFinding, assert_no_races,
                               current_findings, drain_findings,
                               report_finding, vc_concurrent, vc_format,
                               vc_join, vc_leq)
from repro.errors import RaceError
from repro.flags import override
from repro.sim import Kernel, Resource, hold


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts and ends with an empty findings registry."""
    drain_findings()
    yield
    drain_findings()


# -- clock algebra -------------------------------------------------------

def test_vc_join_is_componentwise_max():
    assert vc_join({1: 2, 2: 1}, {1: 1, 3: 4}) == {1: 2, 2: 1, 3: 4}


def test_vc_join_leaves_inputs_untouched():
    a, b = {1: 1}, {1: 2}
    vc_join(a, b)
    assert a == {1: 1} and b == {1: 2}


def test_vc_leq_orders_prefixes():
    assert vc_leq({1: 1}, {1: 2, 2: 5})
    assert not vc_leq({1: 3}, {1: 2})
    assert vc_leq({}, {1: 1})


def test_vc_concurrent_is_mutual_incomparability():
    assert vc_concurrent({1: 1}, {2: 1})
    assert not vc_concurrent({1: 1}, {1: 2})
    assert not vc_concurrent({1: 1}, {1: 1})


def test_vc_format_is_tid_ordered():
    assert vc_format({2: 1, 0: 3}) == "{0:3, 2:1}"


# -- findings registry ---------------------------------------------------

def test_finding_format():
    f = RaceFinding("shared-state", 0.5, "two writers")
    assert f.format() == "[shared-state] t=0.5: two writers"


def test_registry_report_snapshot_drain():
    f = RaceFinding("shared-state", 1.0, "x")
    report_finding(f)
    assert current_findings() == [f]
    assert current_findings() == [f]  # snapshot does not drain
    assert drain_findings() == [f]
    assert drain_findings() == []


def test_assert_no_races_raises_and_drains():
    report_finding(RaceFinding("shared-state", 2.0, "boom"))
    with pytest.raises(RaceError, match=r"\[shared-state\] t=2: boom"):
        assert_no_races()
    assert current_findings() == []  # drained by the assert
    assert_no_races()  # now clean


# -- kernel integration --------------------------------------------------

def _traced_kernel() -> Kernel:
    with override(races=True):
        return Kernel()


def test_kernel_attaches_tracker_only_when_enabled():
    assert Kernel()._tracker is None
    assert _traced_kernel()._tracker is not None


def test_concurrent_store_putters_are_flagged():
    """Two processes writing one tracked cell (a shared queue, say) at
    the same instant with no edge between them."""
    k = _traced_kernel()

    def putter(k):
        yield k.timeout(1.0)
        k._tracker.access("store:q", write=True)

    for _ in range(2):
        k.process(putter(k))
    k.run()
    findings = drain_findings()
    assert findings, "two unordered putters must race"
    assert all(f.kind == "shared-state" for f in findings)
    assert "store:q" in findings[0].message


def test_resource_guarded_store_is_clean():
    """The grant edge release → succeed(next) orders the critical
    sections, so guarded writes to the same cell carry no race."""
    k = _traced_kernel()
    r = Resource(k, capacity=1, name="guard")

    def putter(k):
        req = r.request()
        yield req
        k._tracker.access("store:q", write=True)
        r.release(req)

    for _ in range(2):
        k.process(putter(k))
    k.run()
    assert drain_findings() == []


def test_join_edge_orders_parent_after_child():
    k = _traced_kernel()

    def child(k):
        yield k.timeout(1.0)
        k._tracker.access("cell")

    def parent(k):
        yield k.process(child(k))
        k._tracker.access("cell")

    k.process(parent(k))
    k.run()
    assert drain_findings() == []


def test_unordered_raw_accesses_are_flagged():
    """Same shape as the join test but with *no* edge between the two
    accesses: the negative control for the clean cases above."""
    k = _traced_kernel()

    def toucher(k, delay):
        yield k.timeout(delay)
        k._tracker.access("cell")

    k.process(toucher(k, 1.0))
    k.process(toucher(k, 2.0))
    k.run()
    findings = drain_findings()
    assert [f.kind for f in findings] == ["shared-state"]
    assert "'cell'" in findings[0].message


def test_uncontended_reacquire_synchronizes_via_release_clock():
    """A release followed by a later, momentarily-free acquire carries
    no event edge (the grant is immediate), yet mutual exclusion still
    orders the two critical sections: the published release clock must
    provide the edge."""
    k = _traced_kernel()
    r = Resource(k, capacity=1, name="slot")

    def first(k):
        req = r.request()
        yield req
        k._tracker.access("cell")
        yield k.timeout(1.0)
        r.release(req)

    def second(k):
        yield k.timeout(2.0)
        req = r.request()  # resource idle: immediate grant, no event edge
        yield req
        k._tracker.access("cell")
        r.release(req)

    k.process(first(k))
    k.process(second(k))
    k.run()
    assert drain_findings() == []


def _successive_holds(same_resource):
    """Two processes touch one cell in the step that ends a hold; the
    second hold starts at t=2 on a free resource, so its grant is made
    on the spot with no event to carry an edge."""
    k = _traced_kernel()
    first = Resource(k, capacity=1, name="a")
    second = first if same_resource else Resource(k, capacity=1, name="b")

    def toucher(resource, delay):
        yield k.timeout(delay)
        yield from hold(resource, 1.0)
        k._tracker.access("cell")

    k.process(toucher(first, 0.0))
    k.process(toucher(second, 2.0))
    k.run()
    return drain_findings()


def test_event_free_grant_keeps_the_lock_edge():
    assert _successive_holds(same_resource=True) == []


def test_holds_on_different_resources_are_flagged():
    """Negative control for the test above: two resources, no edge."""
    findings = _successive_holds(same_resource=False)
    assert [f.kind for f in findings] == ["shared-state"]
    assert "'cell'" in findings[0].message

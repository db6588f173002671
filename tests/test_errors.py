"""The exception hierarchy contract: every library error is a
ReproError, so callers can catch library failures in one clause."""

import pytest

from repro.errors import (CollectiveComputingError, ConfigError,
                          DataspaceError, DeadlockError, IOLayerError,
                          MPIError, PFSError, ReproError, SimulationError)

ALL = [SimulationError, DeadlockError, MPIError, IOLayerError, PFSError,
       DataspaceError, CollectiveComputingError, ConfigError]


@pytest.mark.parametrize("exc", ALL)
def test_all_derive_from_repro_error(exc):
    assert issubclass(exc, ReproError)
    with pytest.raises(ReproError):
        raise exc("boom")


def test_deadlock_is_simulation_error():
    assert issubclass(DeadlockError, SimulationError)


def test_distinct_categories_do_not_cross_catch():
    with pytest.raises(MPIError):
        try:
            raise MPIError("x")
        except PFSError:  # pragma: no cover - must not match
            pytest.fail("PFSError caught an MPIError")


def test_public_api_raises_repro_errors():
    """A few representative entry points raise catchable library errors."""
    import numpy as np
    from repro import DatasetSpec, Subarray, StripeLayout
    from repro.config import CostModel

    with pytest.raises(ReproError):
        DatasetSpec(())
    with pytest.raises(ReproError):
        Subarray((0,), (-1,))
    with pytest.raises(ReproError):
        StripeLayout(0, [0])
    with pytest.raises(ReproError):
        CostModel().ost_time(-1)


# -- every subclass, raised through a public entry point ---------------------

def test_simulation_error_via_kernel_misuse():
    from repro.sim import Kernel

    with pytest.raises(SimulationError, match="timeout delay"):
        Kernel().timeout(-1.0)


def test_deadlock_error_via_stuck_process():
    from repro.sim import Kernel

    k = Kernel()

    def stuck(k):
        yield k.event()  # never triggered by anyone

    k.process(stuck(k), name="stuck")
    with pytest.raises(DeadlockError) as err:
        k.run()
    assert "process 'stuck' waiting on" in str(err.value)


def test_mpi_error_via_bad_rank():
    from repro.cluster import Machine
    from repro.config import small_test_machine
    from repro.mpi import Communicator
    from repro.sim import Kernel

    k = Kernel()
    m = Machine(k, small_test_machine(nodes=1, cores_per_node=2))
    comm = Communicator(k, m, 2)
    with pytest.raises(MPIError, match=r"rank 5 outside \[0, 2\)"):
        comm.handle(5)


def test_io_layer_error_via_plan_validation():
    import numpy as np
    from repro.dataspace import RunList
    from repro.io.twophase import TwoPhasePlan

    plan = TwoPhasePlan(
        all_runs=[RunList.from_pairs([(0, 64)])],
        aggregators=[0], domains=[(0, 64)], windows=[[(0, 32)]],
    )
    with pytest.raises(IOLayerError, match="cover"):
        plan.validate()


def test_pfs_error_via_out_of_range_read():
    import numpy as np
    from repro.pfs import ArraySource

    src = ArraySource(np.zeros(4, dtype=np.float64))
    with pytest.raises(PFSError, match="past end of source"):
        src.read(0, 999)


def test_dataspace_error_via_out_of_bounds_subarray():
    import numpy as np
    from repro import DatasetSpec, Subarray

    spec = DatasetSpec((4, 4), np.float64)
    with pytest.raises(DataspaceError):
        Subarray((2, 2), (4, 4)).validate(spec)


def test_collective_computing_error_via_empty_reduction():
    import numpy as np
    from repro.core import MAX_OP

    with pytest.raises(CollectiveComputingError, match="empty chunk"):
        MAX_OP.map_chunk(np.empty(0, dtype=np.float64))


def test_config_error_via_bad_platform():
    from repro.config import small_test_machine

    with pytest.raises(ConfigError):
        small_test_machine(nodes=0)

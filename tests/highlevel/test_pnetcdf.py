"""Tests for the PnetCDF-flavoured high-level API."""

import numpy as np
import pytest

from repro.cluster import Machine
from repro.config import small_test_machine
from repro.core import MINLOC_OP, SUM_OP
from repro.errors import DataspaceError
from repro.highlevel import HEADER_BYTES, NCFile, VariableDef, create_dataset
from repro.mpi import mpi_run
from repro.sim import Kernel


def build_machine():
    k = Kernel()
    return k, Machine(k, small_test_machine(nodes=2, cores_per_node=4,
                                            n_osts=3, stripe_size=512))


def linear(idx):
    return idx.astype(np.float64)


def test_create_dataset_layout():
    k, m = build_machine()
    f = create_dataset(m.fs, "d.nc", [
        VariableDef("a", (4, 6), np.float64, func=linear),
        VariableDef("b", (2, 3), np.float32, func=linear),
    ])
    assert f.schema["a"].file_offset == HEADER_BYTES
    assert f.schema["b"].file_offset == HEADER_BYTES + 4 * 6 * 8
    assert f.size == HEADER_BYTES + 192 + 24


def test_array_backed_variable_roundtrip():
    k, m = build_machine()
    data = np.arange(12, dtype=np.float64).reshape(3, 4) * 1.5
    create_dataset(m.fs, "d.nc", [VariableDef("x", (3, 4), np.float64,
                                              data=data)])

    def main(ctx):
        nc = NCFile.open(ctx, "d.nc")
        arr = yield from nc.var("x").get_vara_all((0, 0), (3, 4))
        return arr

    res = mpi_run(m, 2, main)
    assert np.array_equal(res[0], data)
    assert np.array_equal(res[1], data)


def test_array_shape_mismatch_rejected():
    k, m = build_machine()
    with pytest.raises(DataspaceError):
        create_dataset(m.fs, "d.nc", [
            VariableDef("x", (3, 4), np.float64, data=np.zeros((2, 2)))])


def test_get_vara_all_reads_right_variable():
    k, m = build_machine()
    create_dataset(m.fs, "d.nc", [
        VariableDef("a", (4, 4), np.float64, func=lambda i: i * 1.0),
        VariableDef("b", (4, 4), np.float64, func=lambda i: i * 10.0),
    ])

    def main(ctx):
        nc = NCFile.open(ctx, "d.nc")
        a = yield from nc.var("a").get_vara_all((1, 0), (1, 4))
        b = yield from nc.var("b").get_vara_all((1, 0), (1, 4))
        return a, b

    res = mpi_run(m, 2, main)
    a, b = res[0]
    assert np.array_equal(a, np.arange(4, 8, dtype=np.float64).reshape(1, 4))
    assert np.array_equal(b, 10.0 * np.arange(4, 8).reshape(1, 4))


def test_independent_get_vara_matches_collective():
    k, m = build_machine()
    create_dataset(m.fs, "d.nc", [VariableDef("a", (6, 6), np.float64,
                                              func=linear)])

    def main(ctx):
        nc = NCFile.open(ctx, "d.nc")
        coll = yield from nc.var("a").get_vara_all((2, 1), (3, 4))
        ind = yield from nc.var("a").get_vara((2, 1), (3, 4))
        return np.array_equal(coll, ind)

    assert all(mpi_run(m, 2, main))


def test_put_vara_all_roundtrip():
    k, m = build_machine()
    create_dataset(m.fs, "d.nc", [
        VariableDef("w", (4, 8), np.float64, data=np.zeros((4, 8)))])

    def main(ctx):
        nc = NCFile.open(ctx, "d.nc")
        var = nc.var("w")
        mine = np.full((2, 8), float(ctx.rank + 1))
        yield from var.put_vara_all((2 * ctx.rank, 0), (2, 8), mine)
        back = yield from var.get_vara_all((0, 0), (4, 8))
        return back

    res = mpi_run(m, 2, main)
    expect = np.vstack([np.full((2, 8), 1.0), np.full((2, 8), 2.0)])
    assert np.array_equal(res[0], expect)


def test_object_get_vara_cc_vs_blocking():
    k, m = build_machine()
    create_dataset(m.fs, "d.nc", [VariableDef("a", (8, 8), np.float64,
                                              func=linear)])

    def main(ctx):
        nc = NCFile.open(ctx, "d.nc")
        var = nc.var("a")
        start = (4 * ctx.rank, 0)
        count = (4, 8)
        cc = yield from var.object_get_vara(start, count, SUM_OP)
        tr = yield from var.object_get_vara(start, count, SUM_OP, block=True)
        return cc.global_result, tr.global_result

    res = mpi_run(m, 2, main)
    assert res[0][0] == res[0][1] == pytest.approx(np.arange(64).sum())


def test_object_get_vara_minloc():
    k, m = build_machine()
    create_dataset(m.fs, "d.nc", [VariableDef(
        "a", (8, 8), np.float64,
        func=lambda i: np.cos(i.astype(np.float64)))])

    def main(ctx):
        nc = NCFile.open(ctx, "d.nc")
        var = nc.var("a")
        res = yield from var.object_get_vara((4 * ctx.rank, 0), (4, 8),
                                             MINLOC_OP)
        return res.global_result

    res = mpi_run(m, 2, main)
    vals = np.cos(np.arange(64, dtype=np.float64))
    assert res[0] == (pytest.approx(vals.min()), int(np.argmin(vals)))


def test_unknown_variable_and_unopened_file():
    k, m = build_machine()
    create_dataset(m.fs, "d.nc", [VariableDef("a", (2, 2))])
    m.fs.create_procedural_file("raw.bin", 100)

    def main(ctx):
        nc = NCFile.open(ctx, "d.nc")
        with pytest.raises(DataspaceError):
            nc.var("zzz")
        with pytest.raises(DataspaceError):
            NCFile.open(ctx, "raw.bin")
        assert nc.variables() == ["a"]
        yield ctx.kernel.timeout(0)
        return None

    mpi_run(m, 1, main)

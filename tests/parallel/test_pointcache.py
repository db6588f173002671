"""Tests for the persistent on-disk point cache."""

import os
import pickle
from pathlib import Path

from repro.flags import override
from repro.parallel import (PointCache, SweepPoint, code_digest, point_key,
                            run_sweep)
from repro.parallel import pointcache
from tests.parallel import pointfuncs

FNS = "tests.parallel.pointfuncs"


def _cache(tmp_path):
    return PointCache(root=tmp_path / "pointcache")


def test_miss_then_hit(tmp_path):
    cache = _cache(tmp_path)
    points = [SweepPoint.make(f"{FNS}:square", x=x) for x in (2, 3)]
    assert run_sweep(points, cache=cache) == [4, 9]
    assert (cache.hits, cache.misses) == (0, 2)
    assert cache.entry_count() == 2
    assert run_sweep(points, cache=cache) == [4, 9]
    assert (cache.hits, cache.misses) == (2, 2)


def test_hit_skips_execution(tmp_path):
    cache = _cache(tmp_path)
    point = [SweepPoint.make(f"{FNS}:record_square", x=5)]
    pointfuncs.CALLS.clear()
    assert run_sweep(point, cache=cache) == [25]
    assert run_sweep(point, cache=cache) == [25]
    assert pointfuncs.CALLS == [5]  # second sweep never called the fn


def test_key_differs_by_kwargs_not_container_type():
    a = SweepPoint.make(f"{FNS}:square", x=(1, 2))
    b = SweepPoint.make(f"{FNS}:square", x=[1, 2])
    c = SweepPoint.make(f"{FNS}:square", x=(1, 3))
    # CLI round-trips turn tuples into lists; the key must not care.
    assert point_key(a) == point_key(b)
    assert point_key(a) != point_key(c)


def test_key_includes_check_flag(tmp_path):
    point = SweepPoint.make(f"{FNS}:square", x=1)
    with override(check=True):
        checked = point_key(point)
    with override(check=False):
        unchecked = point_key(point)
    assert checked != unchecked


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = _cache(tmp_path)
    point = [SweepPoint.make(f"{FNS}:square", x=7)]
    run_sweep(point, cache=cache)
    # Garbage, and a pickle header naming an unknown protocol (which
    # raises ValueError, not UnpicklingError).
    for garbage in (b"not a pickle", b"\x80\x10garbage"):
        [entry] = list(cache.root.rglob("*.pkl"))
        entry.write_bytes(garbage)
        assert run_sweep(point, cache=cache) == [49]  # recomputed, rewritten
        with (list(cache.root.rglob("*.pkl"))[0]).open("rb") as fh:
            assert pickle.load(fh)["value"] == 49


def test_clear_and_entry_count(tmp_path):
    cache = _cache(tmp_path)
    points = [SweepPoint.make(f"{FNS}:square", x=x) for x in range(3)]
    run_sweep(points, cache=cache)
    # A writer killed mid-write leaves its temp file behind.
    (cache.root / "stray.tmp").write_bytes(b"torn")
    assert cache.entry_count() == 3
    assert cache.clear() == 3
    assert not cache.root.exists()
    assert cache.entry_count() == 0
    assert cache.clear() == 0  # idempotent on an absent store
    run_sweep(points, cache=cache)  # and usable again after a clear
    assert cache.entry_count() == 3


def test_max_entries_validation(tmp_path):
    import pytest

    with pytest.raises(ValueError, match="max_entries"):
        PointCache(root=tmp_path, max_entries=0)
    PointCache(root=tmp_path, max_entries=None)  # unbounded is fine


def test_cap_evicts_oldest_first(tmp_path):
    import os

    cache = PointCache(root=tmp_path / "pointcache", max_entries=3)
    points = [SweepPoint.make(f"{FNS}:square", x=x) for x in range(5)]
    for i, point in enumerate(points):
        cache.put(point, (i * i, None))
        # Distinct mtimes so "oldest" is unambiguous on coarse clocks.
        path = cache._path(point_key(point))
        os.utime(path, (1000 + i, 1000 + i))
    assert cache.entry_count() == 3
    assert cache.evictions == 2
    # The two oldest entries are gone; the three newest survive.
    hits = [cache.get(p) is not None for p in points]
    assert hits == [False, False, True, True, True]


def test_unbounded_cache_never_evicts(tmp_path):
    cache = PointCache(root=tmp_path / "pointcache", max_entries=None)
    points = [SweepPoint.make(f"{FNS}:square", x=x) for x in range(6)]
    for point in points:
        cache.put(point, (1, None))
    assert cache.entry_count() == 6
    assert cache.evictions == 0


def test_rewriting_an_entry_does_not_evict(tmp_path):
    cache = PointCache(root=tmp_path / "pointcache", max_entries=2)
    a = SweepPoint.make(f"{FNS}:square", x=1)
    b = SweepPoint.make(f"{FNS}:square", x=2)
    cache.put(a, (1, None))
    cache.put(b, (4, None))
    cache.put(a, (1, None))  # overwrite in place: cap not exceeded
    assert cache.entry_count() == 2
    assert cache.evictions == 0


def test_capped_puts_walk_the_store_once(tmp_path, monkeypatch):
    cache = PointCache(root=tmp_path / "pointcache", max_entries=10)
    points = [SweepPoint.make(f"{FNS}:square", x=x) for x in range(50)]
    walks = []
    real_rglob = Path.rglob

    def rglob(self, pattern):
        if self == cache.root:
            walks.append(pattern)
        return real_rglob(self, pattern)

    monkeypatch.setattr(Path, "rglob", rglob)
    for x, point in enumerate(points):
        cache.put(point, (x * x, None))
    assert cache.evictions == 40
    # The ten newest entries survive.
    hits = [cache.get(p) is not None for p in points]
    assert hits == [False] * 40 + [True] * 10
    # A rewrite moves its entry to the newest end.
    cache.put(points[40], (1600, None))
    cache.put(SweepPoint.make(f"{FNS}:square", x=60), (3600, None))
    assert cache.get(points[40]) is not None
    assert cache.get(points[41]) is None
    assert len(walks) <= 1
    assert cache.entry_count() == 10
    # A fresh object orders what its one walk finds by modification time.
    os.utime(cache._path(point_key(points[-1])), (1000, 1000))
    fresh = PointCache(root=cache.root, max_entries=10)
    fresh.put(SweepPoint.make(f"{FNS}:square", x=50), (2500, None))
    assert fresh.get(points[-1]) is None
    assert fresh.get(points[-2]) is not None
    assert fresh.entry_count() == 10


def test_two_writers_of_one_key_both_land(tmp_path, monkeypatch):
    # Another process stores the same key while this put is writing
    # (two CLI runs sharing one cache): neither may lose its temp file.
    cache = _cache(tmp_path)
    point = SweepPoint.make(f"{FNS}:square", x=4)
    real_dump = pickle.dump
    calls = []

    def dump(obj, fh, **kwargs):
        if not calls:
            calls.append(fh)
            PointCache(root=cache.root).put(point, (16, None))
        real_dump(obj, fh, **kwargs)

    monkeypatch.setattr(pointcache.pickle, "dump", dump)
    cache.put(point, (16, None))
    assert cache.get(point) == (16, None)
    assert cache.entry_count() == 1
    assert list(cache.root.rglob("*.tmp")) == []


def test_stats_line(tmp_path):
    cache = PointCache(root=tmp_path / "pointcache", max_entries=1)
    point = SweepPoint.make(f"{FNS}:square", x=1)
    assert cache.stats() == "0 hit / 0 miss"
    cache.get(point)
    cache.put(point, (1, None))
    cache.get(point)
    assert cache.stats() == "1 hit / 1 miss"
    # Evicts x=1.
    cache.put(SweepPoint.make(f"{FNS}:square", x=2), (4, None))
    assert cache.stats() == "1 hit / 1 miss / 1 evicted"


def test_code_digest_is_stable_hex():
    d = code_digest()
    assert d == code_digest()
    assert len(d) == 64
    int(d, 16)  # valid hex

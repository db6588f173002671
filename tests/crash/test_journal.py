"""Run-journal unit tests: a journal is an unbounded PointCache at
journal_root — durability, miss semantics, lifecycle, drill hook."""

import pickle

from repro.parallel import PointCache, SweepPoint, journal_root
from repro.parallel.pointcache import DIE_AFTER_ENV

FNS = "tests.crash.crashfuncs"


def _journal(root):
    return PointCache(root, max_entries=None)


def _point(index=0, **extra):
    return SweepPoint.make(f"{FNS}:ok", label=f"ok#{index}", index=index,
                           **extra)


def test_record_and_get_roundtrip(tmp_path):
    journal = _journal(tmp_path / "j")
    point = _point(3, base_seed=7)
    assert journal.get(point) is None
    journal.put(point, ([3, 28], {"counters": {"x": 1}}))
    assert journal.get(point) == ([3, 28], {"counters": {"x": 1}})
    assert (journal.hits, journal.misses, journal.puts) == (1, 1, 1)
    assert journal.entry_count() == 1


def test_get_is_keyed_on_point_content(tmp_path):
    journal = _journal(tmp_path / "j")
    journal.put(_point(0), ([0, 0], None))
    assert journal.get(_point(1)) is None, \
        "a different point must never hit another's entry"


def test_torn_entry_is_a_miss(tmp_path):
    journal = _journal(tmp_path / "j")
    point = _point(5)
    journal.put(point, ("payload", None))
    [entry] = sorted((tmp_path / "j").rglob("*.pkl"))
    # Truncate mid-pickle: the crash-consistency contract says a torn
    # entry reads as a miss, never as an error or a wrong value.
    entry.write_bytes(entry.read_bytes()[:3])
    assert journal.get(point) is None
    assert journal.hits == 0


def test_entry_without_value_key_is_a_miss(tmp_path):
    journal = _journal(tmp_path / "j")
    point = _point(6)
    journal.put(point, ("payload", None))
    [entry] = sorted((tmp_path / "j").rglob("*.pkl"))
    entry.write_bytes(pickle.dumps({"not-value": 1}))
    assert journal.get(point) is None


def test_reset_and_discard_remove_everything(tmp_path):
    # Reset (empty the journal, keep using it) and discard (remove its
    # root) are both one clear of the unbounded store.
    root = tmp_path / "j"
    journal = _journal(root)
    for i in range(4):
        journal.put(_point(i), (i, None))
    assert journal.entry_count() == 4
    assert journal.clear() == 4
    assert journal.entry_count() == 0
    journal.put(_point(0), (0, None))
    assert journal.get(_point(0)) == (0, None)
    assert journal.clear() == 1
    assert not root.exists()
    # Clearing an already-absent journal is a harmless no-op.
    assert journal.clear() == 0


def test_journal_root_composes_run_id(tmp_path):
    assert journal_root("fig10", root=tmp_path) == tmp_path / "fig10"
    default = journal_root("chaos-n4-seed0")
    assert default.parts[-3:] == ("results", ".journals", "chaos-n4-seed0")


def test_die_after_env_parsing(tmp_path, monkeypatch):
    monkeypatch.setenv(DIE_AFTER_ENV, "3")
    assert _journal(tmp_path)._die_after == 3
    monkeypatch.setenv(DIE_AFTER_ENV, "  2 ")
    assert _journal(tmp_path)._die_after == 2
    monkeypatch.setenv(DIE_AFTER_ENV, "nope")
    assert _journal(tmp_path)._die_after is None
    monkeypatch.delenv(DIE_AFTER_ENV)
    assert _journal(tmp_path)._die_after is None


def test_record_overwrite_is_idempotent(tmp_path):
    journal = _journal(tmp_path / "j")
    point = _point(9)
    journal.put(point, ("same", None))
    journal.put(point, ("same", None))
    assert journal.entry_count() == 1
    assert journal.get(point) == ("same", None)

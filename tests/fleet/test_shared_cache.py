"""SharedAnalysisCache: LRU eviction under a byte budget, self-healing."""

import os

import pytest

from repro.store.cache import SharedAnalysisCache


def material(n):
    return {
        "program": "%064x" % n,
        "trace": "%064x" % (n * 31),
        "memory_model": "sc",
    }


def fill(cache, n, size=2000):
    """Store entry ``n`` with a payload of roughly ``size`` bytes."""
    return cache.store(material(n), ["summary"], "x" * size)


def test_budget_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        SharedAnalysisCache(str(tmp_path), max_bytes=0)


def test_unbounded_without_budget(tmp_path):
    cache = SharedAnalysisCache(str(tmp_path / "c"))
    for n in range(10):
        fill(cache, n)
    assert cache.usage()["entries"] == 10
    assert cache.stats.evictions == 0


def test_lru_eviction_respects_budget(tmp_path):
    cache = SharedAnalysisCache(str(tmp_path / "c"), max_bytes=7000)
    keys = [fill(cache, n) for n in range(3)]  # ~6KB, fits
    assert cache.usage()["entries"] == 3
    # Touch entry 0 so entry 1 becomes the LRU victim.
    assert cache.load(material(0)) is not None
    fill(cache, 3)  # ~8KB total: must evict down to budget
    assert cache.stats.evictions >= 1
    assert cache.usage()["bytes"] <= 7000
    # The recently-touched entry survived; the LRU one did not.
    assert cache.load(material(0)) is not None
    assert cache.load(material(1)) is None
    assert keys[0] != keys[1]


def test_newest_store_is_never_its_own_victim(tmp_path):
    cache = SharedAnalysisCache(str(tmp_path / "c"), max_bytes=1000)
    fill(cache, 1, size=5000)  # far over budget on its own
    assert cache.load(material(1)) is not None  # protected, not thrashed
    fill(cache, 2, size=5000)
    # The older over-budget entry goes; the one just stored stays.
    assert cache.load(material(1)) is None
    assert cache.load(material(2)) is not None


def test_index_is_advisory_and_self_healing(tmp_path):
    cache = SharedAnalysisCache(str(tmp_path / "c"), max_bytes=50_000)
    fill(cache, 1)
    fill(cache, 2)
    # Clobber the index: the entries on disk are still found and usable.
    with open(cache._index_path(), "w") as fh:
        fh.write("not json at all")
    assert cache.usage()["entries"] == 2
    assert cache.load(material(1)) is not None
    # And a row for a deleted file disappears on reconcile.
    os.remove(cache._path(cache.key_of(material(2))))
    assert cache.usage()["entries"] == 1


def test_eviction_counter_flows_into_as_dict(tmp_path):
    cache = SharedAnalysisCache(str(tmp_path / "c"), max_bytes=2500)
    fill(cache, 1)
    fill(cache, 2)
    assert cache.stats.evictions >= 1
    assert cache.stats.as_dict()["evictions"] == cache.stats.evictions


def test_shared_root_serves_multiple_handles(tmp_path):
    # Two handles on one directory (two worker processes in spirit).
    a = SharedAnalysisCache(str(tmp_path / "c"), max_bytes=50_000)
    b = SharedAnalysisCache(str(tmp_path / "c"), max_bytes=50_000)
    fill(a, 1)
    assert b.load(material(1)) is not None
    assert b.stats.hits == 1
    assert b.usage()["entries"] == 1

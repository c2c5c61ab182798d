"""Analysis cache: content addressing, hits, stale rejection, verify."""

import os
import pickle

import pytest

from repro.constraints import model
from repro.core.clap import ClapConfig, ClapPipeline
from repro.store.cache import ANALYSIS_SCHEMA_VERSION, AnalysisCache

from tests.conftest import RACE_SRC


@pytest.fixture(scope="module")
def recorded_race():
    pipeline = ClapPipeline(RACE_SRC, ClapConfig(seeds=range(100)))
    return pipeline, pipeline.record()


def material_of(pipeline, recorded, memory_model="sc"):
    return AnalysisCache.key_material(
        pipeline.program, recorded.recorder, memory_model
    )


def analyze_with(pipeline, recorded, cache):
    timings = {}
    system = pipeline.analyze(recorded, cache=cache, timings=timings)
    return system, timings


def test_key_material_is_content_addressed(recorded_race):
    pipeline, recorded = recorded_race
    m1 = material_of(pipeline, recorded)
    m2 = material_of(pipeline, recorded)
    assert m1 == m2
    assert AnalysisCache.key_of(m1) == AnalysisCache.key_of(m2)
    # Any component flip changes the key.
    for variant in (
        material_of(pipeline, recorded, memory_model="tso"),
        dict(m1, program="0" * 64),
        dict(m1, trace="0" * 64),
    ):
        assert AnalysisCache.key_of(variant) != AnalysisCache.key_of(m1)


def test_miss_store_hit_roundtrip(tmp_path, recorded_race):
    pipeline, recorded = recorded_race
    cache = AnalysisCache(str(tmp_path / "cache"))

    system, timings = analyze_with(pipeline, recorded, cache)
    assert timings["cache"] == "miss"
    assert cache.stats.misses == 1
    assert cache.stats.hits == 0
    assert cache.stats.bytes_written > 0

    system2, timings2 = analyze_with(pipeline, recorded, cache)
    assert timings2["cache"] == "hit"
    assert timings2["symexec"] == 0.0
    assert cache.stats.hits == 1
    assert cache.stats.bytes_read == cache.stats.bytes_written
    # The deserialized system is semantically the stored one.
    assert system2.rf_candidates == system.rf_candidates
    assert system2.atoms == system.atoms
    assert system2.sync == system.sync
    assert system2.rf_before == system.rf_before
    assert system2.universes == system.universes
    assert system2.summaries.keys() == system.summaries.keys()
    for thread in system.summaries:
        assert system2.summaries[thread] == system.summaries[thread]


def test_schema_version_mismatch_is_stale(tmp_path, recorded_race):
    pipeline, recorded = recorded_race
    cache = AnalysisCache(str(tmp_path / "cache"))
    analyze_with(pipeline, recorded, cache)
    [path] = cache.entry_paths()
    with open(path, "rb") as fh:
        payload = pickle.loads(fh.read())
    payload["schema"] = ANALYSIS_SCHEMA_VERSION + 1
    with open(path, "wb") as fh:
        fh.write(pickle.dumps(payload))

    material = material_of(pipeline, recorded)
    assert cache.load(material) is None
    assert cache.stats.stale == 1
    assert not os.path.exists(path)  # self-healing: stale entry deleted
    # The next analyze re-populates from scratch.
    _, timings = analyze_with(pipeline, recorded, cache)
    assert timings["cache"] == "miss"
    assert cache.entry_paths()


def test_v4_entry_is_a_miss(tmp_path, recorded_race):
    """A v4 entry holds an eagerly built Frw (no-middle clauses included)
    that the lazy solver would load on top of its own: it must not hit."""
    pipeline, recorded = recorded_race
    cache = AnalysisCache(str(tmp_path / "cache"))
    analyze_with(pipeline, recorded, cache)
    [path] = cache.entry_paths()
    with open(path, "rb") as fh:
        payload = pickle.loads(fh.read())
    payload["schema"] = 4
    with open(path, "wb") as fh:
        fh.write(pickle.dumps(payload))

    _, timings = analyze_with(pipeline, recorded, cache)
    assert timings["cache"] == "miss"
    assert cache.stats.stale == 1
    assert cache.stats.hits == 0


def test_v5_entry_is_a_stale_miss(tmp_path, recorded_race, monkeypatch):
    """A v5 entry pickles the object-level ConstraintSystem, whose
    ``Clause`` groups are gone from the model module: it must be a stale
    miss that is deleted, not a crash, and the next analyze stores the
    integer image in its place."""
    pipeline, recorded = recorded_race
    cache = AnalysisCache(str(tmp_path / "cache"))
    analyze_with(pipeline, recorded, cache)
    [path] = cache.entry_paths()
    with open(path, "rb") as fh:
        payload = pickle.loads(fh.read())

    class Clause:
        def __init__(self, lits, origin):
            self.lits = lits
            self.origin = origin

    Clause.__module__, Clause.__qualname__ = model.__name__, "Clause"
    monkeypatch.setattr(model, "Clause", Clause, raising=False)
    system = payload["system"]
    for name in ("atoms", "atom_kinds", "sync", "rf_before", "rf_init", "universes"):
        delattr(system, name)
    system.clauses = [Clause([1, 2], "rf-before")]
    payload["schema"] = 5
    with open(path, "wb") as fh:
        fh.write(pickle.dumps(payload))
    monkeypatch.delattr(model, "Clause")

    assert cache.load(material_of(pipeline, recorded)) is None
    assert cache.stats.stale == 1 and cache.stats.hits == 0
    assert not os.path.exists(path)
    system, timings = analyze_with(pipeline, recorded, cache)
    assert timings["cache"] == "miss"
    [path] = cache.entry_paths()
    with open(path, "rb") as fh:
        stored = pickle.loads(fh.read())
    assert stored["schema"] == ANALYSIS_SCHEMA_VERSION == 6
    assert stored["system"].atoms == system.atoms


def test_unreadable_entry_is_stale(tmp_path, recorded_race):
    pipeline, recorded = recorded_race
    cache = AnalysisCache(str(tmp_path / "cache"))
    analyze_with(pipeline, recorded, cache)
    [path] = cache.entry_paths()
    with open(path, "wb") as fh:
        fh.write(b"\x80\x04 not a pickle")
    assert cache.load(material_of(pipeline, recorded)) is None
    assert cache.stats.stale == 1
    assert not os.path.exists(path)


def test_verify_flags_and_removes_bad_entries(tmp_path, recorded_race):
    pipeline, recorded = recorded_race
    cache = AnalysisCache(str(tmp_path / "cache"))
    analyze_with(pipeline, recorded, cache)
    [good] = cache.entry_paths()

    # A corrupt sibling and an entry filed under the wrong key.
    bad_dir = os.path.join(cache.root, "zz")
    os.makedirs(bad_dir, exist_ok=True)
    corrupt = os.path.join(bad_dir, "z" * 64 + ".pkl")
    with open(corrupt, "wb") as fh:
        fh.write(b"garbage")
    with open(good, "rb") as fh:
        payload = pickle.loads(fh.read())
    misfiled = os.path.join(bad_dir, "f" * 64 + ".pkl")
    with open(misfiled, "wb") as fh:
        fh.write(pickle.dumps(payload))

    problems = cache.verify(remove=True)
    assert sorted(path for path, _ in problems) == sorted([corrupt, misfiled])
    assert cache.stats.stale == 2
    assert cache.entry_paths() == [good]
    # The surviving entry still hits.
    assert cache.load(material_of(pipeline, recorded)) is not None


def test_cached_report_matches_uncached(tmp_path, recorded_race):
    pipeline, recorded = recorded_race
    cache = AnalysisCache(str(tmp_path / "cache"))
    uncached = pipeline.reproduce_offline(recorded)
    missed = pipeline.reproduce_offline(recorded, cache=cache)
    hit = pipeline.reproduce_offline(recorded, cache=cache)
    assert uncached.cache_state == "off"
    assert missed.cache_state == "miss"
    assert hit.cache_state == "hit"
    for report in (missed, hit):
        assert report.reproduced == uncached.reproduced
        assert report.n_constraints == uncached.n_constraints
        assert report.n_variables == uncached.n_variables
        assert report.schedule == uncached.schedule
    assert hit.cache_stats["hits"] == 1

"""Unit tests for the static race/deadlock analyzer (analysis.static_race)."""

import json

from repro.minilang import compile_source
from repro.runtime import events as ev
from repro.analysis.escape import classify_variables
from repro.analysis.static_race import (
    analyze_lock_order,
    analyze_program,
    analyze_races,
    collect_access_sites,
    compute_locksets,
    compute_mhp,
)
from repro.analysis.static_race.locksets import MAY, MUST
from repro.analysis.static_race.races import COMMON_LOCK, NON_MHP, RACY

from tests.conftest import LOCKED_SRC, RACE_SRC

ABBA_SRC = """
int g0 = 0;
int g1 = 0;
mutex a;
mutex b;
void t_ab() { lock(a); lock(b); g0 = g0 + 1; unlock(b); unlock(a); }
void t_ba() { lock(b); lock(a); g1 = g1 + 1; unlock(a); unlock(b); }
int main() {
    int x = 0; int y = 0;
    x = spawn t_ab(); y = spawn t_ba();
    join(x); join(y);
    return 0;
}
"""


def compiled(src, name="prog"):
    return compile_source(src, name=name)


# -- sites --------------------------------------------------------------


def test_sites_cover_reads_and_writes():
    sites = collect_access_sites(compiled(RACE_SRC))
    kinds = {(s.var, s.kind) for s in sites}
    assert ("c", ev.READ) in kinds
    assert ("c", ev.WRITE) in kinds
    assert all(s.line > 0 for s in sites)


def test_sites_exclude_sync_globals():
    sites = collect_access_sites(compiled(LOCKED_SRC))
    assert all(s.var != "m" for s in sites)


# -- locksets -----------------------------------------------------------


def test_must_lockset_inside_critical_section():
    program = compiled(LOCKED_SRC)
    result = compute_locksets(program, mode=MUST)
    for site in collect_access_sites(program):
        if site.func == "worker" and site.var == "c":
            assert result.held_before(site.point) == {"m"}


def test_must_lockset_empty_outside():
    program = compiled(RACE_SRC)
    result = compute_locksets(program, mode=MUST)
    for site in collect_access_sites(program):
        assert result.held_before(site.point) == frozenset()


def test_lockset_interprocedural_through_call():
    program = compiled(
        """
        int x = 0;
        mutex m;
        void bump() { x = x + 1; }
        void w() { lock(m); bump(); unlock(m); }
        int main() {
            int t = 0;
            t = spawn w();
            lock(m); bump(); unlock(m);
            join(t);
            return 0;
        }
        """
    )
    result = compute_locksets(program, mode=MUST)
    for site in collect_access_sites(program):
        if site.func == "bump":
            assert result.held_before(site.point) == {"m"}


def test_must_meet_is_intersection_across_callers():
    program = compiled(
        """
        int x = 0;
        mutex m;
        void bump() { x = x + 1; }
        void locked() { lock(m); bump(); unlock(m); }
        void unlocked() { bump(); }
        int main() {
            int a = 0; int b = 0;
            a = spawn locked(); b = spawn unlocked();
            join(a); join(b);
            return 0;
        }
        """
    )
    result = compute_locksets(program, mode=MUST)
    assert result.entries["bump"] == frozenset()


def test_lockset_converges_on_normal_programs():
    assert compute_locksets(compiled(LOCKED_SRC), mode=MUST).converged


def test_lockset_cap_exhaustion_fails_safe(monkeypatch):
    # If the fixpoint ever runs out of rounds, partial must-mode state
    # could over-approximate held locks and mint unsound common-lock
    # verdicts that read as proof; the result must collapse to bottom.
    from repro.analysis.static_race import locksets as ls

    monkeypatch.setattr(ls._Engine, "solve", lambda self: False)
    result = compute_locksets(compiled(LOCKED_SRC), mode=MUST)
    assert not result.converged
    assert result.at_point == {} and result.entries == {} and result.exits == {}
    for site in collect_access_sites(compiled(LOCKED_SRC)):
        assert result.held_before(site.point) == frozenset()


def test_may_lockset_unions_across_callers():
    program = compiled(ABBA_SRC)
    may = compute_locksets(program, mode=MAY)
    must = compute_locksets(program, mode=MUST)
    for site in collect_access_sites(program):
        if site.func == "t_ab":
            assert must.held_before(site.point) == {"a", "b"}
            assert may.held_before(site.point) == {"a", "b"}


# -- MHP ----------------------------------------------------------------


def test_mhp_workers_parallel_with_each_other():
    program = compiled(RACE_SRC)
    mhp = compute_mhp(program)
    worker_sites = [
        s for s in collect_access_sites(program) if s.func == "worker"
    ]
    assert worker_sites
    # Two spawns of the same function: self-parallel.
    assert mhp.may_happen_in_parallel(worker_sites[0], worker_sites[0])


def test_mhp_join_orders_main_reads():
    program = compiled(RACE_SRC)
    mhp = compute_mhp(program)
    sites = collect_access_sites(program)
    main_read = next(s for s in sites if s.func == "main" and s.var == "c")
    worker = next(s for s in sites if s.func == "worker")
    # main's assert read happens after both joins: provably sequential.
    assert not mhp.may_happen_in_parallel(main_read, worker)


def test_mhp_before_spawn_is_sequential():
    program = compiled(
        """
        int x = 0;
        void w() { x = x + 1; }
        int main() {
            x = 1;
            int t = 0;
            t = spawn w();
            join(t);
            int v = x;
            return 0;
        }
        """
    )
    mhp = compute_mhp(program)
    sites = collect_access_sites(program)
    init_write = next(
        s for s in sites if s.func == "main" and s.kind == ev.WRITE
    )
    worker_site = next(s for s in sites if s.func == "w")
    assert not mhp.may_happen_in_parallel(init_write, worker_site)


def test_mhp_spawn_in_loop_is_parallel_with_itself():
    program = compiled(
        """
        int x = 0;
        void w() { x = x + 1; }
        int main() {
            for (int i = 0; i < 3; i++) {
                int t = 0;
                t = spawn w();
            }
            return 0;
        }
        """
    )
    mhp = compute_mhp(program)
    site = next(s for s in collect_access_sites(program) if s.func == "w")
    assert mhp.may_happen_in_parallel(site, site)


def test_mhp_shared_helper_self_pair_across_roots():
    # A single access site in a helper reached by two different
    # single-instance threads (main calls bump() while the spawned
    # worker also calls it) overlaps with itself.
    program = compiled(
        """
        int x = 0;
        void bump() { x = x + 1; }
        void w() { bump(); }
        int main() {
            int t = 0;
            t = spawn w();
            bump();
            join(t);
            return 0;
        }
        """
    )
    mhp = compute_mhp(program)
    site = next(s for s in collect_access_sites(program) if s.func == "bump")
    assert mhp.may_happen_in_parallel(site, site)


# -- races --------------------------------------------------------------


def test_shared_helper_self_pair_is_racy():
    # Regression: the self-pair classifier must use the full MHP oracle,
    # not just per-root self_parallel — otherwise the write-write race on
    # bump()'s increment is lost AND reported as proven race-free,
    # breaking the static-superset-of-dynamic contract.
    races = analyze_races(
        compiled(
            """
            int x = 0;
            void bump() { x = x + 1; }
            void w() { bump(); }
            int main() {
                int t = 0;
                t = spawn w();
                bump();
                join(t);
                return 0;
            }
            """
        )
    )
    assert "x" in races.racy_vars
    assert any(p.is_write_write for p in races.race_pairs)
    bump_write = next(
        s for s in races.sites if s.func == "bump" and s.kind == ev.WRITE
    )
    assert races.verdict_for(bump_write.key, bump_write.key) == RACY


def test_unprotected_counter_is_racy():
    races = analyze_races(compiled(RACE_SRC))
    assert "c" in races.racy_vars


def test_locked_counter_is_race_free():
    races = analyze_races(compiled(LOCKED_SRC))
    assert races.racy_vars == set()
    assert races.consistent_locks["c"] == frozenset()  # main reads unlocked


def test_consistent_lock_recorded_when_universal():
    races = analyze_races(
        compiled(
            """
            int x = 0;
            mutex m;
            void w() { lock(m); x = x + 1; unlock(m); }
            int main() {
                int a = 0; int b = 0;
                a = spawn w(); b = spawn w();
                join(a); join(b);
                return 0;
            }
            """
        )
    )
    assert races.racy_vars == set()
    assert races.consistent_locks["x"] == {"m"}


def test_pair_verdicts_cover_lock_and_mhp_cases():
    races = analyze_races(compiled(LOCKED_SRC))
    verdicts = set(races.pair_verdicts.values())
    assert COMMON_LOCK in verdicts  # worker/worker pairs under m
    assert NON_MHP in verdicts  # main's post-join read pairs
    assert RACY not in verdicts


# -- lock order ---------------------------------------------------------


def test_abba_cycle_detected():
    report = analyze_lock_order(compiled(ABBA_SRC))
    assert [["a", "b"]] == report.cycles
    held = {(e.held, e.acquired) for e in report.edges}
    assert ("a", "b") in held and ("b", "a") in held


def test_consistent_order_no_cycle():
    report = analyze_lock_order(compiled(LOCKED_SRC))
    assert report.cycles == []
    assert report.edges == []


def test_self_deadlock_reported():
    report = analyze_lock_order(
        compiled(
            """
            int x = 0;
            mutex m;
            int main() { lock(m); lock(m); x = 1; unlock(m); return 0; }
            """
        )
    )
    assert report.self_deadlocks
    assert report.self_deadlocks[0].acquired == "m"


# -- report + diagnostics ----------------------------------------------


def test_report_codes_and_locations():
    report = analyze_program(compiled(RACE_SRC), name="race")
    codes = {d.code for d in report.diagnostics}
    assert "SR001" in codes or "SR002" in codes
    race_diags = [d for d in report.errors()]
    assert all(d.locations for d in race_diags)
    assert "data race" in race_diags[0].render()


def test_report_deadlock_warning():
    report = analyze_program(compiled(ABBA_SRC), name="abba")
    assert any(d.code == "SR101" for d in report.warnings())
    assert report.lock_cycles == [["a", "b"]]


def test_report_json_roundtrips():
    report = analyze_program(compiled(RACE_SRC), name="race")
    payload = json.loads(report.to_json())
    assert payload["program"] == "race"
    assert payload["summary"]["racy_variables"] == ["c"]
    assert all(
        {"code", "severity", "message", "var", "locations"} <= set(d)
        for d in payload["diagnostics"]
    )


def test_report_text_mentions_classification():
    report = analyze_program(compiled(LOCKED_SRC), name="locked")
    text = report.to_text()
    assert "shared" in text
    assert "no races or lock-order cycles found" in text


def test_classify_variables_reasons():
    classified = classify_variables(compiled(RACE_SRC))
    is_shared, reason = classified["c"]
    assert is_shared and "worker" in reason

"""Fso: locking regions, fork/join, wait/signal (paper Figure 5)."""

import pytest

from repro.analysis.symexec import SymSAP, ThreadSummary
from repro.constraints.model import AtomTable, OLt, SWChoice
from repro.constraints.sync_order import SyncEncodingError
from repro.constraints.sync_order import encode_sync_order as encode_numbered
from repro.runtime import events as ev

from tests.constraints.image import clauses as decoded


def encode_sync_order(summaries, **kwargs):
    """Fso with its clauses and at-most-one groups decoded to atoms."""
    table = AtomTable()
    hard, clauses, sw_once, sw = encode_numbered(summaries, table, **kwargs)
    return hard, decoded(table, clauses), decoded(table, sw_once), sw


def lock_exclusions(clauses):
    return [c for c in clauses if all(isinstance(l, OLt) for l in c)]


def summary(thread, kinds_addrs):
    s = ThreadSummary(thread=thread)
    for i, (kind, addr) in enumerate(kinds_addrs):
        s.saps.append(SymSAP(thread=thread, index=i, kind=kind, addr=addr))
    return s


def test_fork_before_start_and_exit_before_join():
    parent = summary(
        "1",
        [
            (ev.START, None),
            (ev.FORK, "1:1"),
            (ev.JOIN, "1:1"),
            (ev.EXIT, None),
        ],
    )
    child = summary("1:1", [(ev.START, None), (ev.EXIT, None)])
    hard, clauses, amo, sw = encode_sync_order({"1": parent, "1:1": child})
    assert OLt(("1", 1), ("1:1", 0)) in hard
    assert OLt(("1:1", 1), ("1", 2)) in hard


def test_join_without_exit_is_an_error():
    parent = summary("1", [(ev.START, None), (ev.JOIN, "1:1"), (ev.EXIT, None)])
    with pytest.raises(SyncEncodingError):
        encode_sync_order({"1": parent})


def test_lock_regions_mutually_exclude():
    t1 = summary(
        "1", [(ev.LOCK, "m"), (ev.UNLOCK, "m")]
    )
    t2 = summary(
        "2", [(ev.LOCK, "m"), (ev.UNLOCK, "m")]
    )
    hard, clauses, _, _ = encode_sync_order({"1": t1, "2": t2})
    excl = lock_exclusions(clauses)
    assert len(excl) == 1
    lits = excl[0]
    assert len(lits) == 2
    # u1 < l2  or  u2 < l1
    atoms = {(l.a, l.b) for l in lits}
    assert atoms == {((("1", 1)), (("2", 0))), ((("2", 1)), (("1", 0)))}


def test_open_lock_region_forces_other_regions_before():
    # Thread 1 still holds m at the end of its trace (the failure stopped
    # it inside the critical section).
    t1 = summary("1", [(ev.LOCK, "m")])
    t2 = summary("2", [(ev.LOCK, "m"), (ev.UNLOCK, "m")])
    hard, clauses, _, _ = encode_sync_order({"1": t1, "2": t2})
    assert OLt(("2", 1), ("1", 0)) in hard


def test_two_open_regions_is_an_error():
    t1 = summary("1", [(ev.LOCK, "m")])
    t2 = summary("2", [(ev.LOCK, "m")])
    with pytest.raises(SyncEncodingError):
        encode_sync_order({"1": t1, "2": t2})


def test_same_thread_regions_skip_exclusion_clause():
    t1 = summary(
        "1",
        [(ev.LOCK, "m"), (ev.UNLOCK, "m"), (ev.LOCK, "m"), (ev.UNLOCK, "m")],
    )
    hard, clauses, _, _ = encode_sync_order({"1": t1})
    assert not lock_exclusions(clauses)


def test_relock_while_held_is_an_error():
    t1 = summary("1", [(ev.LOCK, "m"), (ev.LOCK, "m")])
    with pytest.raises(SyncEncodingError):
        encode_sync_order({"1": t1})


def wait_thread(thread="2"):
    return summary(
        thread,
        [
            (ev.LOCK, "m"),
            (ev.UNLOCK, "m"),  # the wait-release
            (ev.WAIT, "cv"),
            (ev.LOCK, "m"),
            (ev.UNLOCK, "m"),
        ],
    )


def test_wait_maps_to_candidate_signals():
    signaller = summary("1", [(ev.SIGNAL, "cv"), (ev.SIGNAL, "cv")])
    waiter = wait_thread()
    hard, clauses, amo, sw = encode_sync_order({"1": signaller, "2": waiter})
    assert sw[("2", 2)] == [("1", 0), ("1", 1)]
    # release->signal and signal->wait order clauses exist per choice,
    # then the wait picks some signal.
    release, wait = ("2", 1), ("2", 2)
    assert clauses == [
        [("not", SWChoice(("1", 0), wait)), OLt(release, ("1", 0))],
        [("not", SWChoice(("1", 0), wait)), OLt(("1", 0), wait)],
        [("not", SWChoice(("1", 1), wait)), OLt(release, ("1", 1))],
        [("not", SWChoice(("1", 1), wait)), OLt(("1", 1), wait)],
        [SWChoice(("1", 0), wait), SWChoice(("1", 1), wait)],
    ]


def test_signal_wakes_at_most_one_wait():
    signaller = summary("1", [(ev.SIGNAL, "cv")])
    w1 = wait_thread("2")
    w2 = wait_thread("3")
    hard, clauses, amo, sw = encode_sync_order(
        {"1": signaller, "2": w1, "3": w2}
    )
    assert len(amo) == 1
    assert set(amo[0]) == {
        SWChoice(("1", 0), ("2", 2)),
        SWChoice(("1", 0), ("3", 2)),
    }


def test_broadcast_has_no_at_most_one():
    caster = summary("1", [(ev.BROADCAST, "cv")])
    w1 = wait_thread("2")
    w2 = wait_thread("3")
    _, _, amo, sw = encode_sync_order({"1": caster, "2": w1, "3": w2})
    assert amo == []
    assert sw[("2", 2)] == [("1", 0)]


def test_wait_with_no_candidate_signal_is_an_error():
    waiter = wait_thread()
    with pytest.raises(SyncEncodingError):
        encode_sync_order({"2": waiter})


def test_own_thread_signal_is_not_a_candidate():
    # A thread cannot signal its own wait.
    both = summary(
        "1",
        [
            (ev.SIGNAL, "cv"),
            (ev.LOCK, "m"),
            (ev.UNLOCK, "m"),
            (ev.WAIT, "cv"),
            (ev.LOCK, "m"),
        ],
    )
    other = summary("2", [(ev.SIGNAL, "cv")])
    _, _, _, sw = encode_sync_order({"1": both, "2": other})
    assert sw[("1", 3)] == [("2", 0)]

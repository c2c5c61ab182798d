"""Synchronization-order constraints Fso (paper Section 3.2, Figure 5).

Two families:

Partial-order constraints
    ``fork < start`` and ``exit < join`` are single fixed edges (a fork
    maps to exactly one start, a join to exactly one exit).  Wait/signal is
    a *choice*: a wait maps to one of the candidate signals on the same
    condvar from another thread, each signal wakes at most one wait (the
    paper's binary ``b`` variables).  We additionally require the mapped
    signal to come after the wait's own mutex-release (the unlock SAP the
    runtime commits when entering ``wait()``): a signal that fires before
    the waiter is parked is lost under pthread semantics, and a schedule
    violating this cannot be replayed.

Locking constraints
    Lock/unlock pairs on the same mutex form *regions* (program-order
    pairing per thread; a region may be open if the failure stopped the
    thread while holding the lock).  Two regions must not overlap:
    ``O_u1 < O_l2  ∨  O_u2 < O_l1``.  This pairwise non-overlap encoding is
    feasibility-equivalent to the paper's acquire-chain formula and has the
    same quadratic size.
"""

from repro.runtime import events as ev
from repro.constraints.model import OLt


class SyncEncodingError(Exception):
    pass


def encode_sync_order(summaries, table, preexited=frozenset()):
    """Build Fso, numbering its atoms in ``table`` (an
    :class:`~repro.constraints.model.AtomTable`).  Returns ``(hard_edges,
    clauses, sw_once, sw_candidates)``: the clauses and the at-most-one
    groups as 0-terminated flat literal lists.

    ``preexited``: threads that exited before a checkpoint — joins on them
    are already satisfied and contribute no constraint."""
    hard = []
    clauses = []
    sw_once = []
    sw_candidates = {}

    by_kind = {}
    for summary in summaries.values():
        for sap in summary.saps:
            by_kind.setdefault(sap.kind, []).append(sap)

    _encode_fork_join(summaries, by_kind, hard, preexited)
    _encode_wait_signal(summaries, by_kind, table, clauses, sw_once, sw_candidates)
    _encode_locks(summaries, table, clauses, hard)
    return hard, clauses, sw_once, sw_candidates


def _find_start_exit(summaries):
    starts = {}
    exits = {}
    for thread, summary in summaries.items():
        for sap in summary.saps:
            if sap.kind == ev.START:
                starts[thread] = sap
            elif sap.kind == ev.EXIT:
                exits[thread] = sap
    return starts, exits


def _encode_fork_join(summaries, by_kind, hard, preexited=frozenset()):
    starts, exits = _find_start_exit(summaries)
    for sap in by_kind.get(ev.FORK, ()):
        child = sap.addr
        start = starts.get(child)
        if start is None:
            # The child never ran (or its log is absent): nothing to order.
            continue
        hard.append(OLt(sap.uid, start.uid))
    for sap in by_kind.get(ev.JOIN, ()):
        child = sap.addr
        exit_sap = exits.get(child)
        if exit_sap is None:
            if child in preexited:
                continue  # exited before the checkpoint: join pre-satisfied
            raise SyncEncodingError(
                "join on thread %s whose exit is not in the recorded paths" % child
            )
        hard.append(OLt(exit_sap.uid, sap.uid))


def _wait_release_unlock(summary, wait_sap):
    """The unlock SAP the runtime commits immediately before a wait SAP."""
    index = wait_sap.index
    if index == 0:
        raise SyncEncodingError("wait SAP with no preceding unlock")
    prev = summary.saps[index - 1]
    if prev.kind != ev.UNLOCK:
        raise SyncEncodingError(
            "wait SAP %r not preceded by its release unlock" % (wait_sap,)
        )
    return prev


def _encode_wait_signal(summaries, by_kind, table, clauses, sw_once, sw_candidates):
    signals = by_kind.get(ev.SIGNAL, [])
    broadcasts = by_kind.get(ev.BROADCAST, [])
    waits = by_kind.get(ev.WAIT, [])
    for wait in waits:
        release = _wait_release_unlock(summaries[wait.thread], wait)
        candidates = [
            s
            for s in signals + broadcasts
            if s.addr == wait.addr and s.thread != wait.thread
        ]
        if not candidates:
            raise SyncEncodingError(
                "wait on %r by %s has no candidate signal" % (wait.addr, wait.thread)
            )
        sw_candidates[wait.uid] = [s.uid for s in candidates]
        choices = []
        for sig in candidates:
            choice = table.sw(sig.uid, wait.uid)
            choices.append(choice)
            # choice -> release < signal < wait: sw-release, sw-order.
            clauses += (-choice, table.order(release.uid, sig.uid), 0)
            clauses += (-choice, table.order(sig.uid, wait.uid), 0)
        clauses += choices  # sw-some
        clauses.append(0)
    # Each plain signal wakes at most one wait; broadcasts wake any number.
    signal_waits = {}
    for wait_uid, sigs in sw_candidates.items():
        for sig_uid in sigs:
            signal_waits.setdefault(sig_uid, []).append(wait_uid)
    broadcast_uids = {b.uid for b in by_kind.get(ev.BROADCAST, [])}
    for sig_uid, wait_uids in signal_waits.items():
        if sig_uid in broadcast_uids or len(wait_uids) < 2:
            continue
        sw_once += [table.sw(sig_uid, w) for w in wait_uids]
        sw_once.append(0)


def _lock_regions(summary):
    """Pair lock/unlock SAPs per mutex, program order.  Returns
    {mutex: [(lock_uid, unlock_uid-or-None)]}."""
    regions = {}
    open_locks = {}
    for sap in summary.saps:
        if sap.kind == ev.LOCK:
            if sap.addr in open_locks:
                raise SyncEncodingError(
                    "thread %s re-locks %r it already holds" % (sap.thread, sap.addr)
                )
            open_locks[sap.addr] = sap
        elif sap.kind == ev.UNLOCK:
            lock = open_locks.pop(sap.addr, None)
            if lock is None:
                # An unlock whose lock predates the trace cannot happen in
                # MiniLang (threads start lock-free).
                raise SyncEncodingError(
                    "thread %s unlocks %r it does not hold" % (sap.thread, sap.addr)
                )
            regions.setdefault(sap.addr, []).append((lock.uid, sap.uid))
    for addr, lock in open_locks.items():
        regions.setdefault(addr, []).append((lock.uid, None))
    return regions


def _encode_locks(summaries, table, clauses, hard):
    all_regions = {}
    for summary in summaries.values():
        for mutex, regions in _lock_regions(summary).items():
            all_regions.setdefault(mutex, []).extend(regions)
    for mutex, regions in sorted(all_regions.items()):
        open_regions = [r for r in regions if r[1] is None]
        if len(open_regions) > 1:
            raise SyncEncodingError(
                "two threads hold %r at the end of the trace" % mutex
            )
        for i, (l1, u1) in enumerate(regions):
            for (l2, u2) in regions[i + 1 :]:
                if l1[0] == l2[0]:
                    continue  # same thread: program order already serializes
                if u1 is None:
                    hard.append(OLt(u2, l1))
                elif u2 is None:
                    hard.append(OLt(u1, l2))
                else:  # lock-excl
                    clauses += (table.order(u1, l2), table.order(u2, l1), 0)

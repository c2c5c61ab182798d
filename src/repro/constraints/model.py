"""Constraint-system data model.

Atoms
-----
``OLt(a, b)``
    The order variable of SAP ``a`` is less than that of SAP ``b``
    (``a``/``b`` are SAP uids).  Because the schedule is a *total* order of
    distinct SAPs, the negation of ``OLt(a, b)`` is ``OLt(b, a)`` — the
    order theory exploits this.
``RFChoice(read, source)``
    Read SAP ``read`` returns the value of write SAP ``source``
    (or the initial memory value when ``source`` is :data:`INIT`).
``SWChoice(signal, wait)``
    Signal SAP ``signal`` is the one that wakes wait SAP ``wait``
    (the paper's binary ``b`` variables).

A :class:`Clause` is a disjunction of literals over these atoms.  Value
constraints (``Fpath``/``Fbug``) stay as symbolic expressions; the lazy
value theory evaluates them once reads-from choices fix every read's value.
"""

from dataclasses import dataclass, field

INIT = "<init>"


def addr_key(addr):
    """Structured sort key for a SAP address tuple.

    Addresses are ``(name,)`` for scalars and ``(name, index)`` for array
    elements.  Sorting by the name first and the raw index tail second
    keeps the encoder's iteration order deterministic without depending
    on ``repr`` formatting (which would put ``('a', 10)`` before
    ``('a', 2)`` and change with any repr tweak).
    """
    return (addr[0], addr[1:])


@dataclass(frozen=True)
class OLt:
    a: tuple
    b: tuple

    def __repr__(self):
        return "O%r < O%r" % (self.a, self.b)

    def negated(self):
        return OLt(self.b, self.a)


@dataclass(frozen=True)
class RFChoice:
    read: tuple
    source: object  # write uid or INIT

    def __repr__(self):
        return "rf(%r <- %r)" % (self.read, self.source)


@dataclass(frozen=True)
class SWChoice:
    signal: tuple
    wait: tuple

    def __repr__(self):
        return "sw(%r ~> %r)" % (self.signal, self.wait)


@dataclass(frozen=True)
class Lit:
    """A literal: an atom with a polarity."""

    atom: object
    positive: bool = True

    def negate(self):
        return Lit(self.atom, not self.positive)

    def __repr__(self):
        return repr(self.atom) if self.positive else "!(%r)" % (self.atom,)


@dataclass
class Clause:
    """Disjunction of literals, tagged with its origin for diagnostics."""

    lits: list
    origin: str = ""

    def __repr__(self):
        return "(%s)" % " | ".join(repr(l) for l in self.lits)


@dataclass
class ExactlyOne:
    """Exactly one of ``lits`` holds (used for reads-from candidates)."""

    lits: list
    origin: str = ""


@dataclass
class AtMostOne:
    """At most one of ``lits`` holds (a signal wakes at most one wait)."""

    lits: list
    origin: str = ""


@dataclass
class ConstraintSystem:
    """Everything the solvers need about one recorded execution."""

    memory_model: str
    # uid -> SymSAP, for every SAP of every thread.
    saps: dict = field(default_factory=dict)
    # {thread: ThreadSummary}
    summaries: dict = field(default_factory=dict)
    # Unconditional order facts (Fmo + fixed parts of Fso): list of OLt.
    hard_edges: list = field(default_factory=list)
    # Conditional structure (Frw, locking, signal/wait): CNF-ish.
    clauses: list = field(default_factory=list)
    exactly_one: list = field(default_factory=list)
    at_most_one: list = field(default_factory=list)
    # read uid -> candidate sources (write uids and/or INIT).
    rf_candidates: dict = field(default_factory=dict)
    # wait uid -> candidate signal uids.
    sw_candidates: dict = field(default_factory=dict)
    # addr -> initial concrete value.
    initial_values: dict = field(default_factory=dict)
    # Value-level constraints: all threads' path conditions, plus the bug.
    conditions: list = field(default_factory=list)  # PathCondition list
    bug_exprs: list = field(default_factory=list)  # SymExpr list (conjoined)
    # Per-thread intra-thread order edges (the SAP-"tree" of Section 4.3),
    # {thread: list[(uid, uid)]}; used by the schedule generators.
    thread_order: dict = field(default_factory=dict)
    # Checkpointed suffix solving: threads that started before the
    # checkpoint (their suffix has a synthetic resume-start but no fork),
    # and threads that already exited (joins on them are pre-satisfied).
    preexisting: frozenset = frozenset()
    preexited: frozenset = frozenset()
    # PruneStats from the always-on HB must-order Frw pruner
    # (constraints.hb).  None only for hb=False raw encodings.
    prune_stats: object = None
    # Eviction-horizon relaxation counters (flight-recorder logs only):
    # {"synth_saps", "dropped_conditions", "relaxed_reads",
    #  "pinned_synth_reads"}.  None for complete logs.
    horizon_stats: dict | None = None
    # The HBClosure of the hard edges computed during encoding; the SMT
    # solver reuses it for fixed-order reachability instead of rebuilding
    # its own transitive closure.  None for hb=False encodings.
    hb_closure: object = None
    # Canonical atom-key -> SAT-variable id, assigned deterministically by
    # ``encoder.assign_atom_numbering``.  Every SAT instance built from
    # this system adopts it, so variable ids are stable across bound
    # rounds and across fresh/incremental solver builds — the invariant
    # that makes learned-clause reuse sound and runs comparable.
    atom_numbering: dict = field(default_factory=dict)

    # -- convenience -----------------------------------------------------

    def sap(self, uid):
        return self.saps[uid]

    def reads(self):
        return [s for s in self.saps.values() if s.is_read]

    def writes(self):
        return [s for s in self.saps.values() if s.is_write]

    def threads(self):
        return list(self.summaries)

    def num_order_vars(self):
        return len(self.saps)

    def num_value_vars(self):
        return sum(1 for s in self.saps.values() if s.is_read)


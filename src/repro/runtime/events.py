"""Shared access point (SAP) events and bug reports.

A SAP ("shared access point", the paper's term) is any operation whose
global ordering matters: a read or write of a shared data location, or a
synchronization operation.  Both the concrete interpreter and the symbolic
executor emit per-thread SAP sequences, and they MUST agree exactly on SAP
kinds and per-thread indices.  The canonical emission rules:

* Every thread's first SAP is a synthetic ``start`` (index 0); its last is a
  synthetic ``exit``.
* ``LOAD_GLOBAL``/``LOAD_ELEM`` on a *shared* data variable -> ``read``.
* ``STORE_GLOBAL``/``STORE_ELEM`` on a *shared* data variable -> ``write``.
* ``LOCK m`` -> ``lock``;  ``UNLOCK m`` -> ``unlock``.
* ``WAIT cv, m`` desugars into three SAPs in program order:
  ``unlock``(m), ``wait``(cv), ``lock``(m) — so the locking constraints see
  the critical section split exactly where pthread_cond_wait splits it.
* ``SPAWN`` -> ``fork`` (arg: child's hierarchical name);
  ``JOIN`` -> ``join`` (arg: joined thread's name).
* ``SIGNAL`` -> ``signal``; ``BROADCAST`` -> ``broadcast``.

Thread naming follows the paper (Section 3.1 / [13]): the main thread is
``"1"``; the j-th thread forked by thread ``t`` is named ``t + ":" + j``.
This identification is deterministic given per-thread control flow, so the
offline symbolic execution reconstructs the same names.

Data addresses are tuples: ``(var,)`` for scalars, ``(var, index)`` for
array elements.  Sync addresses are the mutex/condvar name string.
"""

from dataclasses import asdict, dataclass

# SAP kind constants.
READ = "read"
WRITE = "write"
LOCK = "lock"
UNLOCK = "unlock"
WAIT = "wait"
SIGNAL = "signal"
BROADCAST = "broadcast"
FORK = "fork"
YIELD = "yield"
JOIN = "join"
START = "start"
EXIT = "exit"
FENCE = "fence"

DATA_KINDS = frozenset({READ, WRITE})
SYNC_KINDS = frozenset(
    {LOCK, UNLOCK, WAIT, SIGNAL, BROADCAST, FORK, JOIN, START, EXIT, YIELD, FENCE}
)

# Kinds that are "must-interleave" operations for the context-switch
# segmentation of Section 4.2 (the paper lists wait, join, yield, exit; we
# add start and fork, whose boundaries also force scheduler involvement).
MUST_INTERLEAVE_KINDS = frozenset({WAIT, JOIN, EXIT, START, YIELD, FORK})


@dataclass
class SAP:
    """One shared access point.

    ``thread`` is the hierarchical thread name; ``index`` is the SAP's
    position in its thread's program-order SAP sequence.  ``(thread, index)``
    is the SAP's globally unique id, used as the constraint order-variable
    key.

    ``value`` is only populated by the concrete interpreter (ground truth for
    tests); CLAP's recorded logs never contain it.
    """

    thread: str
    index: int
    kind: str
    addr: object = None
    value: object = None
    line: int = 0

    @property
    def uid(self):
        return (self.thread, self.index)

    @property
    def is_data(self):
        return self.kind in DATA_KINDS

    @property
    def is_read(self):
        return self.kind == READ

    @property
    def is_write(self):
        return self.kind == WRITE

    def __repr__(self):
        addr = "" if self.addr is None else " %r" % (self.addr,)
        return "SAP(%s#%d %s%s)" % (self.thread, self.index, self.kind, addr)


@dataclass
class BugReport:
    """An observed failure: a violated assertion (or runtime fault)."""

    kind: str  # 'assertion' or 'runtime'
    message: str
    thread: str = ""
    line: int = 0

    def __repr__(self):
        return "BugReport(%s, %r, thread=%s, line=%d)" % (
            self.kind,
            self.message,
            self.thread,
            self.line,
        )

    def to_json(self):
        """The ``bug`` section of a failure record (manifest or report)."""
        return asdict(self)

    @classmethod
    def from_json(cls, obj):
        return cls(
            obj.get("kind", "assertion"), obj.get("message", ""),
            obj.get("thread", ""), obj.get("line", 0),
        )

    def same_failure(self, other):
        """Whether two reports describe the same failure site."""
        return (
            other is not None
            and self.kind == other.kind
            and self.message == other.message
            and self.line == other.line
        )


@dataclass
class ThreadStats:
    """Per-thread execution statistics (for the Table 1/2 metrics)."""

    instructions: int = 0
    branches: int = 0
    saps: int = 0
    sync_ops: int = 0

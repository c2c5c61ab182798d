"""Per-thread execution state for the MiniLang interpreter."""

from dataclasses import dataclass, field

from repro.runtime.events import ThreadStats

RUNNABLE = "runnable"
BLOCKED = "blocked"
EXITED = "exited"

# Block reasons.
ON_MUTEX = "mutex"  # waiting to acquire a mutex
ON_COND = "cond"  # waiting inside wait() for a signal
ON_JOIN = "join"  # waiting for another thread to exit


@dataclass
class Frame:
    """One activation record: function, position, locals, operand stack."""

    func: object  # CompiledFunction
    block: int = 0
    ip: int = 0  # index into the block's instr list
    locals: dict = field(default_factory=dict)
    stack: list = field(default_factory=list)

    def current_instr(self):
        return self.func.blocks[self.block].instrs[self.ip]


@dataclass
class ThreadState:
    """A MiniLang thread.

    ``tid`` is the creation-order integer id; ``name`` is the hierarchical
    paper-style identification ("1", "1:1", "1:2:1", ...) that the offline
    symbolic execution reconstructs deterministically.
    """

    tid: int
    name: str
    frames: list = field(default_factory=list)
    status: str = RUNNABLE
    block_reason: str | None = None
    block_target: object = None  # mutex name / condvar name / joined tid
    children: int = 0  # number of threads forked so far (for naming)
    sap_count: int = 0  # per-thread SAP index counter
    stats: ThreadStats = field(default_factory=ThreadStats)
    # Set while re-acquiring the mutex at the tail of a wait(): holds the
    # (condvar, mutex) pair so the resume logic knows not to re-run the
    # WAIT instruction from scratch.
    wait_resume: tuple | None = None

    @property
    def frame(self):
        return self.frames[-1]

    @property
    def alive(self):
        return self.status != EXITED

    def next_sap_index(self):
        index = self.sap_count
        self.sap_count += 1
        return index

    def child_name(self):
        self.children += 1
        return "%s:%d" % (self.name, self.children)

    def __repr__(self):
        return "ThreadState(%s/%s, %s)" % (self.tid, self.name, self.status)

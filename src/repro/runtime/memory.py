"""Memory subsystem with SC, TSO and PSO semantics.

The paper evaluates CLAP under sequential consistency and the SPARC relaxed
models TSO and PSO, and triggers the relaxed-memory bugs (dekker, peterson,
bakery) by "simulating a FIFO store buffer for each thread" (TSO) or "one
per shared variable" (PSO).  This module makes those store buffers
first-class:

* :class:`SCMemory` — stores apply to global memory immediately.
* :class:`TSOMemory` — one FIFO store buffer per thread; a store enters the
  buffer when executed and becomes globally visible when *flushed* (the
  scheduler chooses flush points).  Loads snoop their own buffer first
  (store-to-load forwarding), so a thread always sees its own most recent
  store.
* :class:`PSOMemory` — one FIFO buffer per (thread, address); stores to
  different addresses may drain in either order, which is exactly the
  reordering that breaks Figure 2's ``assert2``.

Only *shared* data addresses go through buffers; thread-local globals are
invisible to other threads, so buffering them would only add schedule noise.

Synchronization operations act as full fences (as pthread lock/unlock do on
real hardware): the interpreter calls :meth:`fence` before a sync SAP,
draining that thread's buffers.

Buffered stores carry the SAP identity of the store instruction so the
deterministic replayer can flush a *specific* pending write when the
computed schedule says its memory-order turn has come.
"""

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

SC = "sc"
TSO = "tso"
PSO = "pso"

MEMORY_MODELS = (SC, TSO, PSO)


@dataclass
class PendingStore:
    """A store sitting in a store buffer, awaiting its flush."""

    thread: int
    addr: tuple
    value: int
    sap: object = None  # the write SAP (commits to memory order at flush)

    @property
    def sap_uid(self):
        return self.sap.uid if self.sap is not None else None

    def __repr__(self):
        return "PendingStore(%r=%r by t%d, sap=%r)" % (
            self.addr,
            self.value,
            self.thread,
            self.sap_uid,
        )


class _BaseMemory:
    """Global memory shared by all models: a flat addr -> int map."""

    model = None

    def __init__(self, symbols, shared_addrs=None):
        self.cells = {}
        self.array_sizes = {}
        for info in symbols.globals.values():
            if not info.is_data:
                continue
            if info.is_array:
                self.array_sizes[info.name] = info.size
                for i in range(info.size):
                    self.cells[(info.name, i)] = 0
            else:
                self.cells[(info.name,)] = info.init
        # shared_addrs: predicate deciding whether an address is shared data
        # (then subject to buffering).  None means "everything is shared".
        self._shared = shared_addrs
        # The flushable store-buffer heads, kept in step with every write
        # and flush; always empty under SC.
        self.flushable = []

    def is_shared(self, addr):
        return self._shared is None or self._shared(addr)

    def check_addr(self, addr):
        if addr not in self.cells:
            if len(addr) == 2:
                size = self.array_sizes.get(addr[0])
                raise IndexError(
                    "array index out of bounds: %s[%r] (size %r)"
                    % (addr[0], addr[1], size)
                )
            raise KeyError("no such memory cell: %r" % (addr,))

    def global_value(self, addr):
        """The value in global memory, ignoring store buffers."""
        self.check_addr(addr)
        return self.cells[addr]

    def snapshot(self):
        """Copy of global memory (used for final-state checks in tests)."""
        return dict(self.cells)

    # -- interface refined by subclasses ----------------------------------

    def read(self, tid, addr):
        self.check_addr(addr)
        return self.cells[addr]

    def write(self, tid, addr, value, sap=None):
        self.check_addr(addr)
        self.cells[addr] = value

    def flush_choices(self):
        """Pending flush actions the scheduler may take: list of PendingStore
        at the head of some FIFO buffer (only those are flushable).  A fresh
        scan of the buffers; ``flushable`` holds the same list."""
        return []

    def flush(self, pending):
        raise NotImplementedError("no store buffers in this model")

    def thread_heads(self, tid):
        """The heads of ``tid``'s non-empty buffers, in creation order."""
        return []

    def fence(self, tid):
        """Drain all of ``tid``'s buffered stores (sync ops are full fences)."""

    def drain_all(self):
        """Flush every buffer in a legal order (used at execution end)."""

    def pending_count(self, tid=None):
        return 0

    def pending_stores(self, tid=None):
        return []


class SCMemory(_BaseMemory):
    """Sequential consistency: program order == memory order."""

    model = SC


class _BufferedMemory(_BaseMemory):
    """Store buffers shared by TSO and PSO: FIFO deques keyed by
    :meth:`_key`, whose heads are the flushable stores.

    ``flushable`` is kept equal to :meth:`flush_choices` — the heads of
    the non-empty buffers, in buffer-creation order — by :meth:`write`
    and :meth:`flush`, so the scheduler reads it without a scan.
    """

    def __init__(self, symbols, shared_addrs=None):
        super().__init__(symbols, shared_addrs)
        self.buffers = {}  # key -> deque[PendingStore]
        self._created = {}  # key -> creation index of its buffer
        self._head_index = []  # creation indices of ``flushable``'s buffers
        self._thread_buffers = {}  # tid -> that thread's buffers, in order

    def _key(self, tid, addr):
        raise NotImplementedError

    def write(self, tid, addr, value, sap=None):
        self.check_addr(addr)
        if not self.is_shared(addr):
            self.cells[addr] = value
            return
        pending = PendingStore(tid, addr, value, sap)
        key = self._key(tid, addr)
        buffer = self.buffers.get(key)
        if buffer is None:
            buffer = self.buffers[key] = deque()
            self._created[key] = len(self._created)
            self._thread_buffers.setdefault(tid, []).append(buffer)
        if not buffer:
            created = self._created[key]
            i = bisect_left(self._head_index, created)
            self._head_index.insert(i, created)
            self.flushable.insert(i, pending)
        buffer.append(pending)

    def flush_choices(self):
        return [buffer[0] for buffer in self.buffers.values() if buffer]

    def flush(self, pending):
        key = self._key(pending.thread, pending.addr)
        buffer = self.buffers[key]
        if not buffer or buffer[0] is not pending:
            raise ValueError(
                "can only flush the head of a %s store buffer" % self.model.upper()
            )
        buffer.popleft()
        self.cells[pending.addr] = pending.value
        i = bisect_left(self._head_index, self._created[key])
        if buffer:
            self.flushable[i] = buffer[0]
        else:
            del self._head_index[i]
            del self.flushable[i]

    def thread_heads(self, tid):
        return [buffer[0] for buffer in self._thread_buffers.get(tid, ()) if buffer]

    def fence(self, tid):
        for buffer in self._thread_buffers.get(tid, ()):
            while buffer:
                self.flush(buffer[0])

    def drain_all(self):
        for buffer in self.buffers.values():
            while buffer:
                self.flush(buffer[0])

    def _buffers_of(self, tid):
        if tid is None:
            return self.buffers.values()
        return self._thread_buffers.get(tid, ())

    def pending_count(self, tid=None):
        return sum(len(buffer) for buffer in self._buffers_of(tid))

    def pending_stores(self, tid=None):
        return [p for buffer in self._buffers_of(tid) for p in buffer]


class TSOMemory(_BufferedMemory):
    """Total store order: one FIFO store buffer per thread."""

    model = TSO

    def _key(self, tid, addr):
        return tid

    def read(self, tid, addr):
        self.check_addr(addr)
        buffer = self.buffers.get(tid)
        if buffer:
            for pending in reversed(buffer):
                if pending.addr == addr:
                    return pending.value
        return self.cells[addr]


class PSOMemory(_BufferedMemory):
    """Partial store order: one FIFO store buffer per (thread, address).

    Stores by one thread to *different* addresses may become visible in
    either order; same-address stores stay FIFO.
    """

    model = PSO

    def _key(self, tid, addr):
        return (tid, addr)

    def read(self, tid, addr):
        self.check_addr(addr)
        buffer = self.buffers.get((tid, addr))
        if buffer:
            return buffer[-1].value
        return self.cells[addr]


_MODEL_CLASSES = {SC: SCMemory, TSO: TSOMemory, PSO: PSOMemory}


def make_memory(model, symbols, shared_addrs=None):
    """Instantiate the memory subsystem for ``model`` ('sc'/'tso'/'pso')."""
    try:
        cls = _MODEL_CLASSES[model]
    except KeyError:
        raise ValueError(
            "unknown memory model %r (expected one of %s)" % (model, MEMORY_MODELS)
        ) from None
    return cls(symbols, shared_addrs)

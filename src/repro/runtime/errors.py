"""Runtime error types."""


class MiniRuntimeError(Exception):
    """An error raised by executing a MiniLang program (e.g. div by zero)."""


class DeadlockError(MiniRuntimeError):
    """All live threads are blocked."""

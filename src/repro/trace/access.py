"""A single entry of a memory-access log, and a view of a log as entries."""

from collections.abc import Sequence

#: Access kinds.  Plain ints, not an Enum: traces contain hundreds of
#: thousands of entries and the policy simulator compares kinds in its inner
#: loop.
READ = 0
WRITE = 1

_KIND_NAMES = {READ: "R", WRITE: "W"}


def kind_name(kind: int) -> str:
    """Human-readable name of an access kind."""
    return _KIND_NAMES[kind]


class Access:
    """One memory access as logged by the instruction-set simulator.

    Traces store accesses as columns; :class:`AccessView` builds these.

    Attributes:
        kind: ``READ`` or ``WRITE``.
        waddr: Word address (byte address >> 2).  Clank tracks idempotency at
            word granularity; sub-word accesses mark the whole word.
        value: For a write, the full 32-bit word value *after* the write (the
            tracing memory folds sub-word stores into the containing word).
            For a read, the word value observed.  Values let the dynamic
            verifier check that every re-executed read observes the value the
            oracle execution observed.
        cycles: Clock cycles consumed since the previous access, inclusive of
            this access (data access latency + intervening compute).
    """

    __slots__ = ("kind", "waddr", "value", "cycles")

    def __init__(self, kind: int, waddr: int, value: int, cycles: int):
        self.kind = kind
        self.waddr = waddr
        self.value = value
        self.cycles = cycles

    def __repr__(self) -> str:
        return (
            f"Access({kind_name(self.kind)}, waddr={self.waddr:#x}, "
            f"value={self.value:#x}, cycles={self.cycles})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Access):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.waddr == other.waddr
            and self.value == other.value
            and self.cycles == other.cycles
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.waddr, self.value, self.cycles))


class AccessView(Sequence):
    """A read-only sequence of :class:`Access`, each built on demand from
    one index of a trace's ``kinds``/``waddrs``/``values``/``cycles``
    columns (tests and diagnostics; replay and analysis read columns)."""

    __slots__ = ("_cols",)

    def __init__(self, *columns):
        self._cols = columns

    def __len__(self) -> int:
        return len(self._cols[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return AccessView(*(col[i] for col in self._cols))
        return Access(*(col[i] for col in self._cols))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AccessView) and self._cols == other._cols

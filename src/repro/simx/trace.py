"""Operation traces: the simulator's input language.

A workload compiles each thread's execution into a sequence of operations:

* :class:`Compute` — a burst of ``instructions`` arithmetic/control
  instructions, timed by the core's effective IPC;
* :class:`Load` / :class:`Store` — a data access to a byte address, timed
  through the cache hierarchy and MESI coherence at line granularity;
* :class:`Barrier` — all-thread synchronisation point;
* :class:`Lock` / :class:`Unlock` — mutual exclusion;
* :class:`PhaseBegin` / :class:`PhaseEnd` — instrumentation markers; every
  cycle a thread spends between the markers is attributed to that phase
  (the simulator equivalent of SESC's per-section cycle counters).

Traces are ordinary Python iterables, so generators keep memory bounded for
large workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.util.validation import check_positive_int

__all__ = [
    "Op",
    "Compute",
    "Load",
    "Store",
    "Barrier",
    "Lock",
    "Unlock",
    "PhaseBegin",
    "PhaseEnd",
    "ThreadTrace",
    "TraceProgram",
]


@dataclass(frozen=True)
class Compute:
    """A burst of ``instructions`` non-memory instructions."""

    instructions: int

    def __post_init__(self) -> None:
        if self.instructions < 0:
            raise ValueError(f"instructions must be >= 0, got {self.instructions}")


@dataclass(frozen=True)
class Load:
    """A read of the cache line containing byte address ``addr``."""

    addr: int

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ValueError(f"addr must be >= 0, got {self.addr}")


@dataclass(frozen=True)
class Store:
    """A write to the cache line containing byte address ``addr``."""

    addr: int

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ValueError(f"addr must be >= 0, got {self.addr}")


@dataclass(frozen=True)
class Barrier:
    """A named all-thread barrier; every thread must reach it."""

    barrier_id: int


@dataclass(frozen=True)
class Lock:
    """Acquire the named lock (blocks while another thread holds it)."""

    lock_id: int


@dataclass(frozen=True)
class Unlock:
    """Release the named lock; must be held by this thread."""

    lock_id: int


@dataclass(frozen=True)
class PhaseBegin:
    """Start attributing this thread's cycles to ``phase``."""

    phase: str


@dataclass(frozen=True)
class PhaseEnd:
    """Stop attributing this thread's cycles to ``phase``."""

    phase: str


Op = Compute | Load | Store | Barrier | Lock | Unlock | PhaseBegin | PhaseEnd


@dataclass
class ThreadTrace:
    """One thread's operation sequence.

    ``ops`` may be any iterable (list or generator); it is consumed once.
    """

    thread_id: int
    ops: Iterable[Op]

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)


@dataclass
class TraceProgram:
    """A multithreaded program: one trace per thread, plus metadata.

    ``name`` labels the workload in reports; ``n_threads`` is implied by the
    trace list and validated against thread ids.
    """

    name: str
    threads: Sequence[ThreadTrace]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.threads:
            raise ValueError("a TraceProgram needs at least one thread")
        ids = [t.thread_id for t in self.threads]
        if ids != list(range(len(ids))):
            raise ValueError(
                f"thread ids must be 0..{len(ids) - 1} in order, got {ids}"
            )

    @property
    def n_threads(self) -> int:
        return len(self.threads)

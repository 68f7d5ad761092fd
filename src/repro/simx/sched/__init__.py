"""Pluggable thread-dispatch layer for the simulated CMP.

The machine (:mod:`repro.simx.machine`) executes trace operations; *which*
runnable thread advances next, and on *which* core, is delegated to a
:class:`Scheduler`.  Three policies ship:

* :class:`PinnedScheduler` — the paper's one-thread-per-core model and the
  pre-refactor dispatch rule, kept cycle-identical (always advance the
  runnable thread with the smallest local clock; thread *i* owns core *i*).
* :class:`RoundRobinScheduler` — time-multiplexing over a FIFO run queue
  with per-slice ``quantum`` preemption, last-core affinity, and a
  configurable ``migration_cost``; allows oversubscription
  (``n_threads > n_cores``).
* :class:`AcmpScheduler` — round-robin plus a big-core ownership policy for
  asymmetric machines (who gets core 0 during the serial/merge phases).

The batch engine (:mod:`repro.simx.batch`) interleaves work without
consulting a scheduler, so it is only safe under pinned dispatch —
:func:`supports_scheduling` is the seam it gates on, and any
time-multiplexing policy falls back to the op-at-a-time reference engine
(differentially tested in ``tests/sched/``).
"""

from __future__ import annotations

from repro.simx.sched.acmp import SERIAL_PHASES, AcmpScheduler
from repro.simx.sched.base import (
    Scheduler,
    ThreadContext,
    ThreadState,
    build_scheduler,
    supports_scheduling,
)
from repro.simx.sched.pinned import PinnedScheduler
from repro.simx.sched.roundrobin import RoundRobinScheduler

__all__ = [
    "AcmpScheduler",
    "PinnedScheduler",
    "RoundRobinScheduler",
    "SERIAL_PHASES",
    "Scheduler",
    "ThreadContext",
    "ThreadState",
    "build_scheduler",
    "supports_scheduling",
]

"""Cyclic garbage-collector accounting: collections and seconds per generation.

While :func:`watching_gc` is active (and observability is enabled), a
:data:`gc.callbacks` hook counts and times every collection the
interpreter runs, feeding

* ``process_gc_collections_total{generation}`` and
* ``process_gc_seconds_total{generation}``.

The hook can fire on any allocation, including one made while a metric
family is being iterated, so it never touches the registry itself: it
bumps two plain per-generation lists, and a registry collector folds
them into the counters at the next snapshot or reset.  Engine workers
ship their share through the usual :func:`repro.obs.drain` delta, so
``--metrics-out``, ``/metrics`` and ``repro stats`` show where collection
time goes across the whole run.
"""

from __future__ import annotations

import contextlib
import gc
import time
from typing import Iterator

from repro.obs import metrics as _metrics

__all__ = ["watching_gc"]

_COLLECTIONS = _metrics.counter(
    "process_gc_collections_total", "cyclic garbage-collector runs",
    labels=("generation",))
_SECONDS = _metrics.counter(
    "process_gc_seconds_total", "seconds spent in cyclic garbage collection",
    labels=("generation",))

#: per-generation collections and seconds not yet folded into the counters
_counts = [0, 0, 0]
_seconds = [0.0, 0.0, 0.0]
_started = 0.0


def _on_gc(phase: str, info: dict) -> None:
    global _started
    if phase == "start":
        _started = time.perf_counter()
        return
    generation = info["generation"]
    _counts[generation] += 1
    _seconds[generation] += time.perf_counter() - _started


def _flush() -> None:
    """Fold the collections seen since the last flush into the counters."""
    global _counts, _seconds
    # rebind before reading: a collection during the swap lands in the
    # old lists, which are read below, or in the new ones; never in neither
    counts, seconds = _counts, _seconds
    _counts, _seconds = [0, 0, 0], [0.0, 0.0, 0.0]
    for generation, n in enumerate(counts):
        if n:
            _COLLECTIONS.inc(n, generation=str(generation))
            _SECONDS.inc(seconds[generation], generation=str(generation))


_metrics.REGISTRY.add_collector(_flush)


@contextlib.contextmanager
def watching_gc() -> Iterator[None]:
    """Count and time garbage collections for the body.

    A no-op when observability is disabled on entry, or when an enclosing
    scope (or, in a forked worker, the parent) already installed the hook.
    """
    if not _metrics.REGISTRY.enabled or _on_gc in gc.callbacks:
        yield
        return
    gc.callbacks.append(_on_gc)
    try:
        yield
    finally:
        gc.callbacks.remove(_on_gc)
        _flush()

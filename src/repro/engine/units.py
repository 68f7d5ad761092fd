"""Work units — the engine's currency — and the executor registry.

A :class:`WorkUnit` is a *content-keyed*, picklable description of one
independent piece of computation:

* ``key`` is the unit's identity, a SHA-256 content hash of everything
  the result depends on (producers reuse
  :meth:`repro.experiments.store.SweepStore.key_for`, so an engine key
  and the on-disk sweep-cache key are the *same* string).  Two units
  with equal keys are the same computation; the scheduler executes at
  most one of them and the result can satisfy any cache tier.
* ``kind`` names the executor that knows how to run the unit.  Executors
  are plain functions ``spec -> payload`` registered per kind; the
  payload must be a JSON-serialisable dict so it can round-trip through
  the result queue and the disk store.
* ``spec`` is the executor's argument tuple.  It crosses the process
  boundary by pickling, so everything in it must be picklable.

Executor resolution is lazy: worker processes look a kind up at
execution time, importing :mod:`repro.engine.executors` (the built-ins)
on first miss.  Extra kinds registered in the parent before the pool
starts are inherited by workers under the default ``fork`` start method.

The loops that run units back-to-back (pool workers, the serial pool,
remote workers) execute each one inside :func:`collection_paused`: the
simulator state a unit builds is acyclic and freed by reference
counting, so the cyclic garbage collector walking it mid-unit is pure
overhead (see "Garbage collection" in ``docs/engine.md``).
"""

from __future__ import annotations

import contextlib
import gc
from dataclasses import dataclass
from typing import Callable, Iterator

__all__ = [
    "WorkUnit",
    "register_executor",
    "resolve_executor",
    "execute",
    "collection_paused",
]

#: kind -> executor(spec) -> JSON-serialisable payload dict
_EXECUTORS: dict[str, Callable[[tuple], dict]] = {}


@dataclass(frozen=True, eq=False)
class WorkUnit:
    """One schedulable computation (identity semantics; dedupe by ``key``).

    ``cacheable`` marks whether the payload may be persisted in the
    on-disk sweep store.  Non-deterministic units (wall-clock hardware
    runs) and results that depend on unversioned model code set it False:
    they still dedupe, journal and memoise within a run, but never
    satisfy a lookup from an older code version.
    """

    kind: str
    key: str
    spec: tuple
    label: str = ""
    cacheable: bool = True

    def describe(self) -> str:
        """Short human-readable handle for logs and events."""
        return self.label or f"{self.kind}:{self.key[:12]}"


def register_executor(kind: str, fn: Callable[[tuple], dict]) -> None:
    """Register (or replace) the executor for ``kind``."""
    _EXECUTORS[kind] = fn


def resolve_executor(kind: str) -> Callable[[tuple], dict]:
    """The executor registered for ``kind`` (loads built-ins on demand)."""
    fn = _EXECUTORS.get(kind)
    if fn is None:
        from repro.engine import executors  # noqa: F401  (registers built-ins)

        fn = _EXECUTORS.get(kind)
    if fn is None:
        raise KeyError(
            f"no executor registered for work-unit kind {kind!r}; "
            f"known: {', '.join(sorted(_EXECUTORS)) or '(none)'}"
        )
    return fn


def execute(kind: str, spec: tuple) -> dict:
    """Run one unit in the current process (workers and the serial pool)."""
    return resolve_executor(kind)(spec)


@contextlib.contextmanager
def collection_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off for the body.

    On exit, normal or by exception, the collector is left exactly as it
    was found: re-enabled only if it was enabled on entry, so nesting and
    entering with collection already disabled are both safe.  Cycles
    created inside the body are not lost; the first collection after
    exit frees them.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()

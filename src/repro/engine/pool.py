"""Fault-tolerant worker pools.

Two implementations behind one interface (``run(units, on_result=...)``):

* :class:`WorkerPool` — N long-lived worker *processes*.  The design
  choice that buys fault tolerance is **one task queue per worker with
  at most one unit outstanding**: the parent always knows exactly which
  unit each worker holds, so a dead worker (``kill -9``, OOM, segfault,
  per-unit timeout) loses *only* its in-flight unit.  That unit is
  retried on a freshly spawned worker with bounded exponential backoff;
  a unit that keeps killing workers eventually fails the run with
  :class:`UnitFailure` instead of hanging it.
* :class:`SerialPool` — same contract, current process, no dependencies.
  The scheduler degrades to it when ``multiprocessing`` is unavailable
  or refuses to start (:class:`PoolUnavailable`), when only one worker
  is requested, or when ``REPRO_ENGINE_SERIAL`` is set.

Failure taxonomy: worker *deaths* are environmental, so they are
retried; executor *exceptions* are deterministic, so they travel back as
tracebacks and fail fast — retrying a ``ValueError`` would just raise it
again, slower.

Work units are assumed **pure** (their content hash is their identity),
which is what makes retries and duplicate late results safe: executing a
unit twice yields the same payload, so the first result to arrive wins
and every later one is dropped.
"""

from __future__ import annotations

import os
import queue as queue_mod
import time
import traceback
from collections import deque
from typing import Callable, Iterable

try:  # gracefully degrade on platforms without multiprocessing
    import multiprocessing as _mp
except ImportError:  # pragma: no cover - CPython always ships it
    _mp = None

from repro import obs
from repro.engine.events import EventLog
from repro.engine.units import WorkUnit, collection_paused, execute

__all__ = [
    "EngineError",
    "UnitFailure",
    "PoolUnavailable",
    "RunInterrupted",
    "SerialPool",
    "WorkerPool",
    "default_workers",
]

#: parent polling granularity; bounds crash/timeout detection latency
_POLL_S = 0.05

# ── observability ─────────────────────────────────────────────────────────
_UNITS_DONE = obs.counter("engine_units_total", "work units completed",
                          labels=("pool",))
_UNIT_RETRIES = obs.counter("engine_unit_retries_total",
                            "unit retries after worker deaths")
_RESPAWNS = obs.counter("engine_worker_respawns_total",
                        "workers respawned after a crash/timeout")
_QUEUE_DEPTH = obs.gauge("engine_queue_depth",
                         "units not yet settled (ready + delayed + in flight)")
_UNIT_SECONDS = obs.histogram("engine_unit_seconds",
                              "dispatch-to-done wall seconds per unit",
                              labels=("pool",))


class EngineError(RuntimeError):
    """Base class for engine failures."""


class UnitFailure(EngineError):
    """A work unit could not be completed (exception or repeated crashes)."""

    def __init__(self, unit: WorkUnit, reason: str):
        self.key = unit.key
        self.label = unit.describe()
        self.reason = reason
        super().__init__(f"work unit {self.label} failed: {reason}")


class PoolUnavailable(EngineError):
    """Worker processes cannot be created on this platform/configuration."""


class RunInterrupted(EngineError):
    """A stop request (SIGINT/SIGTERM drain) ended the run early.

    Everything settled before the interrupt was already delivered through
    ``on_result`` — and therefore journaled, when the session has a run
    journal — so the run can be resumed; ``abandoned`` names the in-flight
    unit keys given up on, ``pending`` counts units never dispatched.
    """

    def __init__(self, reason: str, *, settled: int = 0,
                 abandoned: "tuple[str, ...] | list[str]" = (), pending: int = 0):
        self.reason = reason
        self.settled = settled
        self.abandoned = tuple(abandoned)
        self.pending = pending
        super().__init__(
            f"run interrupted ({reason}): {settled} unit(s) settled, "
            f"{len(self.abandoned)} abandoned in flight, {pending} pending"
        )


def default_workers() -> int:
    """Default pool width: one per usable CPU, capped (parent merges
    serially).  Usable means the process's affinity mask where the
    platform has one, so ``taskset`` and cgroup CPU pinning are honoured."""
    if hasattr(os, "sched_getaffinity"):
        n_cpus = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - macOS / Windows
        n_cpus = os.cpu_count() or 1
    return max(1, min(n_cpus, 8))


def _worker_main(worker_id: int, task_q, result_q) -> None:
    """Worker loop: one unit at a time until the ``None`` sentinel."""
    if obs.enabled():
        # a forked worker inherits the parent's recorded series and spans;
        # drop them so drain() ships only this worker's own deltas
        obs.reset()
        obs.RECORDER.clear()
    # a fork inherits the parent's hook; a spawned worker installs its own
    with obs.watching_gc():
        while True:
            try:
                task = task_q.get()
            except (EOFError, OSError):  # parent went away / queue closed
                return
            if task is None:
                return
            key, kind, spec = task
            try:
                with collection_paused():
                    payload = execute(kind, spec)
                # piggyback this unit's metric/span delta on the result
                # tuple; drain() is None when observability is off, so the
                # common case ships no extra bytes over the queue
                result_q.put((worker_id, key, True, payload, obs.drain()))
            except BaseException:  # noqa: BLE001 - full traceback to the parent
                try:
                    result_q.put((worker_id, key, False,
                                  traceback.format_exc(limit=30), obs.drain()))
                except Exception:  # pragma: no cover - result queue gone
                    return


class SerialPool:
    """In-process execution with the pool interface (the degraded mode)."""

    n_workers = 1

    def __init__(self, events: "EventLog | None" = None,
                 should_stop: "Callable[[], bool] | None" = None):
        self.events = events if events is not None else EventLog()
        self.should_stop = should_stop

    def run(
        self,
        units: Iterable[WorkUnit],
        on_result: "Callable[[str, dict], None] | None" = None,
    ) -> dict[str, dict]:
        units = list(units)
        results: dict[str, dict] = {}
        for unit in units:
            if unit.key in results:
                continue
            if self.should_stop is not None and self.should_stop():
                pending = len({u.key for u in units} - results.keys())
                raise RunInterrupted("stop requested", settled=len(results),
                                     pending=pending)
            self.events.emit("unit_dispatched", key=unit.key,
                             label=unit.describe(), worker=-1, attempt=0)
            started = time.monotonic()
            try:
                with collection_paused():
                    payload = execute(unit.kind, unit.spec)
            except Exception as exc:
                # same report shape as the worker path: the full formatted
                # traceback, so a degraded (serial) run is equally debuggable
                raise UnitFailure(
                    unit, f"executor raised:\n{traceback.format_exc(limit=30)}"
                ) from exc
            results[unit.key] = payload
            _UNITS_DONE.inc(pool="serial")
            _UNIT_SECONDS.observe(time.monotonic() - started, pool="serial")
            self.events.emit("unit_done", key=unit.key, label=unit.describe(),
                             worker=-1,
                             seconds=round(time.monotonic() - started, 4))
            if on_result is not None:
                on_result(unit.key, payload)
        return results

    def close(self) -> None:
        pass


class _WorkerSlot:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("proc", "task_q", "unit", "deadline", "started")

    def __init__(self, proc, task_q):
        self.proc = proc
        self.task_q = task_q
        self.unit: "WorkUnit | None" = None  # the one in-flight unit
        self.deadline: "float | None" = None
        self.started: "float | None" = None  # dispatch time of that unit


class WorkerPool:
    """N worker processes with per-unit timeout and crash retry."""

    def __init__(
        self,
        n_workers: int,
        *,
        unit_timeout: "float | None" = 600.0,
        max_retries: int = 2,
        backoff: float = 0.25,
        max_backoff: float = 5.0,
        start_method: "str | None" = None,
        events: "EventLog | None" = None,
        should_stop: "Callable[[], bool] | None" = None,
        drain_grace: float = 10.0,
    ):
        if _mp is None:
            raise PoolUnavailable("multiprocessing is not importable")
        self.n_workers = max(1, int(n_workers))
        self.unit_timeout = unit_timeout
        self.max_retries = max(0, int(max_retries))
        self.backoff = backoff
        self.max_backoff = max(float(max_backoff), float(backoff))
        self.start_method = start_method
        self.should_stop = should_stop
        self.drain_grace = float(drain_grace)
        self.events = events if events is not None else EventLog()
        self._ctx = None
        self._result_q = None
        self._slots: dict[int, _WorkerSlot] = {}
        self._next_worker_id = 0

    # ── lifecycle ─────────────────────────────────────────────────────────

    def _start(self) -> None:
        method = self.start_method or os.environ.get("REPRO_ENGINE_START_METHOD")
        try:
            if method:
                self._ctx = _mp.get_context(method)
            elif "fork" in _mp.get_all_start_methods():
                # fork: cheap worker startup and parent-registered executors
                # are inherited; spawn re-imports only the built-ins.
                self._ctx = _mp.get_context("fork")
            else:  # pragma: no cover - non-fork platforms
                self._ctx = _mp.get_context()
            self._result_q = self._ctx.Queue()
            for _ in range(self.n_workers):
                self._spawn()
        except (OSError, ValueError, RuntimeError) as exc:
            self._teardown()
            raise PoolUnavailable(f"cannot start worker processes: {exc}") from exc

    def _spawn(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, task_q, self._result_q),
            name=f"repro-engine-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        self._slots[worker_id] = _WorkerSlot(proc, task_q)
        self.events.emit("worker_started", worker=worker_id, pid=proc.pid)
        return worker_id

    def _discard(self, worker_id: int) -> None:
        """Forget a dead worker's slot without respawning a replacement."""
        slot = self._slots.pop(worker_id, None)
        if slot is not None:
            try:
                slot.task_q.close()
                slot.task_q.cancel_join_thread()
            except (OSError, AttributeError):
                pass

    def _replace(self, worker_id: int) -> None:
        """Respawn a dead/killed worker (its slot is already forgotten)."""
        self._discard(worker_id)
        fresh = self._spawn()
        _RESPAWNS.inc()
        self.events.emit("worker_restarted", worker=fresh, replaces=worker_id)

    def close(self) -> None:
        """Shut workers down (sentinel, then SIGKILL stragglers)."""
        for slot in self._slots.values():
            try:
                slot.task_q.put(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + 2.0
        for slot in self._slots.values():
            slot.proc.join(max(0.0, deadline - time.monotonic()))
            if slot.proc.is_alive():
                slot.proc.kill()
                slot.proc.join(1.0)
            try:
                slot.task_q.close()
                slot.task_q.cancel_join_thread()
            except (OSError, AttributeError):
                pass
        if self._result_q is not None:
            try:
                self._result_q.close()
                self._result_q.cancel_join_thread()
            except (OSError, AttributeError):
                pass
        if self._slots or self._result_q is not None:
            self.events.emit("pool_closed", workers=len(self._slots))
        self._slots = {}
        self._result_q = None

    def _teardown(self) -> None:
        for slot in self._slots.values():
            if slot.proc.is_alive():
                slot.proc.kill()
        self._slots = {}
        self._result_q = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ── execution ─────────────────────────────────────────────────────────

    def run(
        self,
        units: Iterable[WorkUnit],
        on_result: "Callable[[str, dict], None] | None" = None,
    ) -> dict[str, dict]:
        """Execute all units; returns ``{key: payload}``.

        Raises :class:`UnitFailure` on an executor exception or when a
        unit exhausts its crash retries, and :class:`PoolUnavailable` if
        workers cannot be started at all (no units were run in that
        case, so the caller may rerun the same batch serially).
        """
        by_key: dict[str, WorkUnit] = {}
        for u in units:
            by_key.setdefault(u.key, u)
        if not by_key:
            return {}
        if self._result_q is None:
            self._start()
        else:
            # top up workers abandoned by an earlier drained/failed batch
            for _ in range(self.n_workers - len(self._slots)):
                self._spawn()

        ready: deque[str] = deque(by_key)
        delayed: list[tuple[float, str]] = []  # (eligible_at, key)
        attempts: dict[str, int] = {k: 0 for k in by_key}
        results: dict[str, dict] = {}
        draining = False
        drain_deadline = 0.0

        def settle(key: str, payload: dict) -> None:
            results[key] = payload
            if on_result is not None:
                on_result(key, payload)

        def crashed(worker_id: int, slot: _WorkerSlot, cause: str) -> None:
            unit = slot.unit
            self.events.emit(
                "worker_crashed", worker=worker_id, cause=cause,
                exitcode=slot.proc.exitcode,
                key=unit.key if unit else None,
                label=unit.describe() if unit else None,
            )
            if draining:
                # no respawn, no retry: the unit is abandoned and the drain
                # exit below reports it in RunInterrupted.abandoned
                self._discard(worker_id)
                return
            self._replace(worker_id)
            if unit is None or unit.key in results:
                return
            attempts[unit.key] += 1
            if attempts[unit.key] > self.max_retries:
                raise UnitFailure(
                    unit,
                    f"worker died {attempts[unit.key]} time(s) running it "
                    f"(last cause: {cause}); retry budget {self.max_retries} "
                    "exhausted",
                )
            # exponential backoff, capped so a flaky unit never waits
            # unboundedly between attempts
            delay = min(self.backoff * (2 ** (attempts[unit.key] - 1)),
                        self.max_backoff)
            delayed.append((time.monotonic() + delay, unit.key))
            _UNIT_RETRIES.inc()
            self.events.emit("unit_retry", key=unit.key, label=unit.describe(),
                             attempt=attempts[unit.key], delay_s=round(delay, 3))

        try:
            while len(results) < len(by_key):
                now = time.monotonic()
                _QUEUE_DEPTH.set(len(by_key) - len(results))
                if (not draining and self.should_stop is not None
                        and self.should_stop()):
                    # drain: dispatch nothing further, give in-flight units a
                    # grace window to settle, then abandon what remains
                    draining = True
                    drain_deadline = now + self.drain_grace
                    self.events.emit(
                        "drain_started",
                        in_flight=sum(1 for s in self._slots.values()
                                      if s.unit is not None),
                        pending=len(by_key) - len(results),
                        grace_s=self.drain_grace,
                    )
                if not draining:
                    # mature delayed retries back into the ready queue
                    still: list[tuple[float, str]] = []
                    for eligible_at, key in delayed:
                        if eligible_at <= now:
                            ready.append(key)
                        else:
                            still.append((eligible_at, key))
                    delayed = still
                    # hand a unit to every idle worker
                    for worker_id, slot in self._slots.items():
                        if slot.unit is not None:
                            continue
                        while ready:
                            key = ready.popleft()
                            if key not in results:  # skip late-settled duplicates
                                unit = by_key[key]
                                slot.unit = unit
                                slot.deadline = (
                                    now + self.unit_timeout
                                    if self.unit_timeout else None
                                )
                                slot.started = now
                                slot.task_q.put((unit.key, unit.kind, unit.spec))
                                self.events.emit(
                                    "unit_dispatched", key=key,
                                    label=unit.describe(),
                                    worker=worker_id, attempt=attempts[key],
                                )
                                break
                # collect one result (short timeout keeps the loop responsive)
                try:
                    worker_id, key, ok, payload, delta = self._result_q.get(
                        timeout=_POLL_S)
                except (queue_mod.Empty, EOFError, OSError):
                    pass
                else:
                    obs.merge_delta(delta, worker=worker_id)
                    seconds = None
                    slot = self._slots.get(worker_id)
                    if slot is not None and slot.unit is not None and slot.unit.key == key:
                        if slot.started is not None:
                            seconds = time.monotonic() - slot.started
                        slot.unit = None
                        slot.deadline = None
                        slot.started = None
                    if key in by_key and key not in results:
                        if ok:
                            settle(key, payload)
                            _UNITS_DONE.inc(pool="worker")
                            if seconds is not None:
                                _UNIT_SECONDS.observe(seconds, pool="worker")
                            self.events.emit("unit_done", key=key,
                                             label=by_key[key].describe(),
                                             worker=worker_id)
                        else:
                            raise UnitFailure(by_key[key],
                                              f"executor raised:\n{payload}")
                if draining:
                    in_flight = sorted(
                        s.unit.key for s in self._slots.values()
                        if s.unit is not None and s.unit.key not in results
                    )
                    if not in_flight or time.monotonic() > drain_deadline:
                        # a retry parked in the delayed queue is every bit as
                        # abandoned as an in-flight unit: it was dispatched,
                        # failed, and will never be retried now
                        parked = {k for _, k in delayed if k not in results}
                        abandoned = sorted(set(in_flight) | parked)
                        pending = len(by_key) - len(results) - len(abandoned)
                        raise RunInterrupted(
                            "stop requested", settled=len(results),
                            abandoned=abandoned, pending=pending,
                        )
                # detect dead workers and expired deadlines
                now = time.monotonic()
                for worker_id, slot in list(self._slots.items()):
                    if not slot.proc.is_alive():
                        crashed(worker_id, slot, "process died")
                    elif slot.deadline is not None and now > slot.deadline:
                        self.events.emit(
                            "unit_timeout", key=slot.unit.key,
                            label=slot.unit.describe(), worker=worker_id,
                            timeout_s=self.unit_timeout,
                        )
                        slot.proc.kill()
                        slot.proc.join(1.0)
                        crashed(worker_id, slot, "unit timeout")
        finally:
            # whatever path exits the loop — success, UnitFailure, a drain's
            # RunInterrupted — the pool must come back clean: no slot may
            # keep an abandoned unit (a reused pool would mis-see busy
            # workers) and the queue-depth gauge must not stick nonzero
            for slot in self._slots.values():
                slot.unit = None
                slot.deadline = None
                slot.started = None
            _QUEUE_DEPTH.set(0)
        return results

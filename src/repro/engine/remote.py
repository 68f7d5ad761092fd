"""Distributed unit execution: a coordinator/worker protocol over TCP.

The engine's :class:`~repro.engine.pool.WorkerPool` shards a run across
processes on *one* host.  This module shards it across *machines* while
keeping every durability and identity guarantee intact, because the unit
abstraction is already location-transparent: a
:class:`~repro.engine.units.WorkUnit` is content-hashed, pure, and
backend-tagged, so it does not matter *where* it executes — only that
its payload settles through the coordinator's write-ahead journal.

Roles
-----
* :class:`RemotePool` — the **coordinator**.  Same interface as
  ``WorkerPool``/``SerialPool`` (``run(units, on_result=...)``), so
  ``run --listen``, ``runall`` and pipeline ``resolve_units`` are
  backend-agnostic.  It binds a listening socket, hands **leases** to
  whichever workers connect, re-issues leases that expire or whose
  worker disconnects, and settles each unit **at most once** (first
  result wins; the journal write in ``on_result`` happens *before* the
  worker's acknowledgement frame, so a settled unit is durable before
  anyone is told about it).
* :func:`run_worker` — the **worker** loop behind ``repro worker
  --connect HOST:PORT``: lease a unit, execute it via the ordinary
  executor registry (:func:`repro.engine.units.execute`), stream the
  result plus this worker's :func:`repro.obs.drain` delta back, repeat.
  Workers are stateless and disposable: a SIGKILLed worker loses only
  its lease, which the coordinator re-issues elsewhere.

Protocol
--------
Length-prefixed JSON frames: a 4-byte big-endian length, then a UTF-8
JSON object.  A frame that ends mid-read (torn length or torn body) is a
*transport* failure — the peer treats the connection as dead and the
lease machinery recovers; it is never interpreted as data.  Unit specs
are arbitrary picklable tuples (they cross the one-host pool by pickle
too), so they travel base64-pickled inside the JSON frame.  **The
protocol therefore assumes trusted workers on a trusted network** —
exactly the same trust the multiprocess pool places in ``fork``.

Worker → coordinator requests (strict request/response):

==========  ============================================  =================
request     fields                                        replies
==========  ============================================  =================
``hello``   ``worker`` (name), ``pid``                    ``welcome``
``lease``   —                                             ``unit`` | ``idle`` | ``bye``
``result``  ``lease``, ``key``, ``ok``, ``payload`` /     ``ack`` (``settled``
            ``error``, ``obs``                            true/false)
==========  ============================================  =================

Durability invariants (the same ones the one-host chaos suite proves):

* every settled unit is journaled (via ``on_result``) **before** its
  ``ack`` frame is sent;
* settles are **at-most-once per key**: a late result for a lease that
  already expired and was re-issued — or a duplicated result frame — is
  acknowledged with ``settled: false`` and dropped
  (``duplicate_settle`` event);
* a lease past its deadline, or held by a disconnected worker, is
  re-issued with capped exponential backoff and a bounded attempt
  budget (``lease_expired`` events → :class:`UnitFailure` when
  exhausted, never a hang);
* a SIGKILLed **coordinator** resumes byte-identically from its journal
  exactly like any other interrupted run: workers keep reconnecting
  (``retry_for`` window) and the resumed run re-leases only what never
  settled.
"""

from __future__ import annotations

import base64
import importlib
import itertools
import json
import os
import pickle
import queue as queue_mod
import socket
import struct
import threading
import time
import traceback
from collections import deque
from typing import Callable, Iterable

from repro import obs
from repro.engine.events import EventLog
from repro.engine.pool import (
    PoolUnavailable,
    RunInterrupted,
    UnitFailure,
    _POLL_S,
    _QUEUE_DEPTH,
    _UNIT_RETRIES,
    _UNITS_DONE,
)
from repro.engine.units import WorkUnit, collection_paused, execute
from repro.util.logging import get_logger

__all__ = [
    "ProtocolError",
    "RemotePool",
    "run_worker",
    "parse_hostport",
    "send_frame",
    "recv_frame",
    "encode_spec",
    "decode_spec",
]

log = get_logger("engine")

#: frames larger than this are a protocol violation, not data
_MAX_FRAME = 64 * 1024 * 1024

_REMOTE_SETTLES = obs.counter("engine_remote_settles_total",
                              "units settled over the remote protocol",
                              labels=("outcome",))
_LEASES = obs.counter("engine_remote_leases_total", "leases issued")
_WORKERS_CONNECTED = obs.gauge("engine_remote_workers",
                               "remote workers currently connected")


class ProtocolError(ConnectionError):
    """The peer sent bytes that are not a valid frame."""


# ── framing ────────────────────────────────────────────────────────────────


def parse_hostport(address: str) -> "tuple[str, int]":
    """``"HOST:PORT"`` → ``(host, port)`` (host defaults to all interfaces
    when omitted: ``":7077"``)."""
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"invalid address {address!r}: expected HOST:PORT")
    return (host or "0.0.0.0", int(port))


def _recv_exact(sock: socket.socket, n: int) -> "bytes | None":
    """Exactly ``n`` bytes, ``None`` on a clean EOF *before* any byte, and
    :class:`ProtocolError` on EOF mid-read (a torn frame)."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if not buf:
                return None
            raise ProtocolError(f"torn frame: EOF after {len(buf)}/{n} bytes")
        buf.extend(chunk)
    return bytes(buf)


def send_frame(sock: socket.socket, message: dict) -> None:
    """One length-prefixed JSON frame (a single ``sendall``)."""
    body = json.dumps(message, separators=(",", ":"), default=str).encode()
    if len(body) > _MAX_FRAME:
        raise ProtocolError(f"frame too large ({len(body)} bytes)")
    sock.sendall(struct.pack(">I", len(body)) + body)


def recv_frame(sock: socket.socket) -> "dict | None":
    """One frame, ``None`` on clean EOF between frames, raises
    :class:`ProtocolError` on a torn or malformed frame."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > _MAX_FRAME:
        raise ProtocolError(f"frame length {length} exceeds the {_MAX_FRAME} cap")
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("torn frame: EOF before the body")
    try:
        message = json.loads(body)
    except ValueError as exc:
        raise ProtocolError(f"frame is not JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("frame is not a JSON object")
    return message


def encode_spec(spec: tuple) -> str:
    """A unit spec as transportable text (specs are picklable, the same
    contract the one-host pool's task queue relies on)."""
    return base64.b64encode(pickle.dumps(spec)).decode("ascii")


def decode_spec(blob: str) -> tuple:
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


# ── coordinator ────────────────────────────────────────────────────────────


class _Lease:
    """One outstanding unit → worker assignment."""

    __slots__ = ("lease_id", "key", "worker", "conn_id", "deadline")

    def __init__(self, lease_id: int, key: str, worker: str, conn_id: int,
                 deadline: float):
        self.lease_id = lease_id
        self.key = key
        self.worker = worker
        self.conn_id = conn_id
        self.deadline = deadline


class _Batch:
    """Shared state for one ``run()`` call (guarded by the pool lock)."""

    def __init__(self, by_key: "dict[str, WorkUnit]"):
        self.by_key = by_key
        self.ready: deque[str] = deque(by_key)
        self.delayed: "list[tuple[float, str]]" = []  # (eligible_at, key)
        self.attempts: dict[str, int] = {k: 0 for k in by_key}
        self.leases: dict[int, _Lease] = {}
        self.settled: set[str] = set()
        self.inbox: "queue_mod.Queue" = queue_mod.Queue()
        self.draining = False


class RemotePool:
    """Coordinator: leases units to remote workers over TCP.

    Pool-interface compatible with :class:`~repro.engine.pool.WorkerPool`
    (``run``/``close``/``events``/``should_stop``), so
    :class:`~repro.engine.scheduler.EngineSession` can swap it in
    transparently.  The listener binds at construction time, so workers
    may connect before the first batch; between batches they receive
    ``idle`` replies and keep polling.

    ``worker_timeout`` bounds the wait for the *first* worker: when no
    worker has ever connected within that many seconds of a batch
    starting, :class:`PoolUnavailable` is raised — which the session
    turns into the usual graceful serial degradation.
    """

    def __init__(
        self,
        listen: str = "127.0.0.1:0",
        *,
        lease_timeout: "float | None" = 600.0,
        max_retries: int = 2,
        backoff: float = 0.25,
        max_backoff: float = 5.0,
        events: "EventLog | None" = None,
        should_stop: "Callable[[], bool] | None" = None,
        drain_grace: float = 10.0,
        worker_timeout: "float | None" = None,
    ):
        self.lease_timeout = lease_timeout
        self.max_retries = max(0, int(max_retries))
        self.backoff = backoff
        self.max_backoff = max(float(max_backoff), float(backoff))
        self.should_stop = should_stop
        self.drain_grace = float(drain_grace)
        self.worker_timeout = worker_timeout
        self.events = events if events is not None else EventLog()
        self._lock = threading.Lock()
        self._events_lock = threading.Lock()
        self._batch: "_Batch | None" = None
        self._closed = False
        self._ever_connected = threading.Event()
        self._workers: dict[int, str] = {}  # conn_id -> worker name
        self._conns: dict[int, socket.socket] = {}
        self._lease_ids = itertools.count(1)
        self._conn_ids = itertools.count(1)
        host, port = parse_hostport(listen)
        try:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen(64)
        except OSError as exc:
            raise PoolUnavailable(
                f"cannot bind coordinator on {listen}: {exc}") from exc
        bound_host, bound_port = self._listener.getsockname()[:2]
        #: the actual bound address as ``"HOST:PORT"`` (port 0 resolves here)
        self.address: str = f"{bound_host}:{bound_port}"
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-remote-accept", daemon=True)
        self._accept_thread.start()
        self._emit("coordinator_listening", host=bound_host, port=bound_port)

    @property
    def n_workers(self) -> int:
        """Currently connected workers (at least 1, for ETA arithmetic)."""
        return max(1, len(self._workers))

    def _emit(self, kind: str, **data) -> None:
        # connection threads and the run loop share one EventLog; serialise
        with self._events_lock:
            self.events.emit(kind, **data)

    # ── connection handling (one thread per worker) ───────────────────────

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:  # listener closed: shutdown
                return
            conn_id = next(self._conn_ids)
            threading.Thread(
                target=self._serve_connection, args=(conn, conn_id),
                name=f"repro-remote-conn-{conn_id}", daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket, conn_id: int) -> None:
        worker = f"conn-{conn_id}"
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                message = recv_frame(conn)
                if message is None:
                    return
                op = message.get("op")
                if op == "hello":
                    worker = str(message.get("worker") or worker)
                    self._workers[conn_id] = worker
                    self._conns[conn_id] = conn
                    self._ever_connected.set()
                    _WORKERS_CONNECTED.set(len(self._workers))
                    self._emit("worker_connected", worker=worker,
                               pid=message.get("pid"))
                    send_frame(conn, {"op": "welcome",
                                      "lease_timeout": self.lease_timeout})
                elif op == "lease":
                    send_frame(conn, self._grant_lease(worker, conn_id))
                elif op == "result":
                    send_frame(conn, self._accept_result(worker, message))
                else:
                    raise ProtocolError(f"unknown op {op!r}")
        except (ProtocolError, ConnectionError, OSError, ValueError) as exc:
            if not self._closed:
                self._emit("worker_disconnected", worker=worker,
                           error=f"{type(exc).__name__}: {exc}")
        finally:
            released = self._release_worker(conn_id)
            if released and not self._closed:
                # expire this worker's leases *now*; the run loop re-issues
                self._emit("leases_released", worker=worker, keys=released)
            _WORKERS_CONNECTED.set(len(self._workers))
            try:
                conn.close()
            except OSError:
                pass

    def _grant_lease(self, worker: str, conn_id: int) -> dict:
        with self._lock:
            if self._closed:
                return {"op": "bye"}
            batch = self._batch
            if batch is None or batch.draining:
                return {"op": "idle", "retry_s": 0.2}
            key = None
            while batch.ready:
                candidate = batch.ready.popleft()
                if candidate not in batch.settled:
                    key = candidate
                    break
            if key is None:
                return {"op": "idle", "retry_s": 0.1}
            unit = batch.by_key[key]
            lease_id = next(self._lease_ids)
            deadline = (time.monotonic() + self.lease_timeout
                        if self.lease_timeout else float("inf"))
            batch.leases[lease_id] = _Lease(lease_id, key, worker, conn_id,
                                            deadline)
        _LEASES.inc()
        self._emit("lease_issued", key=key, label=unit.describe(),
                   worker=worker, lease=lease_id,
                   attempt=batch.attempts.get(key, 0))
        return {"op": "unit", "lease": lease_id, "key": key,
                "kind": unit.kind, "spec": encode_spec(unit.spec),
                "label": unit.describe()}

    def _accept_result(self, worker: str, message: dict) -> dict:
        """Queue a result for the run loop and wait for the settle verdict.

        The reply — the worker's acknowledgement — is only produced after
        the run loop has run ``on_result`` (journal write included) or
        rejected the result, which is what makes every ack mean
        *durable*."""
        with self._lock:
            batch = self._batch
        if batch is None:
            return {"op": "ack", "settled": False}
        box = {"done": threading.Event(), "settled": False}
        batch.inbox.put((box, worker, message))
        # generous bound: the run loop settles in micro-seconds unless it
        # is tearing down, in which case the unit simply re-runs later
        box["done"].wait(timeout=60.0)
        return {"op": "ack", "settled": box["settled"]}

    def _release_worker(self, conn_id: int) -> "list[str]":
        """Expire every lease a (dead) connection holds; returns the keys."""
        self._workers.pop(conn_id, None)
        self._conns.pop(conn_id, None)
        released: list[str] = []
        with self._lock:
            batch = self._batch
            if batch is None:
                return released
            for lease in batch.leases.values():
                if lease.conn_id == conn_id and lease.deadline != 0.0:
                    lease.deadline = 0.0  # the run loop's expiry scan reissues
                    released.append(lease.key)
        return released

    # ── the run loop (the caller's thread) ────────────────────────────────

    def run(
        self,
        units: Iterable[WorkUnit],
        on_result: "Callable[[str, dict], None] | None" = None,
    ) -> dict[str, dict]:
        """Execute all units on whatever workers connect; ``{key: payload}``.

        Raises :class:`UnitFailure` on an executor exception or an
        exhausted lease budget, :class:`RunInterrupted` on a drain, and
        :class:`PoolUnavailable` when ``worker_timeout`` elapses with no
        worker ever connected (nothing ran: safe to degrade serially).
        """
        by_key: dict[str, WorkUnit] = {}
        for u in units:
            by_key.setdefault(u.key, u)
        if not by_key:
            return {}
        if self._closed:
            raise PoolUnavailable("remote pool is closed")
        batch = _Batch(by_key)
        with self._lock:
            self._batch = batch
        results: dict[str, dict] = {}
        draining = False
        drain_deadline = 0.0
        batch_started = time.monotonic()

        try:
            while len(results) < len(by_key):
                now = time.monotonic()
                _QUEUE_DEPTH.set(len(by_key) - len(results))
                if (not draining and self.should_stop is not None
                        and self.should_stop()):
                    draining = True
                    drain_deadline = now + self.drain_grace
                    with self._lock:
                        batch.draining = True
                        in_flight = len(batch.leases)
                    self._emit("drain_started", in_flight=in_flight,
                               pending=len(by_key) - len(results),
                               grace_s=self.drain_grace)
                if not draining:
                    with self._lock:
                        still: "list[tuple[float, str]]" = []
                        for eligible_at, key in batch.delayed:
                            if eligible_at <= now:
                                batch.ready.append(key)
                            else:
                                still.append((eligible_at, key))
                        batch.delayed = still
                if (self.worker_timeout is not None
                        and not self._ever_connected.is_set()
                        and not results
                        and now - batch_started > self.worker_timeout):
                    raise PoolUnavailable(
                        f"no remote worker connected within "
                        f"{self.worker_timeout:g}s of the batch starting")
                # settle at most one result per iteration (keeps the expiry
                # and drain checks responsive)
                try:
                    box, worker, message = batch.inbox.get(timeout=_POLL_S)
                except queue_mod.Empty:
                    pass
                else:
                    self._settle(batch, results, by_key, on_result,
                                 box, worker, message)
                # lease expiry → re-issue with backoff, bounded attempts
                now = time.monotonic()
                expired: list[_Lease] = []
                with self._lock:
                    for lease_id in [lid for lid, l in batch.leases.items()
                                     if l.deadline <= now]:
                        expired.append(batch.leases.pop(lease_id))
                for lease in expired:
                    if lease.key in results:
                        continue
                    batch.attempts[lease.key] += 1
                    attempt = batch.attempts[lease.key]
                    unit = by_key[lease.key]
                    self._emit("lease_expired", key=lease.key,
                               label=unit.describe(), worker=lease.worker,
                               attempt=attempt)
                    if attempt > self.max_retries:
                        raise UnitFailure(
                            unit,
                            f"lease expired {attempt} time(s) (last worker: "
                            f"{lease.worker}); retry budget "
                            f"{self.max_retries} exhausted",
                        )
                    delay = min(self.backoff * (2 ** (attempt - 1)),
                                self.max_backoff)
                    _UNIT_RETRIES.inc()
                    with self._lock:
                        if draining:
                            batch.delayed.append((float("inf"), lease.key))
                        else:
                            batch.delayed.append((now + delay, lease.key))
                    self._emit("unit_retry", key=lease.key,
                               label=unit.describe(), attempt=attempt,
                               delay_s=round(delay, 3))
                if draining:
                    with self._lock:
                        leased = sorted({l.key for l in batch.leases.values()
                                         if l.key not in results})
                        parked = sorted({k for _, k in batch.delayed
                                         if k not in results})
                    if not leased or time.monotonic() > drain_deadline:
                        abandoned = sorted(set(leased) | set(parked))
                        pending = len(by_key) - len(results) - len(abandoned)
                        raise RunInterrupted(
                            "stop requested", settled=len(results),
                            abandoned=abandoned, pending=pending,
                        )
        finally:
            with self._lock:
                self._batch = None
            # unblock any connection thread still parked on the inbox
            while True:
                try:
                    box, _worker, _message = batch.inbox.get_nowait()
                except queue_mod.Empty:
                    break
                box["settled"] = False
                box["done"].set()
            _QUEUE_DEPTH.set(0)
        return results

    def _settle(self, batch: _Batch, results: dict, by_key: dict,
                on_result, box: dict, worker: str, message: dict) -> None:
        """Process one result frame (in the run-loop thread).

        Order matters: ``on_result`` — which journals — runs before
        ``box["done"].set()`` releases the worker's ack."""
        key = message.get("key")
        lease_id = message.get("lease")
        with self._lock:
            lease = batch.leases.pop(lease_id, None)
        obs.merge_delta(message.get("obs"), worker=worker)
        if key not in by_key or key in results:
            _REMOTE_SETTLES.inc(outcome="duplicate")
            self._emit("duplicate_settle", key=key, worker=worker,
                       lease=lease_id, stale=lease is None)
            box["settled"] = False
            box["done"].set()
            return
        if not message.get("ok"):
            box["settled"] = False
            box["done"].set()
            raise UnitFailure(
                by_key[key],
                f"executor raised on worker {worker}:\n"
                f"{message.get('error', '(no traceback)')}",
            )
        payload = message.get("payload")
        if not isinstance(payload, dict):
            box["settled"] = False
            box["done"].set()
            raise UnitFailure(by_key[key],
                              f"worker {worker} sent a non-dict payload")
        results[key] = payload
        if on_result is not None:
            on_result(key, payload)  # write-ahead: journal before the ack
        with self._lock:
            batch.settled.add(key)
        _UNITS_DONE.inc(pool="remote")
        _REMOTE_SETTLES.inc(outcome="settled")
        box["settled"] = True
        box["done"].set()
        self._emit("unit_done", key=key, label=by_key[key].describe(),
                   worker=worker)

    # ── lifecycle ─────────────────────────────────────────────────────────

    def close(self) -> None:
        """Stop accepting, drop connections; connected workers see EOF and
        exit once their reconnect window (``--retry-for``) runs dry."""
        if self._closed:
            return
        self._closed = True
        try:
            self._listener.close()
        except OSError:
            pass
        for conn in list(self._conns.values()):
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=2.0)
        self._emit("pool_closed", workers=len(self._workers))
        self._workers.clear()
        self._conns.clear()

    def __enter__(self) -> "RemotePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ── worker ─────────────────────────────────────────────────────────────────


def run_worker(
    connect: str,
    *,
    name: "str | None" = None,
    retry_for: float = 30.0,
    idle_poll: float = 0.2,
    imports: "Iterable[str]" = (),
    max_units: "int | None" = None,
    net_chaos=None,
) -> int:
    """The worker loop behind ``repro worker --connect HOST:PORT``.

    Connects (and *re*-connects — a restarted coordinator is picked up
    transparently, which is what lets a resumed run reuse live workers),
    leases units, executes them with the ordinary executor registry and
    streams results + :func:`repro.obs.drain` deltas back.  Exits 0 when
    the coordinator says ``bye`` or when ``retry_for`` seconds pass
    without a successful connect *or* a granted lease — so idle workers
    wind down on their own after a run ends.

    ``imports`` names modules to import first (their import side effects
    register extra executor kinds — e.g. ``repro.engine.chaos``).
    ``net_chaos`` is a :class:`repro.engine.chaos.NetChaos` plan used by
    the fault-injection suite to drop, duplicate, delay or tear result
    frames deterministically.
    """
    host, port = parse_hostport(connect)
    for module in imports:
        importlib.import_module(module)
    worker_name = name or f"{socket.gethostname()}-{os.getpid()}"
    executed = 0
    result_index = 0
    sock: "socket.socket | None" = None
    deadline = time.monotonic() + retry_for

    def _drop_connection() -> None:
        nonlocal sock
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
            sock = None

    try:
        while True:
            if sock is None:
                if time.monotonic() > deadline:
                    log.info("worker %s: no coordinator within %.0fs; exiting",
                             worker_name, retry_for)
                    return 0
                try:
                    sock = socket.create_connection((host, port), timeout=5.0)
                    sock.settimeout(None)
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    send_frame(sock, {"op": "hello", "worker": worker_name,
                                      "pid": os.getpid()})
                    welcome = recv_frame(sock)
                    if welcome is None or welcome.get("op") != "welcome":
                        raise ProtocolError("coordinator did not welcome us")
                    deadline = time.monotonic() + retry_for
                    log.info("worker %s: connected to %s:%d",
                             worker_name, host, port)
                except (OSError, ConnectionError):
                    _drop_connection()
                    time.sleep(min(1.0, max(idle_poll, 0.05)))
                    continue
            try:
                send_frame(sock, {"op": "lease"})
                reply = recv_frame(sock)
            except (OSError, ConnectionError):
                _drop_connection()
                continue
            if reply is None:
                _drop_connection()
                continue
            op = reply.get("op")
            if op == "bye":
                return 0
            if op == "idle":
                if time.monotonic() > deadline:
                    return 0
                time.sleep(float(reply.get("retry_s", idle_poll)))
                continue
            if op != "unit":
                _drop_connection()
                continue
            key = reply["key"]
            try:
                with collection_paused():
                    payload = execute(reply["kind"], decode_spec(reply["spec"]))
                result = {"op": "result", "lease": reply["lease"], "key": key,
                          "ok": True, "payload": payload}
            except BaseException:  # noqa: BLE001 - traceback to coordinator
                result = {"op": "result", "lease": reply["lease"], "key": key,
                          "ok": False, "error": traceback.format_exc(limit=30)}
            delta = obs.drain()
            if delta is not None:
                result["obs"] = delta
            action, delay = (net_chaos.plan(result_index) if net_chaos
                             else ("send", 0.0))
            result_index += 1
            if delay:
                time.sleep(delay)
            if action == "drop":
                continue  # the lease expires; the coordinator re-issues
            try:
                if action == "torn":
                    body = json.dumps(result, separators=(",", ":"),
                                      default=str).encode()
                    blob = struct.pack(">I", len(body)) + body
                    sock.sendall(blob[: max(5, len(blob) // 2)])
                    _drop_connection()
                    continue
                send_frame(sock, result)
                recv_frame(sock)  # the ack: sent only after the settle
                if action == "duplicate":
                    send_frame(sock, result)
                    recv_frame(sock)  # acked with settled=false
            except (OSError, ConnectionError):
                _drop_connection()
                continue
            executed += 1
            deadline = time.monotonic() + retry_for
            if max_units is not None and executed >= max_units:
                return 0
    finally:
        _drop_connection()

"""Process and HTTP plumbing for the benchmark: the per-run context,
timed child commands, a spawned ``repro serve``, and the closed-loop
client."""

from __future__ import annotations

import http.client
import itertools
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
from oracle import digest

#: pool workers and client connections: the 2-CPU host the benchmark targets
PARALLEL = 2
CONNECTIONS = 2


@dataclass
class Completed:
    """One finished child command."""

    returncode: int
    started: float  # epoch seconds at spawn
    wall_s: float
    maxrss_mb: float  # the largest RSS of the child and its reaped children
    stdout: str
    stderr: str
    factor: float = 1.0  # host speed around the command, see host_factor

    @property
    def norm_s(self) -> float:
        """The wall time in reference-host seconds."""
        return self.wall_s * self.factor


def run_command(argv: "list[str]", *, env: dict, cwd: Path,
                log_stem: Path) -> Completed:
    """Run ``argv`` to completion; time it from spawn to exit.

    Output goes to ``<log_stem>.out`` / ``.err`` files rather than pipes so
    the child never blocks on a full pipe while it is being timed.
    ``os.wait4`` reports the peak RSS over the child and every descendant
    it waited for (the engine's pool workers).
    """
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started, t0 = time.time(), time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Completed(proc.returncode, started, wall, usage.ru_maxrss / 1024.0,
                     out_path.read_text(errors="replace"),
                     err_path.read_text(errors="replace"))


#: the probe's median duration on the host the benchmark was defined on
#: (2-CPU Xeon, Python 3.11), and how often it runs on each CPU per probe
PROBE_REF_S = 0.022
PROBE_REPS = 5


def _spin() -> int:
    total = 0
    for i in range(300_000):
        total += i * i
    return total


def host_factor() -> float:
    """How fast the host runs a fixed pure-Python probe right now, as the
    ratio of :data:`PROBE_REF_S` to the probe's median duration, taken
    :data:`PROBE_REPS` times on each CPU this process may use.

    The hosts this benchmark runs on drift in speed by up to a fifth over
    seconds to minutes, each CPU on its own, and the drift moves every
    timing taken meanwhile.  End-to-end times are therefore reported in
    reference-host seconds: each measured time is multiplied by the mean of
    the factors probed just before and just after it.  The probe is the
    benchmark's own code, so a change to the program cannot move it.
    """
    cpus = os.sched_getaffinity(0)
    durations = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            for _ in range(PROBE_REPS):
                t0 = time.perf_counter()
                _spin()
                durations.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return PROBE_REF_S / median(durations)


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


# ── repro serve ────────────────────────────────────────────────────────────

_LISTENING = re.compile(rb"listening on http://[^:\s]+:(\d+)")
#: seconds a spawned server may take to report its port and turn healthy
_SPAWN_TIMEOUT_S = 60.0


class Server:
    """``python -m repro serve`` on an ephemeral port.

    ``setup_s`` is the time from spawn to the first ``/healthz`` 200.
    """

    def __init__(self, *, env: dict, cwd: Path, log_path: Path):
        self.host = "127.0.0.1"
        self.port = 0
        self.factor = 1.0  # host speed around the spawn, see host_factor
        self._log = open(log_path, "wb")
        t0 = time.perf_counter()
        deadline = t0 + _SPAWN_TIMEOUT_S
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", self.host,
             "--port", "0"],
            env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=self._log)
        try:
            self.port = self._read_port(deadline)
            self._await_healthy(deadline)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    @property
    def setup_norm_s(self) -> float:
        """The set-up time in reference-host seconds."""
        return self.setup_s * self.factor

    def _read_port(self, deadline: float) -> int:
        buf = b""
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.1)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buf += chunk
                m = _LISTENING.search(buf)
                if m:
                    return int(m.group(1))
        raise RuntimeError(f"repro serve did not report its port: {buf!r}")

    def _await_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited ({self.proc.returncode})")
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                time.sleep(0.01)
            finally:
                conn.close()
        raise RuntimeError("repro serve was not healthy in time")

    def get(self, path: str) -> "tuple[int, bytes]":
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """The server's RSS high-water mark (``VmHWM``) so far."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kb = re.search(r"^VmHWM:\s+(\d+)\s+kB", status, re.M)
        return int(kb.group(1)) / 1024.0

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then SIGKILL; always waits."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass
class Sample:
    """One request as the client saw it."""

    index: int
    start: float
    end: float
    status: int  # 0 when the connection failed
    body_digest: str
    body: "bytes | None" = None  # kept for healthz, whose shape is checked

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1e3


def closed_loop(host: str, port: int, source, *, connections: int,
                deadline: "float | None" = None) -> "list[Sample]":
    """Send requests over ``connections`` keep-alive connections, each
    sending its next request only when the previous reply has arrived.

    ``source`` yields ``(index, request)`` pairs and may be shared by
    successive calls; bound one call with ``itertools.islice``, which
    takes nothing past its stop.  Stops at ``deadline`` (a
    ``perf_counter`` time) or when ``source`` runs out.  Samples come back
    in stream order.
    """
    lock = threading.Lock()
    samples: "list[Sample]" = []

    def take():
        with lock:
            if deadline is not None and time.perf_counter() >= deadline:
                return None
            return next(source, None)

    def worker():
        conn = http.client.HTTPConnection(host, port, timeout=60)
        mine = []
        try:
            while (item := take()) is not None:
                index, req = item
                headers = {"Content-Type": "application/json"} if req.body else {}
                t0 = time.perf_counter()
                try:
                    conn.request(req.method, req.target(), body=req.body or None,
                                 headers=headers)
                    resp = conn.getresponse()
                    body = resp.read()
                    t1 = time.perf_counter()
                    mine.append(Sample(index, t0, t1, resp.status, digest(body),
                                       body if req.endpoint == "healthz" else None))
                except (OSError, http.client.HTTPException):
                    mine.append(Sample(index, t0, time.perf_counter(), 0, ""))
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=60)
        finally:
            conn.close()
            with lock:
                samples.extend(mine)

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return sorted(samples, key=lambda s: s.index)


class Bench:
    """One benchmark run: its work directory, the children's environment,
    and the tally of attempted and failed operations."""

    def __init__(self, root: Path, work: Path, reference: "dict | None"):
        self.work = work
        self.reference = reference
        self.sweeps, self.runs = work / "sweeps", work / "runs"
        self.reports, self.serve_cache = work / "reports", work / "serve-sweeps"
        (work / "logs").mkdir(parents=True)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env = {**env, "PYTHONPATH": str(root / "src"),
                    "REPRO_SWEEP_CACHE_DIR": str(self.sweeps),
                    "REPRO_RUNS_DIR": str(self.runs)}
        self.serve_env = {**self.env, "REPRO_SWEEP_CACHE_DIR": str(self.serve_cache)}
        self.attempted = 0
        self.failed = 0
        self.factors: "list[float]" = []
        self._probed_at = float("-inf")
        self._seq = itertools.count()

    def record(self, what: str, problems: "list[str]") -> bool:
        """Count one operation; it failed when ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {what}: {p}", file=sys.stderr)
        return not problems

    def _log(self, tag: str) -> Path:
        return self.work / "logs" / f"{next(self._seq):03d}-{tag}"

    def probe(self, *, reuse: bool = False) -> float:
        """Probe the host speed now (see :func:`host_factor`); with
        ``reuse``, a probe finished under half a second ago stands in, so
        back-to-back commands share the probe between them."""
        if not (reuse and time.perf_counter() - self._probed_at < 0.5):
            self.factors.append(host_factor())
            self._probed_at = time.perf_counter()
        return self.factors[-1]

    def command(self, tag: str, argv: "list[str]") -> Completed:
        """Run one child command, probing the host speed around it."""
        before = self.probe(reuse=True)
        done = run_command(argv, env=self.env, cwd=self.work, log_stem=self._log(tag))
        done.factor = (before + self.probe()) / 2
        return done

    def reset_caches(self) -> None:
        for d in (self.sweeps, self.runs):
            shutil.rmtree(d, ignore_errors=True)

    def runall(self, tag: str, argv: "list[str] | None" = None) -> Completed:
        """One ``repro runall`` (or a replica of it), checked."""
        shutil.rmtree(self.reports, ignore_errors=True)
        if argv is None:
            argv = [sys.executable, "-m", "repro", "runall",
                    "--parallel", str(PARALLEL), "--json", str(self.reports)]
        done = self.command(tag, argv)
        problems = [] if done.returncode == 0 else [f"exit code {done.returncode}"]
        problems += oracle.check_stdout(self.reference, done.stdout)
        problems += oracle.check_reports(self.reference, self.reports)
        self.record(tag, problems)
        return done

    def check_unit_payloads(self) -> None:
        """Compare every declared unit's payload, as the last cold pass
        left it in the sweep cache, with the reference."""
        self.record("unit payloads", oracle.check_units(
            self.reference, oracle.unit_payload_digests(self.sweeps)))

    def spawn_server(self) -> Server:
        """A ``repro serve`` on an empty sweep cache."""
        shutil.rmtree(self.serve_cache, ignore_errors=True)
        before = self.probe(reuse=True)
        server = Server(env=self.serve_env, cwd=self.work,
                        log_path=self._log("serve").with_suffix(".err"))
        server.factor = (before + self.probe()) / 2
        return server

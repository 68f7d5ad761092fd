#!/usr/bin/env python3
"""The repository benchmark: ``repro runall`` cold and warm, and ``repro serve``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload runall-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --record-reference

Workloads (``BENCHMARK.json`` says why each was chosen):

* ``runall-cold`` — ``repro runall --parallel 2 --json DIR`` on empty
  sweep-cache and runs directories, each followed by one rerun on the
  caches it filled;
* ``runall-warm`` — the same command on caches filled by priming runs;
* ``serve-mixed`` — a spawned ``repro serve`` under a closed loop of two
  keep-alive connections fed by the seeded stream of :mod:`stream`.

Every metric is printed as ``name value unit``; the last line is the JSON
result.  An *operation* is one command on the ``runall`` workloads and one
query on ``serve-mixed``; ``wall_s`` is one command, or one block of
:data:`BLOCK` consecutive queries.  ``--trace 1`` runs the per-layer
profile of :mod:`layers` instead and writes its spans to
``.perfbench-work/trace-<workload>-seed<seed>.jsonl`` (read it with
``repro stats``).  ``perfbench/README.md`` defines every metric.

Outputs are checked against ``perfbench/reference.json`` (reports, stdout
and unit payloads, see :mod:`oracle`) and, for ``serve``, against the
answers of an in-process ``ServeApp``.  ``--record-reference`` rewrites
the reference from a cold run of the current code.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys
import time
from pathlib import Path

import oracle
from harness import CONNECTIONS, PARALLEL, Bench, closed_loop, median
from stream import request_stream

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("runall-cold", "runall-warm", "serve-mixed")
#: set-up is repeated this often per run and reported as a median; a
#: priming run takes longer than a spawn, so it is repeated less
SETUP_REPS = 5
PRIMING_REPS = 3
#: serve queries per ``wall_s`` block
BLOCK = 200
#: the serve load runs in slices this long, probing host speed between them
SLICE_S = 2.0
#: the server's memory high-water mark is read once this many queries are
#: answered: the pipeline memo grows with every fresh key, so a fixed query
#: count keeps runs on a slow host comparable with runs on a fast one
RSS_QUERIES = 10_000


def runall_metrics(main: list, cold: list, warm: list, setup: list,
                   rss: list) -> dict:
    """End-to-end metrics of a runall workload from reference-host seconds;
    ``main`` holds the times of its measured commands."""
    return {
        "setup_s": median(setup),
        "peak_rss_mb": max(rss),
        "wall_s": median(main),
        "qps": len(main) / sum(main),
        "latency_p50_ms": median(main) * 1e3,
        "repeat_latency_p50_ms": median(warm) * 1e3,
        "fresh_latency_p50_ms": median(cold) * 1e3,
    }


def runall_cold(bench: Bench, seed: int, seconds: int) -> dict:
    """Set-up is CLI start-up (``repro list``, which also leaves the
    bytecode compiled); each cycle is a cold command plus a warm rerun."""
    setup = []
    for _ in range(SETUP_REPS):
        done = bench.command("list", [sys.executable, "-m", "repro", "list"])
        bench.record("repro list", [] if done.returncode == 0 else
                     [f"exit code {done.returncode}"])
        setup.append(done.norm_s)
    cold, warm, rss = [], [], []
    end = time.perf_counter() + seconds
    while True:
        bench.reset_caches()
        done = bench.runall("cold runall")
        cold.append(done.norm_s)
        rss.append(done.maxrss_mb)
        if len(cold) == 1:
            bench.check_unit_payloads()
        done = bench.runall("warm rerun")
        warm.append(done.norm_s)
        rss.append(done.maxrss_mb)
        if time.perf_counter() >= end:
            break
    return runall_metrics(cold, cold, warm, setup, rss)


def runall_warm(bench: Bench, seed: int, seconds: int) -> dict:
    """Set-up is a priming cold run on emptied caches, repeated."""
    setup, cold, warm, rss = [], [], [], []
    for _ in range(PRIMING_REPS):
        bench.reset_caches()
        done = bench.runall("priming runall")
        setup.append(done.norm_s)
        cold.append(done.norm_s)
        rss.append(done.maxrss_mb)
        if len(cold) == 1:
            bench.check_unit_payloads()
    end = time.perf_counter() + seconds
    while True:
        done = bench.runall("warm runall")
        warm.append(done.norm_s)
        rss.append(done.maxrss_mb)
        if time.perf_counter() >= end:
            break
    return runall_metrics(warm, cold, warm, setup, rss)


def _span_s(samples) -> float:
    """Seconds from the first request sent to the last answer received."""
    return max(s.end for s in samples) - min(s.start for s in samples)


def serve_mixed(bench: Bench, seed: int, seconds: int) -> dict:
    """Set-up is spawn to first ``/healthz`` 200, repeated; the last
    server takes the load in slices of :data:`SLICE_S` seconds, with a
    host-speed probe between them.  Each metric is the median over slices
    of that slice's value, so a burst of host noise moves one slice only."""
    setup = []
    for i in range(SETUP_REPS):
        server = bench.spawn_server()
        setup.append(server.setup_norm_s)
        if i < SETUP_REPS - 1:
            server.stop()
    source = enumerate(request_stream(seed))
    slices = []  # (samples, host factor)
    sent, rss = 0, None
    with server:
        end = time.perf_counter() + seconds
        before = bench.probe()
        while time.perf_counter() < end:
            # the slice that reaches the mark stops there
            part = closed_loop(server.host, server.port,
                               source if rss is not None else
                               itertools.islice(source, RSS_QUERIES - sent),
                               connections=CONNECTIONS,
                               deadline=min(end, time.perf_counter() + SLICE_S))
            after = bench.probe()
            slices.append((part, (before + after) / 2))
            before = after
            sent += len(part)
            if rss is None and sent >= RSS_QUERIES:
                rss = server.peak_rss_mb()
        rss = rss or server.peak_rss_mb()
    samples = [s for part, _ in slices for s in part]
    requests = list(itertools.islice(request_stream(seed), len(samples)))
    oracle.check_serve(bench.record, requests, samples,
                       oracle.replay(requests, concurrency=32))

    # a slice cut short by the end of the run is too small to summarise
    slices = ([(part, f) for part, f in slices if len(part) >= BLOCK]
              or [(part, f) for part, f in slices if part])

    def per_slice(stat) -> float:
        """Median over slices of ``stat(samples) * factor``."""
        return median(stat(part) * f for part, f in slices)

    def p50(kind):
        return lambda part: median(s.latency_ms for s in part
                                   if requests[s.index].kind == kind)

    return {
        "setup_s": median(setup),
        "peak_rss_mb": rss,
        "wall_s": per_slice(lambda part: median(
            _span_s(part[i:i + BLOCK]) for i in range(0, max(1, len(part) - BLOCK + 1), BLOCK))),
        "qps": median(len(part) / _span_s(part) / f for part, f in slices),
        "latency_p50_ms": per_slice(lambda part: median(s.latency_ms for s in part)),
        "repeat_latency_p50_ms": per_slice(p50("repeat")),
        "fresh_latency_p50_ms": per_slice(p50("fresh")),
    }


UNTRACED = {"runall-cold": runall_cold, "runall-warm": runall_warm,
            "serve-mixed": serve_mixed}


def record_reference(bench: Bench) -> None:
    bench.reset_caches()
    done = bench.command("reference", [
        sys.executable, "-m", "repro", "runall", "--parallel", str(PARALLEL),
        "--json", str(bench.reports)])
    if done.returncode != 0:
        raise SystemExit(f"runall failed ({done.returncode}):\n{done.stderr}")
    reference = {
        "stdout": oracle.stdout_digest(done.stdout),
        "reports": oracle.report_digests(bench.reports),
        "units": oracle.unit_payload_digests(bench.sweeps),
    }
    oracle.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {oracle.REFERENCE}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite perfbench/reference.json and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    # the checks run the program in this process too, never on a run's caches
    sys.path.insert(0, str(ROOT / "src"))
    from repro.experiments import simsweep

    simsweep.set_disk_store(None)
    work_root = ROOT / ".perfbench-work"
    work = work_root / f"{args.workload or 'reference'}-{os.getpid()}"
    try:
        if args.record_reference:
            record_reference(Bench(ROOT, work, None))
            return 0
        bench = Bench(ROOT, work, oracle.load_reference())
        if args.trace:
            import layers

            trace_path = work_root / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics = layers.profile(bench, args.workload, args.seed, trace_path)
            print(f"[spans written to {trace_path}; render with: "
                  f"PYTHONPATH=src python3 -m repro stats {trace_path}]")
        else:
            metrics = UNTRACED[args.workload](bench, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        raise SystemExit(f"metrics do not match BENCHMARK.json: "
                         f"missing {sorted(set(units) - set(metrics))}, "
                         f"extra {sorted(set(metrics) - set(units))}")
    for name in units:
        print(f"{name:48} {metrics[name]:.6g} {units[name]}")
    if not args.trace:
        print(f"{'host speed factor':48} {median(bench.factors):.6g} (median; "
              f"times above are in reference-host seconds)")
    print(f"{'error_rate':48} {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} operations failed)")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The traced run (``--trace 1``): per-layer metrics from outside the program.

Every traced run profiles every layer, so each workload reports the same
per-layer metrics.  Two parts depend on the workload: the ``runall``
section runs on empty caches for ``runall-cold`` and on primed caches
otherwise, and the ``serve`` section sends the first
:data:`TRACE_QUERIES` queries of the workload seed's stream.

Each layer call the benchmark makes is one :func:`repro.obs.span` with a
parent link; :func:`profile` writes them, with the spans of the
``runall`` replica child (:mod:`replica`), to one JSONL file that
``repro stats`` renders.  Nothing in ``src`` changes.
"""

from __future__ import annotations

import collections
import itertools
import json
import re
import sys
import time
from pathlib import Path

import oracle
from harness import CONNECTIONS, PARALLEL, closed_loop, median, percentile
from stream import request_stream

HERE = Path(__file__).resolve().parent
#: serve queries the traced run sends and replays
TRACE_QUERIES = 3000
#: import-time probes per traced run (reported as medians)
IMPORT_REPS = 3
#: direct query-evaluator calls per endpoint
QUERY_CALLS = 200
#: the unit kinds runall declares; it declares no ``hardware-process`` or
#: ``model-eval`` units, so their metrics would read 0 on every run
UNIT_KINDS = ("sweep-point", "sim-program", "hardware-model", "model-eval-grid")
#: the simulation engine runall's sweep points take; the ``reference`` and
#: ``batch`` engines run on none of them, so a change of engine shows as
#: this count falling
SIM_ENGINES = ("fast",)


def profile(bench, workload: str, seed: int, trace_path: Path) -> dict:
    """Run every traced section; returns the per-layer metrics."""
    from repro import obs

    obs.set_enabled(True)
    rec = obs.SpanRecorder()
    metrics = import_profile(bench, rec)
    runall_metrics, replica_spans = runall_profile(
        bench, rec, warm=workload != "runall-cold")
    metrics.update(runall_metrics)
    metrics.update(unit_profile(rec, oracle.runall_ids()))
    metrics["engine.pool_efficiency"] = sum(
        metrics[f"units.{kind}_s"] for kind in UNIT_KINDS) / (
        PARALLEL * metrics["engine.precompute_s"])
    metrics.update(serve_profile(bench, rec, seed))

    # one file: the benchmark's spans, then the replica's with shifted ids
    merged = obs.SpanRecorder()
    merged.merge_dicts(rec.to_dicts())
    offset = max((s.span_id for s in rec.spans), default=0) + 1
    merged.merge_dicts([{**s, "span_id": s["span_id"] + offset,
                         "parent_id": None if s.get("parent_id") is None
                         else s["parent_id"] + offset}
                        for s in replica_spans], process="runall-replica")
    obs.write_jsonl(trace_path, registry=obs.MetricsRegistry(), recorder=merged,
                    meta={"workload": workload, "seed": seed})
    obs.set_enabled(False)
    return metrics


def self_times(spans: "list[dict]") -> "dict[int, float]":
    """Each span's duration minus the part its child spans cover."""
    covered: "dict[int, float]" = collections.defaultdict(float)
    for s in spans:
        if s.get("parent_id") is not None:
            covered[s["parent_id"]] += s["seconds"]
    return {s["span_id"]: s["seconds"] - covered[s["span_id"]] for s in spans}


# ── cli: import time ───────────────────────────────────────────────────────

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


def _import_times(stderr: str) -> "dict[str, float] | None":
    total = numpy = scipy = 0
    found = False
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        self_us, cumulative_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "repro.cli":
            total, found = cumulative_us, True
        if name == "numpy" or name.startswith("numpy."):
            numpy += self_us
        if name == "scipy" or name.startswith("scipy."):
            scipy += self_us
    if not found:
        return None
    return {"cli.import_s": total / 1e6, "cli.import_numpy_s": numpy / 1e6,
            "cli.import_scipy_s": scipy / 1e6}


def import_profile(bench, rec) -> dict:
    """``python -X importtime -c "import repro.cli"``, repeated."""
    from repro import obs

    probes = []
    for _ in range(IMPORT_REPS):
        with obs.span("cli.importtime", recorder=rec):
            done = bench.command("importtime", [sys.executable, "-X", "importtime",
                                                "-c", "import repro.cli"])
        times = _import_times(done.stderr) if done.returncode == 0 else None
        if bench.record("import repro.cli", [] if times else
                        [f"exit code {done.returncode} or no import-time line"]):
            probes.append(times)
    return {name: median(p[name] for p in probes) for name in probes[0]}


# ── cli / experiments.registry / engine / pipeline: the runall replica ─────


def runall_profile(bench, rec, *, warm: bool) -> "tuple[dict, list[dict]]":
    """An untraced ``runall``, then the traced replica, on the same cache
    state; returns the metrics and the replica's spans."""
    from repro import obs

    with obs.span("runall.untraced", recorder=rec, warm=warm):
        bench.reset_caches()
        if warm:
            bench.runall("priming runall")
        untraced = bench.runall("untraced runall")
        if not warm:
            bench.reset_caches()
    spans_path = bench.work / "replica-spans.jsonl"
    stats_path = bench.work / "replica-stats.json"
    with obs.span("runall.replica", recorder=rec, warm=warm):
        traced = bench.runall("traced replica", [
            sys.executable, str(HERE / "replica.py"),
            "--parallel", str(PARALLEL), "--json", str(bench.reports),
            "--spans", str(spans_path), "--stats", str(stats_path)])
    spans = obs.read_jsonl(spans_path)["spans"]
    stats = json.loads(stats_path.read_text())
    next_id = max(s["span_id"] for s in spans) + 1
    spans.append({"name": "perfbench.write", "span_id": next_id, "parent_id": None,
                  "depth": 0, **stats["write"], "attrs": {}})
    # the interpreter's start-up and exit, timed by this process's clock
    # around the child: the replica cannot span them itself
    first = min(s["start"] for s in spans if s.get("parent_id") is None)
    last = max(s["start"] + s["seconds"] for s in spans if s.get("parent_id") is None)
    spans += [
        {"name": "cli.startup", "span_id": next_id + 1, "parent_id": None, "depth": 0,
         "start": traced.started, "seconds": first - traced.started, "attrs": {}},
        {"name": "cli.exit", "span_id": next_id + 2, "parent_id": None, "depth": 0,
         "start": last, "seconds": traced.started + traced.wall_s - last,
         "attrs": {}},
    ]

    def total(name: str, **match) -> float:
        return sum(s["seconds"] for s in spans if s["name"] == name
                   and all(s["attrs"].get(k) == v for k, v in match.items()))

    hits_mem = stats["memo"]["memory_hits"] + stats["sweep"]["memory_hits"]
    hits_disk = stats["memo"]["disk_hits"] + stats["sweep"]["disk_hits"]
    misses = stats["memo"]["misses"] + stats["sweep"]["misses"]
    metrics = {
        "cli.render_s": total("cli.render"),
        "registry.declare_s": total("registry.declare"),
        "registry.declared_units": stats["declared_units"],
        "registry.unique_units": stats["unique_units"],
        "registry.assemble_s": total("registry.assemble"),
        "engine.precompute_s": total("engine.precompute"),
        "engine.cache_hits": stats["engine"]["cache_hits"],
        "engine.executed": stats["engine"]["executed"],
        "engine.deduped": stats["engine"]["deduped"],
        "pipeline.memory_hits": hits_mem,
        "pipeline.disk_hits": hits_disk,
        "pipeline.hit_ratio": (hits_mem + hits_disk) / max(1, hits_mem + hits_disk
                                                           + misses),
        "trace.overhead_s": traced.norm_s - untraced.norm_s,
        "trace.unattributed_s": traced.wall_s - sum(self_times(spans).values()),
    }
    for eid in oracle.runall_ids():
        metrics[f"registry.assemble.{eid}_s"] = total("registry.assemble",
                                                      experiment=eid)
    return metrics, spans


# ── engine.units / workloads / simx: every unique unit, inline ─────────────


def unit_profile(rec, experiment_ids: "list[str]") -> dict:
    """Execute each unique declared unit in this process.  Sweep points are
    split into the workload run, the trace build and the simulation."""
    from repro import obs
    from repro.engine import units as engine_units
    from repro.experiments.registry import declare_units
    from repro.simx import Machine
    from repro.workloads.instrument import breakdown_from_simulation
    from repro.workloads.tracegen import program_from_execution

    unique = {}
    for eid in experiment_ids:
        for unit in declare_units(eid):
            unique.setdefault(unit.key, unit)
    seconds = collections.Counter()
    counts = collections.Counter()
    parts = collections.Counter()
    engines = collections.Counter()
    ops = 0
    with obs.span("engine.units", recorder=rec, units=len(unique)):
        for unit in unique.values():
            t0 = time.perf_counter()
            with obs.span(f"units.{unit.kind}", recorder=rec, label=unit.describe()):
                if unit.kind != "sweep-point":
                    engine_units.execute(unit.kind, unit.spec)
                else:
                    workload, p, mem_scale, config = unit.spec
                    t1 = time.perf_counter()
                    with obs.span("workloads.execute", recorder=rec):
                        execution = workload.execute(p)
                    t2 = time.perf_counter()
                    with obs.span("workloads.trace_build", recorder=rec):
                        program = program_from_execution(execution,
                                                         mem_scale=mem_scale)
                    t3 = time.perf_counter()
                    with obs.span("simx.run", recorder=rec):
                        result = Machine(config).run(program)
                    t4 = time.perf_counter()
                    breakdown_from_simulation(result)
                    parts["workloads.execute_s"] += t2 - t1
                    parts["workloads.trace_build_s"] += t3 - t2
                    parts["simx.run_s"] += t4 - t3
                    ops += result.n_ops
                    engines[result.engine] += 1
            seconds[unit.kind] += time.perf_counter() - t0
            counts[unit.kind] += 1
    metrics = {f"units.{kind}_count": counts[kind] for kind in UNIT_KINDS}
    metrics.update({f"units.{kind}_s": seconds[kind] for kind in UNIT_KINDS})
    metrics.update({name: parts[name] for name in
                    ("workloads.execute_s", "workloads.trace_build_s", "simx.run_s")})
    metrics["simx.ops"] = ops
    metrics["simx.ops_per_s"] = ops / parts["simx.run_s"]
    metrics.update({f"simx.runs.{e}": engines[e] for e in SIM_ENGINES})
    return metrics


# ── serve ──────────────────────────────────────────────────────────────────

_METRIC_LINE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$')


def scrape(text: str, name: str, **labels) -> float:
    """Sum of the ``name`` series whose labels include ``labels``."""
    total = 0.0
    for line in text.splitlines():
        m = _METRIC_LINE.match(line)
        if not m or m.group(1) != name:
            continue
        have = dict(re.findall(r'(\w+)="([^"]*)"', m.group(2) or ""))
        if all(have.get(k) == v for k, v in labels.items()):
            total += float(m.group(3))
    return total


def _direct_call(req):
    """The query evaluator a keyed request reaches, with its arguments."""
    from repro.serve import queries

    body = json.loads(req.body)
    common = {"n": body.get("n", 256), "growth": None, "perf": None}
    if req.endpoint == "eval":
        fields = {k: [v] for k, v in body.items() if k != "model"}
        return queries.eval_point_batch, {"model": body["model"], **common, **fields}
    points = body["points"]
    columns = {k: [p[k] for p in points] for k in points[0]}
    if req.endpoint == "sweep":
        return queries.eval_sweep, {"model": body["model"], **common, **columns}
    return queries.search_optimal, {**common, **columns}


def serve_profile(bench, rec, seed: int) -> dict:
    """Send the stream's first queries to a fresh server and scrape its
    ``/metrics``; replay them through an in-process ``ServeApp``, timing
    each ``handle`` call; time the query evaluators and the encoder."""
    from repro import obs
    from repro.serve.handlers import json_response

    with obs.span("serve.spawn", recorder=rec):
        server = bench.spawn_server()
    with server:
        with obs.span("serve.http_load", recorder=rec, queries=TRACE_QUERIES):
            samples = closed_loop(
                server.host, server.port,
                enumerate(itertools.islice(request_stream(seed), TRACE_QUERIES)),
                connections=CONNECTIONS)
        status, body = server.get("/metrics")
        bench.record("GET /metrics", [] if status == 200 else [f"status {status}"])
        text = body.decode()
    requests = list(itertools.islice(request_stream(seed), len(samples)))

    handle_ms = collections.defaultdict(list)

    async def timed(req, call):
        t0 = time.perf_counter()
        with obs.span("serve.handle", recorder=rec, endpoint=req.endpoint,
                      kind=req.kind):
            answer = await call
        handle_ms[req.kind].append((time.perf_counter() - t0) * 1e3)
        return answer

    with obs.span("serve.replay", recorder=rec, queries=len(requests)):
        expected = oracle.replay(requests, timed)
    oracle.check_serve(bench.record, requests, samples, expected)

    metrics = {}
    for endpoint in ("eval", "sweep", "optimize"):
        fresh = [r for r in requests if r.endpoint == endpoint and r.kind == "fresh"]
        times = []
        for req in fresh[:QUERY_CALLS]:
            fn, kwargs = _direct_call(req)
            t0 = time.perf_counter()
            with obs.span(f"serve.queries.{endpoint}", recorder=rec):
                fn(**kwargs)
            times.append((time.perf_counter() - t0) * 1e3)
        metrics[f"serve.queries.{endpoint}_ms"] = median(times)
    encode_ms = []
    with obs.span("serve.encode", recorder=rec):
        for (_, answer), req in zip(expected, requests):
            if req.kind is not None:
                payload = json.loads(answer)
                t0 = time.perf_counter()
                json_response(payload)
                encode_ms.append((time.perf_counter() - t0) * 1e3)

    hits = scrape(text, "serve_cache_lookups_total", tier="lru", result="hit")
    lookups = hits + scrape(text, "serve_cache_lookups_total", tier="lru",
                            result="miss")
    batches = scrape(text, "serve_batch_points_count")
    keyed = [r for r in requests if r.kind is not None]
    all_handle = handle_ms["repeat"] + handle_ms["fresh"] + handle_ms[None]
    metrics.update({
        "serve.handle.repeat_p50_ms": median(handle_ms["repeat"]),
        "serve.handle.fresh_p50_ms": median(handle_ms["fresh"]),
        "serve.http_p50_ms": median(s.latency_ms for s in samples) - median(all_handle),
        "serve.http_p99_ms": percentile([s.latency_ms for s in samples], 99),
        "serve.lru.hit_ratio": hits / lookups,
        "serve.singleflight.coalesced": int(scrape(text, "serve_coalesced_total")),
        "serve.batcher.batches": int(batches),
        "serve.batcher.points_per_batch":
            scrape(text, "serve_batch_points_sum") / batches,
        "serve.memo_entries": int(scrape(text, "serve_pipeline_tier", tier="memo",
                                         event="memory_entries")),
        "serve.encode_ms": median(encode_ms),
        "serve.repeat_share": sum(r.kind == "repeat" for r in keyed) / len(keyed),
    })
    return metrics

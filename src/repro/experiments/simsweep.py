"""Shared simulator-sweep machinery for the measurement experiments.

Table II and Fig 2 both sweep the three workloads across core counts on
the simulator.  The paper uses the full MineBench datasets; a pure-Python
discrete-event simulator prices that in minutes, so the drivers accept a
``scale`` knob (fraction of the paper's dataset size) defaulting to a size
that keeps a full sweep in tens of seconds.  Because the extracted
quantities are *fractions and growth slopes*, they are stable under
dataset scaling (Table IV of the paper makes exactly this argument) —
the absolute serial percentage shifts with scale, which EXPERIMENTS.md
records.

Results are cached in two tiers:

* an in-process memo per (workload-config, machine-config, threads), so
  the Table II, Fig 2 and benchmark drivers share one set of simulations
  within a run;
* a content-hashed on-disk store (:class:`~repro.experiments.store.SweepStore`),
  so repeated sweeps are free *across* CLI invocations.  The disk key
  hashes everything a result depends on — workload identity and size,
  the full :class:`~repro.simx.config.MachineConfig`, ``mem_scale``, the
  thread count and a simulator-semantics version — so any change to the
  configuration changes the key and stale hits are impossible.  Corrupt
  entries read as misses.

The disk tier defaults to ``.repro-cache/sweeps`` under the current
directory; override with the ``REPRO_SWEEP_CACHE_DIR`` environment
variable, disable with ``REPRO_SWEEP_CACHE=off`` (or per-process via
:func:`set_disk_store`).

When an engine session is installed (:func:`set_engine`, normally via
:func:`repro.engine.session` / the CLI's ``--parallel`` flag), cache
misses are executed across the session's worker pool instead of
serially in-process: each ``(workload, threads, mem_scale, machine)``
point becomes one content-hashed :class:`~repro.engine.units.WorkUnit`
whose key **is** the disk-store key, the scheduler re-checks both cache
tiers, and the results merge back in thread-count order — so a parallel
sweep is byte-identical to a serial one.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from repro import obs
from repro.engine.executors import SWEEP_POINT
from repro.engine.units import WorkUnit
from repro.experiments.store import SweepStore
from repro.simx import Machine, MachineConfig
from repro.workloads.base import ClusteringWorkloadBase
from repro.workloads.datasets import make_blobs, make_particles
from repro.workloads.fuzzy import FuzzyCMeansWorkload
from repro.workloads.hop import HopWorkload
from repro.workloads.instrument import PhaseBreakdown, breakdown_from_simulation
from repro.workloads.kmeans import KMeansWorkload
from repro.workloads.tracegen import program_from_execution

__all__ = [
    "default_workloads",
    "simulate_breakdowns",
    "clear_cache",
    "cache_info",
    "set_disk_store",
    "get_disk_store",
    "set_engine",
    "get_engine",
    "sweep_units",
    "execute_sweep_point",
    "workload_descriptor",
]

#: paper dataset attributes (kmeans/fuzzy: N, D, C; hop: particles)
_PAPER_N = 17695
_PAPER_HOP_N = 61440

#: bump whenever simulator *timing semantics* change, so persisted sweep
#: results from older code can never satisfy a lookup.
_SIM_VERSION = 1

_cache: dict[tuple, PhaseBreakdown] = {}
_stats = {"memory_hits": 0, "disk_hits": 0, "misses": 0}

_CACHE_LOOKUPS = obs.counter(
    "sweep_cache_lookups_total",
    "sweep-cache lookups by tier and outcome",
    labels=("tier", "result"),
)

#: _stats key → (tier, result) label pair on ``sweep_cache_lookups_total``
_LOOKUP_LABELS = {
    "memory_hits": ("memory", "hit"),
    "disk_hits": ("disk", "hit"),
    "misses": ("all", "miss"),
}


def _record_lookup(stat: str) -> None:
    """Count one cache lookup in both the legacy dict and the registry."""
    _stats[stat] += 1
    tier, result = _LOOKUP_LABELS[stat]
    _CACHE_LOOKUPS.inc(tier=tier, result=result)


_DISK_DEFAULT = object()  # sentinel: resolve from the environment
_disk_store: "SweepStore | None | object" = _DISK_DEFAULT

#: ambient engine session (None = serial); see :func:`set_engine`
_engine = None


def set_engine(session) -> None:
    """Install (or with ``None`` remove) the ambient engine session.

    While installed, :func:`simulate_breakdowns` routes cache misses
    through the session's worker pool.  :func:`repro.engine.session`
    manages this automatically; only call it directly when driving an
    :class:`~repro.engine.scheduler.EngineSession` by hand.
    """
    global _engine
    _engine = session


def get_engine():
    """The ambient engine session, or ``None`` when running serially."""
    return _engine


def set_disk_store(store: "SweepStore | str | Path | None") -> None:
    """Point the disk tier somewhere else, or disable it with ``None``.

    Accepts a :class:`~repro.experiments.store.SweepStore`, a directory
    path, or ``None``.  Tests use this to isolate themselves in a tmp
    directory; the CLI's ``--no-sweep-cache`` flag passes ``None``.
    """
    global _disk_store
    if isinstance(store, (str, Path)):
        store = SweepStore(store)
    _disk_store = store


def _get_disk() -> "SweepStore | None":
    global _disk_store
    if _disk_store is _DISK_DEFAULT:
        if os.environ.get("REPRO_SWEEP_CACHE", "").lower() in ("0", "off", "no", "false"):
            _disk_store = None
        else:
            root = os.environ.get(
                "REPRO_SWEEP_CACHE_DIR", str(Path(".repro-cache") / "sweeps")
            )
            _disk_store = SweepStore(root)
    return _disk_store


def get_disk_store() -> "SweepStore | None":
    """The resolved disk tier (None when disabled)."""
    return _get_disk()


def clear_cache(memory_only: bool = False) -> None:
    """Drop cached simulation results from both tiers.

    Test-isolation contract: after ``clear_cache()`` the next
    :func:`simulate_breakdowns` call re-runs the simulator — no result can
    survive in the in-process memo *or* the on-disk store, and the hit/miss
    counters restart from zero.  Pass ``memory_only=True`` to drop just the
    in-process memo (e.g. to measure the disk tier itself, or to free
    memory while keeping warm sweeps on disk).
    """
    _cache.clear()
    for k in _stats:
        _stats[k] = 0
    from repro.pipeline import runtime as _pipeline_runtime

    _pipeline_runtime.clear_memo()
    if not memory_only:
        disk = _get_disk()
        if disk is not None:
            disk.clear()


def cache_info() -> dict:
    """Hit/miss counters and tier sizes (for benchmarks and ``cache info``).

    When the ambient engine session carries a run journal (a ``--run-id``
    / ``--resume`` run), the journal tier is reported too — its entries
    are consulted *ahead of* the disk store.
    """
    disk = _get_disk()
    lookups = sum(_stats.values())
    info = {
        **_stats,
        "lookups": lookups,
        "hit_rate": (_stats["memory_hits"] + _stats["disk_hits"]) / lookups
        if lookups
        else 0.0,
        "memory_entries": len(_cache),
        "disk_entries": len(disk) if disk is not None else 0,
        "disk_path": str(disk.root) if disk is not None else None,
    }
    journal = getattr(_engine, "journal", None)
    if journal is not None:
        info["journal_entries"] = len(journal)
        info["journal_path"] = str(journal.path)
        info["journal_hits"] = _engine.stats.get("journal_hits", 0)
    return info


def default_workloads(
    scale: float = 0.15, max_iterations: int = 4
) -> Mapping[str, ClusteringWorkloadBase]:
    """The three paper workloads at ``scale`` times the paper's data size."""
    if not (0 < scale <= 1.0):
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    n = max(200, int(_PAPER_N * scale))
    n_hop = max(400, int(_PAPER_HOP_N * scale * 0.25))
    return {
        "kmeans": KMeansWorkload(
            make_blobs(n, 9, 8, seed=11, label="kmeans-base"),
            max_iterations=max_iterations, tolerance=1e-12,
        ),
        "fuzzy": FuzzyCMeansWorkload(
            make_blobs(n, 9, 8, seed=21, label="fuzzy-base"),
            max_iterations=max_iterations, tolerance=1e-12,
        ),
        "hop": HopWorkload(
            make_particles(n_hop, n_halos=16, seed=31, label="hop-default"),
            n_neighbors=12,
        ),
    }


def _dataset_descriptor(ds) -> dict:
    """Full identity of a dataset: label, shape, and a content digest.

    The digest covers the actual array bytes, so two datasets that differ
    only in their generator seed (same label, same shape) still key
    differently — without it, Table IV's dim/center/base variants (equal
    N, equal name) would silently share one cache entry.
    """
    digest = hashlib.sha256()
    shape: dict = {}
    for field in ("points", "positions", "masses"):
        arr = getattr(ds, field, None)
        if arr is not None:
            digest.update(np.ascontiguousarray(arr).tobytes())
            shape[field] = list(np.asarray(arr).shape)
    for field in ("n_centers", "n_groups_hint"):
        v = getattr(ds, field, None)
        if v is not None:
            shape[field] = int(v)
    return {
        "label": getattr(ds, "label", ""),
        "shape": shape,
        "digest": digest.hexdigest(),
    }


#: workload knobs that change simulation results and so belong in the key
_WORKLOAD_KNOBS = (
    "n_items", "n_bins", "seed", "max_iterations", "tolerance",
    "n_neighbors", "reduction_strategy",
)


def workload_descriptor(workload: ClusteringWorkloadBase) -> dict:
    """Everything that identifies a workload for caching purposes: its
    name, its algorithmic knobs, and the exact dataset content."""
    desc: dict = {"name": workload.name}
    ds = getattr(workload, "dataset", None)
    if ds is not None:
        desc["dataset"] = _dataset_descriptor(ds)
    for knob in _WORKLOAD_KNOBS:
        v = getattr(workload, knob, None)
        if v is not None:
            desc[knob] = v
    return desc


def _key(
    workload: ClusteringWorkloadBase, p: int, mem_scale: int, config: MachineConfig
) -> tuple:
    wdesc = json.dumps(workload_descriptor(workload), sort_keys=True)
    return (wdesc, p, mem_scale, config)


def _disk_description(
    workload: ClusteringWorkloadBase, p: int, mem_scale: int, config: MachineConfig
) -> dict:
    return {
        "sim_version": _SIM_VERSION,
        "workload": workload_descriptor(workload),
        "threads": p,
        "mem_scale": mem_scale,
        "machine": asdict(config),
    }


_BREAKDOWN_FIELDS = ("n_threads", "total", "init", "parallel", "reduction", "serial")


def _breakdown_to_payload(b: PhaseBreakdown) -> dict:
    return {f: getattr(b, f) for f in _BREAKDOWN_FIELDS}


def _breakdown_from_payload(payload: dict) -> "PhaseBreakdown | None":
    """Rebuild a stored breakdown; None (a miss) on any malformed payload."""
    try:
        return PhaseBreakdown(
            n_threads=int(payload["n_threads"]),
            **{f: float(payload[f]) for f in _BREAKDOWN_FIELDS[1:]},
        )
    except (KeyError, TypeError, ValueError):
        return None


def _simulate_point(
    workload: ClusteringWorkloadBase, p: int, mem_scale: int, config: MachineConfig
) -> PhaseBreakdown:
    """One simulator run — the ground truth both execution paths share."""
    prog = program_from_execution(workload.execute(p), mem_scale=mem_scale)
    return breakdown_from_simulation(Machine(config).run(prog))


def execute_sweep_point(
    workload: ClusteringWorkloadBase, p: int, mem_scale: int, config: MachineConfig
) -> dict:
    """Run one sweep point and return its payload (the engine's
    ``sweep-point`` executor; runs inside worker processes)."""
    return _breakdown_to_payload(_simulate_point(workload, p, mem_scale, config))


def _unit_for(
    workload: ClusteringWorkloadBase, p: int, mem_scale: int, config: MachineConfig
) -> WorkUnit:
    """One sweep point as an engine work unit.

    The unit key is :meth:`SweepStore.key_for` over the same description
    the disk tier hashes, so the engine's dedup identity and the on-disk
    cache key coincide by construction.
    """
    return WorkUnit(
        kind=SWEEP_POINT,
        key=SweepStore.key_for(_disk_description(workload, p, mem_scale, config)),
        spec=(workload, p, mem_scale, config),
        label=f"{workload.name}@p={p}",
    )


def sweep_units(
    workload: ClusteringWorkloadBase,
    thread_counts: Iterable[int] = (1, 2, 4, 8, 16),
    n_cores: int = 16,
    mem_scale: int = 2,
    config: "MachineConfig | None" = None,
) -> list[WorkUnit]:
    """Declare a :func:`simulate_breakdowns` sweep as engine work units
    (same defaults, same keys) without running anything."""
    if config is None:
        config = MachineConfig.baseline(n_cores=n_cores)
    return [_unit_for(workload, p, mem_scale, config) for p in thread_counts]


def _unit_cache_get(unit: WorkUnit) -> "dict | None":
    """Scheduler hook: look a unit up in both tiers (counts hits/misses)."""
    workload, p, mem_scale, config = unit.spec
    memo_key = _key(workload, p, mem_scale, config)
    hit = _cache.get(memo_key)
    if hit is not None:
        _record_lookup("memory_hits")
        return _breakdown_to_payload(hit)
    disk = _get_disk()
    if disk is not None:
        payload = disk.get(unit.key)
        if payload is not None:
            restored = _breakdown_from_payload(payload)
            if restored is not None:
                _record_lookup("disk_hits")
                _cache[memo_key] = restored
                return payload
    _record_lookup("misses")
    return None


def _unit_cache_put(unit: WorkUnit, payload: dict) -> None:
    """Scheduler hook: write a fresh result into both tiers."""
    workload, p, mem_scale, config = unit.spec
    restored = _breakdown_from_payload(payload)
    if restored is None:
        raise ValueError(f"malformed sweep payload for {unit.describe()}")
    _cache[_key(workload, p, mem_scale, config)] = restored
    disk = _get_disk()
    if disk is not None:
        disk.put(unit.key, payload)


def simulate_breakdowns(
    workload: ClusteringWorkloadBase,
    thread_counts: Iterable[int] = (1, 2, 4, 8, 16),
    n_cores: int = 16,
    mem_scale: int = 2,
    config: "MachineConfig | None" = None,
) -> dict[int, PhaseBreakdown]:
    """Run the workload on the simulator per thread count and return the
    per-phase breakdowns (cached in memory and on disk).

    ``config`` overrides the machine (default: ``MachineConfig.baseline``
    with ``n_cores`` cores); the cache key covers the full configuration,
    so sweeping variants never cross-contaminate.  With an engine session
    installed (:func:`set_engine`), misses run on the session's worker
    pool; results are identical either way.
    """
    if config is None:
        config = MachineConfig.baseline(n_cores=n_cores)
    thread_counts = list(thread_counts)
    if _engine is not None:
        return _simulate_breakdowns_engine(workload, thread_counts, mem_scale, config)
    disk = _get_disk()
    out: dict[int, PhaseBreakdown] = {}
    for p in thread_counts:
        key = _key(workload, p, mem_scale, config)
        hit = _cache.get(key)
        if hit is not None:
            _record_lookup("memory_hits")
            out[p] = hit
            continue
        disk_key = None
        if disk is not None:
            disk_key = disk.key_for(_disk_description(workload, p, mem_scale, config))
            payload = disk.get(disk_key)
            if payload is not None:
                restored = _breakdown_from_payload(payload)
                if restored is not None:
                    _record_lookup("disk_hits")
                    _cache[key] = restored
                    out[p] = restored
                    continue
        _record_lookup("misses")
        result = _simulate_point(workload, p, mem_scale, config)
        _cache[key] = result
        if disk is not None:
            disk.put(disk_key, _breakdown_to_payload(result))
        out[p] = result
    return out


def _simulate_breakdowns_engine(
    workload: ClusteringWorkloadBase,
    thread_counts: list,
    mem_scale: int,
    config: MachineConfig,
) -> dict[int, PhaseBreakdown]:
    """Engine path: schedule the sweep as work units, merge in our order."""
    units = [_unit_for(workload, p, mem_scale, config) for p in thread_counts]
    payloads = _engine.run_units(
        units, cache_get=_unit_cache_get, cache_put=_unit_cache_put
    )
    out: dict[int, PhaseBreakdown] = {}
    for p, unit in zip(thread_counts, units):
        restored = _breakdown_from_payload(payloads[unit.key])
        if restored is None:  # pragma: no cover - executor contract violation
            raise RuntimeError(f"engine returned malformed payload for {unit.describe()}")
        # _unit_cache_put already populated the memo; keep it warm even if
        # that write was skipped (e.g. a cache_put failure was tolerated)
        _cache.setdefault(_key(workload, p, mem_scale, config), restored)
        out[p] = restored
    return out

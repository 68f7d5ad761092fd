"""Backend-tagged work-unit builders.

PR 2's engine knew exactly one unit kind — the simulator sweep point.
This module generalises unit construction over every expensive backend
an experiment can touch:

``sweep-point``
    One simulator run of a workload's own execution trace (delegates to
    :mod:`repro.experiments.simsweep`, whose keys double as the disk
    cache's).
``sim-program``
    One simulator run of a *hand-built* trace program (false-sharing
    layouts, locked-vs-privatised reductions).  The spec names the
    program builder by reference, so the unit pickles as data.
``hardware-model``
    One deterministic hardware-model execution
    (:func:`repro.hardware.executor.model_breakdown`).
``hardware-process``
    One wall-clock run on the actual host.  Inherently nondeterministic,
    so the unit is **not** disk-cacheable: it still dedupes and journals
    within a run, but never outlives one.
``model-eval-grid``
    One *vectorized* model evaluation over a whole parameter grid (the
    :mod:`repro.core.gridkernels` path), named by function reference:
    e.g. the conclusions experiment's 48-point sweep is one numpy call.
    Not disk-cacheable either: analytic results depend on unversioned
    model code.  Numpy arrays in the payload are
    lowered to plain lists (float64 round-trips exactly through JSON),
    so grid payloads journal and resume like any other unit.

Every builder hashes a canonical description of everything the payload
depends on into the unit key, so engine dedup identity, journal identity
and (where applicable) the disk-cache key coincide by construction.
"""

from __future__ import annotations

import importlib
from dataclasses import asdict
from typing import Callable, Iterable

from repro.engine.units import WorkUnit
from repro.experiments.store import SweepStore
from repro.hardware.machine_model import XEON_E5520, HardwareMachineModel
from repro.workloads.instrument import PhaseBreakdown

__all__ = [
    "SIM_PROGRAM",
    "HARDWARE_MODEL",
    "HARDWARE_PROCESS",
    "MODEL_EVAL_GRID",
    "sim_point_unit",
    "sim_program_unit",
    "hardware_units",
    "hardware_model_units",
    "hardware_process_units",
    "model_eval_grid_unit",
    "breakdown_from_payload",
    "execute_sim_program",
    "execute_hardware_model",
    "execute_hardware_process",
    "execute_model_eval_grid",
]

SIM_PROGRAM = "sim-program"
HARDWARE_MODEL = "hardware-model"
HARDWARE_PROCESS = "hardware-process"
MODEL_EVAL_GRID = "model-eval-grid"

#: bump when :func:`repro.hardware.executor.model_breakdown`'s pricing
#: semantics change, so persisted hardware-model results can never
#: satisfy a lookup from older code.
_HW_MODEL_VERSION = 1


def _resolve_ref(ref: str) -> Callable:
    """Import ``"package.module:function"`` back into the callable."""
    module, _, name = ref.partition(":")
    fn = getattr(importlib.import_module(module), name, None)
    if fn is None:
        raise LookupError(f"cannot resolve unit function reference {ref!r}")
    return fn


def func_ref(fn: Callable) -> str:
    """The picklable ``module:name`` reference for a module-level function."""
    return f"{fn.__module__}:{fn.__qualname__}"


def breakdown_from_payload(payload: dict) -> PhaseBreakdown:
    """Rebuild a phase breakdown from a unit payload (strict: resolved
    payloads come from the engine or a validated cache tier)."""
    from repro.experiments import simsweep

    restored = simsweep._breakdown_from_payload(payload)
    if restored is None:
        raise ValueError(f"malformed breakdown payload: {payload!r}")
    return restored


# ── simulator sweeps ──────────────────────────────────────────────────────


def sim_point_unit(workload, p: int, mem_scale: int, config) -> WorkUnit:
    """A single sweep point — for experiments whose machine configuration
    varies per point (ACMP vs symmetric, the crossover design sweep)."""
    from repro.experiments import simsweep

    return simsweep._unit_for(workload, p, mem_scale, config)


# ── hand-built trace programs ─────────────────────────────────────────────


def sim_program_unit(builder: Callable, kwargs: dict, config,
                     label: str = "") -> WorkUnit:
    """One simulator run of ``builder(**kwargs)`` on ``config``.

    ``builder`` must be a module-level function returning a
    :class:`~repro.simx.TraceProgram`; it crosses the process boundary by
    reference, its kwargs as plain data.
    """
    from repro.experiments import simsweep

    ref = func_ref(builder)
    key = SweepStore.key_for({
        "kind": SIM_PROGRAM,
        "sim_version": simsweep._SIM_VERSION,
        "builder": ref,
        "kwargs": dict(sorted(kwargs.items())),
        "machine": asdict(config),
    })
    return WorkUnit(
        kind=SIM_PROGRAM,
        key=key,
        spec=(ref, dict(kwargs), config),
        label=label or ref.rsplit(":", 1)[-1],
    )


def execute_sim_program(spec: tuple) -> dict:
    """Run one trace program and distill the stats experiments read."""
    from repro.simx import Machine

    ref, kwargs, config = spec
    res = Machine(config).run(_resolve_ref(ref)(**kwargs))
    return {
        "total_cycles": int(res.total_cycles),
        "invalidations": int(res.coherence.invalidations),
        "cache_to_cache": int(res.coherence.cache_to_cache),
        "parallel_wait_cycles": int(res.phase_stats.wait_cycles("parallel")),
        "reduction_cycles": int(res.phase_cycles("reduction")),
        "reduction_wait_cycles": int(res.phase_stats.wait_cycles("reduction")),
        "reduction_span_cycles": int(res.phase_wall_cycles("reduction")),
        # dispatch accounting (all zero under the pinned scheduler)
        "preemptions": int(res.sched.preemptions),
        "migrations": int(res.sched.migrations),
        "involuntary_wait_cycles": int(res.sched.involuntary_wait_cycles),
    }


# ── hardware executions ───────────────────────────────────────────────────


def hardware_model_units(
    workload,
    thread_counts: Iterable[int],
    model: HardwareMachineModel = XEON_E5520,
) -> "list[WorkUnit]":
    """Deterministic machine-model executions, one unit per thread count."""
    from repro.experiments import simsweep

    units = []
    for p in thread_counts:
        key = SweepStore.key_for({
            "kind": HARDWARE_MODEL,
            "hw_model_version": _HW_MODEL_VERSION,
            "workload": simsweep.workload_descriptor(workload),
            "threads": int(p),
            "model": asdict(model),
        })
        units.append(WorkUnit(
            kind=HARDWARE_MODEL, key=key, spec=(workload, int(p), model),
            label=f"hw-model:{workload.name}@p={p}",
        ))
    return units


def execute_hardware_model(spec: tuple) -> dict:
    from repro.experiments import simsweep
    from repro.hardware.executor import model_breakdown

    workload, p, model = spec
    return simsweep._breakdown_to_payload(model_breakdown(workload, p, model))


def hardware_process_units(workload, thread_counts: Iterable[int]) -> "list[WorkUnit]":
    """Wall-clock runs on the actual host — journaled, never disk-cached."""
    from repro.experiments import simsweep

    units = []
    for p in thread_counts:
        key = SweepStore.key_for({
            "kind": HARDWARE_PROCESS,
            "workload": simsweep.workload_descriptor(workload),
            "threads": int(p),
        })
        units.append(WorkUnit(
            kind=HARDWARE_PROCESS, key=key, spec=(workload, int(p)),
            label=f"hw-process:{workload.name}@p={p}", cacheable=False,
        ))
    return units


def execute_hardware_process(spec: tuple) -> dict:
    from repro.experiments import simsweep
    from repro.hardware.executor import process_breakdown

    workload, p = spec
    return simsweep._breakdown_to_payload(process_breakdown(workload, p))


def hardware_units(
    workload,
    thread_counts: Iterable[int],
    backend: str = "model",
    model: HardwareMachineModel = XEON_E5520,
) -> "list[WorkUnit]":
    """The hardware-side sweep on either backend (cf.
    :func:`repro.hardware.executor.execute_workload`)."""
    if backend == "model":
        return hardware_model_units(workload, thread_counts, model)
    if backend == "process":
        return hardware_process_units(workload, thread_counts)
    raise ValueError(f"backend must be 'model' or 'process', got {backend!r}")


# ── expensive model-layer evaluations ─────────────────────────────────────


def model_eval_grid_unit(fn: Callable, kwargs: dict, label: str = "") -> WorkUnit:
    """One *vectorized* model evaluation over a whole parameter grid.

    ``fn`` must be a module-level function whose kwargs are plain data
    (floats, ints, strings, lists of floats) and whose return value is a
    dict of numpy arrays / nested dicts / scalars — the executor lowers
    arrays to lists so the payload journals as JSON.  The unit dedupes
    and journals but never hits the disk store (analytic results depend
    on unversioned model code).
    """
    ref = func_ref(fn)
    key = SweepStore.key_for({
        "kind": MODEL_EVAL_GRID,
        "fn": ref,
        "kwargs": dict(sorted(kwargs.items())),
    })
    return WorkUnit(
        kind=MODEL_EVAL_GRID, key=key, spec=(ref, dict(kwargs)),
        label=label or ref.rsplit(":", 1)[-1], cacheable=False,
    )


def _plainify(value):
    """Lower numpy containers/scalars to JSON-clean python equivalents.

    float64 → float is exact (same IEEE-754 double), so grid payloads
    survive the journal byte-identically to a fresh evaluation.
    """
    import numpy as np

    if isinstance(value, dict):
        return {k: _plainify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plainify(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def execute_model_eval_grid(spec: tuple) -> dict:
    ref, kwargs = spec
    payload = _resolve_ref(ref)(**kwargs)
    if not isinstance(payload, dict):
        raise TypeError(
            f"model-eval-grid function {ref} must return a dict payload, "
            f"got {type(payload).__name__}"
        )
    return _plainify(payload)

"""Registry coverage: every experiment that performs simulator or
hardware-model work must *declare* that work as pipeline units.

The enforcement is mechanical rather than a hand-maintained list: warm
every declared unit of every declaring experiment, then forbid the
inline execution paths (``Machine.run`` and the hardware executors) and
assemble all registered experiments.  Per-path NoC routing
(``repro.noc.routing.xy_route``) is forbidden too: the contention and
topology reports derive link loads and hop sums from array kernels and
closed forms, and must not fall back to routing every pair in Python.  A driver that sneaks simulator or
hardware work past its declare stage — or a new experiment added without
one — trips the guard, naming the experiment.
"""

import pytest

from repro.experiments import simsweep
from repro.experiments.registry import (
    SPECS,
    SWEEP_DECLARATIONS,
    declare_units,
    filter_options,
    run_experiment,
)
from repro.engine.executors import SIM_PROGRAM, SWEEP_POINT
from repro.pipeline import resolve_units
from repro.simx import Machine, batch_fallback

#: one option set for the whole registry, as ``runall`` would pass it
#: (fig2's claims index the 16-core point; ext-critical sweeps rl to 128)
OPTIONS = dict(
    scale=0.03,
    thread_counts=(1, 2, 16),
    hw_thread_counts=(1, 2),
    n=128,
    max_cores=64,
    budget=4,
    n_items=2000,
    n_bins=256,
    updates=50,
    updates_per_thread=200,
    batch=32,
    merge_elements=64,
    rl=4,
    n_threads=2,
)


class InlineSimulationForbidden(AssertionError):
    """Raised when assembly reaches an execution path it should have
    declared (and therefore found warm in a cache)."""


def _forbid(*args, **kwargs):
    raise InlineSimulationForbidden(
        "assemble phase invoked the simulator/hardware or per-path "
        "routing inline; this work must be declared as pipeline units "
        "or computed by an array kernel"
    )


@pytest.fixture(scope="module")
def warmed(tmp_path_factory):
    """Resolve every declared unit of every declaring experiment into a
    fresh store, exactly as ``runall``'s precompute pass would."""
    root = tmp_path_factory.mktemp("coverage-store")
    restore = simsweep.get_disk_store()
    simsweep.set_disk_store(root)
    simsweep.clear_cache(memory_only=True)
    try:
        for eid in sorted(SWEEP_DECLARATIONS):
            units = declare_units(eid, **OPTIONS)
            assert units, f"{eid} is registered as declaring but emitted no units"
            resolve_units(units)
        yield
    finally:
        simsweep.set_disk_store(restore)
        simsweep.clear_cache(memory_only=True)


@pytest.fixture
def no_inline_simulation(warmed, monkeypatch):
    import repro.hardware.executor as hwexec
    import repro.noc.routing as routing

    monkeypatch.setattr(Machine, "run", _forbid)
    monkeypatch.setattr(routing, "xy_route", _forbid)
    monkeypatch.setattr(hwexec, "model_breakdown", _forbid)
    monkeypatch.setattr(hwexec, "process_breakdown", _forbid)


@pytest.mark.parametrize("eid", sorted(SPECS))
def test_assembles_on_warm_caches_alone(eid, no_inline_simulation):
    """With caches warm and inline execution forbidden, every registered
    experiment must still assemble its full report."""
    report = run_experiment(eid, **filter_options(eid, OPTIONS))
    assert report.experiment_id == SPECS[eid].experiment_id
    assert report.render()


def test_every_staged_spec_is_collected_as_declaring():
    staged = {eid for eid, spec in SPECS.items() if spec.declares_units}
    assert staged == set(SWEEP_DECLARATIONS)


def test_guard_trips_on_cold_caches(warmed, monkeypatch, tmp_path):
    """Sanity-check the instrument itself: with an empty store the guard
    must fire, proving the forbidden paths are really intercepted."""
    monkeypatch.setattr(Machine, "run", _forbid)
    restore = simsweep.get_disk_store()
    try:
        simsweep.set_disk_store(tmp_path / "cold")
        simsweep.clear_cache(memory_only=True)
        with pytest.raises(InlineSimulationForbidden):
            run_experiment("table2", **filter_options("table2", OPTIONS))
    finally:
        simsweep.set_disk_store(restore)
        simsweep.clear_cache(memory_only=True)


def test_runall_pinned_simulations_take_the_batch_engine():
    """Every pinned simulation ``runall`` declares (at its default
    options) must pass the batch engine's gates; only a time-multiplexing
    scheduler may send a run to the reference interpreter.  A default or
    gate change that silently slows ``runall`` down trips this."""
    from repro.cli import _all_experiment_ids

    checked = 0
    for eid in _all_experiment_ids():
        for unit in declare_units(eid):
            if unit.kind not in (SWEEP_POINT, SIM_PROGRAM):
                continue
            config = unit.spec[-1]
            if config.scheduler != "pinned":
                continue
            checked += 1
            assert batch_fallback(config) is None, (
                f"{eid}: {unit.describe()} falls back to the reference "
                f"engine ({batch_fallback(config)})"
            )
    assert checked

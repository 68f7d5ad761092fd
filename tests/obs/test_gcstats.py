"""Garbage-collection accounting: ``process_gc_*`` counters per generation."""

import gc
import multiprocessing as mp

import pytest

from repro import obs
from repro.engine.pool import WorkerPool
from repro.engine.units import WorkUnit, register_executor
from repro.obs import gcstats


def _collect_in_unit(spec):
    gc.collect()  # an explicit collection runs even while paused
    return {"ok": True}


register_executor("t-gc-collect", _collect_in_unit)


def _series(name):
    fam = next((f for f in obs.snapshot() if f["name"] == name), None)
    return {} if fam is None else {
        s["labels"]["generation"]: s["value"] for s in fam["series"]}


def test_disabled_observability_installs_no_hook():
    with obs.watching_gc():
        assert gcstats._on_gc not in gc.callbacks
        gc.collect()
    assert obs.snapshot() == []


def test_counts_and_times_collections_while_watching():
    obs.set_enabled(True)
    with obs.watching_gc():
        assert gcstats._on_gc in gc.callbacks
        gc.collect()
        gc.collect(0)
        counts = _series("process_gc_collections_total")
        assert counts["2"] >= 1 and counts["0"] >= 1
        assert _series("process_gc_seconds_total")["2"] > 0
    assert gcstats._on_gc not in gc.callbacks
    # no hook once the scope ends: a later collection is not counted
    total = sum(_series("process_gc_collections_total").values())
    gc.collect()
    assert sum(_series("process_gc_collections_total").values()) == total


def test_nested_watch_keeps_the_outer_hook():
    obs.set_enabled(True)
    with obs.watching_gc():
        with obs.watching_gc():
            pass
        assert gcstats._on_gc in gc.callbacks
    assert gcstats._on_gc not in gc.callbacks


def test_reset_drops_pending_collections():
    obs.set_enabled(True)
    with obs.watching_gc():
        gc.collect()
        obs.reset()
        assert obs.snapshot() == []


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="test executor is fork-inherited")
def test_worker_collections_ride_the_drain_delta():
    obs.set_enabled(True)
    with WorkerPool(1, unit_timeout=60.0) as pool:
        pool.run([WorkUnit("t-gc-collect", "gc-collect-0", (),
                           cacheable=False)])
    # the parent never watched: every counted collection is the worker's
    assert _series("process_gc_collections_total")["2"] >= 1

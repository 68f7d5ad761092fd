"""The garbage-collection policy around unit execution.

* :func:`repro.engine.units.collection_paused` keeps the cyclic collector
  off while a unit runs and restores exactly the state it found;
* every loop that runs units back-to-back (pool workers, the serial
  pool, remote workers) executes them paused, while the inline
  ``resolve_units`` path (used by ``serve`` threads) leaves it alone;
* the process entry point freezes the import-time heap; ``cli.main``,
  which tests call in-process, does not.
"""

import gc
import itertools
import multiprocessing as mp
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import cli
from repro.engine import pool as pool_mod
from repro.engine.pool import SerialPool, WorkerPool
from repro.engine.remote import RemotePool, run_worker
from repro.engine.units import WorkUnit, collection_paused, register_executor
from repro.pipeline import resolve_units

SRC = Path(__file__).resolve().parents[2] / "src"

fork_only = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="pool tests rely on fork-inherited test executors",
)


def _gc_probe(spec):
    return {"gc_enabled": gc.isenabled()}


register_executor("t-gc-probe", _gc_probe)

_keys = itertools.count()


def probes(n=3):
    """Probe units with keys unique across the session (the inline path
    memoises by key)."""
    return [WorkUnit("t-gc-probe", f"gc-probe-{next(_keys)}", (i,),
                     cacheable=False) for i in range(n)]


@pytest.fixture(autouse=True)
def _collector_enabled():
    """Each test starts with the collector on, and must leave it on."""
    assert gc.isenabled()
    yield
    assert gc.isenabled()


class TestCollectionPaused:
    def test_disables_inside_and_restores_after(self):
        with collection_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_after_an_exception(self):
        with pytest.raises(ValueError):
            with collection_paused():
                raise ValueError("boom")
        assert gc.isenabled()

    def test_nested_pauses_restore_at_the_outermost(self):
        with collection_paused():
            with collection_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # the inner exit must not re-enable
        assert gc.isenabled()

    def test_entered_with_collection_disabled_leaves_it_disabled(self):
        gc.disable()
        try:
            with collection_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
            with pytest.raises(RuntimeError):
                with collection_paused():
                    raise RuntimeError
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestPoolsRunUnitsPaused:
    def test_serial_pool(self):
        results = SerialPool().run(probes())
        assert all(p == {"gc_enabled": False} for p in results.values())
        assert gc.isenabled()

    @fork_only
    def test_worker_pool(self):
        with WorkerPool(2, unit_timeout=60.0) as pool:
            results = pool.run(probes(4))
            assert gc.isenabled()
            again = pool.run(probes(2))  # a reused pool's workers too
        assert all(p == {"gc_enabled": False}
                   for p in [*results.values(), *again.values()])
        assert gc.isenabled()

    def test_remote_worker(self):
        with RemotePool("127.0.0.1:0", lease_timeout=30.0) as pool:
            worker = threading.Thread(
                target=run_worker, args=(pool.address,),
                kwargs={"retry_for": 15.0, "max_units": 3}, daemon=True)
            worker.start()
            results = pool.run(probes())
        worker.join(15.0)
        assert not worker.is_alive()  # it stopped after its three units
        assert all(p == {"gc_enabled": False} for p in results.values())

    def test_inline_resolution_is_not_paused(self):
        results = resolve_units(probes())
        assert all(p == {"gc_enabled": True} for p in results.values())


class TestEntryPointFreezes:
    def test_entry_point_freezes_the_import_heap(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")]))
        code = (
            "import contextlib, gc, io\n"
            "from repro import cli\n"
            "assert gc.get_freeze_count() == 0\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.entry_point(['list']) == 0\n"
            "print(gc.get_freeze_count())\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout.strip()) > 0

    def test_main_does_not_freeze(self, capsys):
        before = gc.get_freeze_count()
        assert cli.main(["list"]) == 0
        assert gc.get_freeze_count() == before


def test_default_workers_honours_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert pool_mod.default_workers() == 1


def test_default_workers_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pool_mod.default_workers() == 3

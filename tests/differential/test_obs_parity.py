"""Obs-metrics parity across engines: one run, one count, right label.

The engine-accounting fields (``n_ops``/``n_bursts``/``n_fused_ops``/
``n_burst_fallbacks``) feed the ``simx_*`` obs counters; whichever engine
executes, every counter must increment exactly once per run with the
engine's own label — no double counting (e.g. batch delegating through
``Machine._run``) and no zero counting (e.g. batch results bypassing the
obs wrapper).
"""

import pytest

from repro import obs
from repro.simx import (
    Barrier,
    Compute,
    Load,
    Machine,
    MachineConfig,
    Store,
    ThreadTrace,
    TraceProgram,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.set_enabled(False)
    obs.reset()
    obs.RECORDER.clear()
    yield
    obs.set_enabled(False)
    obs.reset()
    obs.RECORDER.clear()


def _program():
    threads = []
    for tid in range(2):
        base = 0x100000 * (tid + 1)
        ops = [Compute(40)]
        ops += [Load(base + i * 64) for i in range(12)]
        ops += [Store(base + i * 64) for i in range(4)]
        ops += [Load(0), Barrier(0)]
        threads.append(ThreadTrace(tid, ops))
    return TraceProgram("parity", threads)


def _run(engine: str):
    """One run of the parity program on the named engine."""
    machine = Machine(MachineConfig(n_cores=2))
    if engine == "reference":
        return machine.run_reference(_program())
    return machine.run(_program())


ENGINES = ("reference", "batch")


@pytest.mark.parametrize("engine", ENGINES)
def test_each_engine_counts_its_run_exactly_once(engine):
    obs.set_enabled(True)
    result = _run(engine)
    assert result.engine == engine
    runs = obs.REGISTRY.get("simx_runs_total")
    assert runs.value(engine=engine) == 1.0
    for other in ENGINES:
        if other != engine:
            assert runs.value(engine=other) == 0.0
    assert obs.REGISTRY.get("simx_ops_total").value() == result.n_ops
    assert obs.REGISTRY.get("simx_bursts_total").value() == result.n_bursts
    assert obs.REGISTRY.get("simx_fused_ops_total").value() == result.n_fused_ops
    assert (obs.REGISTRY.get("simx_burst_fallbacks_total").value()
            == result.n_burst_fallbacks)
    assert obs.REGISTRY.get("simx_cycles_total").value() == result.total_cycles
    assert (obs.REGISTRY.get("simx_instructions_total").value()
            == sum(result.instructions))


def test_batch_accounting_matches_fast_conventions():
    """``engine="batch"`` results carry the fast-path accounting
    conventions: compile-time bursts/fused ops, and runtime ops counted
    exactly as the reference interpreter counts them."""
    ref = _run("reference")
    bat = _run("batch")
    assert bat.engine == "batch"
    assert bat.n_ops == ref.n_ops > 0
    assert bat.n_bursts > 0
    assert bat.n_fused_ops > 0
    assert ref.n_bursts == ref.n_fused_ops == ref.n_burst_fallbacks == 0
    # accounting is observational: timing must not depend on it
    assert bat.total_cycles == ref.total_cycles
    assert bat.thread_cycles == ref.thread_cycles


def test_ops_totals_agree_across_engines_with_obs_enabled():
    obs.set_enabled(True)
    totals = {}
    for engine in ENGINES:
        obs.reset()
        _run(engine)
        totals[engine] = obs.REGISTRY.get("simx_ops_total").value()
    assert totals["reference"] == totals["batch"] > 0

"""Shared fixtures of the engine differential tests.

The simulator has two engines — the op-at-a-time reference interpreter
(:meth:`repro.simx.Machine.run_reference`) and the lockstep batch engine
that :meth:`repro.simx.Machine.run` takes wherever its gates pass.  Every
differential test runs one program through both and compares *all*
observable output with :func:`assert_identical`.  The machine ring
:data:`CONFIGS` uses a tiny 4-set L1 so private streams collide with
resident shared lines (the batch engine's eviction-hazard seam) often.
"""

from repro.simx import Machine, MachineConfig, ThreadTrace, TraceProgram
from repro.simx.config import CacheConfig

__all__ = [
    "LINE",
    "CONFIGS",
    "tiny_config",
    "program_of",
    "run_ref_and_batch",
    "assert_identical",
]

LINE = 64


def tiny_config(**overrides) -> MachineConfig:
    defaults = dict(
        n_cores=4,
        l1d=CacheConfig(size=8 * LINE, ways=2),  # 4 sets x 2 ways: evicts early
        l1i=CacheConfig(size=8 * LINE, ways=2),
        l2=CacheConfig(size=64 * LINE, ways=4, hit_latency=12),
    )
    defaults.update(overrides)
    return MachineConfig(**defaults)


CONFIGS = {
    "baseline-tiny": tiny_config(),
    "msi": tiny_config(coherence_protocol="msi"),
    "mesh": tiny_config(interconnect="mesh"),
    "asymmetric": tiny_config(core_perf_factors=(2.0, 1.0, 1.0, 1.0)),
    "bigger-l1": tiny_config(l1d=CacheConfig(size=64 * LINE, ways=4)),
}


def program_of(threads) -> TraceProgram:
    """A program from per-thread op lists (thread ids by position)."""
    return TraceProgram(
        "diff", [ThreadTrace(i, list(ops)) for i, ops in enumerate(threads)]
    )


def run_ref_and_batch(program: TraceProgram, config: MachineConfig):
    """Run one program on the reference interpreter and through
    :meth:`Machine.run` (the batch engine where its gates pass)."""
    machine = Machine(config)
    return machine.run_reference(program), machine.run(program)


def assert_identical(got, ref):
    assert got.total_cycles == ref.total_cycles
    assert got.thread_cycles == ref.thread_cycles
    assert got.instructions == ref.instructions
    assert got.coherence == ref.coherence
    gs, rs = got.phase_stats, ref.phase_stats
    assert {p: dict(t) for p, t in gs.busy.items() if any(t.values())} == \
           {p: dict(t) for p, t in rs.busy.items() if any(t.values())}
    assert {p: dict(t) for p, t in gs.wait.items() if any(t.values())} == \
           {p: dict(t) for p, t in rs.wait.items() if any(t.values())}
    assert gs.spans == rs.spans
    assert got.coherence_by_phase == ref.coherence_by_phase

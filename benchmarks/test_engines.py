"""Engine regression benchmarks: the batch engine vs the reference engine.

Three trace shapes, each run through both engines (the op-at-a-time
``reference`` interpreter and the lockstep ``batch`` engine) so the
harness (`scripts/run_bench.py`) can compute the speedup ratios it
records in ``BENCH_simx.json``:

* **private-burst** — long runs of thread-private Compute/Load/Store, the
  shape the batch engine exists for (acceptance bar: >= 3x);
* **shared-heavy** — mostly shared lines, so almost nothing fuses; the
  batch engine must not regress this (compilation overhead stays
  negligible);
* **kmeans-mix** — a real workload trace at sweep scale, the honest
  end-to-end number (acceptance bar: >= 2x).

Each test stores the trace's op count in ``benchmark.extra_info`` so
ops/sec can be derived from the benchmark JSON.
"""

import pytest

from repro.simx import (
    Compute,
    Load,
    Machine,
    MachineConfig,
    Store,
    ThreadTrace,
    TraceProgram,
)

LINE = 64


def _count_ops(prog: TraceProgram) -> int:
    return sum(len(t.ops) for t in prog.threads)


def private_burst_program(n_threads: int = 4, n_rounds: int = 800) -> TraceProgram:
    """Streams over per-thread private lines: nearly everything fuses."""
    threads = []
    for tid in range(n_threads):
        base = (0x1000 + tid * 0x1000) * LINE
        ops = []
        for i in range(n_rounds):
            ops.append(Compute(40))
            ops.append(Load(base + (i % 256) * LINE))
            ops.append(Store(base + (i % 64) * LINE))
        threads.append(ThreadTrace(tid, ops))
    return TraceProgram("private-burst", threads)


def shared_heavy_program(n_threads: int = 4, n_rounds: int = 600) -> TraceProgram:
    """All threads hammer the same 32 lines: almost nothing fuses."""
    threads = []
    for tid in range(n_threads):
        ops = []
        for i in range(n_rounds):
            ops.append(Compute(20))
            ops.append(Load(((i + tid) % 32) * LINE))
            ops.append(Store(((i * 3 + tid) % 32) * LINE))
        threads.append(ThreadTrace(tid, ops))
    return TraceProgram("shared-heavy", threads)


def kmeans_mix_program(p: int = 8) -> TraceProgram:
    """A real kmeans trace at the scale the Table II sweeps use."""
    from repro.workloads.datasets import make_blobs
    from repro.workloads.kmeans import KMeansWorkload
    from repro.workloads.tracegen import program_from_execution

    wl = KMeansWorkload(
        make_blobs(1800, 9, 8, seed=11, label="bench"),
        max_iterations=3, tolerance=1e-12,
    )
    return program_from_execution(wl.execute(p), mem_scale=2)


ENGINES = ("reference", "batch")


def _bench(benchmark, prog: TraceProgram, engine: str, n_cores: int = 16):
    machine = Machine(MachineConfig(n_cores=n_cores))
    benchmark.extra_info["n_ops"] = _count_ops(prog)
    benchmark.extra_info["engine"] = engine
    run = machine.run_reference if engine == "reference" else machine.run
    result = benchmark(run, prog)
    assert result.engine == engine
    assert result.total_cycles > 0
    return result


@pytest.mark.parametrize("engine", ENGINES)
def test_private_burst(benchmark, engine):
    _bench(benchmark, private_burst_program(), engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_shared_heavy(benchmark, engine):
    _bench(benchmark, shared_heavy_program(), engine)


@pytest.mark.parametrize("engine", ENGINES)
def test_kmeans_mix(benchmark, engine):
    _bench(benchmark, kmeans_mix_program(), engine)


def test_all_engines_agree():
    """Guard (also with --benchmark-disable): both engines, same results."""
    machine = Machine(MachineConfig(n_cores=16))
    for prog in (private_burst_program(n_rounds=60),
                 shared_heavy_program(n_rounds=60)):
        ref = machine.run_reference(prog)
        got = machine.run(prog)
        assert got.engine == "batch"
        assert got.total_cycles == ref.total_cycles
        assert got.thread_cycles == ref.thread_cycles
        assert got.coherence == ref.coherence

"""Directed traces pinning the batch interpreter's fallback seams.

The lockstep epochs may only elide scheduling where reordering is
provably unobservable; each test here constructs the exact boundary
where that proof stops — a coherence event inside an epoch, an L1 fill
that would evict a shared line, a phase transition while other threads'
clocks diverge — and asserts the batch engine both takes the fallback
(where observable in the op accounting) and stays cycle-identical.
Configurations whose state couples cores (non-pinned dispatch, banked
DRAM, contended bus, prefetch, a cycle watchdog) must bypass the batch
engine entirely, and :func:`~repro.simx.batch.batch_fallback` must name
the gate that sent them to the reference interpreter.
"""

from dataclasses import replace

from repro.simx import (
    Barrier,
    Compute,
    Load,
    Machine,
    Store,
    batch_fallback,
)
from repro.simx.batch import compile_batch
from tests.differential.engines import (
    CONFIGS,
    LINE,
    assert_identical,
    program_of,
    run_ref_and_batch,
    tiny_config,
)


def private(tid, idx):
    return (0x1000 + tid * 0x100 + idx) * LINE


class TestCoherenceEventInsideEpoch:
    def test_first_shared_access_parks_the_epoch(self):
        """A shared access mid-trace splits the segment at compile time
        and executes in global order; cycles stay identical."""
        threads = [
            [Load(private(0, i)) for i in range(6)]
            + [Store(0)]  # first coherence event
            + [Load(private(0, i)) for i in range(6)],
            [Compute(100), Load(0), Compute(100)],
        ]
        cfg = tiny_config()
        compiled = compile_batch(program_of(threads), cfg.line_size)
        # the shared line is a segment boundary, not part of any burst
        assert 0 in compiled.shared_lines
        ref, bat = run_ref_and_batch(program_of(threads), cfg)
        assert bat.engine == "batch"
        assert bat.n_bursts >= 2  # the private run was split, not fused over
        assert_identical(bat, ref)

    def test_remote_invalidation_between_epochs(self):
        """Thread 1's store invalidates thread 0's cached shared line;
        the reload observes it through the globally-ordered path."""
        threads = [
            [Load(0), Barrier(0), Load(0)],
            [Store(0), Barrier(0), Compute(10)],
        ]
        ref, bat = run_ref_and_batch(program_of(threads), tiny_config())
        assert ref.coherence.invalidations >= 1
        assert_identical(bat, ref)


class TestEvictionHazardBail:
    def test_private_fill_into_a_set_holding_a_shared_line_bails(self):
        """With shared lines resident in a full set, a private fill's
        victim depends on remote timing: the op must fall back.  Under
        the tiny L1 (4 sets x 2 ways), private lines 0,4,8,12 and shared
        lines 0,4 all map to set 0."""
        threads = [
            [Load(0 * LINE), Load(4 * LINE)]  # two shared lines fill set 0
            + [Load(private(0, i)) for i in (0, 4, 8, 12)],
            [Compute(50), Load(0 * LINE)],
        ]
        cfg = tiny_config()
        ref, bat = run_ref_and_batch(program_of(threads), cfg)
        assert bat.n_burst_fallbacks >= 1
        assert_identical(bat, ref)

    def test_bailed_op_still_executes_exactly_once(self):
        threads = [
            [Load(0 * LINE), Load(4 * LINE)]
            + [Store(private(0, i)) for i in (0, 4, 8, 12)],
        ]
        ref, bat = run_ref_and_batch(program_of(threads), tiny_config())
        assert ref.n_ops == bat.n_ops
        assert_identical(bat, ref)


class TestPhaseTransitionInsideEpoch:
    def test_phase_markers_note_eager_clocks(self):
        """Phase spans are recorded at each thread's own (eagerly
        advanced) clock, exactly as the reference scheduler would."""
        from repro.simx import PhaseBegin, PhaseEnd

        threads = [
            [PhaseBegin("parallel"), Compute(400)]
            + [Load(private(0, i)) for i in range(8)]
            + [PhaseEnd("parallel"), PhaseBegin("merge"), Store(0),
               PhaseEnd("merge")],
            [PhaseBegin("parallel"), Compute(20), PhaseEnd("parallel"),
             PhaseBegin("merge"), Load(0), PhaseEnd("merge")],
        ]
        ref, bat = run_ref_and_batch(program_of(threads), tiny_config())
        assert ref.phase_stats.spans == bat.phase_stats.spans
        assert_identical(bat, ref)


class TestConfigurationGates:
    """State that couples cores must bypass the batch engine entirely."""

    def test_banked_dram_falls_back_to_reference(self):
        cfg = tiny_config(dram="banked")
        assert batch_fallback(cfg) == "dram"
        threads = [[Load(private(0, i)) for i in range(8)], [Load(0), Store(0)]]
        ref, got = run_ref_and_batch(program_of(threads), cfg)
        assert got.engine == "reference"
        assert_identical(got, ref)

    def test_contended_bus_falls_back(self):
        cfg = tiny_config(bus_occupancy=2)
        assert batch_fallback(cfg) == "bus_occupancy"
        threads = [[Load(0), Store(0)], [Load(0), Store(0)]]
        got = Machine(cfg).run(program_of(threads))
        assert got.engine == "reference"

    def test_prefetch_falls_back(self):
        cfg = tiny_config(prefetch_next_line=True)
        assert batch_fallback(cfg) == "prefetch"

    def test_watchdog_falls_back(self):
        cfg = tiny_config()
        assert batch_fallback(cfg) is None
        assert batch_fallback(cfg, max_cycles=10_000) == "max_cycles"
        threads = [[Compute(100)]]
        got = Machine(cfg).run(program_of(threads), max_cycles=10_000)
        assert got.engine == "reference"

    def test_scheduler_falls_back(self):
        cfg = tiny_config(scheduler="round-robin")
        assert batch_fallback(cfg) == "scheduler"
        threads = [[Load(0), Compute(10)], [Store(0), Compute(10)]]
        ref, got = run_ref_and_batch(program_of(threads), cfg)
        assert got.engine == "reference"
        assert_identical(got, ref)

    def test_first_failing_gate_is_named(self):
        """With every gate failing, each fix reveals the next one."""
        cfg = tiny_config(scheduler="round-robin", dram="banked",
                          prefetch_next_line=True, bus_occupancy=2)
        for reason, fix in [
            ("scheduler", dict(scheduler="pinned")),
            ("dram", dict(dram="flat")),
            ("prefetch", dict(prefetch_next_line=False)),
            ("bus_occupancy", dict(bus_occupancy=0)),
        ]:
            assert batch_fallback(cfg, max_cycles=10) == reason
            cfg = replace(cfg, **fix)
        assert batch_fallback(cfg, max_cycles=10) == "max_cycles"
        assert batch_fallback(cfg) is None

    def test_every_differential_config_supports_batch(self):
        for name, cfg in CONFIGS.items():
            assert batch_fallback(cfg) is None, name

"""Property tests for the two-tier simulation sweep cache.

Covers the on-disk :class:`~repro.experiments.store.SweepStore` and its
integration in :mod:`repro.experiments.simsweep`: round-trips restore an
equal ``PhaseBreakdown``, any configuration change changes the key (no
stale hits), and corrupt or truncated cache files behave as misses, never
as crashes.
"""

import json
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import simsweep
from repro.experiments.store import SweepStore
from repro.simx import MachineConfig

payloads = st.dictionaries(
    st.text(min_size=1, max_size=12),
    st.one_of(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
        st.booleans(),
        st.none(),
    ),
    max_size=6,
)


@pytest.fixture
def store(tmp_path):
    return SweepStore(tmp_path / "sweeps")


@pytest.fixture
def isolated_simsweep(tmp_path):
    """Point simsweep at a fresh disk store; restore the suite's after."""
    saved = simsweep._disk_store
    simsweep.set_disk_store(tmp_path / "sweeps")
    simsweep.clear_cache(memory_only=True)
    yield simsweep
    simsweep.clear_cache(memory_only=True)
    simsweep._disk_store = saved


class TestSweepStoreRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(payload=payloads)
    def test_round_trip_returns_equal_payload(self, tmp_path_factory, payload):
        store = SweepStore(tmp_path_factory.mktemp("rt"))
        key = store.key_for({"case": "round-trip"})
        store.put(key, payload)
        assert store.get(key) == payload

    def test_missing_key_is_none(self, store):
        assert store.get(store.key_for({"never": "stored"})) is None

    def test_len_and_clear(self, store):
        for i in range(3):
            store.put(store.key_for({"i": i}), {"v": i})
        assert len(store) == 3
        store.clear()
        assert len(store) == 0
        assert store.get(store.key_for({"i": 0})) is None

    def test_put_overwrites_atomically(self, store):
        key = store.key_for({"x": 1})
        store.put(key, {"v": 1})
        store.put(key, {"v": 2})
        assert store.get(key) == {"v": 2}
        assert len(store) == 1

    def test_unserialisable_payload_never_raises(self, store):
        """The "a failed write never raises" contract must cover
        ``json.dumps`` failures, not just OS errors (regression: a
        TypeError used to escape ``put``)."""
        key = store.key_for({"x": "bad"})
        assert store.put(key, {"v": object()}) is None
        assert store.put(key, {"v": {1, 2}}) is None  # sets aren't JSON
        assert store.get(key) is None
        # no half-written temp files left behind
        assert not list(store.root.glob("*.tmp"))
        # the store still works for good payloads afterwards
        assert store.put(key, {"v": 1}) is not None
        assert store.get(key) == {"v": 1}


class TestKeySensitivity:
    def test_key_is_deterministic(self, store):
        desc = {"workload": {"name": "kmeans", "size": 500}, "threads": 4}
        assert store.key_for(desc) == store.key_for(dict(desc))

    def test_key_ignores_dict_order(self, store):
        a = store.key_for({"a": 1, "b": 2})
        b = store.key_for({"b": 2, "a": 1})
        assert a == b

    @settings(max_examples=40, deadline=None)
    @given(
        threads=st.integers(min_value=1, max_value=64),
        other=st.integers(min_value=1, max_value=64),
    )
    def test_changed_field_changes_key(self, threads, other):
        base = {"workload": "kmeans", "threads": threads}
        changed = {"workload": "kmeans", "threads": other}
        assert (SweepStore.key_for(base) == SweepStore.key_for(changed)) == (
            threads == other
        )

    def test_machine_config_changes_key(self, store):
        cfg = MachineConfig.baseline(n_cores=4)
        variants = [
            replace(cfg, coherence_protocol="msi"),
            replace(cfg, interconnect="mesh"),
            replace(cfg, dram="banked"),
            replace(cfg, prefetch_next_line=True),
            MachineConfig.baseline(n_cores=8),
        ]
        keys = {store.key_for({"machine": asdict(c)}) for c in [cfg, *variants]}
        assert len(keys) == len(variants) + 1  # all distinct

    def test_sim_version_changes_key(self, store):
        a = store.key_for({"sim_version": 1, "w": "kmeans"})
        b = store.key_for({"sim_version": 2, "w": "kmeans"})
        assert a != b


class TestCorruptEntriesAreMisses:
    def test_truncated_file_is_a_miss(self, store):
        key = store.key_for({"x": 1})
        store.put(key, {"v": 1})
        path = store.path_for(key)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get(key) is None

    def test_garbage_bytes_are_a_miss(self, store):
        key = store.key_for({"x": 2})
        store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key).write_bytes(b"\x00\xff not json \xfe")
        assert store.get(key) is None

    def test_wrong_schema_version_is_a_miss(self, store):
        key = store.key_for({"x": 3})
        store.put(key, {"v": 3})
        raw = json.loads(store.path_for(key).read_text())
        raw["schema"] = 999
        store.path_for(key).write_text(json.dumps(raw))
        assert store.get(key) is None

    def test_key_mismatch_is_a_miss(self, store):
        # an entry copied under the wrong filename must not satisfy a lookup
        key_a, key_b = store.key_for({"x": "a"}), store.key_for({"x": "b"})
        store.put(key_a, {"v": "a"})
        store.path_for(key_b).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key_b).write_text(store.path_for(key_a).read_text())
        assert store.get(key_b) is None

    def test_unreadable_directory_is_empty_not_crash(self, tmp_path):
        store = SweepStore(tmp_path / "never-created")
        assert len(store) == 0
        assert store.get(store.key_for({"x": 1})) is None
        store.clear()  # no-op, no crash


class TestSimsweepDiskTier:
    def _workload(self):
        return simsweep.default_workloads(0.03)["kmeans"]

    def test_disk_hit_restores_equal_breakdown(self, isolated_simsweep):
        wl = self._workload()
        a = simsweep.simulate_breakdowns(wl, (1,), n_cores=2, mem_scale=8)
        simsweep.clear_cache(memory_only=True)  # drop memo, keep disk
        b = simsweep.simulate_breakdowns(wl, (1,), n_cores=2, mem_scale=8)
        assert simsweep.cache_info()["disk_hits"] == 1
        assert a[1] is not b[1]
        assert asdict(a[1]) == asdict(b[1])

    def test_corrupt_disk_entry_falls_back_to_simulation(self, isolated_simsweep, tmp_path):
        wl = self._workload()
        a = simsweep.simulate_breakdowns(wl, (1,), n_cores=2, mem_scale=8)
        store = simsweep._get_disk()
        for f in store.root.glob("*.json"):
            f.write_text("{ truncated")
        simsweep.clear_cache(memory_only=True)
        b = simsweep.simulate_breakdowns(wl, (1,), n_cores=2, mem_scale=8)
        assert simsweep.cache_info()["misses"] == 1  # re-simulated
        assert asdict(a[1]) == asdict(b[1])

    def test_clear_cache_clears_disk_tier(self, isolated_simsweep):
        wl = self._workload()
        simsweep.simulate_breakdowns(wl, (1,), n_cores=2, mem_scale=8)
        assert simsweep.cache_info()["disk_entries"] == 1
        simsweep.clear_cache()
        assert simsweep.cache_info()["disk_entries"] == 0
        simsweep.simulate_breakdowns(wl, (1,), n_cores=2, mem_scale=8)
        assert simsweep.cache_info()["misses"] == 1  # nothing survived

    def test_clear_cache_memory_only_keeps_disk(self, isolated_simsweep):
        wl = self._workload()
        simsweep.simulate_breakdowns(wl, (1,), n_cores=2, mem_scale=8)
        simsweep.clear_cache(memory_only=True)
        assert simsweep.cache_info()["memory_entries"] == 0
        assert simsweep.cache_info()["disk_entries"] == 1

    def test_disabled_disk_tier_still_simulates(self, isolated_simsweep):
        simsweep.set_disk_store(None)
        wl = self._workload()
        out = simsweep.simulate_breakdowns(wl, (1,), n_cores=2, mem_scale=8)
        assert out[1].total > 0
        assert simsweep.cache_info()["disk_entries"] == 0

    def test_machine_config_is_part_of_the_memo_key(self, isolated_simsweep):
        wl = self._workload()
        a = simsweep.simulate_breakdowns(
            wl, (1,), n_cores=2, mem_scale=8,
            config=MachineConfig.baseline(n_cores=2),
        )
        b = simsweep.simulate_breakdowns(
            wl, (1,), n_cores=2, mem_scale=8,
            config=replace(MachineConfig.baseline(n_cores=2), coherence_protocol="msi"),
        )
        assert simsweep.cache_info()["misses"] == 2  # no cross-config hit
        assert a[1] is not b[1]

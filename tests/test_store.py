"""Tests for ``repro.store`` — the content-addressed persistent cache.

Covers key derivation stability, the two-tier lookup path (memory hit /
disk hit / miss, with per-tier stats), corruption quarantine, size-budget
eviction, the process-default plumbing (``configure_store`` and the
``REPRO_STORE_DIR`` env var), and the in-tree cache hook: the
compiled-block LRU's persistent tier.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import store as repro_store
from repro.bpu import skylake
from repro.core.randomizer import (
    RandomizationBlock,
    clear_compile_cache,
    compile_cache_info,
)
from repro.cpu import PhysicalCore, Process
from repro.store import ContentStore, configure_store, get_store, store_key


@pytest.fixture(autouse=True)
def _no_default_store():
    """Each test starts and ends with no process-default store."""
    configure_store(None)
    clear_compile_cache()
    yield
    configure_store(None)
    clear_compile_cache()


@pytest.fixture
def store(tmp_path) -> ContentStore:
    return ContentStore(tmp_path / "store")


class TestStoreKey:
    def test_deterministic_and_order_insensitive(self):
        a = store_key("thing", alpha=1, beta="x")
        b = store_key("thing", beta="x", alpha=1)
        assert a == b
        assert a.startswith("thing-")

    def test_distinct_parts_distinct_keys(self):
        base = store_key("thing", alpha=1)
        assert store_key("thing", alpha=2) != base
        assert store_key("other", alpha=1) != base
        # Type distinctions survive canonicalisation.
        assert store_key("thing", alpha="1") != base

    def test_nested_containers_canonicalise(self):
        a = store_key("k", parts=(1, "two", (3.0, None)))
        b = store_key("k", parts=[1, "two", [3.0, None]])
        assert a == b  # tuples and lists canonicalise alike

    def test_unstable_repr_rejected(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="no stable repr"):
            store_key("thing", obj=Opaque())


class TestContentStore:
    def test_miss_then_put_then_memory_hit(self, store):
        key = store_key("unit", n=1)
        found, value = store.get(key)
        assert not found and value is None
        store.put(key, {"answer": 42})
        found, value = store.get(key)
        assert found and value == {"answer": 42}
        stats = store.stats_dict()
        assert stats["misses"] == 1
        assert stats["memory_hits"] == 1
        assert stats["disk_hits"] == 0
        assert stats["puts"] == 1
        assert stats["bytes_written"] > 0

    def test_disk_hit_survives_new_process_state(self, store, tmp_path):
        key = store_key("unit", n=2)
        store.put(key, [1, 2, 3])
        # A second store over the same root models a fresh process.
        fresh = ContentStore(tmp_path / "store")
        found, value = fresh.get(key)
        assert found and value == [1, 2, 3]
        assert fresh.stats_dict()["disk_hits"] == 1
        # The disk hit populated the memory tier.
        found, _ = fresh.get(key)
        assert found
        assert fresh.stats_dict()["memory_hits"] == 1

    def test_memory_false_bypasses_memory_tier(self, store):
        key = store_key("unit", n=3)
        store.put(key, "v", memory=False)
        found, value = store.get(key, memory=False)
        assert found and value == "v"
        stats = store.stats_dict()
        assert stats["disk_hits"] == 1
        assert stats["memory_hits"] == 0

    def test_contains_and_total_bytes(self, store):
        key = store_key("unit", n=4)
        assert not store.contains(key)
        store.put(key, b"payload")
        assert store.contains(key)
        assert store.total_bytes() > 0

    def test_corrupt_file_reads_as_miss_and_is_deleted(self, store):
        key = store_key("unit", n=5)
        store.put(key, "good")
        path = store.root / f"{key}.pkl"
        path.write_bytes(path.read_bytes()[:-3] + b"???")
        found, value = store.get(key, memory=False)  # force the disk path
        assert not found and value is None
        assert not path.exists()
        stats = store.stats_dict()
        assert stats["corrupt"] == 1

    def test_foreign_file_reads_as_miss(self, store):
        key = store_key("unit", n=6)
        (store.root / f"{key}.pkl").write_bytes(b"not a store file")
        found, _ = store.get(key)
        assert not found
        assert store.stats_dict()["corrupt"] == 1

    def test_eviction_to_byte_budget(self, tmp_path):
        store = ContentStore(tmp_path / "s", max_bytes=1)
        blob = os.urandom(512)
        keys = [store_key("unit", n=i, blob=i) for i in range(4)]
        for i, key in enumerate(keys):
            store.put(key, blob + bytes([i]))
        # Budget of one byte: every put immediately evicts down to at
        # most one resident file (the newest, which alone exceeds it).
        assert store.stats_dict()["evictions"] >= 3
        resident = list((tmp_path / "s").glob("*.pkl"))
        assert len(resident) <= 1

    def test_lru_eviction_prefers_stale_entries(self, tmp_path):
        store = ContentStore(tmp_path / "s", max_bytes=0)  # 0 = unbounded
        old, new = store_key("u", n=1), store_key("u", n=2)
        store.put(old, "old")
        store.put(new, "new")
        # Make mtimes deterministic, then touch ``old`` via a hit.
        os.utime(store.root / f"{old}.pkl", (1, 1))
        os.utime(store.root / f"{new}.pkl", (2, 2))
        store.get(old, memory=False)
        store.max_bytes = store.total_bytes() - 1
        store.evict_to_budget()
        assert store.contains(old)  # recently used: kept
        assert not store.contains(new)

    def test_memory_tier_is_bounded(self, tmp_path):
        store = ContentStore(tmp_path / "s", memory_entries=2)
        keys = [store_key("u", n=i) for i in range(3)]
        for key in keys:
            store.put(key, key)
        assert len(store._memory) == 2
        assert keys[0] not in store._memory  # oldest evicted

    def test_clear_drops_both_tiers(self, store):
        key = store_key("unit", n=7)
        store.put(key, "v")
        store.clear()
        assert not store.contains(key)
        assert store.total_bytes() == 0


class TestDefaultStore:
    def test_unconfigured_returns_none(self):
        assert get_store() is None

    def test_configure_and_clear(self, tmp_path):
        store = configure_store(tmp_path / "s")
        assert isinstance(store, ContentStore)
        assert get_store() is store
        configure_store(None)
        assert get_store() is None

    def test_env_var_configures_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(repro_store.STORE_DIR_ENV, str(tmp_path / "env"))
        monkeypatch.setenv(repro_store.STORE_BYTES_ENV, "12345")
        # Reset the latch the autouse fixture set via configure_store.
        repro_store._ENV_CHECKED = False
        repro_store._DEFAULT_STORE = None
        store = get_store()
        assert store is not None
        assert store.root == tmp_path / "env"
        assert store.max_bytes == 12345


class TestCompileCachePersistentTier:
    def test_disk_tier_survives_lru_clear(self, tmp_path, skylake_core, spy):
        configure_store(tmp_path / "s")
        block = RandomizationBlock.generate(3, n_branches=500)
        first = block.compile(skylake_core, spy)
        info = compile_cache_info()
        assert info["misses"] == 1 and info["disk_hits"] == 0

        # Dropping the in-process LRU must not drop the persistent tier.
        clear_compile_cache()
        fresh_core = PhysicalCore(skylake().scaled(16), seed=7)
        again = block.compile(fresh_core, Process("spy"))
        info = compile_cache_info()
        assert info["disk_hits"] == 1
        assert info["memory_hits"] == 0
        np.testing.assert_array_equal(first.bimodal_map, again.bimodal_map)
        np.testing.assert_array_equal(first.gshare_map, again.gshare_map)
        assert first.ghr_end == again.ghr_end

    def test_store_traffic_attributed_to_compiled_block_kind(
        self, tmp_path, skylake_core, spy
    ):
        store = configure_store(tmp_path / "s")
        RandomizationBlock.generate(4, n_branches=500).compile(
            skylake_core, spy
        )
        stats = store.stats_dict()
        assert stats["puts"] == 1
        assert stats["misses"] == 1

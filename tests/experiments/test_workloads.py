"""Tests for the paper workload suite."""

import hashlib

import numpy as np
import pytest

from repro.experiments.workloads import build_trace, paper_trace_suite
from repro.trace.stats import TraceStatistics
from repro.trace.synthetic import StackDistanceGenerator


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestBuildTrace:
    def test_record_count(self):
        trace = build_trace("t", index=0, records=20_000, kernel=False)
        assert len(trace) == 20_000

    def test_warmup_marked(self):
        trace = build_trace("t", index=0, records=60_000, kernel=False)
        assert 0 < trace.warmup <= len(trace) // 2

    def test_kernel_traces_touch_kernel_space(self):
        trace = build_trace("vms", index=0, records=60_000, kernel=True)
        spaces = set((trace.addresses >> np.uint64(44)).tolist())
        assert 0xF in spaces

    def test_interleaved_traces_have_no_kernel(self):
        trace = build_trace("mix", index=1, records=60_000, kernel=False)
        spaces = set((trace.addresses >> np.uint64(44)).tolist())
        assert 0xF not in spaces

    def test_cpu_mix_matches_section_two(self):
        trace = build_trace("t", index=2, records=80_000, kernel=False)
        stats = TraceStatistics.measure(trace)
        assert stats.data_ref_per_ifetch == pytest.approx(0.5, abs=0.05)
        assert stats.data_read_fraction == pytest.approx(0.65, abs=0.05)

    def test_deterministic_by_index(self):
        a = build_trace("t", index=3, records=10_000, kernel=False)
        b = build_trace("t", index=3, records=10_000, kernel=False)
        assert np.array_equal(a.addresses, b.addresses)

    def test_different_indices_differ(self):
        a = build_trace("t", index=3, records=10_000, kernel=False)
        b = build_trace("t", index=4, records=10_000, kernel=False)
        assert not np.array_equal(a.addresses, b.addresses)


class TestPinnedBytes:
    """The exact bytes of a trace and of A-GEN's stack-distance stream.

    Any change to a generator's draws, their order or its LRU stack shows
    here directly, not only through the end-to-end report goldens.
    """

    @pytest.mark.parametrize(
        "args, kinds, addresses, warmup",
        [
            (
                ("vms0", 0, 30_000, True),
                "66c42946c5ccbcd2e34a3fc35175ab2b2df6c7f43458bdebbc8594fb9396a5e3",
                "089c032c9fb661bc2e59349ef75dfd6d0499b71e3db71bb0cec43c2fe337ffbf",
                15_000,
            ),
            (
                ("mix1", 1, 30_000, False),
                "be437ab6f07300d0056327c4249a4e8e09b92602bc2fbc7dd02b9b9f5d83ea05",
                "d104aa85a78ef325241b6be39661ce828c157829503bea785bd3fe1206a763f6",
                15_000,
            ),
        ],
    )
    def test_build_trace(self, args, kinds, addresses, warmup):
        name, index, records, kernel = args
        trace = build_trace(name, index=index, records=records, kernel=kernel)
        assert (trace.kinds.dtype, trace.addresses.dtype) == (np.uint8, np.uint64)
        assert _sha256(trace.kinds) == kinds
        assert _sha256(trace.addresses) == addresses
        assert trace.warmup == warmup

    def test_generator_ablation_stream(self):
        addresses = StackDistanceGenerator(seed=5).addresses(120_000)
        assert addresses.dtype == np.uint64
        assert _sha256(addresses) == (
            "fe939445a3cbd88d85bec3d2834430eedbddf8b83279846843edaff93b752648"
        )


class TestSuite:
    def test_suite_size_and_names(self):
        suite = paper_trace_suite(records=5_000, count=4)
        assert len(suite) == 4
        assert suite[0].name.startswith("vms")
        assert suite[1].name.startswith("mix")

    def test_suite_memoised(self):
        a = paper_trace_suite(records=5_000, count=2)
        b = paper_trace_suite(records=5_000, count=2)
        assert a is b

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_RECORDS", "6000")
        monkeypatch.setenv("REPRO_TRACES", "2")
        suite = paper_trace_suite()
        assert len(suite) == 2
        assert len(suite[0]) == 6000

    def test_trace_count_clamped_to_eight(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACES", "99")
        monkeypatch.setenv("REPRO_RECORDS", "2000")
        assert len(paper_trace_suite()) == 8

    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        first = paper_trace_suite(records=4_000, count=1)
        assert len(list(tmp_path.glob("trace-*.mlt"))) == 1
        # Clear the memory cache and reload from disk.
        from repro.experiments import workloads

        workloads._memory_cache.clear()
        second = paper_trace_suite(records=4_000, count=1)
        assert np.array_equal(first[0].addresses, second[0].addresses)
        assert second[0].warmup == first[0].warmup

    def test_disk_cached_suite_is_memmap_backed(self, tmp_path, monkeypatch):
        from repro.experiments import workloads

        workloads._memory_cache.clear()
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        suite = paper_trace_suite(records=4_000, count=1)
        assert isinstance(suite[0].addresses, np.memmap)

    def test_legacy_npz_cache_is_migrated(self, tmp_path, monkeypatch):
        from repro.experiments import workloads

        workloads._memory_cache.clear()
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        built = paper_trace_suite(records=4_000, count=1)
        (store_path,) = tmp_path.glob("trace-*.mlt")
        # Rewrite the cache entry as the pre-store .npz format.
        legacy = store_path.with_suffix(".npz")
        from repro.trace.store import TraceStore

        TraceStore.open(store_path).as_trace().save(legacy)
        store_path.unlink()
        workloads._memory_cache.clear()
        migrated = paper_trace_suite(records=4_000, count=1)
        assert store_path.exists()  # re-saved in the store format
        assert np.array_equal(migrated[0].addresses, built[0].addresses)
        assert migrated[0].warmup == built[0].warmup


class TestCacheResilience:
    """Damage to the disk cache is a *miss* -- quarantined, rebuilt,
    logged -- never a crash and never silently read."""

    RECORDS = 4_100  # distinct cache key from the other suite tests

    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        from repro.experiments import workloads

        workloads._memory_cache.clear()
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        self.cache = tmp_path
        yield
        workloads._memory_cache.clear()

    def _clear_memory(self):
        from repro.experiments import workloads

        workloads._memory_cache.clear()

    def _build(self):
        return paper_trace_suite(records=self.RECORDS, count=1)

    def test_bitrotted_entry_is_quarantined_and_rebuilt(self, caplog):
        import logging

        (built,) = self._build()
        # Copy out of the memmap before damaging its backing inode.
        expected = np.array(built.addresses)
        (store_path,) = self.cache.glob("trace-*.mlt")
        blob = bytearray(store_path.read_bytes())
        blob[-5] ^= 0x01  # rot inside the addresses segment
        store_path.write_bytes(bytes(blob))
        self._clear_memory()

        with caplog.at_level(logging.WARNING, "repro.experiments.workloads"):
            (rebuilt,) = self._build()
        assert "trace-cache-corrupt" in caplog.text
        assert "quarantine-and-rebuild" in caplog.text
        # The poisoned bytes were preserved as evidence, never re-read...
        jailed = [
            p for p in (self.cache / "quarantine").iterdir()
            if not p.name.endswith(".reason.json")
        ]
        assert len(jailed) == 1
        # ...and the rebuilt store is the same deterministic trace.
        assert store_path.exists()
        assert np.array_equal(rebuilt.addresses, expected)

    def test_torn_entry_is_quarantined_and_rebuilt(self):
        (built,) = self._build()
        expected = np.array(built.addresses)
        (store_path,) = self.cache.glob("trace-*.mlt")
        store_path.write_bytes(store_path.read_bytes()[:20])
        self._clear_memory()
        (rebuilt,) = self._build()
        assert np.array_equal(rebuilt.addresses, expected)
        assert (self.cache / "quarantine").exists()

    def test_failed_save_degrades_to_heap(self, caplog, monkeypatch):
        import logging

        monkeypatch.setenv("REPRO_FAULTS", "rename_fail:1.0")
        with caplog.at_level(logging.WARNING, "repro.experiments.workloads"):
            (trace,) = self._build()
        assert "trace-cache-save-failed" in caplog.text
        assert "degrade-to-heap" in caplog.text
        # The sweep proceeds on the heap trace; no torn store was
        # published (the damage sits on an orphaned tmp for doctor).
        assert not isinstance(trace.addresses, np.memmap)
        assert not list(self.cache.glob("trace-*.mlt"))
        assert len(trace) == self.RECORDS

    def test_corrupted_save_is_caught_by_the_reopen(self, caplog, monkeypatch):
        """An injected bitflip lands *during* the write; the post-save
        verify catches it because the header digests were hashed from
        the in-memory arrays before the bytes hit disk."""
        import logging

        monkeypatch.setenv("REPRO_FAULTS", "bitflip:1.0")
        with caplog.at_level(logging.WARNING, "repro.experiments.workloads"):
            (trace,) = self._build()
        assert "trace-cache-publish-corrupt" in caplog.text
        assert not isinstance(trace.addresses, np.memmap)  # known-good heap
        jailed = list((self.cache / "quarantine").iterdir())
        assert jailed  # the poisoned store, preserved
        assert not list(self.cache.glob("trace-*.mlt"))

    def test_deleted_store_re_derives_instead_of_aborting(self, caplog):
        import logging

        (built,) = self._build()
        (store_path,) = self.cache.glob("trace-*.mlt")
        store_path.unlink()  # e.g. cache dir pruned between run and resume
        with caplog.at_level(logging.WARNING, "repro.experiments.workloads"):
            (rederived,) = self._build()
        assert "trace-suite-store-missing" in caplog.text
        assert "re-derive" in caplog.text
        assert store_path.exists()  # rebuilt from the generator
        assert np.array_equal(rederived.addresses, built.addresses)
        assert rederived.warmup == built.warmup

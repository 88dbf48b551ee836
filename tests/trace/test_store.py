"""Tests for the zero-copy trace store and worker handoff."""

import json

import numpy as np
import pytest

from repro.sim import memo
from repro.trace.record import IFETCH, READ, WRITE, Trace
from repro.trace.store import (
    CONTENT_DIGEST_SLOT,
    StoreCorruptError,
    STORE_PATH_SLOT,
    STORE_SUFFIX,
    TraceHandle,
    TraceStore,
    content_digest,
    export_traces,
    resolve_traces,
    trace_content_digest,
)
from repro.trace.workload import SyntheticWorkload


@pytest.fixture(autouse=True)
def fresh_memo():
    memo.clear_memo_cache()
    yield
    memo.clear_memo_cache()


def sample_trace(records=1000, warmup=100, seed=5, name="stored"):
    trace = SyntheticWorkload(seed=seed).trace(records, warmup=warmup)
    trace.name = name
    trace.metadata["origin"] = "synthetic"
    return trace


class TestStoreFormat:
    def test_save_open_roundtrip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / ("t" + STORE_SUFFIX)
        saved = TraceStore.save(trace, path)
        opened = TraceStore.open(path)
        assert opened == saved
        loaded = opened.as_trace()
        assert loaded.name == "stored"
        assert loaded.warmup == 100
        assert np.array_equal(loaded.kinds, trace.kinds)
        assert np.array_equal(loaded.addresses, trace.addresses)
        assert loaded.metadata["origin"] == "synthetic"

    def test_open_returns_memmap_views(self, tmp_path):
        trace = sample_trace()
        TraceStore.save(trace, tmp_path / "t.mlt")
        loaded = TraceStore.open(tmp_path / "t.mlt").as_trace()
        assert isinstance(loaded.kinds, np.memmap)
        assert isinstance(loaded.addresses, np.memmap)

    def test_opened_arrays_are_read_only(self, tmp_path):
        trace = sample_trace()
        TraceStore.save(trace, tmp_path / "t.mlt")
        loaded = TraceStore.open(tmp_path / "t.mlt").as_trace()
        with pytest.raises(ValueError):
            loaded.kinds[0] = WRITE

    def test_save_drops_derived_metadata_but_records_digest(self, tmp_path):
        trace = sample_trace()
        trace.metadata["_stale"] = "derived"
        digest = trace_content_digest(trace)
        saved = TraceStore.save(trace, tmp_path / "t.mlt")
        assert saved.digest == digest
        assert "_stale" not in saved.metadata
        assert saved.metadata == {"origin": "synthetic"}

    def test_empty_trace_roundtrip(self, tmp_path):
        trace = Trace.from_records([], name="empty")
        TraceStore.save(trace, tmp_path / "t.mlt")
        loaded = TraceStore.open(tmp_path / "t.mlt").as_trace()
        assert len(loaded) == 0
        assert loaded.name == "empty"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.mlt"
        path.write_bytes(b"NOTATRCE" + b"\0" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            TraceStore.open(path)

    def test_truncated_file_rejected(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "t.mlt"
        TraceStore.save(trace, path)
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(ValueError, match="truncated"):
            TraceStore.open(path)

    def test_unsupported_version_rejected(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "t.mlt"
        TraceStore.save(trace, path)
        raw = path.read_bytes()
        mutated = raw.replace(b'"version": 1', b'"version": 9', 1)
        assert mutated != raw
        path.write_bytes(mutated)
        with pytest.raises(ValueError, match="unsupported store version"):
            TraceStore.open(path)


class TestDigestTrust:
    def test_digest_matches_whole_array_hash(self):
        import hashlib

        trace = sample_trace(records=3000)
        expected = hashlib.sha256(
            trace.kinds.tobytes() + trace.addresses.tobytes()
        ).hexdigest()
        assert content_digest(trace.kinds, trace.addresses) == expected

    def test_open_seeds_the_digest_slot(self, tmp_path):
        trace = sample_trace()
        TraceStore.save(trace, tmp_path / "t.mlt")
        loaded = TraceStore.open(tmp_path / "t.mlt").as_trace()
        assert loaded.metadata[CONTENT_DIGEST_SLOT] == trace_content_digest(trace)

    def test_fingerprint_identical_across_heap_and_store(self, tmp_path):
        trace = sample_trace()
        TraceStore.save(trace, tmp_path / "t.mlt")
        loaded = TraceStore.open(tmp_path / "t.mlt").as_trace()
        assert memo.trace_fingerprint(loaded) == memo.trace_fingerprint(trace)

    def test_slicing_a_store_trace_drops_store_slots(self, tmp_path):
        trace = sample_trace()
        TraceStore.save(trace, tmp_path / "t.mlt")
        loaded = TraceStore.open(tmp_path / "t.mlt").as_trace()
        assert STORE_PATH_SLOT in loaded.metadata
        half = loaded[: len(loaded) // 2]
        assert STORE_PATH_SLOT not in half.metadata
        assert CONTENT_DIGEST_SLOT not in half.metadata
        assert memo.trace_fingerprint(half) != memo.trace_fingerprint(loaded)


class TestWorkerHandoff:
    def test_store_backed_traces_export_as_paths(self, tmp_path):
        trace = sample_trace()
        TraceStore.save(trace, tmp_path / "t.mlt")
        loaded = TraceStore.open(tmp_path / "t.mlt").as_trace()
        handles, lease = export_traces([loaded])
        try:
            assert handles[0].kind == "store"
            assert lease.segments == []
            (resolved,) = resolve_traces(handles)
            assert np.array_equal(resolved.addresses, trace.addresses)
            assert resolved.warmup == trace.warmup
        finally:
            lease.release()

    def test_heap_traces_export_via_shared_memory(self):
        trace = sample_trace()
        fingerprint = memo.trace_fingerprint(trace)
        handles, lease = export_traces([trace])
        try:
            assert handles[0].kind == "shm"
            (resolved,) = resolve_traces(handles)
            assert np.array_equal(resolved.kinds, trace.kinds)
            assert np.array_equal(resolved.addresses, trace.addresses)
            assert resolved.name == trace.name
            assert resolved.warmup == trace.warmup
            assert resolved.metadata["origin"] == "synthetic"
            # Digest and fingerprint ride along so workers skip re-hashing.
            assert resolved.metadata[CONTENT_DIGEST_SLOT] == trace_content_digest(trace)
            assert memo.trace_fingerprint(resolved) == fingerprint
        finally:
            lease.release()

    def test_inherited_heap_traces_export_inline(self, tmp_path):
        """Forked workers see the parent's arrays: no segment, no copy;
        a store-backed trace still ships as its path."""
        heap = sample_trace()
        TraceStore.save(heap, tmp_path / "t.mlt")
        loaded = TraceStore.open(tmp_path / "t.mlt").as_trace()
        handles, lease = export_traces([heap, loaded], inherited=True)
        try:
            assert [handle.kind for handle in handles] == ["inline", "store"]
            assert lease.segments == []
            resolved, _ = resolve_traces(handles)
            assert resolved is heap
        finally:
            lease.release()

    def test_empty_traces_export_inline(self):
        handles, lease = export_traces([Trace.from_records([])])
        try:
            assert handles[0].kind == "inline"
            (resolved,) = resolve_traces(handles)
            assert len(resolved) == 0
        finally:
            lease.release()

    def test_lease_release_is_idempotent(self):
        handles, lease = export_traces([sample_trace(records=64, warmup=0)])
        assert handles[0].kind == "shm"
        lease.release()
        lease.release()
        assert lease.segments == []

    def test_unknown_handle_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown trace handle kind"):
            resolve_traces([TraceHandle("carrier-pigeon", ())])

    def test_mixed_kind_records_survive_handoff(self):
        trace = Trace.from_records(
            [(IFETCH, 0x10), (READ, 0x20), (WRITE, 0x30)], warmup=1
        )
        handles, lease = export_traces([trace])
        try:
            (resolved,) = resolve_traces(handles)
            assert list(resolved.records()) == list(trace.records())
        finally:
            lease.release()


class TestIntegrityVerify:
    def _saved(self, tmp_path):
        path = tmp_path / ("t" + STORE_SUFFIX)
        return TraceStore.save(sample_trace(), path), path

    def _flip(self, path, offset):
        blob = bytearray(path.read_bytes())
        blob[offset] ^= 0x01
        path.write_bytes(bytes(blob))

    def _strip_segment_digests(self, path):
        """Rewrite the header as a pre-per-segment-digest writer would
        have: same reserved length (space-padded), no segment digests."""
        raw = bytearray(path.read_bytes())
        length = int.from_bytes(raw[8:16], "little")
        header = json.loads(bytes(raw[16 : 16 + length]))
        del header["kinds_digest"]
        del header["addresses_digest"]
        blob = json.dumps(header).encode()
        raw[16 : 16 + length] = blob + b" " * (length - len(blob))
        path.write_bytes(bytes(raw))

    def test_save_records_per_segment_digests(self, tmp_path):
        saved, path = self._saved(tmp_path)
        opened = TraceStore.open(path)
        assert opened.kinds_digest == saved.kinds_digest
        assert opened.addresses_digest == saved.addresses_digest
        assert len(saved.kinds_digest) == 64
        assert saved.kinds_digest != saved.addresses_digest

    def test_verify_passes_on_a_clean_store(self, tmp_path):
        _, path = self._saved(tmp_path)
        TraceStore.open(path, verify=True)
        TraceStore.open(path).verify()

    def test_verify_names_the_rotted_segment(self, tmp_path):
        _, path = self._saved(tmp_path)
        self._flip(path, path.stat().st_size - 5)  # inside addresses
        with pytest.raises(StoreCorruptError, match="addresses segment"):
            TraceStore.open(path, verify=True)

        _, path = self._saved(tmp_path)
        self._flip(path, TraceStore.open(path).kinds_offset)
        with pytest.raises(StoreCorruptError, match="kinds segment"):
            TraceStore.open(path, verify=True)

    def test_open_without_verify_skips_the_hash(self, tmp_path):
        """Segment verification is opt-in: a bare open stays O(header)
        and will not notice bit rot inside the data pages."""
        _, path = self._saved(tmp_path)
        self._flip(path, path.stat().st_size - 5)
        TraceStore.open(path)  # no error: the header is intact

    def test_legacy_store_verifies_against_the_combined_digest(self, tmp_path):
        _, path = self._saved(tmp_path)
        self._strip_segment_digests(path)
        opened = TraceStore.open(path)
        assert opened.kinds_digest is None
        opened.verify()  # clean legacy store: combined digest matches

        self._flip(path, path.stat().st_size - 5)
        with pytest.raises(StoreCorruptError, match="legacy store"):
            TraceStore.open(path, verify=True)

    def test_corruption_errors_are_typed(self, tmp_path):
        # Not a store at all.
        garbage = tmp_path / "g.mlt"
        garbage.write_bytes(b"NOTATRCE" + b"\0" * 64)
        with pytest.raises(StoreCorruptError):
            TraceStore.open(garbage)

        # Header torn mid-length-field (a crash during a legacy
        # non-atomic write, or severe truncation).
        torn = tmp_path / "torn.mlt"
        torn.write_bytes(b"MLCTRACE" + b"\x07")
        with pytest.raises(StoreCorruptError, match="truncated store header"):
            TraceStore.open(torn)

        # Length field that would allocate garbage.
        bloated = tmp_path / "b.mlt"
        bloated.write_bytes(b"MLCTRACE" + (1 << 40).to_bytes(8, "little"))
        with pytest.raises(StoreCorruptError, match="implausible header length"):
            TraceStore.open(bloated)

        # Header bytes that are not JSON.
        unjson = tmp_path / "u.mlt"
        unjson.write_bytes(b"MLCTRACE" + (4).to_bytes(8, "little") + b"\xff\xfe{[")
        with pytest.raises(StoreCorruptError, match="unparseable"):
            TraceStore.open(unjson)

    def test_version_and_absence_are_not_corruption(self, tmp_path):
        _, path = self._saved(tmp_path)
        raw = path.read_bytes().replace(b'"version": 1', b'"version": 9', 1)
        path.write_bytes(raw)
        with pytest.raises(ValueError) as info:
            TraceStore.open(path)
        assert not isinstance(info.value, StoreCorruptError)

        with pytest.raises(FileNotFoundError):
            TraceStore.open(tmp_path / "absent.mlt")

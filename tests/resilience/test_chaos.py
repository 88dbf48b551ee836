"""The chaos drill's shared-memory check.

The drill itself runs as a CI job (``python -m repro.resilience.chaos``);
this pins the piece of it that decides whether a ``shared_memory``
segment outlived the drill.
"""

from multiprocessing import shared_memory

import pytest

from repro.resilience import chaos


@pytest.mark.skipif(
    chaos._shm_segments() is None, reason=f"no {chaos.SHM_DIR} on this host"
)
def test_a_surviving_segment_is_reported(monkeypatch):
    monkeypatch.setattr(chaos, "SHM_GRACE_S", 0.0)
    before = chaos._shm_segments()
    segment = shared_memory.SharedMemory(create=True, size=64)
    try:
        survivors = chaos._surviving_segments(before)
        assert survivors == [segment.name.lstrip("/")]
        assert chaos._shm_failures(survivors)
    finally:
        segment.close()
        segment.unlink()
    assert chaos._surviving_segments(before) == []
    assert chaos._shm_failures([]) == []


def test_no_shm_directory_skips_the_check(monkeypatch, tmp_path):
    monkeypatch.setattr(chaos, "SHM_DIR", tmp_path / "absent")
    assert chaos._shm_segments() is None
    assert chaos._surviving_segments(None) == []

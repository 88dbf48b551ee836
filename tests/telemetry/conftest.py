"""Shared fixtures for the telemetry tests.

Every test starts from a pristine recorder with telemetry *enabled* and
a sink under ``tmp_path`` (tests covering the disabled path flip the
env var and :func:`repro.telemetry.reset` themselves).  Traces are
deliberately small: these tests pin recording semantics, not
simulation fidelity.
"""

import pytest

from repro import telemetry
from repro.sim import memo
from repro.sim.config import LevelConfig, SystemConfig
from repro.trace.workload import SyntheticWorkload
from repro.units import KB


@pytest.fixture(autouse=True)
def fresh_telemetry(tmp_path, monkeypatch):
    """Telemetry on, sink in tmp_path, recorder state reset around each
    test (the recorder is module-global, like the memo cache)."""
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    monkeypatch.setenv(
        "REPRO_TELEMETRY_PATH", str(tmp_path / "run.telemetry.jsonl")
    )
    telemetry.reset()
    yield
    telemetry.reset()


@pytest.fixture(autouse=True)
def fresh_memo():
    """Each test starts from an empty cache."""
    memo.clear_memo_cache()
    yield
    memo.clear_memo_cache()


@pytest.fixture(scope="session")
def tiny_traces():
    """Two small single-process traces with distinct seeds."""
    return [
        SyntheticWorkload(seed=23 + t, address_base=t << 40).trace(
            6_000, name=f"tele{t}", warmup=1_000
        )
        for t in range(2)
    ]


@pytest.fixture(scope="session")
def tiny_config():
    return SystemConfig(
        levels=(
            LevelConfig(size_bytes=2 * KB, block_bytes=16,
                        cycle_cpu_cycles=1, write_hit_cycles=2),
            LevelConfig(size_bytes=32 * KB, block_bytes=32,
                        cycle_cpu_cycles=3, write_hit_cycles=2),
        )
    )


@pytest.fixture
def config_grid(tiny_config):
    """Eight functionally-distinct configurations (L1 size axis)."""
    return [
        tiny_config.with_level(0, size_bytes=size)
        for size in (1 * KB, 2 * KB, 4 * KB, 8 * KB,
                     16 * KB, 32 * KB, 64 * KB, 128 * KB)
    ]

"""Shared fixtures for the resilience tests.

The workloads here are deliberately tiny: these tests exercise recovery
machinery (retries, timeouts, worker deaths, journals), not simulation
fidelity, so each cell should cost milliseconds.
"""

import pytest

from repro.sim import memo
from repro.sim.config import LevelConfig, SystemConfig
from repro.trace.workload import SyntheticWorkload
from repro.units import KB


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
        SyntheticWorkload(seed=11 + t, address_base=t << 40).trace(
            6_000, name=f"tiny{t}", warmup=1_000
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
    """Six configurations: three sizes x two timing variants."""
    grid = []
    for size in (2 * KB, 4 * KB, 8 * KB):
        sized = tiny_config.with_level(0, size_bytes=size)
        grid.append(sized)
        grid.append(sized.with_level(1, cycle_cpu_cycles=5))
    return grid

"""Hierarchy simulators.

* :mod:`repro.sim.config` -- declarative machine description
  (:class:`~repro.sim.config.SystemConfig`) and a text config parser like
  the paper's simulator input file.
* :mod:`repro.sim.hierarchy` -- builds the cache objects and propagates
  accesses between levels (functional behaviour).
* :mod:`repro.sim.functional` -- miss-ratio simulation (no timing):
  fast sweeps and the local/global/solo metrics of section 3.
* :mod:`repro.sim.timing` -- nanosecond-resolution execution-time
  simulation with write buffers, bus transfers and DRAM recovery: the
  measurement engine behind sections 4 and 5.
"""

from repro.sim.config import (
    CpuConfig,
    LevelConfig,
    SystemConfig,
    format_config,
    parse_config,
)
from repro.sim.fast import (
    FastFunctionalSimulator,
    fast_eligible,
    front_depth,
    run_functional,
    sparse_eligible,
)
from repro.sim.hierarchy import CacheHierarchy
from repro.sim.functional import FunctionalResult, FunctionalSimulator, simulate_miss_ratios
from repro.sim.timing import TimingResult, TimingSimulator, simulate_execution_time

__all__ = [
    "CpuConfig",
    "LevelConfig",
    "SystemConfig",
    "parse_config",
    "format_config",
    "CacheHierarchy",
    "FastFunctionalSimulator",
    "fast_eligible",
    "front_depth",
    "run_functional",
    "sparse_eligible",
    "FunctionalSimulator",
    "FunctionalResult",
    "simulate_miss_ratios",
    "TimingSimulator",
    "TimingResult",
    "simulate_execution_time",
]

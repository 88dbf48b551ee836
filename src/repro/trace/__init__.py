"""Address-trace substrate.

The paper drives its simulator with eight large multiprogramming address
traces (four ATUM VAX traces and four interleaved MIPS R2000 traces).  Those
traces are proprietary, so this package provides:

* :mod:`repro.trace.record` -- the in-memory trace representation
  (:class:`~repro.trace.record.Trace`, reference kinds).
* :mod:`repro.trace.synthetic` -- synthetic data-reference generators whose
  locality is calibrated to the paper's own characterisation of its traces
  (solo miss ratio falls by ~0.69 per cache-size doubling).
* :mod:`repro.trace.instr` -- an instruction-fetch stream model (sequential
  runs, loops, function calls over a code footprint).
* :mod:`repro.trace.multiprogram` -- interleaves per-process streams at
  geometric context-switch intervals, recreating the multiprogramming
  structure of the VAX traces.
* :mod:`repro.trace.dinero` -- Dinero-style ``.din`` text trace I/O for
  interoperability with classic cache simulators.
* :mod:`repro.trace.stats` -- trace statistics (read/write mix, footprints,
  stack-distance profiles).
* :mod:`repro.trace.warmup` -- cold-start handling.
"""

from repro.trace.record import IFETCH, READ, WRITE, KIND_NAMES, Trace, concat_traces
from repro.trace.store import TraceStore
from repro.trace.synthetic import (
    ParetoStackDistanceModel,
    StackDistanceGenerator,
    ZipfGenerator,
)
from repro.trace.instr import InstructionStreamGenerator
from repro.trace.multiprogram import MultiprogramScheduler, ProcessSpec
from repro.trace.workload import SyntheticWorkload
from repro.trace.dinero import read_dinero, write_dinero
from repro.trace.stats import TraceStatistics, stack_distance_profile
from repro.trace.warmup import skip_warmup, warmup_boundary

__all__ = [
    "IFETCH",
    "READ",
    "WRITE",
    "KIND_NAMES",
    "Trace",
    "TraceStore",
    "concat_traces",
    "ParetoStackDistanceModel",
    "StackDistanceGenerator",
    "ZipfGenerator",
    "InstructionStreamGenerator",
    "MultiprogramScheduler",
    "ProcessSpec",
    "SyntheticWorkload",
    "read_dinero",
    "write_dinero",
    "TraceStatistics",
    "stack_distance_profile",
    "skip_warmup",
    "warmup_boundary",
]

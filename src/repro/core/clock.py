"""The one sanctioned monotonic clock.

Every wall-time measurement in this repository -- telemetry spans
(:mod:`repro.telemetry`), sweep phase timing, benchmark legs -- reads
*this* module, not ``time`` directly.  Centralising the read matters for
two reasons:

* **Determinism discipline.**  The static-analysis rules treat ambient
  clock reads as contamination: RPR001 bans them textually from
  simulation code, and RPR008 (memo purity) reports a ``reads-clock``
  effect in any memo-path function, made there or in a callee at any
  depth; both classify clocks by one sink table
  (:mod:`repro.lint.project.indexer`).  This module (and the
  telemetry layer built on it) is the explicitly sanctioned exception --
  an effect *barrier* in the interprocedural analysis
  (:data:`repro.lint.project.analysis.SANCTIONED_RELPATHS`) rather than
  a scatter of per-line ``noqa`` waivers -- because its readings are
  only ever *observed* (timings, spans, manifests), never fed back into
  simulation results.

* **Cross-process comparability.**  ``time.monotonic_ns`` is
  ``CLOCK_MONOTONIC`` on Linux, a *system-wide* clock: timestamps taken
  inside fork or spawn worker processes are directly comparable with the
  supervisor's, which is what lets worker span buffers be re-parented
  under the supervisor's sweep span without any epoch translation.

The values are nanoseconds from an arbitrary epoch: differences are
meaningful, absolute values are not.  :func:`wall_unix` is the one
wall-clock reader (sink metadata only, so exported traces can be pinned
to calendar time).
"""

from __future__ import annotations

import time

__all__ = ["monotonic_ns", "elapsed_s", "wall_unix", "Stopwatch"]


def monotonic_ns() -> int:
    """Nanoseconds on the system-wide monotonic clock."""
    return time.monotonic_ns()


def elapsed_s(since_ns: int) -> float:
    """Seconds elapsed since a :func:`monotonic_ns` reading."""
    return (monotonic_ns() - since_ns) / 1e9


def wall_unix() -> float:
    """Seconds since the Unix epoch (telemetry sink metadata only)."""
    return time.time()


class Stopwatch:
    """A restartable elapsed-seconds reading on the monotonic clock.

    The benchmark idiom::

        watch = Stopwatch()
        ...leg under test...
        wall_s = watch.elapsed_s()

    replaces paired ``time.perf_counter()`` reads; the single shared
    clock keeps benchmark walls, telemetry spans and manifest phase
    times on one comparable timebase.
    """

    __slots__ = ("_started_ns",)

    def __init__(self) -> None:
        self._started_ns = monotonic_ns()

    def restart(self) -> None:
        """Reset the epoch to now."""
        self._started_ns = monotonic_ns()

    def elapsed_ns(self) -> int:
        """Nanoseconds since construction (or the last restart)."""
        return monotonic_ns() - self._started_ns

    def elapsed_s(self) -> float:
        """Seconds since construction (or the last restart)."""
        return self.elapsed_ns() / 1e9

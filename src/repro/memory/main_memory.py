"""Main-memory (DRAM) timing model.

The paper's memory model (section 2) decomposes an access into three
components: a read operation takes 180 ns from address available to 8 words
of data available; a write takes 100 ns from address-and-data available to
write complete; and at least 120 ns of refresh and cycle time must elapse
between successive data operations.

We model the recovery constraint as a minimum gap between the *end* of one
data operation and the *start* of the next.  With the base machine's 30 ns
backplane cycle this yields an 8-word L2 fetch penalty between 270 ns (idle
memory: address cycle 30 + read 180 + two data cycles 60) and 390 ns (the
request arrives just as a previous operation completes); the paper quotes
270-370 ns, the small difference coming from unspecified overlap between
the address cycle and the recovery window.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MemoryTiming:
    """DRAM operation latencies in nanoseconds."""

    read_ns: float = 180.0
    write_ns: float = 100.0
    recovery_ns: float = 120.0

    def __post_init__(self) -> None:
        if self.read_ns <= 0 or self.write_ns <= 0:
            raise ValueError("operation times must be positive")
        if self.recovery_ns < 0:
            raise ValueError("recovery_ns cannot be negative")

    def scaled(self, factor: float) -> "MemoryTiming":
        """Uniformly slower/faster memory (Figure 4-4 doubles everything)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return MemoryTiming(
            read_ns=self.read_ns * factor,
            write_ns=self.write_ns * factor,
            recovery_ns=self.recovery_ns * factor,
        )


class MainMemory:
    """Stateful DRAM with the recovery constraint between operations."""

    def __init__(self, timing: MemoryTiming = MemoryTiming()) -> None:
        self.timing = timing
        #: End time of the most recent data operation.
        self._last_end = float("-inf")
        self.reads = 0
        self.writes = 0
        #: Total time spent waiting out recovery windows (for reporting).
        self.recovery_wait_ns = 0.0

    def _start_after(self, ready: float) -> float:
        earliest = self._last_end + self.timing.recovery_ns
        start = earliest if earliest > ready else ready
        self.recovery_wait_ns += start - ready
        return start

    def read(self, ready: float) -> float:
        """Perform a read whose address arrives at ``ready``.

        Returns the time data becomes available at the memory pins.
        """
        start = self._start_after(ready)
        end = start + self.timing.read_ns
        self._last_end = end
        self.reads += 1
        return end

    def write(self, ready: float) -> float:
        """Perform a write whose address and data arrive at ``ready``.

        Returns the write completion time.
        """
        start = self._start_after(ready)
        end = start + self.timing.write_ns
        self._last_end = end
        self.writes += 1
        return end

    def reset(self) -> None:
        self._last_end = float("-inf")
        self.reads = 0
        self.writes = 0
        self.recovery_wait_ns = 0.0

"""Synchronous bus model.

Both busses in the base machine are 4 words wide and run at the cycle time
of the downstream side (the L2 cache clocks the CPU-L2 bus; the backplane
clocks the memory bus at the L2 rate).  Transfers take whole bus cycles: one
cycle carries the address, and each data cycle moves up to ``width_words``
words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.units import WORD_BYTES


@dataclass
class Bus:
    """A words-wide synchronous bus.

    Parameters
    ----------
    width_words:
        Words moved per data cycle (4 in the base machine).
    cycle_ns:
        Bus cycle time in nanoseconds.
    """

    width_words: int
    cycle_ns: float

    def __post_init__(self) -> None:
        if self.width_words < 1:
            raise ValueError("width_words must be at least 1")
        if self.cycle_ns <= 0:
            raise ValueError("cycle_ns must be positive")
        #: Time until which the bus is carrying a transfer (for contention).
        self.busy_until = 0.0

    @property
    def width_bytes(self) -> int:
        return self.width_words * WORD_BYTES

    def data_cycles(self, size_bytes: int) -> int:
        """Bus cycles needed to move ``size_bytes`` of data."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        return math.ceil(size_bytes / self.width_bytes)

    def address_time(self) -> float:
        """Time to transmit an address (one bus cycle)."""
        return self.cycle_ns

    def data_time(self, size_bytes: int) -> float:
        """Time to move ``size_bytes`` of data."""
        return self.data_cycles(size_bytes) * self.cycle_ns

    def acquire(self, now: float, duration: float) -> float:
        """Occupy the bus for ``duration`` starting no earlier than ``now``.

        Returns the completion time; queues behind an in-flight transfer.
        """
        busy = self.busy_until
        self.busy_until = (busy if busy > now else now) + duration
        return self.busy_until

    def reset(self) -> None:
        self.busy_until = 0.0

"""Timing model of the inter-level write buffers.

The base machine places a 4-entry write buffer between each pair of levels,
each entry one upstream block wide (paper, section 2).  Buffers are why
write effects are second-order in the paper's analysis: writes are absorbed
by the buffer and drained while the downstream level is otherwise idle, so
they rarely stall the processor.

The model is lazy rather than event-driven: the buffer records, for each
pending entry, how long its drain will occupy the downstream level, and the
simulator calls :meth:`drain_until` with the current time before using the
downstream level.  Three situations create visible delay:

* a push into a full buffer stalls until the oldest entry finishes draining;
* a read that matches a buffered address must wait for entries up to and
  including the match to drain (the paper's simulator enforces the same
  read-around-write correctness);
* entries still draining when a read arrives delay that read (the drain in
  progress completes first).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional


class WriteBuffer:
    """A FIFO write buffer in front of a downstream level.

    Parameters
    ----------
    capacity:
        Number of entries (4 in the base machine).
    service_time:
        Time the downstream level is busy per drained entry, in the same
        (arbitrary) unit the simulator uses -- nanoseconds here.
    downstream_block:
        Byte granularity at which addresses are stored and matched.  Read
        fences compare at the downstream level's block size so that a read
        of a big downstream block conflicts with a buffered write of any
        smaller upstream block inside it.
    """

    def __init__(
        self,
        capacity: int = 4,
        service_time: float = 1.0,
        downstream_block: int = 1,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if service_time <= 0:
            raise ValueError("service_time must be positive")
        if downstream_block < 1:
            raise ValueError("downstream_block must be at least 1")
        self.capacity = capacity
        self.service_time = service_time
        self.downstream_block = downstream_block
        # Pending entries, oldest first: the block address each carries
        # and the time it was enqueued.
        self._addresses: Deque[int] = deque()
        self._enqueued: Deque[float] = deque()
        #: Time until which the downstream level is busy draining.
        self._drain_busy_until = 0.0
        #: Total entries that ever passed through (for statistics).
        self.total_pushes = 0
        #: Pushes that found the buffer full and stalled.
        self.full_stalls = 0
        #: Reads that matched a buffered entry and had to wait.
        self.read_matches = 0

    def __len__(self) -> int:
        return len(self._enqueued)

    @property
    def is_empty(self) -> bool:
        return not self._enqueued

    # Every public call drains at most once, through ``_drain``, and an
    # empty buffer returns before it.  ``a if a > b else b`` stands for
    # ``max(b, a)`` so that ties keep the value (and type) ``max`` keeps;
    # ``tests/cache/test_write_buffer.py`` pins every result to a copy of
    # the plain ``max``/``deque``-of-pairs formulation.

    def _drain(self, now: float) -> Optional[float]:
        """Retire entries whose drain completes by ``now``.

        Draining is opportunistic: an entry starts draining as soon as the
        previous one finishes, provided the buffer was non-empty.  Returns
        when the oldest remaining entry starts (or started) draining, or
        ``None`` when none remains.
        """
        enqueued = self._enqueued
        busy = self._drain_busy_until
        service = self.service_time
        while enqueued:
            head = enqueued[0]
            start = head if head > busy else busy
            finish = start + service
            if finish > now:
                self._drain_busy_until = busy
                return start
            enqueued.popleft()
            self._addresses.popleft()
            busy = finish
        self._drain_busy_until = busy
        return None

    def drain_until(self, now: float) -> None:
        """Retire entries whose drain completes by ``now``."""
        if self._enqueued:
            self._drain(now)

    def busy_until(self, now: float) -> float:
        """Time at which the downstream level stops being occupied by a
        drain that is already in progress at ``now``.

        A buffered entry occupies the downstream level from the moment its
        drain starts; a drain that has not started yet does not block a
        read, because reads have priority over buffered writes.
        """
        if not self._enqueued:
            return now
        start = self._drain(now)
        if start is not None and start < now:
            return start + self.service_time
        return now

    def block_until(self, when: float) -> None:
        """Forbid drains before ``when``.

        The timing simulator calls this while a demand access occupies the
        downstream level, so buffered writes cannot drain into a busy cache.
        """
        if when > self._drain_busy_until:
            self._drain_busy_until = when

    def push(self, block_address: int, now: float) -> float:
        """Enqueue a write at time ``now``.

        Returns the time at which the processor-side push completes: ``now``
        if a slot is free, later if the buffer was full and had to drain one
        entry first.
        """
        self.total_pushes += 1
        enqueued = self._enqueued
        completion = now
        if enqueued:
            start = self._drain(now)
            if len(enqueued) >= self.capacity:
                self.full_stalls += 1
                # Wait for the oldest entry to finish draining; its drain
                # may already be under way.
                finish = start + self.service_time
                completion = now if now > finish else finish
                enqueued.popleft()
                self._addresses.popleft()
                self._drain_busy_until = completion
        self._addresses.append(block_address)
        enqueued.append(completion)
        return completion

    def read_fence(self, block_address: int, now: float) -> float:
        """Time at which a read of ``block_address`` may safely proceed.

        If the address matches a buffered entry, all entries up to and
        including the match drain first.  Unrelated reads bypass the buffer
        but still wait out a drain already occupying the downstream level.
        """
        addresses = self._addresses
        if not addresses:
            return now
        start = self._drain(now)
        if block_address not in addresses:
            if start is not None and start < now:
                return start + self.service_time
            return now
        self.read_matches += 1
        last = len(addresses) - 1
        while addresses[last] != block_address:
            last -= 1
        return self._retire(last + 1, now)

    def flush(self, now: float) -> float:
        """Drain everything; returns the completion time."""
        return self._retire(len(self._enqueued), now)

    def _retire(self, count: int, now: float) -> float:
        """Drain the oldest ``count`` entries back to back; returns when
        the last finishes, or ``now`` if that is later."""
        enqueued = self._enqueued
        addresses = self._addresses
        service = self.service_time
        time = self._drain_busy_until
        for _ in range(count):
            addresses.popleft()
            head = enqueued.popleft()
            time = (head if head > time else time) + service
        self._drain_busy_until = time
        return now if now > time else time

"""Tests for the inter-level write buffer timing model."""

import itertools
from collections import deque
from typing import Deque, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.write_buffer import WriteBuffer


class TestPush:
    def test_push_into_empty_buffer_is_free(self):
        buffer = WriteBuffer(capacity=4, service_time=30.0)
        assert buffer.push(0x100, now=0.0) == 0.0
        assert len(buffer) == 1

    def test_pushes_fill_capacity_without_stall(self):
        buffer = WriteBuffer(capacity=4, service_time=1000.0)
        for i in range(4):
            assert buffer.push(i, now=0.0) == 0.0
        assert len(buffer) == 4

    def test_push_into_full_buffer_stalls_for_one_drain(self):
        buffer = WriteBuffer(capacity=2, service_time=30.0)
        buffer.push(1, now=0.0)
        buffer.push(2, now=0.0)
        completion = buffer.push(3, now=0.0)
        assert completion == 30.0
        assert buffer.full_stalls == 1

    def test_background_drain_frees_slots(self):
        buffer = WriteBuffer(capacity=2, service_time=30.0)
        buffer.push(1, now=0.0)
        buffer.push(2, now=0.0)
        # By t=70 both entries have drained (finish at 30 and 60).
        assert buffer.push(3, now=70.0) == 70.0
        assert buffer.full_stalls == 0
        assert len(buffer) == 1


class TestReadFence:
    def test_unrelated_read_bypasses(self):
        buffer = WriteBuffer(capacity=4, service_time=30.0)
        buffer.push(0x100, now=0.0)
        # The first entry starts draining immediately (finishes at 30), so an
        # unrelated read at t=5 waits only for the drain in progress.
        assert buffer.read_fence(0x999, now=5.0) == 30.0
        assert buffer.read_matches == 0

    def test_unrelated_read_after_drain_is_free(self):
        buffer = WriteBuffer(capacity=4, service_time=30.0)
        buffer.push(0x100, now=0.0)
        assert buffer.read_fence(0x999, now=100.0) == 100.0

    def test_matching_read_waits_for_entry(self):
        buffer = WriteBuffer(capacity=4, service_time=30.0)
        buffer.push(0x100, now=0.0)
        buffer.push(0x200, now=0.0)
        fence = buffer.read_fence(0x200, now=0.0)
        # Both entries must drain: 30 + 30.
        assert fence == 60.0
        assert buffer.read_matches == 1
        assert len(buffer) == 0

    def test_matching_read_only_drains_up_to_match(self):
        buffer = WriteBuffer(capacity=4, service_time=30.0)
        buffer.push(0x100, now=0.0)
        buffer.push(0x200, now=0.0)
        buffer.push(0x300, now=0.0)
        buffer.read_fence(0x200, now=0.0)
        assert len(buffer) == 1  # 0x300 still pending

    def test_latest_matching_entry_wins(self):
        """Two buffered writes to the same block: both must drain before the
        read (FIFO order preserves write ordering)."""
        buffer = WriteBuffer(capacity=4, service_time=10.0)
        buffer.push(0x100, now=0.0)
        buffer.push(0x200, now=0.0)
        buffer.push(0x100, now=0.0)
        assert buffer.read_fence(0x100, now=0.0) == 30.0
        assert buffer.is_empty


class TestFlush:
    def test_flush_drains_everything(self):
        buffer = WriteBuffer(capacity=4, service_time=25.0)
        for i in range(3):
            buffer.push(i, now=0.0)
        finish = buffer.flush(now=0.0)
        assert finish == 75.0
        assert buffer.is_empty

    def test_flush_empty_buffer_is_instant(self):
        buffer = WriteBuffer()
        assert buffer.flush(now=42.0) == 42.0


class TestValidation:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            WriteBuffer(capacity=0)

    def test_service_time_must_be_positive(self):
        with pytest.raises(ValueError):
            WriteBuffer(service_time=0.0)


class TestStatistics:
    def test_total_pushes_counted(self):
        buffer = WriteBuffer(capacity=2, service_time=5.0)
        for i in range(5):
            buffer.push(i, now=i * 100.0)
        assert buffer.total_pushes == 5


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["push", "fence", "drain"]),
            st.integers(0, 7),       # block id
            st.floats(0.0, 50.0),    # time increment
        ),
        max_size=60,
    ),
    capacity=st.integers(1, 6),
)
def test_write_buffer_invariants(ops, capacity):
    """Time only moves forward, occupancy stays within capacity, and
    results are never earlier than the request time."""
    buffer = WriteBuffer(capacity=capacity, service_time=10.0)
    now = 0.0
    pushes = 0
    for op, block, dt in ops:
        now += dt
        if op == "push":
            done = buffer.push(block, now)
            pushes += 1
            assert done >= now - 1e-9
        elif op == "fence":
            fence = buffer.read_fence(block, now)
            assert fence >= now - 1e-9
        else:
            buffer.drain_until(now)
        assert 0 <= len(buffer) <= capacity
    assert buffer.total_pushes == pushes
    finish = buffer.flush(now)
    assert finish >= now - 1e-9
    assert buffer.is_empty


# -- oracle --------------------------------------------------------------------
#
# ``WriteBuffer`` is shared by both timing engines, so the engine-vs-engine
# differential (tests/sim/test_timing_events.py) cannot see a change to its
# behaviour.  ``ReferenceWriteBuffer`` below is the plain formulation the
# fast paths replaced (a deque of (address, enqueue time) pairs, ``max``
# throughout, a drain at the top of every call); every result of the real
# buffer must match it exactly, type included.


class ReferenceWriteBuffer:
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
        # Entries are (block_address, enqueue_time).
        self._entries: Deque[Tuple[int, float]] = deque()
        #: Time until which the downstream level is busy draining.
        self._drain_busy_until = 0.0
        #: Total entries that ever passed through (for statistics).
        self.total_pushes = 0
        #: Pushes that found the buffer full and stalled.
        self.full_stalls = 0
        #: Reads that matched a buffered entry and had to wait.
        self.read_matches = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def drain_until(self, now: float) -> None:
        """Retire entries whose drain completes by ``now``.

        Draining is opportunistic: an entry starts draining as soon as the
        previous one finishes, provided the buffer was non-empty.
        """
        while self._entries:
            start = max(self._drain_busy_until, self._entries[0][1])
            finish = start + self.service_time
            if finish > now:
                break
            self._entries.popleft()
            self._drain_busy_until = finish

    def busy_until(self, now: float) -> float:
        """Time at which the downstream level stops being occupied by a
        drain that is already in progress at ``now``.

        A buffered entry occupies the downstream level from the moment its
        drain starts; a drain that has not started yet does not block a
        read, because reads have priority over buffered writes.
        """
        self.drain_until(now)
        if self._entries:
            start = max(self._drain_busy_until, self._entries[0][1])
            if start < now:
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
        self.drain_until(now)
        self.total_pushes += 1
        completion = now
        if len(self._entries) >= self.capacity:
            self.full_stalls += 1
            # Wait for the oldest entry to finish draining; its drain may
            # already be under way.
            start = max(self._drain_busy_until, self._entries[0][1])
            completion = max(start + self.service_time, now)
            self._entries.popleft()
            self._drain_busy_until = completion
        self._entries.append((block_address, completion))
        return completion

    def read_fence(self, block_address: int, now: float) -> float:
        """Time at which a read of ``block_address`` may safely proceed.

        If the address matches a buffered entry, all entries up to and
        including the match drain first.  Unrelated reads bypass the buffer
        but still wait out a drain already occupying the downstream level.
        """
        self.drain_until(now)
        match_index = None
        for i, (address, _when) in enumerate(self._entries):
            if address == block_address:
                match_index = i
        if match_index is None:
            return self.busy_until(now)
        self.read_matches += 1
        time = self._drain_busy_until
        for _ in range(match_index + 1):
            _address, enqueued = self._entries.popleft()
            time = max(time, enqueued) + self.service_time
        self._drain_busy_until = time
        return max(time, now)

    def flush(self, now: float) -> float:
        """Drain everything; returns the completion time."""
        self.drain_until(now)
        time = self._drain_busy_until
        while self._entries:
            _address, enqueued = self._entries.popleft()
            time = max(time, enqueued) + self.service_time
        self._drain_busy_until = time
        return max(time, now)


def _whole_or_fractional(whole, fractional):
    """Whole values as ``int`` or ``float`` (the event engine mixes the
    two), or fractional floats.  Whole values on a coarse grid make the
    ties that decide which operand ``max`` keeps common."""
    return st.one_of(
        whole,
        whole.map(float),
        fractional.map(lambda t: round(t, 2)),
    )


_SERVICE = _whole_or_fractional(
    st.sampled_from([5, 10, 15, 30, 60]), st.floats(0.25, 90.0)
)
#: Steps of the clock between calls; a negative step revisits an earlier
#: time, as a deeper level's call does after a later upstream one.
_STEPS = _whole_or_fractional(
    st.sampled_from([0, 0, 0, 5, 10, 15, 30, 60, 120, -10]),
    st.floats(-30.0, 120.0),
)


@st.composite
def _buffer_sessions(draw):
    capacity = draw(st.integers(1, 8))
    service = draw(_SERVICE)
    addresses = st.integers(0, draw(st.integers(0, 6)))
    op = st.tuples(
        st.sampled_from(
            ["push", "push", "read_fence", "read_fence", "busy_until",
             "block_until", "drain_until", "flush"]
        ),
        addresses,
        _STEPS,
    )
    return capacity, service, draw(st.lists(op, max_size=80))


def _observe(buffer, result):
    return (
        repr(result),
        len(buffer),
        buffer.is_empty,
        buffer.full_stalls,
        buffer.read_matches,
        buffer.total_pushes,
    )


@settings(max_examples=400, deadline=None)
@given(session=_buffer_sessions())
def test_matches_reference_buffer(session):
    capacity, service, ops = session
    fast = WriteBuffer(capacity=capacity, service_time=service)
    reference = ReferenceWriteBuffer(capacity=capacity, service_time=service)
    now = 0
    for step, (name, address, dt) in enumerate(ops):
        now = now + dt
        args = (now,) if name in ("busy_until", "block_until", "drain_until",
                                  "flush") else (address, now)
        got = _observe(fast, getattr(fast, name)(*args))
        want = _observe(reference, getattr(reference, name)(*args))
        assert got == want, f"step {step}: {name}{args}"


#: Every call shape on two addresses, at times that tie with the drains
#: of a 30 ns service time, as ``int`` and as ``float``.
_CALLS = [
    (name, args + (t,))
    for t in (0, 0.0, 30, 12.5)
    for name, args in (
        ("push", (0,)), ("push", (1,)), ("read_fence", (0,)),
        ("read_fence", (1,)), ("busy_until", ()), ("block_until", ()),
        ("drain_until", ()), ("flush", ()),
    )
]


@pytest.mark.parametrize("capacity, service", [(1, 30), (2, 30.0), (2, 12.5)])
def test_matches_reference_on_every_short_session(capacity, service):
    """Exhaustive over every sequence of three calls from ``_CALLS``."""
    for session in itertools.product(_CALLS, repeat=3):
        fast = WriteBuffer(capacity=capacity, service_time=service)
        reference = ReferenceWriteBuffer(capacity=capacity, service_time=service)
        for name, args in session:
            got = _observe(fast, getattr(fast, name)(*args))
            want = _observe(reference, getattr(reference, name)(*args))
            assert got == want, session


@pytest.mark.parametrize("service", [30, 30.0, 12.5])
def test_reference_agrees_on_a_saturated_buffer(service):
    """A long fixed run: a full buffer, matches behind the head, repeated
    addresses and a drain blocked by demand traffic."""
    fast = WriteBuffer(capacity=3, service_time=service)
    reference = ReferenceWriteBuffer(capacity=3, service_time=service)
    for i in range(200):
        now = i * 7
        assert repr(fast.push(i % 5, now)) == repr(reference.push(i % 5, now))
        if i % 3 == 0:
            fast.block_until(now + 40)
            reference.block_until(now + 40)
        assert repr(fast.read_fence(i % 4, now)) == repr(
            reference.read_fence(i % 4, now)
        )
        assert repr(fast.busy_until(now + 1)) == repr(reference.busy_until(now + 1))
        assert (len(fast), fast.full_stalls, fast.read_matches) == (
            len(reference), reference.full_stalls, reference.read_matches
        )
    assert repr(fast.flush(1400)) == repr(reference.flush(1400))

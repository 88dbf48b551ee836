"""The generator oracle: ``StackDistanceGenerator`` equals its chunked-list form.

Every synthetic trace is built by :class:`StackDistanceGenerator`, so a
change to how it keeps its LRU stack would silently change every trace,
every result and every report.  ``ReferenceStackDistanceGenerator`` below
is the formulation the one-list stack replaced -- ``blocks`` is its former
body verbatim, over a verbatim copy of the chunked move-to-front list
(``IndexableMTFList``, most recent first) it used.  Hypothesis sessions
drive both through the same calls, and every emitted array (values and
dtype), the footprint, the last block and the stack contents must match
after every call.  The chunked list's own unit and model tests live here
too, so the oracle's copy stays exercised.
"""

from typing import Iterator, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.synthetic import ParetoStackDistanceModel, StackDistanceGenerator


class IndexableMTFList:
    """A move-to-front list supporting indexed removal.

    Index 0 is the most recently used item.
    """

    def __init__(self, chunk_size: int = 1024) -> None:
        if chunk_size < 2:
            raise ValueError("chunk_size must be at least 2")
        self._chunk_size = chunk_size
        self._chunks: List[List[int]] = [[]]
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def push_front(self, item: int) -> None:
        """Insert ``item`` as the most recently used element."""
        head = self._chunks[0]
        head.insert(0, item)
        self._length += 1
        if len(head) > 2 * self._chunk_size:
            # Split the head chunk so front insertion stays cheap.
            self._chunks[0] = head[: self._chunk_size]
            self._chunks.insert(1, head[self._chunk_size :])

    def pop_at(self, depth: int) -> int:
        """Remove and return the element at recency ``depth`` (0-based)."""
        if not 0 <= depth < self._length:
            raise IndexError(f"depth {depth} out of range for length {self._length}")
        remaining = depth
        chunks = self._chunks
        for i, chunk in enumerate(chunks):
            size = len(chunk)
            if remaining < size:
                item = chunk.pop(remaining)
                self._length -= 1
                if not chunk and len(chunks) > 1:
                    del chunks[i]
                return item
            remaining -= size
        raise AssertionError("unreachable: length accounting is broken")

    def peek_at(self, depth: int) -> int:
        """Return (without removing) the element at recency ``depth``."""
        if not 0 <= depth < self._length:
            raise IndexError(f"depth {depth} out of range for length {self._length}")
        remaining = depth
        for chunk in self._chunks:
            size = len(chunk)
            if remaining < size:
                return chunk[remaining]
            remaining -= size
        raise AssertionError("unreachable: length accounting is broken")

    def touch(self, depth: int) -> int:
        """Move the element at ``depth`` to the front and return it."""
        item = self.pop_at(depth)
        self.push_front(item)
        return item

    def __iter__(self) -> Iterator[int]:
        for chunk in self._chunks:
            yield from chunk

    def to_list(self) -> List[int]:
        """Return the contents in recency order (most recent first)."""
        return [item for chunk in self._chunks for item in chunk]


class ReferenceStackDistanceGenerator(StackDistanceGenerator):
    """The generator over the chunked list; ``addresses`` and the
    constructor's validation are inherited."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._stack = IndexableMTFList()

    def _fresh_block(self) -> int:
        block = self._next_block
        self._next_block += 1
        return block

    def blocks(self, count: int) -> np.ndarray:
        """Generate ``count`` block identifiers (``int64`` array)."""
        distances = self.model.sample(self._rng, count).tolist()
        if self.sequential_fraction:
            seq_mask = (self._rng.random(count) < self.sequential_fraction).tolist()
        else:
            seq_mask = None
        if self.new_block_fraction:
            new_mask = (self._rng.random(count) < self.new_block_fraction).tolist()
        else:
            new_mask = None
        out = np.empty(count, dtype=np.int64)
        stack = self._stack
        last = self._last_block
        for i in range(count):
            if new_mask is not None and new_mask[i]:
                block = self._fresh_block()
                stack.push_front(block)
            elif seq_mask is not None and seq_mask[i] and last >= 0:
                # Spatial step: next sequential block; it may be new.
                block = last + 1
                if block >= self._next_block:
                    block = self._fresh_block()
                    stack.push_front(block)
                # Note: sequential steps intentionally skip the stack update
                # for already-seen blocks; they model streaming accesses.
            else:
                depth = distances[i]
                if depth > len(stack):
                    block = self._fresh_block()
                    stack.push_front(block)
                else:
                    block = stack.pop_at(depth - 1)
                    stack.push_front(block)
            out[i] = block
            last = block
        self._last_block = last
        return out


#: The paper-calibrated tail exponent (0.69 miss ratio per size doubling).
PAPER_THETA = ParetoStackDistanceModel().theta


@st.composite
def _generator_sessions(draw):
    settings_ = dict(
        model=ParetoStackDistanceModel(
            theta=draw(st.sampled_from((0.3, PAPER_THETA, 1.5)))
        ),
        block_bytes=draw(st.sampled_from((1, 16, 64))),
        address_base=draw(st.sampled_from((0, 1 << 44, (0xF << 44) + (1 << 32)))),
        sequential_fraction=draw(st.sampled_from((0.0, 0.1, 0.5, 0.9))),
        new_block_fraction=draw(st.sampled_from((0.0, 0.008, 0.02, 0.3))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    call = st.tuples(
        st.sampled_from(("blocks", "addresses")),
        st.one_of(st.sampled_from((0, 1)), st.integers(2, 3000)),
    )
    return settings_, draw(st.lists(call, min_size=1, max_size=6))


def _observe(generator, result):
    """Everything a caller can see after one call, plus the stack in
    recency order (most recent first)."""
    stack = generator._stack
    recency = stack.to_list() if isinstance(stack, IndexableMTFList) else stack[::-1]
    return (
        result.dtype,
        result.tolist(),
        generator.footprint_blocks,
        generator._last_block,
        recency,
    )


@settings(max_examples=200, deadline=None)
@given(session=_generator_sessions())
def test_matches_reference_generator(session):
    settings_, calls = session
    fast = StackDistanceGenerator(**settings_)
    reference = ReferenceStackDistanceGenerator(**settings_)
    for step, (name, count) in enumerate(calls):
        got = _observe(fast, getattr(fast, name)(count))
        want = _observe(reference, getattr(reference, name)(count))
        assert got == want, f"call {step}: {name}({count})"


def test_matches_reference_past_one_chunk():
    """A footprint deep enough that the chunked list splits its head and
    serves depths from later chunks."""
    settings_ = dict(model=ParetoStackDistanceModel(theta=0.3), seed=11)
    fast = StackDistanceGenerator(**settings_)
    reference = ReferenceStackDistanceGenerator(**settings_)
    for count in (20_000, 20_000):
        assert _observe(fast, fast.blocks(count)) == _observe(
            reference, reference.blocks(count)
        )
    assert len(reference._stack._chunks) > 2


class TestReferenceMTFList:
    def test_push_and_len(self):
        mtf = IndexableMTFList(chunk_size=4)
        for i in range(10):
            mtf.push_front(i)
        assert len(mtf) == 10
        assert mtf.to_list() == list(reversed(range(10)))

    def test_pop_at_front(self):
        mtf = IndexableMTFList(chunk_size=4)
        for i in range(5):
            mtf.push_front(i)
        assert mtf.pop_at(0) == 4
        assert len(mtf) == 4

    def test_pop_at_deep(self):
        mtf = IndexableMTFList(chunk_size=2)
        for i in range(20):
            mtf.push_front(i)
        assert mtf.pop_at(19) == 0
        assert mtf.pop_at(18) == 1

    def test_touch_moves_to_front(self):
        mtf = IndexableMTFList(chunk_size=4)
        for i in range(6):
            mtf.push_front(i)
        assert mtf.touch(5) == 0
        assert mtf.to_list() == [0, 5, 4, 3, 2, 1]

    def test_peek_does_not_modify(self):
        mtf = IndexableMTFList(chunk_size=4)
        for i in range(6):
            mtf.push_front(i)
        before = mtf.to_list()
        assert mtf.peek_at(3) == before[3]
        assert mtf.to_list() == before

    def test_out_of_range_raises(self):
        mtf = IndexableMTFList()
        mtf.push_front(1)
        with pytest.raises(IndexError):
            mtf.pop_at(1)
        with pytest.raises(IndexError):
            mtf.peek_at(-1)

    def test_small_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            IndexableMTFList(chunk_size=1)

    def test_iteration_matches_to_list(self):
        mtf = IndexableMTFList(chunk_size=3)
        for i in range(11):
            mtf.push_front(i)
        assert list(mtf) == mtf.to_list()


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("push"), st.integers(0, 1000)),
            st.tuples(st.just("pop"), st.floats(0, 1)),
            st.tuples(st.just("touch"), st.floats(0, 1)),
        ),
        max_size=200,
    ),
    chunk_size=st.integers(2, 8),
)
def test_matches_reference_list_model(ops, chunk_size):
    """The chunked structure must behave exactly like a plain list."""
    mtf = IndexableMTFList(chunk_size=chunk_size)
    model = []
    for op, value in ops:
        if op == "push":
            mtf.push_front(value)
            model.insert(0, value)
        elif model:
            depth = int(value * (len(model) - 1))
            if op == "pop":
                assert mtf.pop_at(depth) == model.pop(depth)
            else:
                item = model.pop(depth)
                model.insert(0, item)
                assert mtf.touch(depth) == item
        assert len(mtf) == len(model)
    assert mtf.to_list() == model

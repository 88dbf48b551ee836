"""The ``Cache`` oracle: the per-record cache equals its plain formulation.

Every reference engine -- ``FunctionalSimulator``, the per-record timing
engine, the vectorised front's event tail and the sparse walk -- steps
records through :class:`~repro.cache.cache.Cache`, so an engine-vs-engine
differential cannot see a change to its behaviour.  ``ReferenceCache``
below is the formulation its fast paths replaced (a fresh dataclass
outcome per access, every fill through the fetch group, dirtying by a
second search of the set); hypothesis sessions drive both through the
same calls, and every outcome field, return value, counter, resident
block and dirty bit must match.
"""

from dataclasses import astuple, dataclass, field
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import cache as cache_module
from repro.cache.cache import Cache
from repro.cache.geometry import CacheGeometry
from repro.cache.policy import FetchPolicy, PrefetchKind, PrefetchPolicy, WritePolicy
from repro.cache.replacement import (
    ReplacementPolicy,
    RandomReplacement,
    make_replacement,
)
from repro.cache.stats import CacheStats


@dataclass
class ReferenceAccessOutcome:
    """Externally visible consequences of one cache access.

    Addresses are block-aligned byte addresses, directly usable as accesses
    to the next level of the hierarchy.
    """

    hit: bool
    #: Blocks fetched from downstream (demand block first).
    fetched: List[int] = field(default_factory=list)
    #: Dirty victim blocks that must be written downstream.
    writebacks: List[int] = field(default_factory=list)
    #: A write forwarded downstream (write-through, or non-allocating miss).
    forwarded_write: Optional[int] = None
    #: Blocks brought in speculatively by the prefetcher (also need
    #: fetching from downstream, but never stall the processor).
    prefetched: List[int] = field(default_factory=list)
    #: Every victim block dropped by this access, clean or dirty (the
    #: dirty ones also appear in ``writebacks``).  Inclusion enforcement
    #: uses this to back-invalidate upstream copies.
    evicted: List[int] = field(default_factory=list)


class ReferenceCache:
    """A set-associative cache with configurable policies.

    Parameters
    ----------
    geometry:
        Size / block size / associativity.
    replacement:
        A :class:`~repro.cache.replacement.ReplacementPolicy` or policy name.
    write_policy:
        Write-back (default, as in the paper) or write-through.
    fetch:
        Fetch size and write-allocation behaviour.
    name:
        Label used in reports ("L1I", "L2", ...).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        replacement="lru",
        write_policy: WritePolicy = WritePolicy.WRITE_BACK,
        fetch: Optional[FetchPolicy] = None,
        prefetch: Optional[PrefetchPolicy] = None,
        name: str = "cache",
    ) -> None:
        self.geometry = geometry
        if isinstance(replacement, ReplacementPolicy):
            self.replacement = replacement
        else:
            self.replacement = make_replacement(replacement)
        self.write_policy = WritePolicy.parse(write_policy)
        self.fetch = fetch if fetch is not None else FetchPolicy()
        self.prefetch = prefetch if prefetch is not None else PrefetchPolicy()
        if self.fetch.fetch_blocks > geometry.sets:
            # A fetch group must not wrap around the index space.
            raise ValueError(
                f"fetch_blocks cannot exceed the number of sets ({geometry.sets})"
            )
        self.name = name
        self.stats = CacheStats()
        #: When False, accesses update state but not counters (cold start).
        self.counting = True
        # Per-set entry lists; each entry is a mutable [tag, dirty] pair.
        self._sets: List[List[list]] = [[] for _ in range(geometry.sets)]
        self._offset_bits = geometry.offset_bits
        self._index_mask = geometry.sets - 1
        self._index_bits = geometry.index_bits
        self._ways = geometry.associativity

    # -- behavioural core ----------------------------------------------------

    def read(self, address: int, bucket: str = "read") -> ReferenceAccessOutcome:
        """Present a read (load or instruction fetch) to the cache.

        ``bucket`` selects the statistics bucket and prefetch behaviour:

        * ``"read"`` -- a demand read (loads and instruction fetches); the
          only bucket that counts toward the paper's read miss ratios, and
          the only one that triggers prefetching.
        * ``"write"`` -- a fetch on behalf of an upstream write-allocate
          miss; behaves as a read but counts as store-induced traffic so
          the read ratios stay clean.
        * ``"prefetch"`` -- a speculative fetch issued by an upstream
          prefetcher; counted separately and never re-triggers prefetching.
        """
        is_demand_read = bucket == "read"
        outcome = self._lookup(
            address, is_write=False, allow_prefetch=is_demand_read
        )
        if self.counting:
            if is_demand_read:
                self.stats.reads += 1
                if not outcome.hit:
                    self.stats.read_misses += 1
            elif bucket == "write":
                self.stats.writes += 1
                if not outcome.hit:
                    self.stats.write_misses += 1
            elif bucket == "prefetch":
                self.stats.prefetch_reads += 1
                if not outcome.hit:
                    self.stats.prefetch_read_misses += 1
            else:
                raise ValueError(f"unknown access bucket {bucket!r}")
        return outcome

    def write(self, address: int) -> ReferenceAccessOutcome:
        """Present a write (store) to the cache."""
        outcome = self._lookup(address, is_write=True, allow_prefetch=False)
        if self.counting:
            self.stats.writes += 1
            if not outcome.hit:
                self.stats.write_misses += 1
            if outcome.forwarded_write is not None:
                self.stats.writes_forwarded += 1
        return outcome

    def _lookup(
        self, address: int, is_write: bool, allow_prefetch: bool
    ) -> ReferenceAccessOutcome:
        block = address >> self._offset_bits
        set_index = block & self._index_mask
        tag = block >> self._index_bits
        entries = self._sets[set_index]
        for i, entry in enumerate(entries):
            if entry[0] == tag:
                self.replacement.on_hit(entries, i)
                first_demand_touch = entry[2]
                if first_demand_touch and allow_prefetch:
                    entry[2] = False
                    if self.counting:
                        self.stats.useful_prefetches += 1
                forwarded = None
                if is_write:
                    if self.write_policy is WritePolicy.WRITE_BACK:
                        entry[1] = True
                    else:
                        forwarded = block << self._offset_bits
                outcome = ReferenceAccessOutcome(hit=True, forwarded_write=forwarded)
                if allow_prefetch and (
                    self.prefetch.kind is PrefetchKind.ALWAYS
                    or (
                        self.prefetch.kind is PrefetchKind.TAGGED
                        and first_demand_touch
                    )
                ):
                    self._issue_prefetches(block, outcome)
                return outcome

        # Miss.
        outcome = ReferenceAccessOutcome(hit=False)
        allocate = (not is_write) or self.fetch.write_allocate
        if allocate:
            self._fill_group(block, outcome)
            if is_write:
                if self.write_policy is WritePolicy.WRITE_BACK:
                    self._mark_dirty(block)
                else:
                    outcome.forwarded_write = block << self._offset_bits
        else:
            # No allocation: the write bypasses the cache entirely.
            outcome.forwarded_write = block << self._offset_bits
        if allow_prefetch and self.prefetch.enabled:
            self._issue_prefetches(block, outcome)
        return outcome

    def _issue_prefetches(self, block: int, outcome: ReferenceAccessOutcome) -> None:
        """Bring in the sequential successors of ``block``."""
        for candidate in self.prefetch.candidates(block):
            if self._present(candidate):
                continue
            self._insert(candidate, outcome, fresh=True)
            if self.counting:
                self.stats.prefetches_issued += 1
            outcome.prefetched.append(candidate << self._offset_bits)

    def _fill_group(self, demand_block: int, outcome: ReferenceAccessOutcome) -> None:
        """Fetch the demand block and its fetch-group companions."""
        for candidate in self.fetch.fetch_group(demand_block):
            if candidate != demand_block and self._present(candidate):
                continue
            self._insert(candidate, outcome)
            if self.counting:
                self.stats.blocks_fetched += 1
                if candidate != demand_block:
                    self.stats.prefetched_blocks += 1
            outcome.fetched.append(candidate << self._offset_bits)

    def _present(self, block: int) -> bool:
        entries = self._sets[block & self._index_mask]
        tag = block >> self._index_bits
        return any(entry[0] == tag for entry in entries)

    def _insert(
        self, block: int, outcome: ReferenceAccessOutcome, fresh: bool = False
    ) -> None:
        set_index = block & self._index_mask
        tag = block >> self._index_bits
        entries = self._sets[set_index]
        if len(entries) >= self._ways:
            victim_index = self.replacement.select_victim(entries)
            victim = entries.pop(victim_index)
            victim_address = (
                (victim[0] << self._index_bits) | set_index
            ) << self._offset_bits
            outcome.evicted.append(victim_address)
            if victim[1]:
                outcome.writebacks.append(victim_address)
                if self.counting:
                    self.stats.writebacks += 1
        # Entries are [tag, dirty, fresh]: ``fresh`` marks a prefetched
        # block that has not yet served a demand access.
        self.replacement.on_insert(entries, [tag, False, fresh])

    def _rebuild_address(self, tag: int, set_index: int) -> int:
        """:meth:`CacheGeometry.rebuild_address` on the cached bit widths
        (the geometry's properties recompute them on every call)."""
        return ((tag << self._index_bits) | set_index) << self._offset_bits

    def _mark_dirty(self, block: int) -> None:
        entries = self._sets[block & self._index_mask]
        tag = block >> self._index_bits
        for entry in entries:
            if entry[0] == tag:
                entry[1] = True
                return
        raise AssertionError("block just inserted is missing from its set")

    # -- inspection and maintenance -------------------------------------------

    def contains(self, address: int) -> bool:
        """True if the block holding ``address`` is resident."""
        return self._present(address >> self._offset_bits)

    def is_dirty(self, address: int) -> bool:
        """True if the block holding ``address`` is resident and dirty."""
        block = address >> self._offset_bits
        entries = self._sets[block & self._index_mask]
        tag = block >> self._index_bits
        return any(entry[0] == tag and entry[1] for entry in entries)

    def resident_blocks(self) -> List[int]:
        """Block-aligned byte addresses of all resident blocks."""
        addresses = []
        for set_index, entries in enumerate(self._sets):
            for tag, _dirty, _fresh in entries:
                addresses.append(self._rebuild_address(tag, set_index))
        return addresses

    def flush(self) -> List[int]:
        """Write back and drop every block; returns dirty block addresses."""
        dirty = []
        for set_index, entries in enumerate(self._sets):
            for tag, is_dirty, _fresh in entries:
                if is_dirty:
                    dirty.append(self._rebuild_address(tag, set_index))
            entries.clear()
        if self.counting:
            self.stats.writebacks += len(dirty)
        return dirty

    def invalidate(self, address: int) -> str:
        """Drop the block holding ``address`` if resident.

        Returns ``"absent"``, ``"clean"`` or ``"dirty"`` describing what was
        found; a dirty invalidation means the caller owns the only copy of
        the data and must write it downstream (inclusion enforcement).
        """
        block = address >> self._offset_bits
        entries = self._sets[block & self._index_mask]
        tag = block >> self._index_bits
        for i, entry in enumerate(entries):
            if entry[0] == tag:
                was_dirty = entry[1]
                del entries[i]
                return "dirty" if was_dirty else "clean"
        return "absent"

    def invalidate_all(self) -> None:
        """Drop every block without writing back (power-on reset)."""
        for entries in self._sets:
            entries.clear()

    def occupancy(self) -> float:
        """Fraction of the cache's block frames currently valid."""
        used = sum(len(entries) for entries in self._sets)
        return used / self.geometry.blocks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReferenceCache({self.name!r}, {self.geometry}, "
            f"{self.replacement.name}, {self.write_policy.value})"
        )


#: Fields of an outcome, in the reference dataclass's order.
OUTCOME_FIELDS = ("hit", "fetched", "writebacks", "forwarded_write", "prefetched", "evicted")

BLOCK = 16


def _replacement(name, seed):
    """A fresh policy per cache: random ones share only their seed."""
    if name == "random":
        return RandomReplacement(seed=seed)
    return make_replacement(name)


@st.composite
def _cache_sessions(draw):
    ways = draw(st.sampled_from((1, 2, 4)))
    fetch_blocks = draw(st.sampled_from((1, 2, 4)))
    sets = draw(st.sampled_from([s for s in (1, 2, 4, 8) if s >= fetch_blocks]))
    settings_ = dict(
        geometry=CacheGeometry(BLOCK * ways * sets, BLOCK, ways),
        write_policy=draw(st.sampled_from(list(WritePolicy))),
        fetch=FetchPolicy(
            fetch_blocks=fetch_blocks, write_allocate=draw(st.booleans())
        ),
        prefetch=PrefetchPolicy(
            kind=draw(st.sampled_from(list(PrefetchKind))),
            distance=draw(st.integers(1, 3)),
        ),
    )
    replacement = draw(st.sampled_from(("lru", "fifo", "random")))
    seed = draw(st.integers(0, 2**16))
    # A few more blocks than frames, so sets conflict; any byte offset.
    blocks = draw(st.integers(1, sets * ways * 3))
    address = st.builds(
        lambda block, offset: block * BLOCK + offset,
        st.integers(0, blocks - 1),
        st.integers(0, BLOCK - 1),
    )
    op = st.tuples(
        st.sampled_from(
            ["read", "read", "read", "write", "write", "fill", "prefetch",
             "invalidate", "flush", "contains", "is_dirty", "counting",
             "invalidate_all"]
        ),
        address,
    )
    return settings_, replacement, seed, draw(st.lists(op, max_size=120))


def _call(cache, name, address):
    if name == "read":
        return cache.read(address)
    if name == "fill":
        return cache.read(address, "write")
    if name == "prefetch":
        return cache.read(address, "prefetch")
    if name == "write":
        return cache.write(address)
    if name in ("invalidate", "contains", "is_dirty"):
        return getattr(cache, name)(address)
    if name == "counting":
        cache.counting = not cache.counting
        return cache.counting
    if name == "flush":
        return cache.flush()
    return cache.invalidate_all()


def _observe(cache, result):
    """Everything a caller can see after one call: the result (for an
    outcome, every field and its type), the counters, the resident blocks
    in replacement order, their dirty bits and the occupancy."""
    if hasattr(result, "evicted"):
        fields = tuple(getattr(result, name) for name in OUTCOME_FIELDS)
        result = (fields, tuple(type(value).__name__ for value in fields))
    residents = cache.resident_blocks()
    return (
        repr(result),
        astuple(cache.stats),
        residents,
        [cache.is_dirty(address) for address in residents],
        cache.occupancy(),
    )


def _shared_hit_is_untouched():
    hit = cache_module.PLAIN_HIT
    return hit.hit and all(
        getattr(hit, name) in ([], None) for name in OUTCOME_FIELDS[1:]
    )


@settings(max_examples=500, deadline=None)
@given(session=_cache_sessions())
def test_matches_reference_cache(session):
    settings_, replacement, seed, ops = session
    fast = Cache(replacement=_replacement(replacement, seed), **settings_)
    reference = ReferenceCache(replacement=_replacement(replacement, seed), **settings_)
    for step, (name, address) in enumerate(ops):
        got = _observe(fast, _call(fast, name, address))
        want = _observe(reference, _call(reference, name, address))
        assert got == want, f"step {step}: {name}({address:#x})"
    assert _shared_hit_is_untouched()


@pytest.mark.parametrize("replacement", ["lru", "fifo", "random"])
def test_plain_hits_share_one_outcome(replacement):
    """A hit that forwards nothing and triggers no prefetch allocates
    nothing: every such hit returns the same untouched outcome."""
    cache = Cache(CacheGeometry(64, BLOCK, 2), replacement=replacement)
    cache.read(0x40)
    cache.write(0x40)
    first, second = cache.read(0x44), cache.write(0x48)
    assert first is second is cache_module.PLAIN_HIT
    assert cache.is_dirty(0x40)
    assert (cache.stats.reads, cache.stats.writes) == (2, 2)
    assert _shared_hit_is_untouched()

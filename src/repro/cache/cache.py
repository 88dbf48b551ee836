"""A single cache level: functional behaviour and event counting.

The cache is *functional*: it decides hits, fills and evictions, and reports
what traffic it generates toward the next level.  Timing lives in
:mod:`repro.sim.timing` and :mod:`repro.cache.write_buffer`; keeping the two
concerns separate lets the fast design-space sweeps reuse the same
behavioural model that the nanosecond-accurate simulator uses.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.policy import FetchPolicy, PrefetchKind, PrefetchPolicy, WritePolicy
from repro.cache.replacement import ReplacementPolicy, make_replacement
from repro.cache.stats import CacheStats


class AccessOutcome:
    """Externally visible consequences of one cache access.

    Addresses are block-aligned byte addresses, directly usable as accesses
    to the next level of the hierarchy.  Every plain hit -- no forwarded
    write, no prefetch triggered -- returns the one shared
    :data:`PLAIN_HIT`, so nothing may mutate an outcome it is handed.
    """

    __slots__ = (
        "hit", "fetched", "writebacks", "forwarded_write", "prefetched", "evicted"
    )

    def __init__(
        self,
        hit: bool,
        fetched: Optional[List[int]] = None,
        writebacks: Optional[List[int]] = None,
        forwarded_write: Optional[int] = None,
        prefetched: Optional[List[int]] = None,
        evicted: Optional[List[int]] = None,
    ) -> None:
        self.hit = hit
        #: Blocks fetched from downstream: the demand block's fetch group,
        #: in address order.
        self.fetched: List[int] = [] if fetched is None else fetched
        #: Dirty victim blocks that must be written downstream.
        self.writebacks: List[int] = [] if writebacks is None else writebacks
        #: A write forwarded downstream (write-through, or non-allocating miss).
        self.forwarded_write = forwarded_write
        #: Blocks brought in speculatively by the prefetcher (also need
        #: fetching from downstream, but never stall the processor).
        self.prefetched: List[int] = [] if prefetched is None else prefetched
        #: Every victim block dropped by this access, clean or dirty (the
        #: dirty ones also appear in ``writebacks``).  Inclusion enforcement
        #: uses this to back-invalidate upstream copies.
        self.evicted: List[int] = [] if evicted is None else evicted

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AccessOutcome):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields())
        )
        return f"AccessOutcome({fields})"


#: The outcome of every plain hit, shared: its lists stay empty.
PLAIN_HIT = AccessOutcome(hit=True)


class Cache:
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
        # The policy decisions every access reads, resolved once.
        self._on_hit = self.replacement.on_hit
        self._on_insert = self.replacement.on_insert
        self._select_victim = self.replacement.select_victim
        self._write_back = self.write_policy is WritePolicy.WRITE_BACK
        self._single_fetch = self.fetch.fetch_blocks == 1
        self._prefetch_enabled = self.prefetch.enabled
        self._prefetch_always = self.prefetch.kind is PrefetchKind.ALWAYS
        self._prefetch_tagged = self.prefetch.kind is PrefetchKind.TAGGED

    # -- behavioural core ----------------------------------------------------

    def read(self, address: int, bucket: str = "read") -> AccessOutcome:
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
        outcome = self._lookup(address, False, is_demand_read)
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

    def write(self, address: int) -> AccessOutcome:
        """Present a write (store) to the cache."""
        outcome = self._lookup(address, True, False)
        if self.counting:
            self.stats.writes += 1
            if not outcome.hit:
                self.stats.write_misses += 1
            if outcome.forwarded_write is not None:
                self.stats.writes_forwarded += 1
        return outcome

    def _lookup(
        self, address: int, is_write: bool, allow_prefetch: bool
    ) -> AccessOutcome:
        block = address >> self._offset_bits
        entries = self._sets[block & self._index_mask]
        tag = block >> self._index_bits
        # A plain loop with its own index: ``enumerate`` costs more than
        # the one or few ways it walks.
        i = -1
        for entry in entries:
            i += 1
            if entry[0] != tag:
                continue
            if i:
                self._on_hit(entries, i)
            first_demand_touch = entry[2]
            if first_demand_touch and allow_prefetch:
                entry[2] = False
                if self.counting:
                    self.stats.useful_prefetches += 1
            forwarded = None
            if is_write:
                if self._write_back:
                    entry[1] = True
                else:
                    forwarded = block << self._offset_bits
            prefetch = allow_prefetch and (
                self._prefetch_always
                or (self._prefetch_tagged and first_demand_touch)
            )
            if forwarded is None and not prefetch:
                return PLAIN_HIT
            outcome = AccessOutcome(hit=True, forwarded_write=forwarded)
            if prefetch:
                self._issue_prefetches(block, outcome)
            return outcome

        # Miss.
        outcome = AccessOutcome(False)
        if is_write and not self.fetch.write_allocate:
            # No allocation: the write bypasses the cache entirely.
            outcome.forwarded_write = block << self._offset_bits
        else:
            dirty = is_write and self._write_back
            if self._single_fetch:
                self._insert(block, outcome, False, dirty)
                if self.counting:
                    self.stats.blocks_fetched += 1
                outcome.fetched.append(block << self._offset_bits)
            else:
                self._fill_group(block, outcome, dirty)
            if is_write and not self._write_back:
                outcome.forwarded_write = block << self._offset_bits
        if allow_prefetch and self._prefetch_enabled:
            self._issue_prefetches(block, outcome)
        return outcome

    def _issue_prefetches(self, block: int, outcome: AccessOutcome) -> None:
        """Bring in the sequential successors of ``block``."""
        for candidate in self.prefetch.candidates(block):
            if self._present(candidate):
                continue
            self._insert(candidate, outcome, fresh=True)
            if self.counting:
                self.stats.prefetches_issued += 1
            outcome.prefetched.append(candidate << self._offset_bits)

    def _fill_group(self, demand_block: int, outcome: AccessOutcome, dirty: bool) -> None:
        """Fetch a multi-block fetch group in address order: the demand
        block (``dirty`` when a write-back store allocates it) and its
        companions not yet resident."""
        for candidate in self.fetch.fetch_group(demand_block):
            is_demand = candidate == demand_block
            if not is_demand and self._present(candidate):
                continue
            self._insert(candidate, outcome, dirty=is_demand and dirty)
            if self.counting:
                self.stats.blocks_fetched += 1
                if not is_demand:
                    self.stats.prefetched_blocks += 1
            outcome.fetched.append(candidate << self._offset_bits)

    def _present(self, block: int) -> bool:
        tag = block >> self._index_bits
        for entry in self._sets[block & self._index_mask]:
            if entry[0] == tag:
                return True
        return False

    def _insert(
        self, block: int, outcome: AccessOutcome, fresh: bool = False, dirty: bool = False
    ) -> None:
        set_index = block & self._index_mask
        entries = self._sets[set_index]
        if len(entries) >= self._ways:
            victim = entries.pop(self._select_victim(entries))
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
        self._on_insert(entries, [block >> self._index_bits, dirty, fresh])

    def _rebuild_address(self, tag: int, set_index: int) -> int:
        """:meth:`CacheGeometry.rebuild_address` on the cached bit widths
        (the geometry's properties recompute them on every call)."""
        return ((tag << self._index_bits) | set_index) << self._offset_bits

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
            f"Cache({self.name!r}, {self.geometry}, "
            f"{self.replacement.name}, {self.write_policy.value})"
        )

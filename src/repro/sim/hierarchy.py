"""Cache hierarchy wiring and functional access propagation.

:class:`CacheHierarchy` instantiates the caches described by a
:class:`~repro.sim.config.SystemConfig` and routes accesses between levels:

* level 1 may be a split instruction/data pair (the paper's base machine);
  deeper levels are unified;
* a miss at level *i* fetches level-*i* blocks from level *i+1*, so a
  32-byte L2 block fill is a single L2-level event even though L1 blocks
  are 16 bytes;
* dirty victims propagate downstream as writes;
* prefetch fills fetch from the level below, and enforced inclusion
  back-invalidates upstream copies of blocks a lower level evicts;
* accesses that reach below the deepest cache are counted against main
  memory.

These rules live here and nowhere else.  The functional simulator walks
every record through :meth:`CacheHierarchy.access`; the per-record timing
engine (:mod:`repro.sim.timing`) charges time for an outcome's demand
traffic and applies everything else through :meth:`CacheHierarchy.write`,
:meth:`~CacheHierarchy.read`, :meth:`~CacheHierarchy.propagate` and
:meth:`~CacheHierarchy.settle`; the vectorised fast path
(:mod:`repro.sim.fast`) walks the stream leaving its vectorised levels
through :meth:`~CacheHierarchy.replay_stream`, and its sparse walk steps
every record that can change state through :meth:`access` -- all but the
read hits and dirty-store hits that re-touch their level-1 set's last
block.  A plain hit comes back as the shared
:data:`~repro.cache.cache.PLAIN_HIT`, which carries no traffic, so the
walks here skip :meth:`propagate` for it.

Fetches triggered by stores (write-allocate) are tagged so they never
pollute the read miss ratios (see :meth:`repro.cache.cache.Cache.read`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.cache.cache import PLAIN_HIT, AccessOutcome, Cache
from repro.cache.stats import CacheStats
from repro.sim.config import SystemConfig
from repro.trace.record import IFETCH, WRITE, Trace

#: Statistics buckets of a vectorised event stream, indexed by the
#: stream's bucket codes (:mod:`repro.sim.fast`).
BUCKET_NAMES = ("read", "write")


@dataclass
class MemoryTraffic:
    """Block-level traffic reaching main memory."""

    reads: int = 0
    writes: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0


@dataclass
class InclusionStats:
    """Back-invalidation activity under enforced inclusion."""

    #: Upstream blocks invalidated because a lower level evicted.
    invalidations: int = 0
    #: Of those, blocks that were dirty and had to bypass the evictor.
    dirty_invalidations: int = 0

    def reset(self) -> None:
        self.invalidations = 0
        self.dirty_invalidations = 0


class CacheHierarchy:
    """The functional cache stack of one simulated machine."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        first = config.levels[0]
        if first.split:
            self.icache: Optional[Cache] = self._build(first, "L1I")
            self.dcache = self._build(first, "L1D")
        else:
            self.icache = None
            self.dcache = self._build(first, "L1")
        #: Unified caches below the first level, nearest first.
        self.lower: List[Cache] = [
            self._build(level, f"L{i + 2}")
            for i, level in enumerate(config.levels[1:])
        ]
        #: The cache a write or data read arriving at each level goes to
        #: (:meth:`cache_at`); past its end, main memory.
        self._caches: List[Cache] = [self.dcache] + self.lower
        #: The cache an instruction fetch goes to.
        self._ifetch_cache = self.icache if self.icache is not None else self.dcache
        self._inclusive = config.enforce_inclusion
        first = (self.icache, self.dcache) if self.icache else (self.dcache,)
        self._groups = (first,) + tuple((cache,) for cache in self.lower)
        self.memory_traffic = MemoryTraffic()
        self.inclusion = InclusionStats()
        #: While a walk collects them, the level-1 blocks back-invalidation
        #: drops, as ``(cache, address)`` pairs; ``None`` otherwise (see
        #: the sparse walk in :mod:`repro.sim.fast`).
        self.dropped: Optional[List[Tuple[Cache, int]]] = None

    @staticmethod
    def _build(level, name: str) -> Cache:
        return Cache(
            geometry=level.geometry(),
            replacement=level.replacement,
            write_policy=level.write_policy,
            fetch=level.fetch_policy(),
            prefetch=level.prefetch_policy(),
            name=name,
        )

    # -- cache enumeration ---------------------------------------------------

    @property
    def level_caches(self) -> List[List[Cache]]:
        """Caches grouped by level (level 1 first)."""
        return [list(group) for group in self._groups]

    def all_caches(self) -> List[Cache]:
        return [cache for group in self.level_caches for cache in group]

    def set_counting(self, enabled: bool) -> None:
        """Enable/disable statistics in every cache (cold-start handling)."""
        for cache in self.all_caches():
            cache.counting = enabled

    def reset_stats(self) -> None:
        for cache in self.all_caches():
            cache.stats.reset()
        self.memory_traffic.reset()
        self.inclusion.reset()

    @property
    def counting(self) -> bool:
        """Whether statistics collection is currently enabled."""
        return self.dcache.counting

    def warm(self, trace: Trace) -> Iterator[Tuple[int, int]]:
        """Walk ``trace``'s warmup prefix with statistics off, then turn
        them on (the paper's cold-start method); returns an iterator over
        the measured records."""
        records = trace.records()
        if trace.warmup:
            self.set_counting(False)
            access = self.access
            for kind, address in islice(records, trace.warmup):
                access(kind, address)
            self.set_counting(True)
        return records

    def replay_stream(
        self,
        level_index: int,
        addresses: np.ndarray,
        is_write: np.ndarray,
        buckets: np.ndarray,
        keys: np.ndarray,
        warmup_key: int,
    ) -> None:
        """Walk an event stream arriving at ``level_index``, in order.

        The stream is what the vectorised fast path's levels send down
        (:class:`repro.sim.fast._Front`): block-aligned byte addresses,
        write flags, bucket codes indexing :data:`BUCKET_NAMES`, and
        increasing order keys.  Writes arrive as :meth:`write`, reads as
        :meth:`read` in their bucket.  Statistics are off for events keyed
        below ``warmup_key`` and on from the first at or above it, so a
        stream walked chunk by chunk counts as one walked whole.
        """
        start = int(np.searchsorted(keys, warmup_key))
        for lo, hi, counting in ((0, start, False), (start, len(keys), True)):
            if lo == hi:
                continue
            self.set_counting(counting)
            for address, write, bucket in zip(
                addresses[lo:hi].tolist(),
                is_write[lo:hi].tolist(),
                buckets[lo:hi].tolist(),
            ):
                if write:
                    self.write(level_index, address)
                else:
                    self.read(level_index, address, BUCKET_NAMES[bucket])

    def level_stats(self) -> List[CacheStats]:
        """Counters per level (level 1 first), split halves merged."""
        merged = []
        for group in self.level_caches:
            stats = CacheStats()
            for cache in group:
                stats = stats.merge(cache.stats)
            merged.append(stats)
        return merged

    # -- access propagation ----------------------------------------------------

    def access(self, kind: int, address: int) -> None:
        """Present one CPU reference to the hierarchy (functional)."""
        if kind == WRITE:
            self.write(0, address)
            return
        cache = self._ifetch_cache if kind == IFETCH else self.dcache
        outcome = cache.read(address)
        if outcome is not PLAIN_HIT:
            self.propagate(0, outcome, "read")

    def cache_at(self, level_index: int) -> Optional[Cache]:
        """The cache a write or data read arriving at ``level_index``
        (0-based) goes to; ``None`` below the deepest cache (main memory)."""
        if level_index < len(self._caches):
            return self._caches[level_index]
        return None

    def write(self, level_index: int, address: int) -> None:
        """A write arriving at ``level_index``: a store at level 0, a dirty
        victim or forwarded write below it, a memory write below the
        deepest cache."""
        if level_index >= len(self._caches):
            if self.counting:
                self.memory_traffic.writes += 1
            return
        outcome = self._caches[level_index].write(address)
        if outcome is PLAIN_HIT:
            return
        self.propagate(level_index, outcome, "write")
        if outcome.forwarded_write is not None:
            self.write(level_index + 1, outcome.forwarded_write)

    def read(self, level_index: int, address: int, bucket: str) -> None:
        """A read arriving at ``level_index`` in statistics ``bucket`` (see
        :meth:`repro.cache.cache.Cache.read`); a memory read below the
        deepest cache."""
        if level_index >= len(self._caches):
            if self.counting:
                self.memory_traffic.reads += 1
            return
        outcome = self._caches[level_index].read(address, bucket)
        if outcome is not PLAIN_HIT:
            self.propagate(level_index, outcome, bucket)

    def propagate(
        self, level_index: int, outcome: AccessOutcome, bucket: str
    ) -> None:
        """Send all of an outcome's traffic below ``level_index``: dirty
        victims, allocation fetches (in ``bucket``), then :meth:`settle`.
        A plain hit (:data:`~repro.cache.cache.PLAIN_HIT`) has none, and
        the walks above skip the call for it."""
        for victim in outcome.writebacks:
            self.write(level_index + 1, victim)
        for fetched in outcome.fetched:
            self.read(level_index + 1, fetched, bucket)
        if outcome.prefetched or (self._inclusive and level_index and outcome.evicted):
            self.settle(level_index, outcome)

    def settle(self, level_index: int, outcome: AccessOutcome) -> None:
        """Apply an outcome's speculative and inclusion traffic.

        Prefetch fills fetch from the level below, always in the prefetch
        bucket so demand miss ratios stay untouched.  Under enforced
        inclusion, blocks evicted below level 1 are back-invalidated
        upstream.  The timing engine charges no time for either.
        """
        for speculative in outcome.prefetched:
            self.read(level_index + 1, speculative, "prefetch")
        if self._inclusive and level_index:
            for victim in outcome.evicted:
                self.back_invalidate(level_index, victim)

    def back_invalidate(self, level_index: int, victim_address: int) -> None:
        """Drop upstream copies of a block evicted at ``level_index``.

        Dirty upstream data is the only remaining copy, so it is written
        *around* the evicting level, directly to the level below it.
        """
        victim_bytes = self.config.levels[level_index].block_bytes
        for upper, group in enumerate(self._groups[:level_index]):
            for cache in group:
                step = cache.geometry.block_bytes
                for address in range(
                    victim_address, victim_address + victim_bytes, step
                ):
                    state = cache.invalidate(address)
                    if state == "absent":
                        continue
                    if upper == 0 and self.dropped is not None:
                        self.dropped.append((cache, address))
                    if self.counting:
                        self.inclusion.invalidations += 1
                    if state == "dirty":
                        if self.counting:
                            self.inclusion.dirty_invalidations += 1
                        self.write(level_index + 1, address)

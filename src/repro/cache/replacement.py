"""Replacement policies.

Each set is represented by the :class:`~repro.cache.cache.Cache` as a list
of ``[tag, dirty]`` entries.  The policy owns the *meaning of list order*:

* LRU keeps the list in recency order (index 0 = most recently used);
* FIFO keeps it in insertion order (index 0 = newest);
* Random ignores order.

The victim is always the last entry, so eviction code in the cache is
policy-agnostic; policies reorder on touch/insert instead.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List


class ReplacementPolicy(ABC):
    """Strategy controlling per-set entry ordering."""

    name: str = "abstract"

    @abstractmethod
    def on_hit(self, entries: List[list], index: int) -> None:
        """Called when ``entries[index]`` is referenced.

        A hit on the head entry (``index`` 0) changes no policy's order,
        so the cache reports only hits below it.
        """

    @abstractmethod
    def on_insert(self, entries: List[list], entry: list) -> None:
        """Insert ``entry`` into a set with spare capacity."""

    def select_victim(self, entries: List[list]) -> int:
        """Index of the entry to evict from a full set."""
        return len(entries) - 1


class LRUReplacement(ReplacementPolicy):
    """Least-recently-used: list is kept in recency order."""

    name = "lru"

    def on_hit(self, entries: List[list], index: int) -> None:
        if index:
            entries.insert(0, entries.pop(index))

    def on_insert(self, entries: List[list], entry: list) -> None:
        entries.insert(0, entry)


class FIFOReplacement(ReplacementPolicy):
    """First-in-first-out: hits do not reorder."""

    name = "fifo"

    def on_hit(self, entries: List[list], index: int) -> None:
        pass

    def on_insert(self, entries: List[list], entry: list) -> None:
        entries.insert(0, entry)


class RandomReplacement(ReplacementPolicy):
    """Random victim selection (deterministic given the seed)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def on_hit(self, entries: List[list], index: int) -> None:
        pass

    def on_insert(self, entries: List[list], entry: list) -> None:
        entries.append(entry)

    def select_victim(self, entries: List[list]) -> int:
        return self._rng.randrange(len(entries))


_POLICIES = {
    "lru": LRUReplacement,
    "fifo": FIFOReplacement,
    "random": RandomReplacement,
}


def make_replacement(name: str, **kwargs) -> ReplacementPolicy:
    """Build a replacement policy by name ("lru", "fifo", "random")."""
    try:
        factory = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return factory(**kwargs)

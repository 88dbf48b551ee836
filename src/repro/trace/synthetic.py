"""Synthetic data-reference generators.

The paper characterises its (proprietary) traces by a single robust property:
*doubling the cache size multiplies the solo read miss ratio by ~0.69* over
the 4 KB - 4 MB range (section 4).  Every analytical result in the paper is a
functional of that miss-rate-versus-size curve, so a generator that
reproduces it exercises the same code paths and produces the same tradeoff
shapes.

:class:`StackDistanceGenerator` achieves the curve *by construction*: it
draws LRU stack distances from a discrete Pareto distribution with tail
exponent ``theta``.  A fully-associative LRU cache of ``C`` blocks misses
exactly when the distance exceeds ``C``, so its miss ratio is
``P(D > C) ~ C**-theta`` and each size doubling multiplies the miss ratio by
``2**-theta``.  The paper's 0.69 factor corresponds to
``theta = -log2(0.69) ~ 0.535``.

The generator's LRU stack is one plain Python list, most recent last.  A
reference at depth ``d`` is ``stack.pop(-d)`` then ``stack.append``: one
C-level ``memmove`` of ``d`` pointers, and the Pareto distances put almost
all of the weight at small ``d``.  The stacks the experiments build stay at
a few thousand blocks (at most 1,843 in the eight-trace suite at 250k
records per trace, 4,178 at a million), so an indexed structure -- a
chunked list or a tree -- would only add interpreter steps per reference.

:class:`ZipfGenerator` is a faster, vectorised independent-reference-model
alternative used for ablations (DESIGN.md section 6).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

#: The paper's measured per-doubling miss-ratio factor for its trace suite.
PAPER_DOUBLING_FACTOR = 0.69


def theta_for_doubling_factor(factor: float) -> float:
    """Pareto tail exponent giving a per-doubling miss-ratio ``factor``.

    ``factor`` is the multiplier applied to the miss ratio when the cache
    size doubles (0.69 in the paper); smaller factors mean steeper miss-rate
    curves and require a heavier-tailed exponent.
    """
    if not 0.0 < factor < 1.0:
        raise ValueError(f"doubling factor must be in (0, 1), got {factor}")
    return -math.log2(factor)


@dataclass(frozen=True)
class ParetoStackDistanceModel:
    """Discrete Pareto stack-distance distribution.

    ``P(D >= d) = d ** -theta`` for integer ``d >= 1``.  ``theta`` defaults
    to the paper-calibrated value (0.69 miss ratio per size doubling).
    """

    theta: float = theta_for_doubling_factor(PAPER_DOUBLING_FACTOR)

    def __post_init__(self) -> None:
        if self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta}")

    def ccdf(self, distance: float) -> float:
        """``P(D >= distance)`` for integer ``distance >= 1``."""
        if distance <= 1:
            return 1.0
        return distance ** -self.theta

    def survival(self, distance: float) -> float:
        """``P(D > distance)``, i.e. ``ccdf(distance + 1)``."""
        return self.ccdf(distance + 1)

    def miss_ratio(self, capacity_blocks: int) -> float:
        """Expected fully-associative LRU reuse miss ratio at
        ``capacity_blocks``: a reuse misses when its distance exceeds the
        capacity."""
        return self.survival(capacity_blocks)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` stack distances (``int64`` array, all >= 1).

        Inverse-CDF sampling: ``D = floor(u ** (-1/theta))`` gives exactly
        ``P(D >= k) = k ** -theta``.
        """
        u = rng.random(count)
        # Guard against u == 0 which would overflow the power.
        np.maximum(u, 1e-15, out=u)
        raw = np.floor(u ** (-1.0 / self.theta))
        # Cap at a value far beyond any simulated footprint to keep int64 safe.
        return np.minimum(raw, 2**60).astype(np.int64)


class StackDistanceGenerator:
    """Data-reference generator with Pareto-distributed LRU stack distances.

    Each call to :meth:`addresses` continues the stream: the generator keeps
    its LRU stack between calls, so a long trace can be produced in batches.
    Sampled distances beyond the current footprint allocate a fresh block
    (a compulsory miss), which is also how the footprint grows.  The stack
    is a plain list with the most recent block last, so a re-reference is
    a pop from near the tail and an append (see the module docstring).

    Parameters
    ----------
    model:
        The stack-distance distribution (defaults to the paper calibration).
    block_bytes:
        Granularity at which locality is generated.  The default matches the
        base machine's L1 block (16 bytes) so that cache-block effects are
        neither hidden nor double-counted.
    address_base:
        Added to every emitted address; used by the multiprogramming
        scheduler to give each process a disjoint address space.
    sequential_fraction:
        Probability that a reference touches the block following the
        previous one instead of consulting the stack model -- an optional
        spatial-locality knob (default off; used in generator ablations).
    new_block_fraction:
        Probability that a reference touches a never-seen block regardless
        of the sampled distance.  This adds a compulsory-miss floor and,
        more importantly, controls footprint growth: real multiprogramming
        traces touch fresh pages (I/O buffers, new allocations) far faster
        than a stationary stack-distance process would, and the paper's
        multi-megabyte L2 sweep needs multi-megabyte footprints.
    seed:
        Seed for the internal :class:`numpy.random.Generator`.
    """

    def __init__(
        self,
        model: Optional[ParetoStackDistanceModel] = None,
        block_bytes: int = 16,
        address_base: int = 0,
        sequential_fraction: float = 0.0,
        new_block_fraction: float = 0.0,
        seed: int = 0,
    ) -> None:
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        if not 0.0 <= sequential_fraction < 1.0:
            raise ValueError("sequential_fraction must be in [0, 1)")
        if not 0.0 <= new_block_fraction < 1.0:
            raise ValueError("new_block_fraction must be in [0, 1)")
        self.model = model if model is not None else ParetoStackDistanceModel()
        self.block_bytes = block_bytes
        self.address_base = address_base
        self.sequential_fraction = sequential_fraction
        self.new_block_fraction = new_block_fraction
        self._rng = np.random.default_rng(seed)
        self._stack: List[int] = []
        self._next_block = 0
        self._last_block = -1

    @property
    def footprint_blocks(self) -> int:
        """Number of distinct blocks referenced so far."""
        return self._next_block

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
        never = itertools.repeat(False)
        out = []
        emit = out.append
        # Most recent block last: depth ``d`` is ``stack[-d]``.  Every block
        # ever emitted stays on the stack, so its length is ``next_block``.
        stack = self._stack
        push = stack.append
        pop = stack.pop
        last = self._last_block
        next_block = self._next_block
        for depth, sequential, new in zip(
            distances, seq_mask or never, new_mask or never
        ):
            if new:
                block = next_block
                next_block += 1
                push(block)
            elif sequential and last >= 0:
                # Spatial step: next sequential block; it may be new.
                block = last + 1
                if block >= next_block:
                    block = next_block
                    next_block += 1
                    push(block)
                # Note: sequential steps intentionally skip the stack update
                # for already-seen blocks; they model streaming accesses.
            elif depth > next_block:
                block = next_block
                next_block += 1
                push(block)
            else:
                block = pop(-depth)
                push(block)
            emit(block)
            last = block
        self._next_block = next_block
        self._last_block = last
        return np.array(out, dtype=np.int64)

    def addresses(self, count: int) -> np.ndarray:
        """Generate ``count`` byte addresses (``uint64`` array)."""
        blocks = self.blocks(count)
        return (blocks * self.block_bytes + self.address_base).astype(np.uint64)


class ZipfGenerator:
    """Independent-reference-model generator with Zipf block popularity.

    A fast, fully vectorised alternative to :class:`StackDistanceGenerator`.
    Under the IRM with Zipf exponent ``alpha > 1`` the LRU miss ratio also
    follows an approximate power law in cache size, but the exponent is tied
    to ``alpha`` rather than controlled directly; the generator-comparison
    ablation quantifies the difference.
    """

    def __init__(
        self,
        population_blocks: int = 1 << 20,
        alpha: float = 1.3,
        block_bytes: int = 16,
        address_base: int = 0,
        seed: int = 0,
    ) -> None:
        if population_blocks < 2:
            raise ValueError("population_blocks must be at least 2")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.population_blocks = population_blocks
        self.alpha = alpha
        self.block_bytes = block_bytes
        self.address_base = address_base
        self._rng = np.random.default_rng(seed)
        ranks = np.arange(1, population_blocks + 1, dtype=np.float64)
        weights = ranks ** -alpha
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        # Scatter popular blocks across the address space so that popularity
        # rank does not correlate with cache-set index.
        self._permutation = self._rng.permutation(population_blocks)

    def blocks(self, count: int) -> np.ndarray:
        """Generate ``count`` block identifiers (``int64`` array)."""
        u = self._rng.random(count)
        ranks = np.searchsorted(self._cdf, u, side="left")
        return self._permutation[ranks].astype(np.int64)

    def addresses(self, count: int) -> np.ndarray:
        """Generate ``count`` byte addresses (``uint64`` array)."""
        blocks = self.blocks(count)
        return (blocks * self.block_bytes + self.address_base).astype(np.uint64)

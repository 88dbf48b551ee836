"""Declarative machine description.

A :class:`SystemConfig` captures everything the paper's simulator reads from
its configuration file (section 2): the depth of the hierarchy, each cache's
organisation (total size, set size, block size, fetch size, write strategy,
write buffering) and the latency of cache operations, plus the CPU cycle
time and the main-memory model.

:func:`parse_config` accepts a small keyword text format so experiments can
be described in files, mirroring the paper's workflow::

    cpu cycle_ns=10
    l1 size=4KB block=16 assoc=1 split=true cycle=1 write_hit_cycles=2
    l2 size=512KB block=32 assoc=1 cycle=3 write_hit_cycles=2
    memory read_ns=180 write_ns=100 recovery_ns=120
    bus width_words=4
    write_buffer entries=4
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.policy import FetchPolicy, PrefetchKind, PrefetchPolicy, WritePolicy
from repro.memory.main_memory import MemoryTiming
from repro.units import KB, MB, check_power_of_two


@dataclass(frozen=True)
class CpuConfig:
    """The RISC-like CPU of section 2."""

    #: CPU cycle time in nanoseconds (10 ns in the base machine).
    cycle_ns: float = 10.0

    def __post_init__(self) -> None:
        if self.cycle_ns <= 0:
            raise ValueError("cycle_ns must be positive")


@dataclass(frozen=True)
class LevelConfig:
    """One level of caching.

    ``cycle_cpu_cycles`` is the level's basic cycle time in CPU cycles: a
    read that tag-hits completes in one such cycle; write hits take
    ``write_hit_cycles`` of them (2 throughout the paper).

    A *split* level is an instruction/data pair, each of half the stated
    total size (the base machine's 4 KB L1 is split 2 KB I + 2 KB D).
    """

    size_bytes: int
    block_bytes: int
    associativity: int = 1
    cycle_cpu_cycles: float = 1.0
    write_hit_cycles: int = 2
    split: bool = False
    replacement: str = "lru"
    write_policy: WritePolicy = WritePolicy.WRITE_BACK
    fetch_blocks: int = 1
    write_allocate: bool = True
    prefetch: PrefetchKind = PrefetchKind.NONE
    prefetch_distance: int = 1

    def __post_init__(self) -> None:
        # Accept the policies' string values ("write-back", "none") too,
        # but store the enums: eligibility checks, memo keys and timing
        # projections compare by identity and equality.
        object.__setattr__(
            self, "write_policy", WritePolicy.parse(self.write_policy)
        )
        object.__setattr__(self, "prefetch", PrefetchKind.parse(self.prefetch))
        check_power_of_two(self.size_bytes, "size_bytes")
        check_power_of_two(self.block_bytes, "block_bytes")
        if self.cycle_cpu_cycles <= 0:
            raise ValueError("cycle_cpu_cycles must be positive")
        if self.write_hit_cycles < 1:
            raise ValueError("write_hit_cycles must be at least 1")
        if self.split and self.size_bytes < 2 * self.block_bytes:
            raise ValueError("split level too small to halve")

    def geometry(self) -> CacheGeometry:
        """Geometry of the (unified) cache, or of each half if split."""
        size = self.size_bytes // 2 if self.split else self.size_bytes
        return CacheGeometry(
            size_bytes=size,
            block_bytes=self.block_bytes,
            associativity=self.associativity,
        )

    def fetch_policy(self) -> FetchPolicy:
        return FetchPolicy(
            fetch_blocks=self.fetch_blocks, write_allocate=self.write_allocate
        )

    def prefetch_policy(self) -> PrefetchPolicy:
        return PrefetchPolicy(kind=self.prefetch, distance=self.prefetch_distance)

    def with_(self, **changes) -> "LevelConfig":
        """Copy with fields replaced (sweep helper)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class SystemConfig:
    """A complete machine: CPU, cache levels (nearest first), memory."""

    levels: Tuple[LevelConfig, ...]
    cpu: CpuConfig = CpuConfig()
    memory: MemoryTiming = MemoryTiming()
    #: Words per bus data cycle (both busses in the base machine).
    bus_width_words: int = 4
    #: Entries in each inter-level write buffer.
    write_buffer_entries: int = 4
    #: Enforce multi-level inclusion: when a lower cache evicts a block,
    #: upstream copies are back-invalidated (dirty upstream data is written
    #: around the evicting level).  The paper's machine, like most of its
    #: era, does NOT enforce inclusion; the option exists for the
    #: inclusion-cost ablation (Baer & Wang, the paper's reference [3]).
    enforce_inclusion: bool = False
    #: Backplane (memory bus) cycle time in nanoseconds.  ``None`` tracks
    #: the deepest cache's cycle time (the base machine's wiring); a fixed
    #: value decouples it, which is how the paper sweeps the L2 SRAM time
    #: while keeping "the main memory access portion of the second-level
    #: cache miss penalty ... constant" (section 4).
    backplane_cycle_ns: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a system needs at least one cache level")
        if any(level.split for level in self.levels[1:]):
            raise ValueError("only the first level may be split")
        if self.bus_width_words < 1:
            raise ValueError("bus_width_words must be at least 1")
        if self.write_buffer_entries < 1:
            raise ValueError("write_buffer_entries must be at least 1")
        if self.backplane_cycle_ns is not None and self.backplane_cycle_ns <= 0:
            raise ValueError("backplane_cycle_ns must be positive")
        object.__setattr__(self, "levels", tuple(self.levels))

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level_cycle_ns(self, index: int) -> float:
        """Cycle time of level ``index`` in nanoseconds."""
        return self.levels[index].cycle_cpu_cycles * self.cpu.cycle_ns

    @property
    def effective_backplane_ns(self) -> float:
        """The memory-bus cycle time actually in force."""
        if self.backplane_cycle_ns is not None:
            return self.backplane_cycle_ns
        return self.level_cycle_ns(self.depth - 1)

    def with_level(self, index: int, **changes) -> "SystemConfig":
        """Copy with one level's fields replaced (sweep helper)."""
        levels = list(self.levels)
        levels[index] = levels[index].with_(**changes)
        return replace(self, levels=tuple(levels))

    def without_level(self, index: int) -> "SystemConfig":
        """Copy with level ``index`` removed (e.g. solo-L2 measurements)."""
        levels = list(self.levels)
        del levels[index]
        return replace(self, levels=tuple(levels))

    def with_memory(self, memory: MemoryTiming) -> "SystemConfig":
        return replace(self, memory=memory)


# -- text format -------------------------------------------------------------

_SIZE_RE = re.compile(r"^(\d+)([KM]B?|B)?$", re.IGNORECASE)


def format_size(size_bytes: int) -> str:
    """Render a byte count in the config format's units."""
    if size_bytes >= MB and size_bytes % MB == 0:
        return f"{size_bytes // MB}MB"
    if size_bytes >= KB and size_bytes % KB == 0:
        return f"{size_bytes // KB}KB"
    return f"{size_bytes}B"


def format_config(config: SystemConfig) -> str:
    """Serialise a :class:`SystemConfig` to the text format.

    The output round-trips through :func:`parse_config` (up to the pinned
    backplane and inclusion options, which the simple format omits and the
    experiments set programmatically).
    """
    lines = [f"cpu cycle_ns={config.cpu.cycle_ns:g}"]
    for i, level in enumerate(config.levels, start=1):
        parts = [
            f"l{i}",
            f"size={format_size(level.size_bytes)}",
            f"block={level.block_bytes}",
            f"assoc={level.associativity}",
            f"cycle={level.cycle_cpu_cycles:g}",
            f"write_hit_cycles={level.write_hit_cycles}",
        ]
        if level.split:
            parts.append("split=true")
        if level.replacement != "lru":
            parts.append(f"replacement={level.replacement}")
        if level.write_policy is not WritePolicy.WRITE_BACK:
            parts.append("write=through")
        if level.fetch_blocks != 1:
            parts.append(f"fetch_blocks={level.fetch_blocks}")
        if not level.write_allocate:
            parts.append("write_allocate=false")
        if level.prefetch is not PrefetchKind.NONE:
            parts.append(f"prefetch={level.prefetch.value}")
            parts.append(f"prefetch_distance={level.prefetch_distance}")
        lines.append(" ".join(parts))
    lines.append(
        f"memory read_ns={config.memory.read_ns:g} "
        f"write_ns={config.memory.write_ns:g} "
        f"recovery_ns={config.memory.recovery_ns:g}"
    )
    lines.append(f"bus width_words={config.bus_width_words}")
    lines.append(f"write_buffer entries={config.write_buffer_entries}")
    return "\n".join(lines) + "\n"


def parse_size(text: str) -> int:
    """Parse "4KB", "512kb", "1MB", "64" (bytes) into bytes."""
    match = _SIZE_RE.match(text.strip())
    if not match:
        raise ValueError(f"unparseable size {text!r}")
    value = int(match.group(1))
    unit = (match.group(2) or "B").upper()
    if unit.startswith("K"):
        return value * KB
    if unit.startswith("M"):
        return value * MB
    return value


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"unparseable boolean {text!r}")


def _parse_pairs(rest: List[str], lineno: int) -> dict:
    pairs = {}
    for token in rest:
        if "=" not in token:
            raise ValueError(f"line {lineno}: expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        pairs[key.strip().lower()] = value.strip()
    return pairs


def parse_config(text: str) -> SystemConfig:
    """Parse the keyword text format described in the module docstring.

    Levels may be named ``l1``/``l2``/``l3``... and are ordered by their
    number regardless of file order.
    """
    cpu = CpuConfig()
    memory = MemoryTiming()
    bus_width = 4
    buffer_entries = 4
    levels = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *rest = line.split()
        keyword = keyword.lower()
        pairs = _parse_pairs(rest, lineno)
        if keyword == "cpu":
            cpu = CpuConfig(cycle_ns=float(pairs.pop("cycle_ns", 10.0)))
        elif keyword == "memory":
            memory = MemoryTiming(
                read_ns=float(pairs.pop("read_ns", 180.0)),
                write_ns=float(pairs.pop("write_ns", 100.0)),
                recovery_ns=float(pairs.pop("recovery_ns", 120.0)),
            )
        elif keyword == "bus":
            bus_width = int(pairs.pop("width_words", 4))
        elif keyword == "write_buffer":
            buffer_entries = int(pairs.pop("entries", 4))
        elif re.fullmatch(r"l\d+", keyword):
            index = int(keyword[1:])
            levels[index] = LevelConfig(
                size_bytes=parse_size(pairs.pop("size")),
                block_bytes=parse_size(pairs.pop("block", "16")),
                associativity=int(pairs.pop("assoc", 1)),
                cycle_cpu_cycles=float(pairs.pop("cycle", 1.0)),
                write_hit_cycles=int(pairs.pop("write_hit_cycles", 2)),
                split=_parse_bool(pairs.pop("split", "false")),
                replacement=pairs.pop("replacement", "lru"),
                write_policy=WritePolicy.parse(
                    "write-" + pairs.pop("write", "back")
                ),
                fetch_blocks=int(pairs.pop("fetch_blocks", 1)),
                write_allocate=_parse_bool(pairs.pop("write_allocate", "true")),
                prefetch=PrefetchKind.parse(pairs.pop("prefetch", "none")),
                prefetch_distance=int(pairs.pop("prefetch_distance", 1)),
            )
        else:
            raise ValueError(f"line {lineno}: unknown keyword {keyword!r}")
        if pairs:
            raise ValueError(
                f"line {lineno}: unknown options {sorted(pairs)} for {keyword!r}"
            )
    if not levels:
        raise ValueError("config defines no cache levels")
    expected = list(range(1, len(levels) + 1))
    if sorted(levels) != expected:
        raise ValueError(
            f"cache levels must be numbered consecutively from l1, got "
            f"{['l%d' % i for i in sorted(levels)]}"
        )
    ordered = tuple(levels[i] for i in expected)
    return SystemConfig(
        levels=ordered,
        cpu=cpu,
        memory=memory,
        bus_width_words=bus_width,
        write_buffer_entries=buffer_entries,
    )

"""Tests for the machine description and its text format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.policy import PrefetchKind, WritePolicy
from repro.memory.main_memory import MemoryTiming
from repro.sim.config import (
    CpuConfig,
    LevelConfig,
    SystemConfig,
    parse_config,
    parse_size,
)
from repro.units import KB, MB


def two_level():
    return SystemConfig(
        levels=(
            LevelConfig(size_bytes=4 * KB, block_bytes=16, split=True),
            LevelConfig(size_bytes=512 * KB, block_bytes=32, cycle_cpu_cycles=3),
        )
    )


class TestLevelConfig:
    def test_split_geometry_is_half(self):
        level = LevelConfig(size_bytes=4 * KB, block_bytes=16, split=True)
        assert level.geometry().size_bytes == 2 * KB

    def test_unified_geometry_is_full(self):
        level = LevelConfig(size_bytes=4 * KB, block_bytes=16)
        assert level.geometry().size_bytes == 4 * KB

    def test_with_replaces_fields(self):
        level = LevelConfig(size_bytes=4 * KB, block_bytes=16)
        bigger = level.with_(size_bytes=8 * KB)
        assert bigger.size_bytes == 8 * KB
        assert bigger.block_bytes == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size_bytes": 3 * KB, "block_bytes": 16},
            {"size_bytes": 4 * KB, "block_bytes": 16, "cycle_cpu_cycles": 0},
            {"size_bytes": 4 * KB, "block_bytes": 16, "write_hit_cycles": 0},
            {"size_bytes": 16, "block_bytes": 16, "split": True},
        ],
    )
    def test_invalid_levels_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LevelConfig(**kwargs)

    def test_policy_strings_normalise_to_enums(self):
        """Regression: ``with_level(0, write_policy="write-back")`` (A-WPOL)
        and ``with_level(1, prefetch="none")`` (A-PREF) used to store the
        strings, so the configs failed ``fast_eligible`` and were keyed
        apart from the base machine in the memo and the journal."""
        from repro.experiments.baseline import base_machine
        from repro.sim import memo
        from repro.sim.fast import fast_eligible

        base = base_machine()
        for config in (
            base.with_level(0, write_policy="write-back"),
            base.with_level(1, prefetch="none"),
        ):
            assert config.levels[0].write_policy is WritePolicy.WRITE_BACK
            assert config.levels[1].prefetch is PrefetchKind.NONE
            assert config == base
            assert fast_eligible(config)
            assert memo.functional_projection(config) == (
                memo.functional_projection(base)
            )
            assert memo.timing_projection(config) == memo.timing_projection(base)

    @pytest.mark.parametrize(
        "kwargs", [{"write_policy": "write-sometimes"}, {"prefetch": "never"}]
    )
    def test_unknown_policy_strings_rejected(self, kwargs):
        with pytest.raises(ValueError, match="unknown"):
            LevelConfig(size_bytes=4 * KB, block_bytes=16, **kwargs)


class TestSystemConfig:
    def test_depth(self):
        assert two_level().depth == 2

    def test_level_cycle_ns(self):
        config = two_level()
        assert config.level_cycle_ns(0) == 10.0
        assert config.level_cycle_ns(1) == 30.0

    def test_with_level_sweeps_one_field(self):
        config = two_level().with_level(1, size_bytes=1 * MB)
        assert config.levels[1].size_bytes == 1 * MB
        assert config.levels[0].size_bytes == 4 * KB

    def test_without_level_removes(self):
        solo = two_level().without_level(0)
        assert solo.depth == 1
        assert solo.levels[0].size_bytes == 512 * KB

    def test_with_memory(self):
        slow = two_level().with_memory(MemoryTiming().scaled(2.0))
        assert slow.memory.read_ns == 360.0

    def test_empty_levels_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(levels=())

    def test_split_below_first_level_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(
                levels=(
                    LevelConfig(size_bytes=4 * KB, block_bytes=16),
                    LevelConfig(size_bytes=64 * KB, block_bytes=32, split=True),
                )
            )

    def test_invalid_cpu_rejected(self):
        with pytest.raises(ValueError):
            CpuConfig(cycle_ns=0.0)


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("4KB", 4 * KB),
            ("512kb", 512 * KB),
            ("1MB", 1 * MB),
            ("64", 64),
            ("16B", 16),
            ("2K", 2 * KB),
        ],
    )
    def test_valid_sizes(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("text", ["", "KB", "4GB", "4.5KB"])
    def test_invalid_sizes(self, text):
        with pytest.raises(ValueError):
            parse_size(text)


BASE_TEXT = """
# The base machine of section 2.
cpu cycle_ns=10
l1 size=4KB block=16 assoc=1 split=true cycle=1
l2 size=512KB block=32 assoc=1 cycle=3
memory read_ns=180 write_ns=100 recovery_ns=120
bus width_words=4
write_buffer entries=4
"""


class TestParseConfig:
    def test_base_machine_roundtrip(self):
        config = parse_config(BASE_TEXT)
        assert config.depth == 2
        assert config.levels[0].split
        assert config.levels[0].size_bytes == 4 * KB
        assert config.levels[1].cycle_cpu_cycles == 3.0
        assert config.memory.read_ns == 180.0
        assert config.bus_width_words == 4
        assert config.write_buffer_entries == 4

    def test_levels_ordered_by_number_not_file_order(self):
        config = parse_config("l2 size=64KB block=32\nl1 size=4KB block=16\n")
        assert config.levels[0].size_bytes == 4 * KB

    def test_three_levels(self):
        config = parse_config(
            "l1 size=4KB\nl2 size=64KB block=32\nl3 size=1MB block=32 cycle=6\n"
        )
        assert config.depth == 3
        assert config.levels[2].cycle_cpu_cycles == 6.0

    def test_write_policy_parsed(self):
        config = parse_config("l1 size=4KB write=through\n")
        assert config.levels[0].write_policy is WritePolicy.WRITE_THROUGH

    def test_comments_and_blank_lines_ignored(self):
        config = parse_config("\n# hello\nl1 size=8KB  # trailing\n")
        assert config.levels[0].size_bytes == 8 * KB

    def test_missing_levels_rejected(self):
        with pytest.raises(ValueError, match="no cache levels"):
            parse_config("cpu cycle_ns=10\n")

    def test_non_consecutive_levels_rejected(self):
        with pytest.raises(ValueError, match="consecutively"):
            parse_config("l1 size=4KB\nl3 size=1MB\n")

    def test_unknown_keyword_rejected(self):
        with pytest.raises(ValueError, match="unknown keyword"):
            parse_config("cache size=4KB\n")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown options"):
            parse_config("l1 size=4KB colour=red\n")

    def test_malformed_pair_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config("l1 size\n")


class TestFormatConfig:
    def test_base_text_roundtrip(self):
        from repro.sim.config import format_config

        config = parse_config(BASE_TEXT)
        assert parse_config(format_config(config)) == config

    def test_nondefault_options_roundtrip(self):
        from repro.sim.config import format_config

        config = parse_config(
            "l1 size=8KB block=32 assoc=2 cycle=2 replacement=fifo "
            "write=through fetch_blocks=2 write_allocate=false "
            "prefetch=tagged prefetch_distance=3\n"
            "l2 size=1MB block=64 assoc=4 cycle=5\n"
            "memory read_ns=360 write_ns=200 recovery_ns=240\n"
            "bus width_words=8\n"
            "write_buffer entries=2\n"
        )
        assert parse_config(format_config(config)) == config

    def test_format_size_units(self):
        from repro.sim.config import format_size

        assert format_size(4 * KB) == "4KB"
        assert format_size(2 * MB) == "2MB"
        assert format_size(48) == "48B"


@settings(max_examples=50, deadline=None)
@given(
    l1_exp=st.integers(10, 16),
    l2_exp=st.integers(13, 22),
    l1_block_exp=st.integers(4, 6),
    l2_block_exp=st.integers(4, 7),
    assoc_exp=st.integers(0, 3),
    cycle=st.sampled_from([1.0, 2.0, 3.0, 5.0, 10.0]),
    split=st.booleans(),
    prefetch=st.sampled_from(["none", "on-miss", "tagged", "always"]),
)
def test_random_config_roundtrips(
    l1_exp, l2_exp, l1_block_exp, l2_block_exp, assoc_exp, cycle, split, prefetch
):
    """Any constructible two-level machine must survive serialisation."""
    from repro.cache.policy import PrefetchKind
    from repro.sim.config import format_config

    config = SystemConfig(
        levels=(
            LevelConfig(
                size_bytes=2**l1_exp,
                block_bytes=2**l1_block_exp,
                split=split,
                prefetch=PrefetchKind.parse(prefetch),
            ),
            LevelConfig(
                size_bytes=2**l2_exp,
                block_bytes=2**l2_block_exp,
                associativity=2**assoc_exp,
                cycle_cpu_cycles=cycle,
            ),
        )
    )
    assert parse_config(format_config(config)) == config

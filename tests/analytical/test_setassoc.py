"""Tests for Smith's set-associative miss model."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analytical.setassoc import (
    associativity_curve,
    miss_probability_by_distance,
    miss_ratio_spread,
    predicted_miss_ratio,
)
from repro.trace.record import READ, Trace
from repro.trace.stats import StackDistanceProfile, stack_distance_profile


def profile_of(distances, cold=0):
    return StackDistanceProfile(
        distances=np.array(distances, dtype=np.int64),
        cold_references=cold,
        block_bytes=16,
    )


class TestMissProbability:
    def test_fully_associative_is_exact_threshold(self):
        probs = miss_probability_by_distance(
            np.array([1, 2, 3, 4, 5]), sets=1, associativity=3
        )
        assert probs.tolist() == [0.0, 0.0, 0.0, 1.0, 1.0]

    def test_immediate_reuse_never_misses(self):
        probs = miss_probability_by_distance(
            np.array([1]), sets=64, associativity=1
        )
        assert probs[0] == pytest.approx(0.0)

    def test_direct_mapped_closed_form(self):
        # P(miss | d) = 1 - (1 - 1/S)^(d-1) for A=1.
        sets = 16
        for d in (2, 5, 20):
            expected = 1.0 - (1.0 - 1.0 / sets) ** (d - 1)
            probs = miss_probability_by_distance(
                np.array([d]), sets=sets, associativity=1
            )
            assert probs[0] == pytest.approx(expected)

    def test_associativity_helps_at_short_distances(self):
        """At fixed capacity, higher associativity lowers the per-distance
        miss probability for distances well below the capacity (at
        distances near capacity the fewer-sets penalty can win -- a real
        property of the model, dominated in aggregate by the short-distance
        mass of real programs)."""
        distances = np.arange(1, 17)  # well below the 32-block capacity
        one = miss_probability_by_distance(distances, 32, 1)
        two = miss_probability_by_distance(distances, 16, 2)
        four = miss_probability_by_distance(distances, 8, 4)
        assert np.all(two <= one + 1e-12)
        assert np.all(four <= two + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            miss_probability_by_distance(np.array([0]), 4, 1)
        with pytest.raises(ValueError):
            miss_probability_by_distance(np.array([1]), 0, 1)


class TestPredictedMissRatio:
    def test_cold_references_always_miss(self):
        profile = profile_of([], cold=10)
        assert predicted_miss_ratio(profile, 16, 2) == pytest.approx(1.0)

    def test_empty_profile(self):
        assert predicted_miss_ratio(profile_of([]), 16, 2) == 0.0

    def test_fully_associative_matches_profile_exactly(self):
        rng = np.random.default_rng(7)
        blocks = rng.integers(0, 50, size=600).tolist()
        trace = Trace.from_records([(READ, b * 16) for b in blocks])
        profile = stack_distance_profile(trace)
        for capacity in (4, 16, 64):
            predicted = predicted_miss_ratio(profile, 1, capacity)
            exact = profile.miss_ratio_at(capacity)
            assert predicted == pytest.approx(exact)

    def test_direct_mapped_prediction_tracks_simulation(self):
        """On a randomly-addressed trace the uniform-mapping assumption
        holds, so the prediction should track a simulated cache closely."""
        from repro.cache import Cache, CacheGeometry

        rng = np.random.default_rng(9)
        blocks = rng.integers(0, 300, size=5000)
        trace = Trace.from_records([(READ, int(b) * 16) for b in blocks])
        profile = stack_distance_profile(trace)
        cache = Cache(CacheGeometry(128 * 16, 16, 1))  # 128 sets
        for _, address in trace.records():
            cache.read(address)
        simulated = cache.stats.read_miss_ratio
        predicted = predicted_miss_ratio(profile, 128, 1)
        # The model assumes fresh random mappings per reuse; a real cache
        # has one fixed mapping per block, which biases it a few percent.
        assert predicted == pytest.approx(simulated, rel=0.15)

    def test_four_way_prediction_tracks_simulation(self):
        from repro.cache import Cache, CacheGeometry

        rng = np.random.default_rng(11)
        blocks = rng.integers(0, 300, size=5000)
        trace = Trace.from_records([(READ, int(b) * 16) for b in blocks])
        profile = stack_distance_profile(trace)
        cache = Cache(CacheGeometry(128 * 16, 16, 4))  # 32 sets, 4-way
        for _, address in trace.records():
            cache.read(address)
        simulated = cache.stats.read_miss_ratio
        predicted = predicted_miss_ratio(profile, 32, 4)
        assert predicted == pytest.approx(simulated, rel=0.15)


class TestAssociativityCurve:
    def test_curve_monotone_in_ways(self):
        rng = np.random.default_rng(13)
        blocks = rng.integers(0, 200, size=3000)
        trace = Trace.from_records([(READ, int(b) * 16) for b in blocks])
        profile = stack_distance_profile(trace)
        curve = associativity_curve(profile, capacity_blocks=64)
        assert curve[1] >= curve[2] >= curve[4] >= curve[8]

    def test_spread_is_nonnegative_and_consistent(self):
        rng = np.random.default_rng(15)
        blocks = rng.integers(0, 200, size=3000)
        trace = Trace.from_records([(READ, int(b) * 16) for b in blocks])
        profile = stack_distance_profile(trace)
        spread = miss_ratio_spread(profile, 64)
        assert spread >= -1e-12
        curve = associativity_curve(profile, 64, set_sizes=(1, 64))
        assert spread == pytest.approx(curve[1] - curve[64])

    def test_oversized_ways_rejected(self):
        with pytest.raises(ValueError):
            associativity_curve(profile_of([1, 2]), 4, set_sizes=(8,))


def test_experiment_registry_does_not_import_scipy_stats():
    """``scipy.stats`` costs about a second to import and only Smith's
    model uses it, so loading the experiments must not pull it in."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [src, env.get("PYTHONPATH", "")] if p
    )
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, repro.experiments.registry\n"
            "print('scipy.stats' in sys.modules)",
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

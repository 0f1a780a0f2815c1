"""Unit tests for repro.engine.sketches — accuracy and mergeability."""

import pickle
import random

import pytest

from repro.engine.sketches import HyperLogLog, stable_hash64


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64("client-1") == stable_hash64("client-1")
        assert stable_hash64("client-1") != stable_hash64("client-2")

    def test_salt_changes_value(self):
        assert stable_hash64("x") != stable_hash64("x", salt=b"\x00\x01")

    def test_64_bit_range(self):
        value = stable_hash64("anything")
        assert 0 <= value < 2 ** 64


class TestHyperLogLog:
    def test_empty_estimate(self):
        assert HyperLogLog().estimate() == 0.0

    def test_accuracy_at_100k(self):
        sketch = HyperLogLog()
        for index in range(100_000):
            sketch.add(f"client-{index}")
        estimate = sketch.estimate()
        assert abs(estimate - 100_000) / 100_000 < 0.02

    def test_small_cardinalities_near_exact(self):
        for n in (1, 10, 100, 1000):
            sketch = HyperLogLog()
            for index in range(n):
                sketch.add(f"item-{index}")
            assert abs(sketch.estimate() - n) / n < 0.05

    def test_duplicates_ignored(self):
        sketch = HyperLogLog()
        for _ in range(1000):
            sketch.add("same")
        assert len(sketch) == 1

    def test_merge_equals_union(self):
        left, right, union = HyperLogLog(), HyperLogLog(), HyperLogLog()
        for index in range(5000):
            target = left if index % 2 else right
            target.add(f"item-{index}")
            union.add(f"item-{index}")
        left.merge(right)
        assert bytes(left.registers) == bytes(union.registers)

    def test_merge_precision_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HyperLogLog(12).merge(HyperLogLog(14))

    def test_invalid_precision(self):
        with pytest.raises(ValueError):
            HyperLogLog(precision=2)

    def test_relative_error_bound(self):
        assert HyperLogLog(14).relative_error == pytest.approx(0.0081, abs=5e-4)

    @pytest.mark.parametrize("precision", [10, 12, 14])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_estimate_within_five_standard_errors(self, precision, seed):
        """The documented bound: error is ~``relative_error`` per σ, so
        5σ holds for every fixed-seed distinct set here (worst: 3.0σ)."""
        rng = random.Random(seed)
        for n in (1_000, 10_000, 50_000):
            items = set()
            while len(items) < n:
                items.add(f"{rng.getrandbits(64):016x}")
            sketch = HyperLogLog(precision).update(items)
            assert abs(sketch.estimate() - n) <= 5 * sketch.relative_error * n


class TestPickling:
    def test_sketches_pickle_round_trip(self):
        hll = HyperLogLog()
        hll.update(f"item-{index}" for index in range(500))
        clone = pickle.loads(pickle.dumps(hll))
        assert type(clone) is HyperLogLog
        assert bytes(clone.registers) == bytes(hll.registers)
        assert clone.estimate() == hll.estimate()

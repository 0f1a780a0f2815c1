"""Mergeable quantile sketch: bounded-memory latency/size histograms.

The observability layer needs a *quantile* summary that merges
deterministically: an observability pipeline must produce the same
snapshot for the same run no matter how shards interleaved, which
rules out randomized reservoir samples.  P²-style streaming
estimators are deterministic per stream but their marker state does
not merge at all.  A **fixed-boundary log-bucket histogram** gives up
a bounded relative error per observation and in exchange gets the
full engine merge algebra:

* bucket boundaries are a pure function of the constructor parameters
  (``min_value`` · ``growth``\\ :sup:`i`), never of the data, so two
  sketches built from different shards always share a bucket grid;
* bucket counts are integers and merge by addition — commutative,
  associative, with the empty sketch as identity, exactly like the
  engine's counter states;
* memory is bounded by the dynamic range of the data, not its volume:
  ``log(max/min) / log(growth)`` buckets regardless of how many
  observations arrive (the :class:`~repro.cdn.metrics.DeliveryMetrics`
  OOM this class was built to fix kept one float per request).

Quantile queries walk the cumulative counts and interpolate linearly
inside the target bucket, then clamp to the exactly-tracked
``[min, max]``; the result is within one bucket width of the true
value, i.e. a relative error of at most ``growth - 1`` (~4.4% at the
default ``growth = 2**(1/16)``).

Everything pickles (plain attributes, no locks), so sketches ride the
process-pool boundary and the checkpoint store unchanged.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Mapping

__all__ = ["QuantileSketch", "DEFAULT_GROWTH", "DEFAULT_MIN_VALUE"]

#: ~4.4% relative bucket width; 16 buckets per doubling.
DEFAULT_GROWTH = 2.0 ** (1.0 / 16.0)
#: Values at or below this collapse into bucket 0 (1 µs for seconds,
#: sub-byte for sizes — below measurement noise either way).
DEFAULT_MIN_VALUE = 1e-6


class QuantileSketch:
    """Fixed log-bucket histogram with exact count/sum/min/max.

    ``observe`` is O(1); ``merge`` is O(buckets) and satisfies
    ``merge(S(x), S(y)) == S(x + y)`` field by field whenever both
    sketches share a grid, because every field is either an integer
    bucket count, a min/max, or a sum accumulated in the same order
    the engine merges states (plan order).
    """

    def __init__(
        self,
        growth: float = DEFAULT_GROWTH,
        min_value: float = DEFAULT_MIN_VALUE,
    ) -> None:
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        if min_value <= 0.0:
            raise ValueError("min_value must be positive")
        self.growth = growth
        self.min_value = min_value
        self._log_growth = math.log(growth)
        #: Sparse bucket index → count; index ``i`` covers
        #: ``[min_value * growth**i, min_value * growth**(i+1))``.
        self.buckets: Dict[int, int] = {}
        #: Observations at or below zero (timings should never be,
        #: but a clock step must not crash the metrics layer).
        self.nonpositive = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- ingest ----------------------------------------------------------

    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        return int(math.log(value / self.min_value) / self._log_growth)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.nonpositive += 1
            return
        index = self._index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def update(self, values: Iterable[float]) -> "QuantileSketch":
        for value in values:
            self.observe(value)
        return self

    # -- merge -----------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        if (other.growth, other.min_value) != (self.growth, self.min_value):
            raise ValueError(
                "cannot merge quantile sketches with different bucket grids"
            )
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        self.nonpositive += other.nonpositive
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return self.count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile, ``q`` in [0, 1].

        Walks the cumulative bucket counts to the target rank,
        interpolates linearly inside the bucket, and clamps to the
        exact observed ``[min, max]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.count:
            raise ValueError("empty sketch has no quantiles")
        rank = q * (self.count - 1)
        cumulative = self.nonpositive
        if rank < cumulative:
            return self.min
        estimate = self.max
        for index in sorted(self.buckets):
            bucket_count = self.buckets[index]
            if rank < cumulative + bucket_count:
                low = self.min_value * self.growth ** index
                high = low * self.growth
                fraction = (
                    (rank - cumulative) / bucket_count if bucket_count else 0.0
                )
                estimate = low + (high - low) * fraction
                break
            cumulative += bucket_count
        return min(max(estimate, self.min), self.max)

    def summary(self) -> Dict[str, float]:
        """Headline statistics for rendered reports."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe full state (bucket keys become strings)."""
        return {
            "growth": self.growth,
            "min_value": self.min_value,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "nonpositive": self.nonpositive,
            "buckets": {
                str(index): self.buckets[index]
                for index in sorted(self.buckets)
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QuantileSketch":
        sketch = cls(
            growth=float(data["growth"]), min_value=float(data["min_value"])
        )
        sketch.count = int(data["count"])
        sketch.total = float(data["total"])
        sketch.min = math.inf if data["min"] is None else float(data["min"])
        sketch.max = -math.inf if data["max"] is None else float(data["max"])
        sketch.nonpositive = int(data.get("nonpositive", 0))
        sketch.buckets = {
            int(index): int(count)
            for index, count in dict(data["buckets"]).items()
        }
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch(count={self.count}, buckets={len(self.buckets)})"
        )

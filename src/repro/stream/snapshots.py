"""Incremental results: per-window snapshots and cross-window drift.

When the window manager seals a window, :class:`SnapshotBuilder`
finalizes its accumulator into a :class:`WindowSnapshot` — the
paper's headline metrics for that slice of traffic (JSON share,
cacheability, GET share, device mix, unique clients), the detected
object periods (§5.1 over the window's flows), and the window-local
ngram model's top-K predicted next URLs (§5.2's exploitable output,
the input to a prefetcher).

The builder also remembers the previous window's metric vector and
attaches a drift report (:func:`repro.analysis.drift.compare_metrics`)
to every snapshot after the first, so "uncacheable share jumped 30%
this window" is part of the emitted record, not a post-hoc query.

:class:`JsonlEmitter` appends snapshots to a JSONL file (or any text
handle) one flushed line per window — the resume-safe output format:
a killed stream leaves complete lines only, and a resumed one appends
the windows the first run never sealed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Dict, List, Optional, Union

from ..analysis.drift import compare_metrics
from ..periodicity.detector import DetectorConfig, PeriodDetector
from ..periodicity.results import analyze_flows
from .accumulators import WindowAccumulator

__all__ = ["WindowSnapshot", "SnapshotBuilder", "JsonlEmitter"]


@dataclass
class WindowSnapshot:
    """Finalized, serializable results for one sealed window."""

    window_start: float
    window_end: float
    records: int = 0
    json_requests: int = 0
    html_requests: int = 0
    json_share: float = 0.0
    get_share: float = 0.0
    uncacheable_share: float = 0.0
    unique_clients: int = 0
    non_browser_share: float = 0.0
    #: JSON response-size statistics; ``None`` when the window saw no
    #: JSON traffic (undefined, not zero — see repro.analysis.drift).
    mean_json_bytes: Optional[float] = None
    p50_json_bytes: Optional[float] = None
    device_shares: Dict[str, float] = field(default_factory=dict)
    #: Detected object periods in seconds, sorted (Figure 5 slice).
    detected_periods: List[float] = field(default_factory=list)
    periodic_objects: int = 0
    periodic_request_fraction: float = 0.0
    #: The window model's top-K most likely next URLs, best first.
    top_predicted: List[str] = field(default_factory=list)
    #: Metrics whose relative change vs the previous window exceeded
    #: the drift threshold: name → (before, after, relative).
    drift: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Cumulative stream-level late drops at seal time.
    late_dropped: int = 0

    def to_dict(self) -> dict:
        return {
            "window_start": self.window_start,
            "window_end": self.window_end,
            "records": self.records,
            "json_requests": self.json_requests,
            "html_requests": self.html_requests,
            "json_share": round(self.json_share, 6),
            "get_share": round(self.get_share, 6),
            "uncacheable_share": round(self.uncacheable_share, 6),
            "unique_clients": self.unique_clients,
            "non_browser_share": round(self.non_browser_share, 6),
            "mean_json_bytes": (
                None
                if self.mean_json_bytes is None
                else round(self.mean_json_bytes, 3)
            ),
            "p50_json_bytes": (
                None
                if self.p50_json_bytes is None
                else round(self.p50_json_bytes, 3)
            ),
            "device_shares": {
                device: round(share, 6)
                for device, share in sorted(self.device_shares.items())
            },
            "detected_periods": self.detected_periods,
            "periodic_objects": self.periodic_objects,
            "periodic_request_fraction": round(
                self.periodic_request_fraction, 6
            ),
            "top_predicted": self.top_predicted,
            "drift": self.drift,
            "late_dropped": self.late_dropped,
        }

    @property
    def json_html_ratio(self) -> float:
        """JSON:HTML request ratio (Figure 1 as a time series);
        ``inf`` for a window with JSON but no HTML traffic."""
        if self.html_requests == 0:
            return float("inf") if self.json_requests else 0.0
        return self.json_requests / self.html_requests

    @property
    def metrics(self) -> Dict[str, Optional[float]]:
        """The drift-comparison vector for this window.

        Shape-stable: every key is present for every window, quiet or
        busy, so consecutive-window drift reports always cover the
        full vector (size statistics are ``None`` when undefined).
        """
        return {
            "json_share": self.json_share,
            "get_share": self.get_share,
            "uncacheable_share": self.uncacheable_share,
            "mobile_share": self.device_shares.get("mobile", 0.0),
            "embedded_share": self.device_shares.get("embedded", 0.0),
            "unknown_share": self.device_shares.get("unknown", 0.0),
            "non_browser_share": self.non_browser_share,
            "mean_json_bytes": self.mean_json_bytes,
            "p50_json_bytes": self.p50_json_bytes,
            "unique_clients": float(self.unique_clients),
            "records": float(self.records),
        }


class SnapshotBuilder:
    """Turns sealed window accumulators into snapshots, in seal order.

    Stateful only for drift: it keeps the previous window's metric
    vector.  Period detection and prediction are optional (both cost
    CPU at seal time) and run only on tracks the accumulator carries.
    """

    def __init__(
        self,
        detector_config: Optional[DetectorConfig] = None,
        match_tolerance: float = 0.10,
        top_k: int = 5,
        drift_threshold: float = 0.10,
        detect_periods: bool = True,
        predict_urls: bool = True,
    ) -> None:
        self.detector_config = detector_config
        self.match_tolerance = match_tolerance
        self.top_k = top_k
        self.drift_threshold = drift_threshold
        self.detect_periods = detect_periods
        self.predict_urls = predict_urls
        self._previous_metrics: Optional[Dict[str, float]] = None

    def build(
        self, accumulator: WindowAccumulator, late_dropped: int = 0
    ) -> WindowSnapshot:
        snapshot = WindowSnapshot(
            window_start=accumulator.window_start,
            window_end=accumulator.window_end,
            records=accumulator.record_count,
            late_dropped=late_dropped,
        )
        state = accumulator.characterization
        if state is not None:
            summary = state.summary
            total = summary.total_logs
            json_requests = summary.content_types.get("application/json", 0)
            snapshot.json_requests = json_requests
            snapshot.html_requests = summary.content_types.get("text/html", 0)
            snapshot.json_share = json_requests / total if total else 0.0
            snapshot.get_share = (
                summary.methods.get("GET", 0) / total if total else 0.0
            )
            snapshot.uncacheable_share = state.cacheability.uncacheable_fraction
            snapshot.unique_clients = len(summary.clients)
            snapshot.device_shares = state.traffic_source.device_shares()
            snapshot.non_browser_share = (
                state.traffic_source.non_browser_fraction
            )
            json_sizes = state.sizes.get("application/json")
            if json_sizes is not None and json_sizes.count:
                snapshot.mean_json_bytes = json_sizes.mean
                snapshot.p50_json_bytes = json_sizes.percentile(50)
        if self.detect_periods and accumulator.flows is not None:
            detector = (
                PeriodDetector(self.detector_config)
                if self.detector_config
                else None
            )
            report = analyze_flows(
                accumulator.flows.finalize(),
                accumulator.flows.total_json_requests,
                detector=detector,
                match_tolerance=self.match_tolerance,
            )
            snapshot.detected_periods = sorted(
                round(period, 3) for period in report.object_periods()
            )
            snapshot.periodic_objects = len(snapshot.detected_periods)
            snapshot.periodic_request_fraction = (
                report.periodic_request_fraction
            )
        if self.predict_urls and accumulator.ngrams is not None:
            snapshot.top_predicted = self._predict(accumulator)
        metrics = snapshot.metrics
        if self._previous_metrics is not None:
            report = compare_metrics(
                self._previous_metrics, metrics, threshold=self.drift_threshold
            )
            snapshot.drift = {
                delta.name: {
                    "before": delta.before,
                    "after": delta.after,
                    "relative": (
                        delta.relative
                        if delta.relative != float("inf")
                        else -1.0
                    ),
                }
                for delta in report.drifted()
            }
        self._previous_metrics = metrics
        return snapshot

    def _predict(self, accumulator: WindowAccumulator) -> List[str]:
        """Top-K next URLs from a model fit on the window's sequences.

        An order-1 model over the window's raw per-client sequences;
        the empty-history query backs off to the unigram successor
        table, i.e. the URLs most likely to be requested next by any
        client — the prefetch candidate list.
        """
        from ..ngram.model import BackoffNgramModel

        sequences = accumulator.ngrams.sequences(clustered=False)
        model = BackoffNgramModel(order=1)
        model.fit(sequences.values())
        if not model.context_count():
            return []
        return model.predict([], k=self.top_k)


class JsonlEmitter:
    """Appends one JSON line per snapshot; resume-safe by design."""

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        if hasattr(target, "write"):
            self._handle: IO[str] = target  # type: ignore[assignment]
            self._owned = False
        else:
            path = Path(target)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(path, "a", encoding="utf-8")
            self._owned = True
        self.emitted = 0

    def emit(self, snapshot: WindowSnapshot) -> None:
        self._handle.write(
            json.dumps(snapshot.to_dict(), separators=(",", ":"))
        )
        self._handle.write("\n")
        self._handle.flush()
        self.emitted += 1

    def close(self) -> None:
        if self._owned:
            self._handle.close()

    def __enter__(self) -> "JsonlEmitter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

"""Canonical, JSON-safe views of each job's output, and their digests.

Every job kind reduces its result to plain data here, so the parent
process can compare the engine or stream output with the serial path
of the same commit, and hash the parts that must never change against
``digests.json``:

* characterization counters (summary, traffic source, request type,
  cacheability, heatmap, sizes, apps);
* Table 3 hit counts (``correct``/``total`` per (N, K, clustered));
* per stream window: records, JSON requests, unique clients, the
  shares and the top predicted URLs.

Detected periods may legitimately change with the detector, so they
are compared only within one commit; against the recorded values they
are checked by planted-period recall (see :func:`planted_recall`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, List, Mapping


def _hash(values: Iterable[Any]) -> str:
    return hashlib.sha256(
        "\n".join(sorted(str(value) for value in values)).encode()
    ).hexdigest()


def _counts(counter: Mapping) -> Dict[str, int]:
    return {str(key): int(value) for key, value in sorted(counter.items(), key=str)}


def characterization(report) -> Dict[str, Any]:
    summary = report.summary
    traffic = report.traffic_source
    apps = report.apps
    return {
        "summary": {
            "total_logs": summary.total_logs,
            "first_timestamp": summary.first_timestamp,
            "last_timestamp": summary.last_timestamp,
            "domains": _hash(summary.domains),
            "clients": _hash(summary.clients),
            "objects": _hash(summary.objects),
            "content_types": _counts(summary.content_types),
            "methods": _counts(summary.methods),
            "cache_statuses": _counts(summary.cache_statuses),
            "response_bytes": summary.total_response_bytes,
            "request_bytes": summary.total_request_bytes,
        },
        "traffic_source": {
            "total": traffic.total_requests,
            "devices": _counts(traffic.device_counts),
            "apps": _counts(traffic.app_counts),
            "browser_by_device": _counts(traffic.browser_by_device),
            "ua_strings": {
                str(device): _hash(strings)
                for device, strings in sorted(
                    traffic.ua_strings_by_device.items(), key=str
                )
            },
        },
        "request_type": {
            "total": report.request_type.total_requests,
            "methods": _counts(report.request_type.method_counts),
        },
        "cacheability": {
            "total": report.cacheability.total,
            "hits": report.cacheability.hits,
            "misses": report.cacheability.misses,
            "no_store": report.cacheability.no_store,
        },
        "heatmap": {
            str(category): _counts(cells)
            for category, cells in sorted(report.heatmap.cells.items(), key=str)
        },
        "sizes": {
            content_type: _hash(distribution.sizes) + f":{len(distribution.sizes)}"
            for content_type, distribution in sorted(report.sizes.items())
        },
        "apps": {
            "total": apps.total_requests,
            "requests": _counts(apps.requests_per_app),
            "bytes": _counts(apps.bytes_per_app),
            "versions": {
                name: _counts(versions)
                for name, versions in sorted(apps.versions_per_app.items())
            },
        },
    }


def table3(ngram) -> List[List[Any]]:
    return [
        [n, k, clustered, result.correct, result.total]
        for (n, k, clustered), result in sorted(ngram.items())
    ]


def _period(detected) -> Any:
    if detected is None:
        return None
    return [
        detected.period_s,
        detected.acf_value,
        detected.spectral_power,
        detected.acf_threshold,
        detected.power_threshold,
    ]


def periodicity(report) -> Dict[str, Any]:
    """Every detected value; exact within one commit only."""
    return {
        "total_json_requests": report.total_json_requests,
        "objects": {
            object_id: {
                "period": _period(outcome.object_period),
                "source": outcome.object_period_source,
                "clients": {
                    client: _period(period)
                    for client, period in sorted(outcome.client_periods.items())
                },
                "periodic_clients": sorted(outcome.periodic_clients),
                "counts": [
                    outcome.total_request_count,
                    outcome.periodic_request_count,
                    outcome.periodic_upload_count,
                    outcome.periodic_uncacheable_count,
                ],
            }
            for object_id, outcome in sorted(report.objects.items())
        },
    }


def object_periods(report) -> Dict[str, float]:
    return {
        object_id: outcome.object_period.period_s
        for object_id, outcome in report.objects.items()
        if outcome.object_period is not None
    }


def planted_recall(periods: Mapping[str, float], planted: Mapping[str, float]) -> float:
    """Share of planted objects detected with the right period.

    Same rule as ``benchmarks/test_fig5_periods.py``: within
    ``max(2 s, 10%)`` of the designed period.
    """
    if not planted:
        return 1.0
    hits = sum(
        1
        for object_id, period in planted.items()
        if object_id in periods
        and abs(periods[object_id] - period) <= max(2.0, 0.10 * period)
    )
    return hits / len(planted)


def windows(snapshots) -> List[Dict[str, Any]]:
    return [
        {
            "window": [snapshot.window_start, snapshot.window_end],
            "records": snapshot.records,
            "json_requests": snapshot.json_requests,
            "unique_clients": snapshot.unique_clients,
            "shares": [
                snapshot.json_share,
                snapshot.get_share,
                snapshot.uncacheable_share,
                snapshot.non_browser_share,
                sorted(snapshot.device_shares.items()),
            ],
            "top_predicted": list(snapshot.top_predicted),
            "periods": list(snapshot.detected_periods),
        }
        for snapshot in snapshots
    ]


def exact_windows(windows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The window fields recorded in ``digests.json`` (not the periods)."""
    return [
        {key: value for key, value in window.items() if key != "periods"}
        for window in windows
    ]


def digest(value: Any) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

#!/usr/bin/env python3
"""A CDN operator's monitoring console built from the library.

Combines three capabilities the paper motivates:

1. **Windowed characterization** — the §4 metrics as a live time
   series (diurnal request volume, JSON share, cacheability drift);
2. **Period-deviation alerts** (§5.1) — a client polling an object
   far off its intended timer;
3. **Sequence anomaly alerts** (§5.2) — a client requesting objects
   no organic app flow would (scanner behaviour).

Run:
    python examples/traffic_monitoring.py
"""

import numpy as np

from repro.anomaly import PeriodicAnomalyMonitor, SequenceAnomalyDetector
from repro.core.pipeline import run_stream
from repro.logs.record import HttpMethod, RequestLog
from repro.synth import WorkloadBuilder, long_term_config


def main() -> None:
    print("Generating a 24h workload (25k JSON requests) ...\n")
    dataset = WorkloadBuilder(
        long_term_config(25_000, seed=17, num_domains=60)
    ).build()
    logs = dataset.logs

    # -- 1. 3-hourly traffic time series ---------------------------------
    windows = run_stream(logs, window_s=3 * 3600.0,
                         tracks=("characterization",),
                         detect_periods=False, predict_urls=False).snapshots
    print(f"{'window':>8s} {'requests':>9s} {'json':>7s} {'no-store':>9s} "
          f"{'clients':>8s}")
    for window in windows:
        hour = int((window.window_start - windows[0].window_start) // 3600)
        bar = "#" * (window.records // 400)
        print(f"{hour:>6d}h {window.records:>9,} "
              f"{window.json_share * 100:>6.1f}% "
              f"{window.uncacheable_share * 100:>8.1f}% "
              f"{window.unique_clients:>8,}  {bar}")

    # -- 2. learn intended periods, then catch a rogue device -------------
    print("\nLearning intended object periods from the day's traffic ...")
    monitor = PeriodicAnomalyMonitor(tolerance=0.35)
    baselines = monitor.learn(record for record in logs if record.is_json)
    print(f"  {len(baselines)} objects have stable intended periods:")
    for baseline in sorted(baselines.values(), key=lambda b: b.period_s)[:6]:
        print(f"    {baseline.object_id:55s} every {baseline.period_s:7.1f}s")

    target = min(baselines.values(), key=lambda b: b.period_s)
    rogue_period = max(1.0, target.period_s / 10)
    print(f"\nInjecting a rogue client polling {target.object_id}")
    print(f"  every {rogue_period:.1f}s instead of {target.period_s:.1f}s ...")
    domain, _, url = target.object_id.partition("/")
    rng = np.random.default_rng(5)
    rogue = [
        RequestLog(
            timestamp=float(i * rogue_period + rng.normal(0, 0.1)),
            client_ip_hash="deadbeef00000000",
            user_agent="okhttp/3.12.1",
            method=HttpMethod.GET,
            domain=domain,
            url="/" + url,
            mime_type="application/json",
            response_bytes=500,
            cache_status="no-store",
        )
        for i in range(1, 60)
    ]
    for alert in monitor.scan(rogue):
        print("  ALERT:", alert.describe())

    # -- 3. sequence anomaly: a scanner walks the URL space ---------------
    print("\nTraining the sequence anomaly detector on organic flows ...")
    detector = SequenceAnomalyDetector(quantile=0.01).fit(
        record for record in logs if record.is_json
    )
    victim = dataset.domains.domains[0].name
    probe = [
        f"{victim}/.env",
        f"{victim}/wp-admin/setup.php",
        f"{victim}/api/v1/../../etc/passwd",
        f"{victim}/backup/db.sql",
    ]
    rate = detector.flow_anomaly_rate(probe)
    print(f"  scanner flow anomaly rate: {rate * 100:.0f}% "
          f"(alert threshold quantile: {detector.quantile * 100:.1f}%)")
    for alert in detector.scan_flow("203.0.113.9", probe)[:3]:
        print("  ALERT:", alert.describe())


if __name__ == "__main__":
    main()

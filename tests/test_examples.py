"""Smoke tests: the shipped examples must run clean end to end.

The slowest example (prefetch_cdn) is exercised at reduced scale by
the benchmarks that cover the same code paths; here we run the rest
as real subprocesses so import errors, API drift, or output
regressions in `examples/` fail the suite.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=EXAMPLES.parent,
    )


class TestExamples:
    def test_quickstart(self, tmp_path):
        result = run_example("quickstart.py", "4000")
        assert result.returncode == 0, result.stderr
        assert "Figure 3" in result.stdout
        assert "Figure 4" in result.stdout
        # Clean up the artifact the quickstart writes.
        artifact = EXAMPLES.parent / "quickstart.jsonl.gz"
        if artifact.exists():
            artifact.unlink()

    def test_news_app_sessions(self):
        result = run_example("news_app_sessions.py")
        assert result.returncode == 0, result.stderr
        assert "One app session" in result.stdout
        assert "Next-request prediction" in result.stdout
        assert "HIT" in result.stdout

    def test_iot_telemetry_detection(self):
        result = run_example("iot_telemetry_detection.py")
        assert result.returncode == 0, result.stderr
        assert "ALERT" in result.stdout
        assert "60.0s" in result.stdout

    def test_flash_crowd_purge(self):
        result = run_example("flash_crowd_purge.py")
        assert result.returncode == 0, result.stderr
        assert "purge issued" in result.stdout
        assert "THUNDERING HERD" in result.stdout

    def test_traffic_monitoring(self):
        result = run_example("traffic_monitoring.py")
        assert result.returncode == 0, result.stderr
        rows = [
            line.split()
            for line in result.stdout.splitlines()
            if re.match(r"\s*\d+h ", line)
        ]
        # 3 h windows over the day, labelled from the first window's
        # start; the request counts pin the windowed path's output.
        assert [row[0] for row in rows] == [f"{h}h" for h in range(0, 24, 3)]
        assert [row[1] for row in rows] == [
            "5,606", "3,615", "3,002", "3,421",
            "4,781", "6,223", "7,713", "6,693",
        ]
        assert "stable intended periods" in result.stdout
        assert "ALERT" in result.stdout
        assert "scanner flow anomaly rate" in result.stdout

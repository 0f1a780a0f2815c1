"""Tests of the benchmark itself, at tiny sizes.

Run with ``python3 -m pytest perfbench -q``.  Each workload runs end
to end through ``run.py`` (measured and traced), so these also check
that every metric named in ``BENCHMARK.json`` is emitted with its
unit, and that a wrong recorded digest fails the command.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import job  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"characterize-short": 500, "patterns-long": 300, "stream-long": 300}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(work: Path, workload: str, *extra: str, cwd: Path = ROOT):
    command = [
        sys.executable, str(cwd / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--size", str(TINY[workload]), "--work-dir", str(work), *extra,
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_line(process) -> dict:
    return json.loads(process.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench-work")


def test_benchmark_json_follows_the_contract():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60


def test_catalog_matches_what_the_code_computes():
    layers = tracing.layer_metrics({}, {}, {}, {})
    assert sorted(layers) == sorted(m["name"] for m in BENCH["per_layer"])
    reps = [{"kind": "stream", "samples": {"main": [1.0], "serial": [1.2]}, "setup_s": 0.1,
             "peak_rss_mb": 1.0, "latencies_s": [0.1], "generator_lag_s": [0.0]}]
    inputs = type("Inputs", (), {"lines": 10})
    values, _ = run.end_to_end(WORKLOADS["stream-long"], inputs, reps)
    gated = [name for name in values if name not in run.INFORMATIONAL]
    assert sorted(gated) == sorted(m["name"] for m in BENCH["end_to_end"])


def planned_steps(first, budget_s, step_s=1.5, lines=6000, rate=1000.0):
    spec = {"first": first, "budget_s": budget_s, "lines": lines, "rate": rate}
    seconds, steps = [], []
    for step in job.stream_steps(spec, seconds):
        steps.append(step)
        seconds.append(lines / rate if step == "paced" else step_s)
    return steps


def test_stream_steps_pair_around_one_paced_phase():
    assert planned_steps("catchup", -1.0) == [
        "catchup", "replay", "paced", "replay", "catchup"
    ]
    assert planned_steps("replay", 0.0) == ["replay", "catchup", "paced", "catchup", "replay"]
    steps = planned_steps("catchup", 18.0)
    assert steps.count("paced") == 1
    assert steps.count("catchup") == steps.count("replay") == 4
    assert steps.index("paced") == 4


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(work, workload, trace):
    process = bench(work, workload, "--trace", trace)
    assert process.returncode == 0, process.stdout + process.stderr
    result = result_line(process)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    catalog = BENCH["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in catalog}
    for metric in catalog:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert f"metric {metric['name']} " in process.stdout
        if trace == "0":
            assert emitted["value"] > 0, metric["name"]
    if trace == "1":
        assert "note missing_hooks []" in process.stdout
        assert result["metrics"]["obs.trace_overhead_ratio"]["value"] > 0


def test_a_corrupted_reference_digest_fails_the_command(work, tmp_path):
    digests = tmp_path / "digests.json"
    recorded = bench(work, "characterize-short", "--digests", str(digests), "--record")
    assert recorded.returncode == 0, recorded.stdout + recorded.stderr
    entry = json.loads(digests.read_text())["characterize-short"]["500:3"]
    assert bench(work, "characterize-short", "--digests", str(digests)).returncode == 0

    entry["characterization"] = "0" * 64
    digests.write_text(json.dumps({"characterize-short": {"500:3": entry}}))
    process = bench(work, "characterize-short", "--digests", str(digests))
    assert process.returncode == 1
    assert result_line(process)["correct"] is False
    assert "digest" in process.stdout


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = bench(tmp_path / "work", "characterize-short", cwd=tmp_path)
    assert process.returncode != 0
    assert '"correct"' not in process.stdout

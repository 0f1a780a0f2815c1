"""The repository benchmark: one command, three workloads.

Usage::

    python3 perfbench/run.py --workload characterize-short \\
        --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: rounds of fresh-process
repetitions (the engine job and the serial path of the same job,
alternating which runs first; or one stream process that interleaves
catch-up and serial replay around a paced phase) until ``--seconds``
are spent, then medians.  ``--trace 1`` makes one traced round
instead and reports the per-layer metrics.  Either way every output is checked against the
serial path of the same commit and against ``digests.json``; the last
line of standard output is one JSON object, and the exit code is 1
when any check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import outputs  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

JOB = HERE / "job.py"
DIGESTS = HERE / "digests.json"
#: Wall-clock limit for one repetition process.
REP_TIMEOUT_S = 170.0
#: No new round starts after this much of a run has passed.
RUN_BUDGET_S = 150.0
#: Seconds a stream process spends outside its steps (start-up,
#: set-up, building services, writing the result).
STREAM_OVERHEAD_S = 1.5
#: Fresh processes whose ``setup_s`` a measured run takes the median
#: of; set-up-only processes make up any the rounds did not start.
MIN_SETUPS = 5
#: numpy advises transparent huge pages for large arrays; whether the
#: kernel grants them depends on the host's free memory, which made
#: the same job's peak RSS jump by 20 MiB between runs.
REP_ENV = dict(os.environ, NUMPY_MADVISE_HUGEPAGE="0")
#: Printed with the end-to-end metrics but not gated: on a 2-CPU host
#: the p95 window latency sits at the knee of a steep tail of host
#: stalls, and its run-to-run spread (about 0.5 of its median) is
#: wider than any bound the benchmark may set.
INFORMATIONAL = {"window_latency_p95_ms": "ms"}


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_rep(spec: Dict[str, Any], work: Path) -> Dict[str, Any]:
    """Run one repetition in a fresh process; returns its result."""
    rep_dir = Path(tempfile.mkdtemp(prefix="rep-", dir=work))
    spec = dict(spec, work=str(rep_dir / "work"), out=str(rep_dir / "result.json"))
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    process = subprocess.Popen(
        [sys.executable, str(JOB), str(spec_path)],
        env=REP_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        _, stderr = process.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        _, stderr = process.communicate()
    try:
        result = json.loads(Path(spec["out"]).read_text())
    except (OSError, ValueError):
        result = {"error": f"exit {process.returncode}: {stderr[-2000:]}",
                  "attempted": 1, "failed": 1}
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)
    result["kind"] = spec["kind"]
    result["phase"] = spec.get("phase", "measure")
    result["traced"] = bool(spec.get("traced"))
    return result


def base_spec(args, inputs, kind: str, round_index: int = 0) -> Dict[str, Any]:
    workers = os.cpu_count() or 1
    return {
        "first": "catchup" if round_index % 2 == 0 else "replay",
        "budget_s": args.seconds / workloads.STREAM_PROCESSES - STREAM_OVERHEAD_S,
        "workload": args.workload,
        "kind": kind,
        "src": str(SRC),
        "input": str(inputs.logs_dir),
        "lines": inputs.lines,
        "workers": workers,
        "backend": "process",
        "num_shards": 4 * workers,
        "window_s": workloads.STREAM_WINDOW_S,
        "watermark_s": workloads.STREAM_WATERMARK_S,
        "permutations": workloads.STREAM_PERMUTATIONS,
        "rate": workloads.PACED_RATE,
    }


def measured_rounds(args, wl, inputs, work: Path) -> List[Dict[str, Any]]:
    """Alternate the workload's job kinds until the time is spent."""
    reps: List[Dict[str, Any]] = []
    started = time.perf_counter()
    round_s = 0.0
    rounds = 0
    while True:
        elapsed = time.perf_counter() - started
        # Another round only if it should end by ``seconds`` + half a
        # round, so a 14 s round still fits a third time in 36 s.
        if rounds and (elapsed + round_s / 2 > args.seconds or elapsed > RUN_BUDGET_S):
            break
        kinds = wl.kinds if rounds % 2 == 0 else wl.kinds[::-1]
        round_started = time.perf_counter()
        for kind in kinds:
            reps.append(run_rep(base_spec(args, inputs, kind, rounds), work))
        round_s = time.perf_counter() - round_started
        rounds += 1
    while len(reps) < MIN_SETUPS:
        reps.append(run_rep(dict(base_spec(args, inputs, wl.kinds[0]), setup_only=True), work))
    return reps


def traced_round(args, wl, inputs, work: Path) -> List[Dict[str, Any]]:
    """Untraced and traced runs of every kind on the serial engine
    backend (the stream runs each of its phases once), plus (batch
    workloads) one parallel run for the engine's per-stage numbers."""
    reps: List[Dict[str, Any]] = []
    for traced in (False, True):
        for kind in wl.kinds:
            spec = base_spec(args, inputs, kind)
            spec.update(backend="serial", workers=1, traced=traced, phase="trace",
                        steps=workloads.STREAM_TRACE_STEPS)
            reps.append(run_rep(spec, work))
    if "engine" in wl.kinds:
        spec = base_spec(args, inputs, "engine")
        spec.update(registry=True, phase="parallel")
        reps.append(run_rep(spec, work))
    return reps


def check_outputs(args, wl, inputs, reps, digests, size) -> List[str]:
    """Every rep equals the serial reference; the reference matches the
    recorded digests and the planted-period recall floor."""
    problems: List[str] = []
    for rep in reps:
        if "error" in rep:
            problems.append(f"{rep['kind']} repetition failed: {rep['error'].strip()[-600:]}")
        problems.extend(rep.get("problems", []))
    if wl.name == "stream-long":
        replays = [view for rep in reps if "output" in rep for view in rep["output"]["replay"]]
    else:
        replays = [rep["output"] for rep in reps if rep["kind"] == "serial" and "output" in rep]
    if not replays:
        return problems + ["no serial reference output"]
    reference = replays[0]
    for rep in reps:
        if "output" not in rep:
            continue
        output = rep["output"]
        if wl.name == "stream-long":
            for step, views in sorted(output.items()):
                if any(view != reference for view in views):
                    problems.append(f"{step} windows differ from the serial replay")
        elif output != reference:
            differing = sorted(key for key in reference if output.get(key) != reference[key])
            problems.append(f"{rep['kind']} output differs from serial path: {differing}")

    if wl.name == "characterize-short":
        kind, exact = "characterization", reference["characterization"]
    elif wl.name == "patterns-long":
        kind, exact = "table3", reference["table3"]
    else:
        kind, exact = "windows", outputs.exact_windows(reference)
    key = f"{size}:{args.seed}"
    recorded = digests.setdefault(wl.name, {})
    actual = {kind: outputs.digest(exact)}
    if wl.name == "patterns-long":
        recall = outputs.planted_recall(reference["periods"], inputs.planted)
        actual["planted_recall"] = recall
        floors = [
            entry["planted_recall"]
            for entry_key, entry in recorded.items()
            if entry_key == key or (key not in recorded and entry_key.startswith(f"{size}:"))
        ]
        if floors and recall < min(floors):
            problems.append(f"planted-period recall {recall:.3f} below recorded {min(floors):.3f}")
    if args.record and not problems:
        recorded[key] = actual
    elif key in recorded and recorded[key].get(kind) != actual[kind]:
        problems.append(f"{kind} digest {actual[kind][:12]} != recorded {recorded[key][kind][:12]}")
    return problems


def end_to_end(wl, inputs, reps) -> Tuple[Dict[str, float], Dict[str, Any]]:
    ok = [rep for rep in reps if "error" not in rep]
    main_walls = [wall for rep in ok for wall in rep["samples"].get("main", [])]
    serial_walls = [wall for rep in ok for wall in rep["samples"].get("serial", [])]
    main = [rep for rep in ok if rep["samples"].get("main")]
    if not main_walls or not serial_walls:
        return {}, {}
    if wl.name == "stream-long":
        latencies = [value for rep in main for value in rep["latencies_s"]]
    else:
        latencies = main_walls
    lines = inputs.lines
    return {
        "records_per_s": lines / statistics.median(main_walls),
        "serial_records_per_s": lines / statistics.median(serial_walls),
        "window_latency_p50_ms": 1e3 * percentile(latencies, 50),
        "window_latency_p95_ms": 1e3 * percentile(latencies, 95),
        "setup_s": statistics.median(rep["setup_s"] for rep in ok),
        "peak_rss_mb": max(rep["peak_rss_mb"] for rep in main),
    }, {
        "latency_samples": len(latencies),
        "main_walls_s": [round(wall, 4) for wall in main_walls],
        "serial_walls_s": [round(wall, 4) for wall in serial_walls],
        "paced_generator_lag_p95_ms": (
            1e3 * percentile([v for rep in main for v in rep["generator_lag_s"]], 95)
            if wl.name == "stream-long" else None
        ),
    }


def per_layer(wl, inputs, reps) -> Tuple[Dict[str, float], Dict[str, Any]]:
    from tracing import layer_metrics, merge_raw

    ok = [rep for rep in reps if "error" not in rep]
    traced = [rep for rep in ok if rep["phase"] == "trace" and rep["traced"]]
    untraced = [rep for rep in ok if rep["phase"] == "trace" and not rep["traced"]]
    parallel = [rep for rep in ok if rep["phase"] == "parallel"]
    raw: Dict[str, Dict[str, float]] = {}
    obs: Dict[str, float] = {}
    for rep in traced:
        merge_raw(raw, rep["raw"])
        for name, value in rep.get("obs", {}).items():
            obs[name] = max(obs.get(name, 0), value) if name == "ingest.queue_peak" \
                else obs.get(name, 0) + value
    stages = parallel[0]["stages"] if parallel else {}
    traced_s = sum(rep["job_s"] for rep in traced)
    untraced_s = sum(rep["job_s"] for rep in untraced)
    extra = {
        "trace_overhead_ratio": traced_s / untraced_s if untraced_s else 0.0,
    }
    engine = [rep for rep in traced if rep["kind"] != "serial"]
    if engine and "periods" in engine[0]["output"]:
        extra["planted_recall"] = outputs.planted_recall(
            engine[0]["output"]["periods"], inputs.planted
        )
    lags = [value for rep in engine for value in rep.get("generator_lag_s", [])]
    if lags:
        extra["generator_lag_ms"] = 1e3 * percentile(lags, 95)
    missing = sorted({hook for rep in traced for hook in rep.get("missing_hooks", [])})
    return layer_metrics(raw, obs, stages, extra), {"missing_hooks": missing}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="traffic seed (default: the workload's base seed)")
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="JSON requests to generate (default: the workload's size)")
    parser.add_argument("--digests", type=Path, default=DIGESTS)
    parser.add_argument("--record", action="store_true",
                        help="record this run's reference digests into --digests")
    parser.add_argument("--work-dir", type=Path, default=ROOT / ".perfbench")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    size = args.size if args.size is not None else wl.size
    if args.seed is None:
        args.seed = wl.base_seed
    work = args.work_dir
    work.mkdir(parents=True, exist_ok=True)
    inputs = workloads.ensure_inputs(work, wl.shape, size, args.seed, wl.base_seed)

    import numpy

    host = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": wl.name,
        "seed": args.seed,
        "base_seed": wl.base_seed,
        "size": size,
        "input_lines": inputs.lines,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    if args.trace:
        reps = traced_round(args, wl, inputs, work)
        values, notes = per_layer(wl, inputs, reps)
        catalog = bench["per_layer"]
    else:
        reps = measured_rounds(args, wl, inputs, work)
        values, notes = end_to_end(wl, inputs, reps)
        catalog = bench["end_to_end"]

    digests = json.loads(args.digests.read_text()) if args.digests.exists() else {}
    problems = check_outputs(args, wl, inputs, reps, digests, size)
    if args.record and not problems:
        args.digests.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    metrics = {}
    for entry in catalog:
        if entry["name"] not in values:
            problems.append(f"metric {entry['name']} was not measured")
            continue
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}

    attempted = sum(rep.get("attempted", 0) for rep in reps)
    failed = sum(rep.get("failed", 0) for rep in reps)
    print(f"host {json.dumps(host, sort_keys=True)}")
    for name, notes_value in sorted(notes.items()):
        print(f"note {name} {notes_value}")
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    for name, unit in INFORMATIONAL.items():
        if name in values:
            print(f"metric {name} {values[name]:.6g} {unit} (informational, not gated)")
    print(f"metric error_rate {failed / max(attempted, 1):.6g} ratio "
          f"({failed} failed of {attempted} operations)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

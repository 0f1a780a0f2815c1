"""Workload definitions and the input cache.

Each workload names a dataset shape, a default size (JSON requests) and
a *base seed*.  The base seed fixes the populations (domains, clients)
and the planted periodic agents; the run's ``--seed`` draws the session
traffic on top of them.  Every seed therefore carries the same
periodicity-detection work (a handful of planted objects dominates the
§5.1 cost, and their number swings 1–6 between fully reseeded
datasets), while the records themselves differ from seed to seed.
With ``--seed`` equal to the base seed the dataset is exactly
``WorkloadBuilder(config).build()``.

Inputs are generated once per (shape, size, base seed, seed) into
``<work>/inputs/`` as a partitioned ``jsonl.gz`` directory plus a
``meta.json`` (line count, planted periods); later runs reuse them.
Generation happens before any timing and is excluded from every metric.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Stream settings: the CLI ``stream`` defaults plus a 30 s watermark.
STREAM_WINDOW_S = 300.0
STREAM_WATERMARK_S = 30.0
STREAM_PERMUTATIONS = 20
#: Offered rate of the paced (open-loop) phase, records per second:
#: about a quarter of the catch-up rate on a 2-CPU host, leaving about
#: 23 ms of wall time per 300 s window of the default input.
PACED_RATE = 1000.0
#: Stream processes in one measured run.  Each interleaves catch-up
#: and serial replay around one paced phase for half of the run.
STREAM_PROCESSES = 2
#: Steps of the stream process in the traced run: each phase once.
STREAM_TRACE_STEPS = ("catchup", "paced", "replay")


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str  # "short" or "long"
    size: int  # JSON requests
    base_seed: int
    #: The job kinds each measured round runs, in alternating order.
    kinds: Tuple[str, ...]


WORKLOADS: Dict[str, Workload] = {
    "characterize-short": Workload(
        "characterize-short", "short", 20_000, 2019, ("engine", "serial")
    ),
    "patterns-long": Workload(
        "patterns-long", "long", 4_000, 11, ("engine", "serial")
    ),
    "stream-long": Workload(
        "stream-long", "long", 4_000, 11, ("stream",)
    ),
}


@dataclass(frozen=True)
class Inputs:
    logs_dir: Path
    lines: int
    #: Planted periodic objects: object id -> designed period (s).
    planted: Dict[str, float]


def build_logs(shape: str, size: int, seed: int, base_seed: int):
    """Records and ground truth for one (shape, size, seed) input."""
    from repro.synth.workload import (
        GroundTruth,
        WorkloadBuilder,
        long_term_config,
        short_term_config,
    )

    make_config = short_term_config if shape == "short" else long_term_config
    base = WorkloadBuilder(make_config(size, seed=base_seed))
    truth = GroundTruth()
    events = base._periodic_events(truth)
    traffic = WorkloadBuilder(make_config(size, seed=seed))
    traffic.domains, traffic.clients = base.domains, base.clients
    events.extend(traffic._session_events(truth))
    events.sort()
    logs = [served.log for served in traffic.replay(events)]
    return logs, truth


def ensure_inputs(
    work: Path, shape: str, size: int, seed: int, base_seed: int
) -> Inputs:
    """Generate the input directory once; reuse it afterwards."""
    target = work / "inputs" / f"{shape}-{size}-{base_seed}-{seed}"
    meta_path = target / "meta.json"
    if not meta_path.exists():
        from repro.logs.partition import write_partitioned

        started = time.perf_counter()
        logs, truth = build_logs(shape, size, seed, base_seed)
        staging = target.with_name(target.name + f".tmp{os.getpid()}")
        shutil.rmtree(staging, ignore_errors=True)
        write_partitioned(logs, staging / "logs")
        meta = {
            "lines": len(logs),
            "planted": {
                object_id: spec.period_s
                for object_id, spec in sorted(truth.periodic_specs.items())
            },
            "generation_s": time.perf_counter() - started,
        }
        (staging / "meta.json").write_text(json.dumps(meta, indent=1))
        shutil.rmtree(target, ignore_errors=True)
        os.replace(staging, target)
    meta = json.loads(meta_path.read_text())
    return Inputs(
        logs_dir=target / "logs",
        lines=meta["lines"],
        planted=meta["planted"],
    )


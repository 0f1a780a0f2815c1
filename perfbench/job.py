"""One benchmark repetition, run in a fresh process by ``run.py``.

Usage: ``python3 perfbench/job.py SPEC.json``.  The spec names the
workload, the job kind (``engine``, ``serial`` or ``stream``), the
input directory and where to write the result.  The process:

1. imports the job's entry modules and constructs its objects — this
   is ``setup_s``, timed from the top of this file;
2. runs the job once, timing the program calls only (with ``traced``
   set, under the per-layer wrappers and a ``repro.obs`` registry).
   The stream job runs the steps its spec lists, e.g. catch-up,
   serial replay and the paced phase, and times each one;
3. waits for every worker process it started, then records the peak
   resident set of itself and its children;
4. writes timings, counts and a canonical view of the output as JSON;
   ``samples`` holds the wall times of the main job (``main``) and of
   the serial path (``serial``).
"""

import time

_STARTED = time.perf_counter()

import contextlib
import json
import multiprocessing
import resource
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _fold_stages(named_reports, workers, map_seconds):
    """Per-stage engine numbers; raw and clustered variants summed."""
    stages = {}
    for stage, report in named_reports:
        into = stages.setdefault(stage, {
            "run_s": 0.0, "shards": 0, "retries": 0, "failed": 0,
            "map_s": map_seconds.get(stage, 0.0), "workers": workers,
        })
        into["run_s"] += report.elapsed_seconds
        into["shards"] += report.total_shards
        into["retries"] += report.retries
        into["failed"] += len(report.failed)
    return stages


@contextlib.contextmanager
def _pipeline(tracer, record_stage, map_seconds):
    """Run one engine pipeline call.

    Names its record stage for the tracer and, when a registry is
    installed, gives the call a registry of its own so the
    ``engine.map_shard`` spans folded back from the workers add up to
    each stage's map time (``ShardResult.seconds`` would also count
    the time a shard queued for a worker).
    """
    from repro.obs import runtime as obs_runtime
    from repro.obs.registry import MetricsRegistry
    from tracing import item_stage

    outer = obs_runtime.active()
    inner = MetricsRegistry() if outer is not None else None
    if tracer is not None:
        tracer.pipeline = record_stage
    try:
        with obs_runtime.installed(inner):
            yield
    finally:
        if tracer is not None:
            tracer.pipeline = None
        if inner is not None:
            for span in inner.spans:
                if span["name"] == "engine.map_shard":
                    stage = item_stage(span["tags"].get("shard", "")) or record_stage
                    map_seconds[stage] = map_seconds.get(stage, 0.0) + span["seconds"]
            outer.merge(inner)


def _engine_options(spec):
    return dict(
        logs_dir=spec["input"],
        workers=spec["workers"],
        backend=spec["backend"],
        num_shards=spec["num_shards"],
        with_stats=True,
    )


def setup_characterize_engine(spec):
    from repro.core.pipeline import run_characterization_parallel

    import outputs

    def run(tracer):
        map_seconds = {}
        started = time.perf_counter()
        with _pipeline(tracer, "characterization", map_seconds):
            report, stats = run_characterization_parallel(**_engine_options(spec))
        wall_s = time.perf_counter() - started
        stages = _fold_stages([("characterization", stats)], spec["workers"], map_seconds)
        return {
            "wall_s": wall_s,
            "stages": stages,
            "attempted": stats.total_shards,
            "failed": len(stats.failed),
            "output": {"characterization": outputs.characterization(report)},
        }

    return run


def setup_characterize_serial(spec):
    from repro.core.pipeline import run_characterization
    from repro.logs.partition import read_partitioned

    import outputs

    def run(tracer):
        started = time.perf_counter()
        report = run_characterization(read_partitioned(spec["input"]))
        wall_s = time.perf_counter() - started
        return {
            "wall_s": wall_s,
            "attempted": 1,
            "failed": 0,
            "output": {"characterization": outputs.characterization(report)},
        }

    return run


def _pattern_output(periodicity, ngram):
    import outputs

    return {
        "periodicity": outputs.periodicity(periodicity),
        "periods": outputs.object_periods(periodicity),
        "table3": outputs.table3(ngram),
    }


def setup_patterns_engine(spec):
    from repro.core.pipeline import run_ngram_parallel, run_periodicity_parallel
    from repro.periodicity.detector import DetectorConfig

    detector_config = DetectorConfig()

    def run(tracer):
        # run_pattern_analysis_parallel composes exactly these two
        # calls; they are made directly to keep their RunReports.
        options = _engine_options(spec)
        map_seconds = {}
        started = time.perf_counter()
        with _pipeline(tracer, "periodicity-flows", map_seconds):
            periodicity, period_stats = run_periodicity_parallel(
                detector_config=detector_config, **options
            )
        with _pipeline(tracer, "ngram-sequences", map_seconds):
            ngram, ngram_stats = run_ngram_parallel(
                ns=(1,), ks=(1, 5, 10), **options
            )
        wall_s = time.perf_counter() - started
        named = list(zip(("periodicity-flows", "periodicity-detect"), period_stats))
        named += list(zip(
            ("ngram-sequences", "ngram-train", "ngram-eval", "ngram-train", "ngram-eval"),
            ngram_stats,
        ))
        reports = [report for _, report in named]
        return {
            "wall_s": wall_s,
            "stages": _fold_stages(named, spec["workers"], map_seconds),
            "attempted": sum(report.total_shards for report in reports),
            "failed": sum(len(report.failed) for report in reports),
            "output": _pattern_output(periodicity, ngram),
        }

    return run


def setup_patterns_serial(spec):
    from repro.core.pipeline import run_pattern_analysis
    from repro.logs.partition import read_partitioned
    from repro.periodicity.detector import DetectorConfig

    detector_config = DetectorConfig()

    def run(tracer):
        started = time.perf_counter()
        report = run_pattern_analysis(
            read_partitioned(spec["input"]),
            detector_config=detector_config,
            ngram_ns=(1,),
            ngram_ks=(1, 5, 10),
        )
        wall_s = time.perf_counter() - started
        return {
            "wall_s": wall_s,
            "attempted": 1,
            "failed": 0,
            "output": _pattern_output(report.periodicity, report.ngram),
        }

    return run


def _stream_config(spec, phase):
    from repro.periodicity.detector import DetectorConfig
    from repro.stream import StreamConfig

    return StreamConfig(
        window_s=spec["window_s"],
        watermark_lag_s=spec["watermark_s"],
        detector_config=DetectorConfig(permutations=spec["permutations"]),
        detect_periods=True,
        predict_urls=True,
        ingest_workers=1,
        checkpoint_dir=str(Path(spec["work"]) / phase),
    )


def _conservation(result, lines, phase):
    """Problems with the record accounting of one stream run."""
    problems = []
    accounted = result.records_windowed + result.late_dropped + result.resumed_skips
    if accounted != lines:
        problems.append(f"{phase}: windowed+late+resumed={accounted} != {lines} input records")
    if result.late_dropped:
        problems.append(f"{phase}: late_dropped={result.late_dropped}")
    if result.resumed_skips:
        problems.append(f"{phase}: resumed_skips={result.resumed_skips}")
    if result.ingest is not None and result.ingest.dropped:
        problems.append(f"{phase}: ingest dropped {result.ingest.dropped}")
    return problems


def _stream_failed(result):
    return result.late_dropped + (result.ingest.dropped if result.ingest else 0)


class PacedSource:
    """Open-loop source: record ``i`` is due at ``start + i / rate``.

    The schedule never slows down when the service does; a record whose
    due time has passed is yielded at once.  ``lags`` holds how late
    each record left the source (generator lag) and ``timestamps`` its
    event time, so window latency can be timed from due time.
    """

    def __init__(self, records, rate):
        self.records = records
        self.interval = 1.0 / rate
        self.start = None
        self.lags = []
        self.timestamps = []

    def __iter__(self):
        self.start = time.perf_counter()
        for index, record in enumerate(self.records):
            due = self.start + index * self.interval
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                now = time.perf_counter()
            self.lags.append(now - due)
            self.timestamps.append(record.timestamp)
            yield record

    def window_latencies(self, sealed_at, lag_s):
        """Seconds from when each window's sealing record was due to
        its snapshot; windows sealed only at end of input are skipped."""
        import numpy as np

        timestamps = np.asarray(self.timestamps)
        latencies = []
        for window_end, sealed in sorted(sealed_at.items()):
            index = int(np.searchsorted(timestamps, window_end + lag_s, side="left"))
            if index < len(timestamps):
                latencies.append(sealed - (self.start + index * self.interval))
        return latencies


def stream_steps(spec, step_seconds):
    """Yield the stream job's steps.

    With ``spec["steps"]`` set, exactly those.  Otherwise pairs of
    ``catchup`` and ``replay`` (order ``spec["first"]``), one paced
    phase, then pairs in the reverse order: at least one pair on each
    side, and more while the next should end within half a pair of
    ``spec["budget_s"]`` seconds of step time, half of the pair time
    before the paced phase and half after.  ``step_seconds`` lists the
    durations of the steps so far.
    """
    if "steps" in spec:
        yield from spec["steps"]
        return
    pair = ("catchup", "replay") if spec["first"] == "catchup" else ("replay", "catchup")
    pairs_s = spec["budget_s"] - spec["lines"] / spec["rate"]
    for side, (order, until) in enumerate(((pair, pairs_s / 2), (pair[::-1], spec["budget_s"]))):
        if side == 1:
            yield "paced"
        while True:
            yield from order
            last = sum(step_seconds[-2:])
            if sum(step_seconds) + last / 2 > until:
                break


def setup_stream(spec):
    """The stream job: the steps of :func:`stream_steps`, each on a
    fresh ``StreamService`` with a checkpoint directory of its own.

    ``catchup`` runs closed loop from ``merged_directory_source``,
    ``replay`` is the serial path (``StreamService.replay`` over
    ``read_partitioned``) and ``paced`` the open-loop source.  Each
    service is built before its step's timer starts; the first step's
    (never a paced one) is built here, inside ``setup_s``.
    """
    import gc

    from repro.logs.partition import read_partitioned
    from repro.stream import StreamService, merged_directory_source

    import outputs

    lines = spec["lines"]
    prebuilt = StreamService(_stream_config(spec, "step0"))

    def run(tracer):
        walls = {"main": [], "serial": []}
        views = {"catchup": [], "replay": [], "paced": []}
        latencies, lags, problems = [], [], []
        failed = 0
        step_seconds = []
        for index, step in enumerate(stream_steps(spec, step_seconds)):
            sealed_at = {}
            on_snapshot = None
            if step == "paced":
                source = PacedSource(merged_directory_source(spec["input"]), spec["rate"])
                on_snapshot = lambda snapshot, into=sealed_at: into.__setitem__(  # noqa: E731
                    snapshot.window_end, time.perf_counter()
                )
            svc = prebuilt if index == 0 else StreamService(
                _stream_config(spec, f"step{index}"), on_snapshot=on_snapshot
            )
            gc.collect()
            started = time.perf_counter()
            if step == "catchup":
                result = svc.run([merged_directory_source(spec["input"])])
            elif step == "replay":
                result = svc.replay(read_partitioned(spec["input"]))
            else:
                result = svc.run([source])
            seconds = time.perf_counter() - started
            step_seconds.append(seconds)
            if step == "catchup":
                walls["main"].append(seconds)
            elif step == "replay":
                walls["serial"].append(seconds)
            else:
                latencies += source.window_latencies(sealed_at, spec["watermark_s"])
                lags += source.lags
            failed += _stream_failed(result)
            problems += _conservation(result, lines, f"{step} step {index}")
            views[step].append(outputs.windows(result.snapshots))
        return {
            "samples": walls,
            "job_s": sum(step_seconds),
            "attempted": lines * len(step_seconds),
            "failed": failed,
            "latencies_s": latencies,
            "generator_lag_s": sorted(lags),
            "problems": problems,
            "output": views,
        }

    return run


SETUPS = {
    ("characterize-short", "engine"): setup_characterize_engine,
    ("characterize-short", "serial"): setup_characterize_serial,
    ("patterns-long", "engine"): setup_patterns_engine,
    ("patterns-long", "serial"): setup_patterns_serial,
    ("stream-long", "stream"): setup_stream,
}


def _reap_children(timeout_s=30.0):
    """Wait for every worker process to exit (pools shut down without
    waiting), so their peak RSS is counted and none outlives the run."""
    deadline = time.monotonic() + timeout_s
    children = multiprocessing.active_children()
    while children and time.monotonic() < deadline:
        for child in children:
            child.join(timeout=0.05)
        children = multiprocessing.active_children()
    for child in children:
        child.kill()
        child.join()


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    sys.path[:0] = [spec["src"], str(HERE)]
    Path(spec["work"]).mkdir(parents=True, exist_ok=True)
    run = SETUPS[(spec["workload"], spec["kind"])](spec)
    setup_s = time.perf_counter() - _STARTED
    if spec.get("setup_only"):
        Path(spec["out"]).write_text(json.dumps({"setup_s": setup_s, "samples": {}}))
        return

    # Imported here, outside both timings, so the imports inside the
    # timed ``_pipeline`` are dictionary lookups.
    from repro.obs import runtime as obs_runtime
    from repro.obs.registry import MetricsRegistry
    from tracing import Tracer

    tracer = registry = None
    if spec.get("traced"):
        tracer = Tracer().install()
    if spec.get("traced") or spec.get("registry"):
        registry = MetricsRegistry()

    try:
        with obs_runtime.installed(registry):
            result = run(tracer)
    except Exception:
        result = {"error": traceback.format_exc(), "attempted": 1, "failed": 1}
    finally:
        if tracer is not None:
            tracer.uninstall()
        _reap_children()
    if "wall_s" in result:
        result.setdefault("samples", {
            "serial" if spec["kind"] == "serial" else "main": [result["wall_s"]]
        })
    result.setdefault("job_s", result.get("wall_s", 0.0))
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["raw"] = tracer.raw()
        result["missing_hooks"] = tracer.missing
    if registry is not None:
        from tracing import obs_values

        result["obs"] = obs_values(registry.snapshot())
    Path(spec["out"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])

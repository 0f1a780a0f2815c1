"""Command-line interface.

Subcommands mirror the reproduction workflow::

    repro-json-cdn generate  --dataset short --requests 100000 --out logs.jsonl.gz
    repro-json-cdn characterize --logs logs.jsonl.gz
    repro-json-cdn characterize --logs-dir parts/ --workers 4
    repro-json-cdn patterns  --dataset long --requests 60000
    repro-json-cdn periodicity --dataset long --workers 4
    repro-json-cdn ngram --dataset long --workers 4
    repro-json-cdn trend
    repro-json-cdn paper     --requests 60000
    repro-json-cdn engine-bench --requests 50000 --workers 4 --pipeline all
    repro-json-cdn stream --logs-dir parts/ --window 300 --watermark 60 \
        --emit windows.jsonl --checkpoint-dir ckpt/

``generate`` writes a synthetic dataset to disk; the analysis
commands accept ``--logs <file>``, ``--logs-dir <partitioned dir>``
(the layout written by ``repro.logs.partition``), or generate a
dataset on the fly.  ``--workers N`` routes the §4 characterization,
the §5.1 periodicity analysis (``periodicity``), and the §5.2 ngram
sweep (``ngram``) through the sharded engine (``repro.engine``);
``--checkpoint-dir`` makes any engine run resumable.  ``paper`` runs
the whole evaluation and prints every table and figure;
``engine-bench`` measures serial vs sharded runs of any (or all) of
the three engine pipelines on one dataset.  ``stream`` runs the
online windowed service (``repro.stream``) over a file, a partitioned
directory, a growing file (``--follow``) or stdin, emitting one JSONL
snapshot per sealed event-time window and resuming sealed windows
from ``--checkpoint-dir`` after a kill.

Every engine-backed command and ``stream`` also accept ``--metrics
FILE`` (export a metrics snapshot after the run: Prometheus text
exposition, or the JSON snapshot with a ``.json`` suffix) and
``--trace FILE`` (recorded stage spans as JSONL) — see
``repro.obs``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.trend import analyze_trend
from .core.pipeline import (
    render_ngram,
    render_periodicity,
    run_characterization,
    run_characterization_parallel,
    run_ngram_parallel,
    run_pattern_analysis,
    run_pattern_analysis_parallel,
    run_periodicity_parallel,
)
from .core.report import render_bar_chart
from .logs.io import read_logs, write_logs
from .synth.trend import TrendModel
from .synth.workload import WorkloadBuilder, long_term_config, short_term_config

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-json-cdn",
        description="Reproduction of 'Characterizing JSON Traffic Patterns on a CDN' (IMC 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--metrics", metavar="FILE", dest="metrics",
            help="write a metrics snapshot after the run "
                 "(.json for the JSON snapshot, anything else for "
                 "Prometheus text exposition)",
        )
        p.add_argument(
            "--trace", metavar="FILE", dest="trace",
            help="write recorded stage spans as JSONL after the run",
        )

    def add_dataset_args(
        p: argparse.ArgumentParser, engine: bool = False
    ) -> None:
        p.add_argument(
            "--dataset",
            choices=("short", "long"),
            default="short",
            help="dataset shape (Table 2): short=10min wide, long=24h narrow",
        )
        p.add_argument("--requests", type=int, default=50_000,
                       help="target JSON request count")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--logs", metavar="FILE",
                       help="read logs from FILE instead of generating")
        if engine:
            p.add_argument(
                "--logs-dir", metavar="DIR",
                help="read logs from a partitioned directory "
                     "(repro.logs.partition layout) instead of generating",
            )
            p.add_argument(
                "--workers", type=int, default=1,
                help="worker count for the sharded analysis engine "
                     "(1 = serial)",
            )
            p.add_argument(
                "--shard-timeout", type=float, default=None,
                metavar="SECONDS", dest="shard_timeout",
                help="abandon a pooled shard attempt after this many "
                     "seconds and retry it (thread/process backends)",
            )
            p.add_argument(
                "--retries", type=int, default=0,
                help="extra attempts per failed or timed-out shard, "
                     "with exponential backoff",
            )
            p.add_argument(
                "--lenient", action="store_true",
                help="skip (and count) malformed log lines instead of "
                     "failing the read",
            )
            add_obs_args(p)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    add_dataset_args(gen)
    gen.add_argument("--out", required=True, metavar="FILE",
                     help="output path (.jsonl/.tsv, optionally .gz)")

    cha = sub.add_parser("characterize", help="run the §4 characterization")
    add_dataset_args(cha, engine=True)
    cha.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist per-shard partial states for resumable runs",
    )

    pat = sub.add_parser("patterns", help="run the §5 pattern analyses")
    add_dataset_args(pat, engine=True)
    pat.add_argument("--permutations", type=int, default=100,
                     help="permutation count x for the period detector")
    pat.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist per-shard partial states for resumable runs",
    )

    per = sub.add_parser(
        "periodicity", help="run the §5.1 periodicity analysis"
    )
    add_dataset_args(per, engine=True)
    per.add_argument("--permutations", type=int, default=100,
                     help="permutation count x for the period detector")
    per.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist per-shard partial states for resumable runs",
    )

    ngram = sub.add_parser(
        "ngram", help="run the §5.2 ngram prediction sweep (Table 3)"
    )
    add_dataset_args(ngram, engine=True)
    ngram.add_argument("--order", type=int, default=1,
                       help="maximum ngram history length N")
    ngram.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist per-shard partial states for resumable runs",
    )

    trend = sub.add_parser("trend", help="print the Figure 1 ratio series")
    trend.add_argument("--seed", type=int, default=0)

    windows = sub.add_parser(
        "windows", help="windowed (streaming) traffic time series"
    )
    add_dataset_args(windows, engine=True)
    windows.add_argument("--window", type=float, default=300.0,
                         help="tumbling window width in seconds")

    stream = sub.add_parser(
        "stream",
        help="online windowed analysis service (event-time windows, "
             "watermarks, resumable checkpoints)",
    )
    add_dataset_args(stream)
    stream.add_argument(
        "--logs-dir", metavar="DIR",
        help="stream a partitioned log directory "
             "(repro.logs.partition layout)",
    )
    stream.add_argument(
        "--follow", metavar="FILE",
        help="tail a growing JSONL/TSV file instead of replaying",
    )
    stream.add_argument(
        "--stdin", action="store_true",
        help="read JSONL records from standard input",
    )
    stream.add_argument("--window", type=float, default=300.0,
                        help="window width in seconds")
    stream.add_argument(
        "--slide", type=float, default=None,
        help="slide in seconds (omit for tumbling windows)",
    )
    stream.add_argument(
        "--watermark", type=float, default=0.0,
        help="watermark lag in seconds: the event-time disorder budget",
    )
    stream.add_argument(
        "--emit", metavar="FILE",
        help="append one JSONL snapshot per sealed window "
             "('-' for stdout)",
    )
    stream.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="persist sealed windows; a restarted stream resumes "
             "without double-counting them",
    )
    stream.add_argument(
        "--ingest-workers", type=int, default=1,
        help="parallel source readers feeding the bounded queue",
    )
    stream.add_argument(
        "--queue-size", type=int, default=65_536,
        help="bounded ingest queue capacity (records)",
    )
    stream.add_argument(
        "--queue-policy", choices=("block", "drop"), default="block",
        help="full-queue behavior: backpressure (block) or counted "
             "shedding (drop)",
    )
    stream.add_argument("--permutations", type=int, default=20,
                        help="period-detector permutations per window")
    stream.add_argument("--top-k", type=int, default=5,
                        help="predicted next URLs per window snapshot")
    stream.add_argument(
        "--no-periods", action="store_true",
        help="skip per-window period detection (cheaper seals)",
    )
    stream.add_argument(
        "--no-predictions", action="store_true",
        help="skip the per-window ngram prediction model",
    )
    stream.add_argument(
        "--idle-polls", type=int, default=20,
        help="with --follow: stop after this many consecutive empty "
             "polls (0 = follow forever)",
    )
    add_obs_args(stream)

    paper = sub.add_parser("paper", help="reproduce every table and figure")
    add_dataset_args(paper, engine=True)

    validate = sub.add_parser(
        "validate",
        help="check a generated dataset against the paper's calibration targets",
    )
    validate.add_argument("--dataset", choices=("short", "long"), default="short")
    validate.add_argument("--requests", type=int, default=50_000)
    validate.add_argument("--seed", type=int, default=0)

    replay = sub.add_parser(
        "replay",
        help="what-if TTL sweep: replay a JSON trace under alternative policies",
    )
    add_dataset_args(replay, engine=True)
    replay.add_argument(
        "--ttls",
        default="30,300,3600",
        help="comma-separated TTLs (seconds) to sweep",
    )
    replay.add_argument("--edges", type=int, default=3,
                        help="edge caches to spread clients across")

    engine_bench = sub.add_parser(
        "engine-bench",
        help="measure serial vs sharded-engine characterization",
    )
    add_dataset_args(engine_bench, engine=True)
    engine_bench.set_defaults(workers=4)
    engine_bench.add_argument(
        "--backend",
        choices=("auto", "serial", "thread", "process"),
        default="auto",
        help="engine execution backend for the parallel run",
    )
    engine_bench.add_argument(
        "--pipeline",
        choices=("characterization", "periodicity", "ngram", "all"),
        default="characterization",
        help="which engine pipeline(s) to benchmark",
    )
    engine_bench.add_argument(
        "--permutations", type=int, default=20,
        help="period-detector permutation count for the periodicity bench",
    )

    sub.add_parser("experiments", help="list every reproducible artifact")
    return parser


def _build_dataset(args: argparse.Namespace):
    config = (
        short_term_config(args.requests, seed=args.seed)
        if args.dataset == "short"
        else long_term_config(args.requests, seed=args.seed)
    )
    return WorkloadBuilder(config).build()


def _load_or_generate(args: argparse.Namespace):
    on_error = "skip" if getattr(args, "lenient", False) else "raise"
    if getattr(args, "logs_dir", None):
        from .logs.partition import read_partitioned

        return list(read_partitioned(args.logs_dir, on_error=on_error)), None
    if args.logs:
        return list(read_logs(args.logs, on_error=on_error)), None
    dataset = _build_dataset(args)
    categories = {d.name: d.category.value for d in dataset.domains}
    return dataset.logs, categories


def _engine_kwargs(args: argparse.Namespace) -> dict:
    """The hardening knobs every engine-backed command forwards."""
    return dict(
        shard_timeout_s=getattr(args, "shard_timeout", None),
        retries=getattr(args, "retries", 0),
        lenient=getattr(args, "lenient", False),
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args)
    count = write_logs(dataset.logs, args.out)
    print(f"wrote {count} logs to {args.out}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    workers = getattr(args, "workers", 1)
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    if getattr(args, "logs_dir", None) and (workers > 1 or checkpoint_dir):
        # Engine path straight off the partitioned directory: shards
        # stream their own files, nothing materializes up front.
        report = run_characterization_parallel(
            logs_dir=args.logs_dir,
            workers=workers,
            checkpoint_dir=checkpoint_dir,
            **_engine_kwargs(args),
        )
    else:
        logs, categories = _load_or_generate(args)
        if workers > 1 or checkpoint_dir:
            report = run_characterization_parallel(
                logs, categories, workers=workers,
                checkpoint_dir=checkpoint_dir, **_engine_kwargs(args),
            )
        else:
            report = run_characterization(logs, categories)
    print(report.render(args.dataset))
    return 0


def _cmd_patterns(args: argparse.Namespace) -> int:
    from .periodicity.detector import DetectorConfig

    detector_config = DetectorConfig(permutations=args.permutations)
    workers = getattr(args, "workers", 1)
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    if workers > 1 or checkpoint_dir:
        if getattr(args, "logs_dir", None):
            report = run_pattern_analysis_parallel(
                logs_dir=args.logs_dir,
                detector_config=detector_config,
                workers=workers,
                checkpoint_dir=checkpoint_dir,
                **_engine_kwargs(args),
            )
        else:
            logs, _ = _load_or_generate(args)
            report = run_pattern_analysis_parallel(
                logs,
                detector_config=detector_config,
                workers=workers,
                checkpoint_dir=checkpoint_dir,
                **_engine_kwargs(args),
            )
    else:
        logs, _ = _load_or_generate(args)
        report = run_pattern_analysis(logs, detector_config=detector_config)
    print(report.render())
    return 0


def _cmd_periodicity(args: argparse.Namespace) -> int:
    from .periodicity.detector import DetectorConfig

    detector_config = DetectorConfig(permutations=args.permutations)
    kwargs = dict(
        detector_config=detector_config,
        workers=getattr(args, "workers", 1),
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        **_engine_kwargs(args),
    )
    if getattr(args, "logs_dir", None):
        report = run_periodicity_parallel(logs_dir=args.logs_dir, **kwargs)
    else:
        logs, _ = _load_or_generate(args)
        report = run_periodicity_parallel(logs, **kwargs)
    print(render_periodicity(report))
    return 0


def _cmd_ngram(args: argparse.Namespace) -> int:
    kwargs = dict(
        ns=tuple(range(1, args.order + 1)),
        workers=getattr(args, "workers", 1),
        checkpoint_dir=getattr(args, "checkpoint_dir", None),
        **_engine_kwargs(args),
    )
    if getattr(args, "logs_dir", None):
        results = run_ngram_parallel(logs_dir=args.logs_dir, **kwargs)
    else:
        logs, _ = _load_or_generate(args)
        results = run_ngram_parallel(logs, **kwargs)
    print(render_ngram(results))
    return 0


def _cmd_trend(args: argparse.Namespace) -> int:
    model = TrendModel(seed=args.seed)
    analysis = analyze_trend(model.series())
    yearly = [
        (label, ratio)
        for label, ratio in analysis.series
        if label.endswith(("-01", "-06"))
    ]
    print(
        render_bar_chart(
            yearly,
            title="Figure 1 — JSON:HTML request ratio",
            value_format="{:.2f}x",
        )
    )
    print(f"\ngrowth over window: {analysis.growth_factor:.1f}x "
          f"(end ratio {analysis.end_ratio:.2f}x)")
    return 0


def _cmd_windows(args: argparse.Namespace) -> int:
    from .core.pipeline import run_stream
    from .core.report import render_table
    from .stream import WindowSnapshot

    logs, _ = _load_or_generate(args)
    result = run_stream(
        logs,
        window_s=args.window,
        tracks=("characterization",),
        detect_periods=False,
        predict_urls=False,
    )
    # With no watermark lag, a late record is one older than a window
    # that already closed: the input is out of time order.
    if result.late_dropped:
        raise ValueError(
            "log stream is not time-ordered: "
            f"{result.late_dropped} record(s) arrived after their window closed"
        )
    # The stream seals only windows that saw records; print a zero row
    # for each empty window between busy ones.
    by_index = {
        round(snapshot.window_start / args.window): snapshot
        for snapshot in result.snapshots
    }
    first = min(by_index, default=0)
    rows = []
    for index in range(first, max(by_index, default=-1) + 1):
        start = index * args.window
        window = by_index.get(index) or WindowSnapshot(start, start + args.window)
        ratio = window.json_html_ratio
        rows.append(
            [
                f"+{(index - first) * args.window:.0f}s",
                window.records,
                f"{window.json_share * 100:.1f}%",
                "inf" if ratio == float("inf") else f"{ratio:.2f}",
                f"{window.get_share * 100:.1f}%",
                f"{window.uncacheable_share * 100:.1f}%",
                window.unique_clients,
            ]
        )
    print(
        render_table(
            ["window", "requests", "json", "json:html", "get", "no-store",
             "clients"],
            rows,
            title=f"Traffic time series ({args.window:.0f}s windows)",
        )
    )
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .core.pipeline import run_stream
    from .core.report import render_table
    from .periodicity.detector import DetectorConfig
    from .stream import JsonlEmitter, file_source, stdin_source, tail_source

    if args.ingest_workers < 1:
        raise SystemExit("--ingest-workers must be >= 1")
    detector_config = DetectorConfig(permutations=args.permutations)
    kwargs = dict(
        window_s=args.window,
        slide_s=args.slide,
        watermark_lag_s=args.watermark,
        detector_config=detector_config,
        detect_periods=not args.no_periods,
        predict_urls=not args.no_predictions,
        top_k=args.top_k,
        queue_capacity=args.queue_size,
        queue_policy=args.queue_policy,
        ingest_workers=args.ingest_workers,
        checkpoint_dir=args.checkpoint_dir,
    )
    emitter = None
    if args.emit == "-":
        emitter = JsonlEmitter(sys.stdout)
    elif args.emit:
        emitter = JsonlEmitter(args.emit)
    try:
        if args.follow:
            source = tail_source(
                args.follow,
                idle_polls=args.idle_polls if args.idle_polls else None,
            )
            result = run_stream(source, emit=emitter, **kwargs)
        elif args.stdin:
            result = run_stream(stdin_source(), emit=emitter, **kwargs)
        elif getattr(args, "logs_dir", None):
            result = run_stream(logs_dir=args.logs_dir, emit=emitter, **kwargs)
        elif args.logs:
            result = run_stream(file_source(args.logs), emit=emitter, **kwargs)
        else:
            dataset = _build_dataset(args)
            result = run_stream(dataset.logs, emit=emitter, **kwargs)
    finally:
        if emitter is not None and args.emit != "-":
            emitter.close()

    first_start = (
        result.snapshots[0].window_start if result.snapshots else 0.0
    )
    rows = []
    for snapshot in result.snapshots:
        rows.append(
            [
                f"+{snapshot.window_start - first_start:.0f}s",
                snapshot.records,
                f"{snapshot.json_share * 100:.1f}%",
                f"{snapshot.uncacheable_share * 100:.1f}%",
                snapshot.unique_clients,
                snapshot.periodic_objects,
                ",".join(sorted(snapshot.drift)) or "-",
            ]
        )
    print(
        render_table(
            ["window", "records", "json", "no-store", "clients",
             "periodic", "drifted"],
            rows,
            title=(
                f"Stream windows ({args.window:.0f}s"
                + (f"/{args.slide:.0f}s slide" if args.slide else "")
                + f", watermark {args.watermark:.0f}s)"
            ),
        )
    )
    print()
    print(
        f"sealed {result.sealed_windows} windows"
        + (
            f" (+{result.resumed_windows} resumed from checkpoint)"
            if result.resumed_windows
            else ""
        )
        + f"; {result.records_windowed:,} records windowed, "
        f"{result.late_dropped} late-dropped, "
        f"{result.resumed_skips} resumed-skips"
    )
    if result.ingest is not None:
        stats = result.ingest.snapshot()
        print(
            f"ingest: {stats['delivered']:,} delivered via "
            f"{stats['workers']} worker(s), queue peak "
            f"{stats['queue_peak']}, dropped {stats['dropped']}, "
            f"backpressure stalls {stats['blocked_puts']}"
        )
    return 0


def _cmd_paper(args: argparse.Namespace) -> int:
    _cmd_trend(args)
    print()
    logs, categories = _load_or_generate(args)
    workers = getattr(args, "workers", 1)
    if workers > 1:
        report = run_characterization_parallel(logs, categories, workers=workers)
    else:
        report = run_characterization(logs, categories)
    print(report.render(args.dataset))
    print()
    print(run_pattern_analysis(logs).render())
    return 0


def _bench_characterization(args, logs, categories):
    """serial vs engine §4 run; returns (rows, matches, notes)."""
    import time

    from .core.pipeline import _characterize_shard
    from .engine.executor import run_shards
    from .engine.shard import plan_directory_shards, plan_memory_shards

    if getattr(args, "logs_dir", None):
        shards = plan_directory_shards(args.logs_dir)
    else:
        shards = plan_memory_shards(logs, max(1, args.workers) * 4)

    started = time.perf_counter()
    serial = run_characterization(logs, categories)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    state, stats = run_shards(
        shards, _characterize_shard, workers=args.workers, backend=args.backend
    )
    parallel_s = time.perf_counter() - started
    parallel = state.to_report(categories)

    matches = (
        parallel.traffic_source == serial.traffic_source
        and parallel.request_type == serial.request_type
        and parallel.cacheability == serial.cacheability
        and parallel.summary == serial.summary
    )
    exact_clients = serial.summary.num_clients
    estimate = state.unique_clients_estimate()
    error = abs(estimate - exact_clients) / exact_clients if exact_clients else 0.0
    rows = [
        ["characterization serial", f"{serial_s:.2f}s", "-", "-"],
        [
            f"characterization engine ({stats.backend} x{stats.workers})",
            f"{parallel_s:.2f}s",
            stats.total_shards,
            f"{serial_s / parallel_s:.2f}x" if parallel_s else "-",
        ],
    ]
    notes = [
        f"unique clients: exact {exact_clients:,}, "
        f"HLL estimate {estimate:,.0f} ({error * 100:.2f}% error)"
    ]
    return rows, matches, notes


def _bench_periodicity(args, logs):
    """serial vs engine §5.1 run; returns (rows, matches, notes)."""
    import time

    from .periodicity.detector import DetectorConfig
    from .periodicity.results import analyze_logs

    detector_config = DetectorConfig(permutations=args.permutations)
    started = time.perf_counter()
    serial = analyze_logs(logs, detector_config=detector_config)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel, stage_reports = run_periodicity_parallel(
        logs,
        detector_config=detector_config,
        workers=args.workers,
        backend=args.backend,
        with_stats=True,
    )
    parallel_s = time.perf_counter() - started

    matches = (
        sorted(parallel.objects) == sorted(serial.objects)
        and render_periodicity(parallel) == render_periodicity(serial)
    )
    shards = sum(report.total_shards for report in stage_reports)
    backend = stage_reports[0].backend
    rows = [
        ["periodicity serial", f"{serial_s:.2f}s", "-", "-"],
        [
            f"periodicity engine ({backend} x{args.workers})",
            f"{parallel_s:.2f}s",
            shards,
            f"{serial_s / parallel_s:.2f}x" if parallel_s else "-",
        ],
    ]
    notes = [
        f"periodic objects: {len(parallel.object_periods())}, "
        f"periodic requests: {parallel.periodic_request_count:,}"
    ]
    return rows, matches, notes


def _bench_ngram(args, logs):
    """serial vs engine §5.2 run; returns (rows, matches, notes)."""
    import time

    from .ngram.evaluate import run_table3

    started = time.perf_counter()
    serial = run_table3(logs)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel, stage_reports = run_ngram_parallel(
        logs, workers=args.workers, backend=args.backend, with_stats=True
    )
    parallel_s = time.perf_counter() - started

    matches = serial == parallel
    shards = sum(report.total_shards for report in stage_reports)
    backend = stage_reports[0].backend
    rows = [
        ["ngram serial", f"{serial_s:.2f}s", "-", "-"],
        [
            f"ngram engine ({backend} x{args.workers})",
            f"{parallel_s:.2f}s",
            shards,
            f"{serial_s / parallel_s:.2f}x" if parallel_s else "-",
        ],
    ]
    top1 = parallel.get((1, 1, True))
    notes = [
        f"clustered top-1 accuracy: {top1.accuracy:.3f}" if top1 else ""
    ]
    return rows, matches, [note for note in notes if note]


def _cmd_engine_bench(args: argparse.Namespace) -> int:
    from .core.report import render_table
    from .logs.partition import read_partitioned

    if getattr(args, "logs_dir", None):
        logs = list(read_partitioned(args.logs_dir))
        categories = None
    else:
        logs, categories = _load_or_generate(args)

    pipelines = (
        ("characterization", "periodicity", "ngram")
        if args.pipeline == "all"
        else (args.pipeline,)
    )
    rows = []
    notes = []
    all_match = True
    for pipeline in pipelines:
        if pipeline == "characterization":
            bench_rows, matches, bench_notes = _bench_characterization(
                args, logs, categories
            )
        elif pipeline == "periodicity":
            bench_rows, matches, bench_notes = _bench_periodicity(args, logs)
        else:
            bench_rows, matches, bench_notes = _bench_ngram(args, logs)
        rows.extend(bench_rows)
        notes.extend(bench_notes)
        notes.append(f"{pipeline} results identical to serial: {matches}")
        all_match = all_match and matches

    print(
        render_table(
            ["run", "wall time", "shards", "speedup"],
            rows,
            title=f"Engine benchmark over {len(logs):,} logs",
        )
    )
    print()
    for note in notes:
        print(note)
    return 0 if all_match else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    from .synth.validation import validate_dataset

    dataset = _build_dataset(args)
    report = validate_dataset(dataset)
    print(report.render())
    return 0 if report.passed else 1


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .core.inventory import EXPERIMENTS
    from .core.report import render_table

    rows = [
        [exp.experiment_id, exp.kind, exp.title, exp.benchmark]
        for exp in EXPERIMENTS
    ]
    print(render_table(["id", "kind", "artifact", "benchmark"], rows,
                       title="Experiment inventory"))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .cdn.replay import WhatIfReplayer
    from .core.report import render_table

    logs, _ = _load_or_generate(args)
    replayer = WhatIfReplayer(logs)
    ttls = [float(value) for value in args.ttls.split(",") if value]
    outcomes = replayer.ttl_sweep(ttls, num_edges=args.edges)
    rows = [
        [
            outcome.policy.name,
            f"{outcome.hit_ratio:.3f}",
            f"{outcome.origin_fraction:.3f}",
            f"{outcome.origin_bytes / 1e6:.1f} MB",
        ]
        for outcome in outcomes
    ]
    print(
        render_table(
            ["policy", "hit ratio", "origin fraction", "origin bytes"],
            rows,
            title=(
                f"What-if TTL sweep over {replayer.trace_length:,} JSON "
                f"requests ({replayer.cacheable_share() * 100:.0f}% to "
                "cacheable objects)"
            ),
        )
    )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "characterize": _cmd_characterize,
    "patterns": _cmd_patterns,
    "periodicity": _cmd_periodicity,
    "ngram": _cmd_ngram,
    "trend": _cmd_trend,
    "windows": _cmd_windows,
    "stream": _cmd_stream,
    "paper": _cmd_paper,
    "validate": _cmd_validate,
    "replay": _cmd_replay,
    "engine-bench": _cmd_engine_bench,
    "experiments": _cmd_experiments,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        parser.error("--workers must be >= 1")
    if getattr(args, "retries", 0) < 0:
        parser.error("--retries must be >= 0")
    shard_timeout = getattr(args, "shard_timeout", None)
    if shard_timeout is not None and shard_timeout <= 0:
        parser.error("--shard-timeout must be positive")
    if getattr(args, "logs", None) and getattr(args, "logs_dir", None):
        parser.error("--logs and --logs-dir are mutually exclusive")
    metrics_path = getattr(args, "metrics", None)
    trace_path = getattr(args, "trace", None)
    if not (metrics_path or trace_path):
        return _COMMANDS[args.command](args)
    # Observability requested: run the command under an ambient
    # registry and export whatever it recorded — in a finally block,
    # so a failed run still leaves its metrics behind for diagnosis.
    from .obs import MetricsRegistry, installed, write_metrics, write_spans_jsonl

    registry = MetricsRegistry()
    try:
        with installed(registry):
            return _COMMANDS[args.command](args)
    finally:
        if metrics_path:
            write_metrics(registry, metrics_path)
        if trace_path:
            write_spans_jsonl(registry, trace_path)


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer timing from the benchmark's side of the program boundary.

:class:`Tracer` wraps public callables of each layer (module functions
and class methods) for the duration of a traced run and restores them
afterwards; nothing under ``src/`` changes.  Wrappers are nest-aware:
each thread keeps a stack of open calls, so a wrapped call's *self*
time is its duration minus the wrapped calls nested inside it.

Engine per-stage numbers are attributed by stage: the job sets
:attr:`Tracer.pipeline` (the record stage of the batch pipeline it is
running) and the ``ShardExecutor.run`` wrapper switches
:attr:`Tracer.stage` for the duration of each executor run, named by
the item-shard id prefixes the pipelines use.

A hook whose target no longer exists is skipped and listed in
:attr:`Tracer.missing`, so a refactor under ``src/`` degrades the
per-layer report instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: Engine stages reported per layer; the raw and clustered ngram
#: variants fold into one train and one eval stage.
STAGES = (
    "characterization",
    "periodicity-flows",
    "periodicity-detect",
    "ngram-sequences",
    "ngram-train",
    "ngram-eval",
)
_ITEM_STAGES = ("periodicity-detect", "ngram-train", "ngram-eval")

#: Modules imported before patching, so every ``from x import f``
#: binding exists and is patched (and later restored) with its source.
_MODULES = (
    "repro.core.pipeline",
    "repro.engine.executor",
    "repro.engine.shard",
    "repro.engine.state",
    "repro.engine.flowstate",
    "repro.engine.ngramstate",
    "repro.engine.checkpoint",
    "repro.periodicity.results",
    "repro.stream",
    "repro.stream.snapshots",
)


def item_stage(prefix: str) -> Optional[str]:
    for stage in _ITEM_STAGES:
        if prefix.startswith(stage):
            return stage
    return None


class _Accumulator:
    def __init__(self) -> None:
        #: name -> [total seconds, self seconds, calls]
        self.stats: Dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        self.counts: Dict[str, int] = defaultdict(int)
        self.maxima: Dict[str, float] = defaultdict(float)


class _TimedIterator:
    """An iterator whose ``__next__`` calls are timed and counted."""

    def __init__(self, tracer: "Tracer", iterator, name: str, count: str) -> None:
        self._tracer = tracer
        self._iterator = iterator
        self._name = name
        self._count = count

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        tracer._enter()
        started = perf_counter()
        try:
            item = next(self._iterator)
        finally:
            tracer._exit(self._name, perf_counter() - started)
        tracer._local.acc.counts[self._count] += 1
        return item

    def close(self) -> None:
        close = getattr(self._iterator, "close", None)
        if close is not None:
            close()


class Tracer:
    """Install timing wrappers; collect totals, self times and counts."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._accumulators: List[_Accumulator] = []
        self._patches: List[tuple] = []
        self.missing: List[str] = []
        #: Record stage of the batch pipeline being run (None: no
        #: engine pipeline, e.g. the stream or a serial path).
        self.pipeline: Optional[str] = None
        #: Stage of the executor run in progress.
        self.stage: Optional[str] = None

    # -- accounting ------------------------------------------------------

    def _acc(self) -> _Accumulator:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = _Accumulator()
            self._local.acc = acc
            self._local.stack = []
            with self._lock:
                self._accumulators.append(acc)
        return acc

    def _enter(self) -> None:
        self._acc()
        self._local.stack.append(0.0)

    def _exit(self, name: str, elapsed: float) -> None:
        stack = self._local.stack
        child = stack.pop()
        if stack:
            stack[-1] += elapsed
        stats = self._local.acc.stats[name]
        stats[0] += elapsed
        stats[1] += elapsed - child
        stats[2] += 1

    def timed(self, key, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Wrap ``fn``; ``key`` is a name or ``key(args, kwargs)`` → name
        (None skips the accounting for that call)."""
        tracer = self
        local = self._local
        dynamic = callable(key)

        # Per-record callables are wrapped too, so the common path
        # (static name, stack already set up) avoids method calls.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = key(args, kwargs) if dynamic else key
            if name is None:
                return fn(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                tracer._acc()
                stack = local.stack
            stack.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats = local.acc.stats[name]
                stats[0] += elapsed
                stats[1] += elapsed - child
                stats[2] += 1
            if after is not None:
                after(result)
            return result

        return wrapper

    def timed_iter(self, name: str, count: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedIterator(tracer, fn(*args, **kwargs), name, count)

        return wrapper

    def note_max(self, name: str, value: float) -> None:
        acc = self._acc()
        acc.maxima[name] = max(acc.maxima[name], value)

    # -- patching --------------------------------------------------------

    def patch_function(self, module_name: str, attr: str, factory, only: bool = False) -> None:
        """Replace a module function everywhere it is bound by name
        (``only``: just in ``module_name``)."""
        module = importlib.import_module(module_name)
        original = vars(module).get(attr)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapped = factory(original)
        owners = [module] if only else [
            loaded
            for name, loaded in list(sys.modules.items())
            if name.startswith("repro") and loaded is not None
            and vars(loaded).get(attr) is original
        ]
        for owner in owners:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def patch_method(self, module_name: str, class_name: str, attr: str, factory) -> None:
        module = importlib.import_module(module_name)
        cls = getattr(module, class_name, None)
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            self.missing.append(f"{module_name}.{class_name}.{attr}")
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, factory(original))

    def install(self) -> "Tracer":
        for module_name in _MODULES:
            importlib.import_module(module_name)
        fn, meth = self.patch_function, self.patch_method
        timed = lambda key, after=None: (lambda f: self.timed(key, f, after))
        in_pipeline = lambda name: (lambda a, k: name if self.pipeline else None)
        finalize = lambda stage: in_pipeline(f"engine.finalize.{stage}")
        merge_key = lambda a, k: f"engine.merge.{self.stage}" if self.stage else None
        vocabulary = lambda model: self.note_max(
            "ngram.vocabulary", model.vocabulary_size
        )

        fn("repro.logs.io", "read_logs",
           lambda f: self.timed_iter("logs.read", "logs.records", f))
        meth("repro.useragent.classify", "UserAgentClassifier", "classify",
             timed("useragent.classify"))
        meth("repro.useragent.classify", "UserAgentClassifier", "_classify_uncached",
             timed("useragent.classify_miss"))
        fn("repro.useragent.appid", "identify_app", timed("useragent.identify_app"))

        meth("repro.logs.summary", "DatasetSummary", "update", timed("analysis.summary"))
        fn("repro.analysis.characterize", "characterize", timed("analysis.characterize"))
        fn("repro.analysis.cacheability", "analyze_cacheability",
           timed("analysis.cacheability"))
        fn("repro.analysis.sizes", "analyze_sizes", timed("analysis.sizes"))
        fn("repro.useragent.appid", "aggregate_apps", timed("analysis.apps"))

        meth("repro.engine.state", "CharacterizationState", "ingest",
             timed("engine.state_ingest"))
        for cls, name in (("HyperLogLog", "hll"), ("ReservoirSample", "reservoir"),
                          ("CountMinSketch", "countmin"), ("TopK", "topk")):
            meth("repro.engine.sketches", cls, "add", timed(f"engine.sketch.{name}_add"))

        fn("repro.engine.shard", "plan_directory_shards",
           timed(lambda a, k: f"engine.plan.{self.pipeline}" if self.pipeline else None))
        fn("repro.engine.shard", "plan_item_shards",
           timed(lambda a, k: "engine.plan.%s" % item_stage(
               k.get("prefix", a[3] if len(a) > 3 else "")) if self.pipeline else None))
        meth("repro.engine.executor", "ShardExecutor", "run", self._executor_run)
        for module_name, cls in (
            ("repro.engine.state", "CharacterizationState"),
            ("repro.engine.flowstate", "FlowCollectionState"),
            ("repro.engine.flowstate", "PeriodicityDetectionState"),
            ("repro.engine.ngramstate", "NgramSequenceState"),
            ("repro.engine.ngramstate", "NgramEvalState"),
        ):
            meth(module_name, cls, "merge", timed(merge_key))
        meth("repro.ngram.model", "BackoffNgramModel", "merge",
             timed(merge_key, vocabulary))
        meth("repro.engine.state", "CharacterizationState", "to_report",
             timed(finalize("characterization")))
        meth("repro.engine.flowstate", "FlowCollectionState", "finalize",
             timed(finalize("periodicity-flows")))
        meth("repro.engine.ngramstate", "NgramSequenceState", "sequences",
             timed(finalize("ngram-sequences")))
        fn("repro.ngram.evaluate", "split_clients", timed(finalize("ngram-sequences")))

        meth("repro.engine.flowstate", "FlowCollectionState", "update",
             timed("periodicity.flows"))
        meth("repro.engine.flowstate", "FlowCollectionState", "finalize",
             timed("periodicity.flows"))
        fn("repro.periodicity.flows", "extract_flows", timed("periodicity.flows"))
        fn("repro.periodicity.results", "analyze_object_flow", timed("periodicity.object"))
        meth("repro.periodicity.detector", "PeriodDetector", "detect",
             timed("periodicity.detect"))
        fn("repro.periodicity.autocorr", "bin_series", timed("periodicity.bin"))
        fn("repro.periodicity.autocorr", "autocorrelation", timed("periodicity.acf"))
        fn("repro.periodicity.spectrum", "periodogram", timed("periodicity.periodogram"))

        meth("repro.engine.ngramstate", "NgramSequenceState", "update",
             timed("ngram.sequences"))
        fn("repro.ngram.evaluate", "build_client_sequences", timed("ngram.sequences"))
        meth("repro.ngram.model", "BackoffNgramModel", "fit",
             timed("ngram.fit", vocabulary))
        meth("repro.ngram.model", "BackoffNgramModel", "predict", timed("ngram.predict"))

        meth("repro.stream.windows", "WindowManager", "process",
             timed("stream.windows.process"))
        meth("repro.stream.accumulators", "WindowAccumulator", "ingest",
             timed("stream.accumulator.ingest"))
        meth("repro.stream.snapshots", "SnapshotBuilder", "build",
             timed("stream.snapshot.build"))
        fn("repro.stream.snapshots", "analyze_flows", timed("stream.snapshot.detect"),
           only=True)
        meth("repro.stream.snapshots", "SnapshotBuilder", "_predict",
             timed("stream.snapshot.predict"))
        meth("repro.engine.checkpoint", "CheckpointStore", "save",
             timed("engine.checkpoint.save"))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _executor_run(self, original):
        tracer = self

        @functools.wraps(original)
        def run(executor, shards, map_fn):
            stage = tracer.pipeline
            if shards:
                stage = item_stage(shards[0].shard_id) or stage
            if stage is None:
                return original(executor, shards, map_fn)

            def sized_map(shard):
                state = map_fn(shard)
                tracer._acc().counts[f"engine.state_bytes.{stage}"] += len(
                    pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
                )
                return state

            previous, tracer.stage = tracer.stage, stage
            try:
                return original(executor, shards, sized_map)
            finally:
                tracer.stage = previous

        return run

    # -- results ---------------------------------------------------------

    def raw(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {
            "total": {}, "self": {}, "calls": {}, "counts": {}, "max": {}
        }
        with self._lock:
            accumulators = list(self._accumulators)
        for acc in accumulators:
            merge_raw(out, {
                "total": {name: stats[0] for name, stats in acc.stats.items()},
                "self": {name: stats[1] for name, stats in acc.stats.items()},
                "calls": {name: stats[2] for name, stats in acc.stats.items()},
                "counts": acc.counts,
                "max": acc.maxima,
            })
        return out


def merge_raw(into: Dict[str, Dict[str, float]], other: Dict[str, Dict[str, float]]) -> None:
    for section, values in other.items():
        target = into.setdefault(section, {})
        for name, value in values.items():
            if section == "max":
                target[name] = max(target.get(name, 0.0), value)
            else:
                target[name] = target.get(name, 0) + value


def layer_metrics(
    raw: Dict[str, Dict[str, float]],
    obs: Dict[str, float],
    stages: Dict[str, Dict[str, float]],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metric values of one traced round from the raw sums.

    ``obs`` holds the folded ``repro.obs`` values, ``stages`` the
    parallel run's per-stage engine numbers (from its ``RunReport``s)
    and ``extra`` the values measured outside the wrappers.
    """
    total, self_, calls = raw.get("total", {}), raw.get("self", {}), raw.get("calls", {})
    counts, maxima = raw.get("counts", {}), raw.get("max", {})
    t = lambda name: total.get(name, 0.0)
    ratio = lambda num, den: num / den if den else 0.0

    classify = calls.get("useragent.classify", 0)
    ingest_calls = calls.get("engine.state_ingest", 0)
    predict_calls = calls.get("ngram.predict", 0)
    detect_self = self_.get("periodicity.detect", 0.0)
    metrics: Dict[str, float] = {
        "logs.read_s": t("logs.read"),
        "logs.records": counts.get("logs.records", 0),
        "useragent.classify_s": t("useragent.classify"),
        "useragent.memo_hit_ratio": ratio(
            classify - calls.get("useragent.classify_miss", 0), classify
        ),
        "useragent.identify_app_s": t("useragent.identify_app"),
        "analysis.summary_s": t("analysis.summary"),
        "analysis.characterize_s": t("analysis.characterize"),
        "analysis.cacheability_s": t("analysis.cacheability"),
        "analysis.sizes_s": t("analysis.sizes"),
        "analysis.apps_s": t("analysis.apps"),
        "engine.state_ingest_s": t("engine.state_ingest"),
        "engine.state_ingest_ns_per_record": 1e9 * ratio(
            total.get("engine.state_ingest", 0.0), ingest_calls
        ),
        "engine.sketch.hll_add_s": t("engine.sketch.hll_add"),
        "engine.sketch.reservoir_add_s": t("engine.sketch.reservoir_add"),
        "engine.sketch.countmin_add_s": t("engine.sketch.countmin_add"),
        "engine.sketch.topk_add_s": t("engine.sketch.topk_add"),
    }
    for stage in STAGES:
        numbers = stages.get(stage, {})
        run_s = numbers.get("run_s", 0.0)
        map_s = numbers.get("map_s", 0.0)
        workers = numbers.get("workers", 1) or 1
        metrics.update({
            f"engine.plan_s.{stage}": t(f"engine.plan.{stage}"),
            f"engine.run_s.{stage}": run_s,
            f"engine.map_s.{stage}": map_s,
            f"engine.overhead_s.{stage}": run_s - map_s / workers if run_s else 0.0,
            f"engine.state_bytes.{stage}": counts.get(f"engine.state_bytes.{stage}", 0),
            f"engine.merge_s.{stage}": t(f"engine.merge.{stage}"),
            f"engine.finalize_s.{stage}": t(f"engine.finalize.{stage}"),
            f"engine.parallel_efficiency.{stage}": ratio(map_s, workers * run_s),
            f"engine.shard_retries.{stage}": numbers.get("retries", 0),
            f"engine.shards_failed.{stage}": numbers.get("failed", 0),
        })
    metrics.update({
        "periodicity.flows_s": t("periodicity.flows"),
        "periodicity.objects": calls.get("periodicity.object", 0),
        "periodicity.detect_calls": calls.get("periodicity.detect", 0),
        "periodicity.detect_s": t("periodicity.detect"),
        "periodicity.bin_s": t("periodicity.bin"),
        "periodicity.acf_s": t("periodicity.acf"),
        "periodicity.periodogram_s": t("periodicity.periodogram"),
        "periodicity.threshold_lineup_self_s": detect_self,
        "periodicity.planted_recall": extra.get("planted_recall", 0.0),
        "ngram.sequences_s": t("ngram.sequences"),
        "ngram.fit_s": t("ngram.fit"),
        "ngram.predict_calls": predict_calls,
        "ngram.predict_s": t("ngram.predict"),
        "ngram.predict_us_per_call": 1e6 * ratio(
            total.get("ngram.predict", 0.0), predict_calls
        ),
        "ngram.vocabulary": maxima.get("ngram.vocabulary", 0.0),
        "stream.windows.process_s": self_.get("stream.windows.process", 0.0),
        "stream.accumulator.ingest_s": t("stream.accumulator.ingest"),
        "stream.snapshot.build_s": t("stream.snapshot.build"),
        "stream.snapshot.detect_s": t("stream.snapshot.detect"),
        "stream.snapshot.predict_s": t("stream.snapshot.predict"),
        "engine.checkpoint.save_s": t("engine.checkpoint.save"),
        "engine.checkpoint.bytes": obs.get("checkpoint.save_bytes", 0),
        "stream.ingest.queue_peak": obs.get("ingest.queue_peak", 0),
        "stream.ingest.blocked_puts": obs.get("ingest.blocked_puts", 0),
        "stream.windows_sealed": obs.get("stream.windows_sealed", 0),
        "stream.late_dropped": obs.get("windows.late_dropped", 0),
        "stream.generator_lag_ms": extra.get("generator_lag_ms", 0.0),
        "obs.trace_overhead_ratio": extra.get("trace_overhead_ratio", 0.0),
    })
    return metrics


def obs_values(snapshot: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """The ``repro.obs`` values the per-layer report folds in."""
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    return {
        "checkpoint.save_bytes": (histograms.get("checkpoint.save_bytes") or {}).get("total", 0),
        "ingest.queue_peak": gauges.get("ingest.queue_peak") or 0,
        "ingest.blocked_puts": counters.get("ingest.blocked_puts", 0),
        "stream.windows_sealed": counters.get("stream.windows_sealed", 0),
        "windows.late_dropped": counters.get("windows.late_dropped", 0),
    }

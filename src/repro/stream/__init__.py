"""Online windowed analysis: the batch pipelines as a service.

The batch pipelines answer "what did this dataset look like"; this
subsystem answers the question the paper's use cases (prefetching,
cache tuning — §6) actually ask: "what does the traffic look like
*right now*, and how is it drifting?"  It turns the sharded engine's
mergeable states into continuously maintained per-window results:

* :mod:`repro.stream.sources` / :mod:`repro.stream.ingest` — file,
  directory, tail and stdin sources feeding a bounded queue with
  explicit backpressure or counted load-shedding;
* :mod:`repro.stream.windows` — event-time tumbling/sliding windows
  with watermark-based sealing and late-record accounting;
* :mod:`repro.stream.accumulators` — per-window state is exactly the
  engine's :class:`~repro.engine.state.CharacterizationState`,
  :class:`~repro.engine.flowstate.FlowCollectionState` and
  :class:`~repro.engine.ngramstate.NgramSequenceState`, so merging
  all sealed windows of a replay reproduces the batch results;
* :mod:`repro.stream.snapshots` — per-window JSON share /
  cacheability / periods / top-K next-URL snapshots with
  cross-window drift deltas, emitted as JSONL;
* :mod:`repro.stream.service` — the assembled service, checkpointing
  every sealed window through :mod:`repro.engine.checkpoint` so a
  killed stream resumes at the first unsealed window.

The ``windows`` CLI subcommand is this service on tumbling windows
with only the characterization track and no per-window detection:
one windowed path serves both the time-series table and the full
stream.

See ``docs/streaming.md`` for the windowing model and the
resume-from-checkpoint walkthrough.
"""

from .accumulators import (
    ALL_TRACKS,
    WindowAccumulator,
    merge_accumulators,
    merged_characterization,
    merged_ngram,
    merged_pattern_report,
    merged_periodicity,
)
from .ingest import IngestStage, IngestStats
from .service import StreamConfig, StreamResult, StreamService, window_id
from .snapshots import JsonlEmitter, SnapshotBuilder, WindowSnapshot
from .sources import (
    directory_sources,
    file_source,
    iterable_source,
    merged_directory_source,
    stdin_source,
    tail_source,
)
from .windows import WatermarkClock, WindowBounds, WindowManager, WindowSpec

__all__ = [
    "ALL_TRACKS",
    "IngestStage",
    "IngestStats",
    "JsonlEmitter",
    "SnapshotBuilder",
    "StreamConfig",
    "StreamResult",
    "StreamService",
    "WatermarkClock",
    "WindowAccumulator",
    "WindowBounds",
    "WindowManager",
    "WindowSnapshot",
    "WindowSpec",
    "directory_sources",
    "file_source",
    "iterable_source",
    "merge_accumulators",
    "merged_characterization",
    "merged_directory_source",
    "merged_ngram",
    "merged_pattern_report",
    "merged_periodicity",
    "stdin_source",
    "tail_source",
    "window_id",
]

"""The engine's unit of work: a mergeable §4 characterization state.

:class:`CharacterizationState` is what the map phase produces per
shard and what the reduce phase folds together.  It composes the
exact accumulators the serial pipeline uses (dataset summary,
traffic-source/request-type breakdowns, cacheability, per-domain
counts, size distributions, app usage) — all of which merge
losslessly because they are counters and sets — plus one
:class:`~repro.engine.sketches.HyperLogLog` of the clients, whose
estimate ``engine-bench`` checks against the exact count.

The invariant the engine tests enforce: for any split of a dataset
into shards, ``merge``-ing the per-shard states and finalizing with
:meth:`CharacterizationState.to_report` yields counter metrics
identical to :func:`repro.core.pipeline.run_characterization` over
the unsplit records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from ..analysis.cacheability import (
    CacheabilityHeatmap,
    CacheabilityStats,
    DomainCacheability,
)
from ..analysis.characterize import RequestTypeBreakdown, TrafficSourceBreakdown
from ..analysis.sizes import SizeDistribution
from ..logs.record import RequestLog
from ..logs.summary import DatasetSummary
from ..useragent.appid import AppIdentity, AppUsageReport, identify_app
from ..useragent.classify import UserAgentClassifier
from .sketches import HyperLogLog

__all__ = ["CharacterizationState"]

_SIZE_CONTENT_TYPES: Tuple[str, ...] = ("application/json", "text/html")


@dataclass
class CharacterizationState:
    """Mergeable partial state of the §4 characterization.

    One instance per shard: :meth:`ingest` folds records in exactly
    the way :func:`repro.core.pipeline.run_characterization` does
    serially, :meth:`merge` combines shard states losslessly (the
    underlying accumulators are counters and sets), and
    :meth:`to_report` finalizes a
    :class:`~repro.core.pipeline.CharacterizationReport` equal to the
    serial one.  ``client_sketch`` estimates the same unique-client
    count that ``summary`` holds exactly.
    """

    summary: DatasetSummary = field(default_factory=DatasetSummary)
    traffic_source: TrafficSourceBreakdown = field(
        default_factory=TrafficSourceBreakdown
    )
    request_type: RequestTypeBreakdown = field(default_factory=RequestTypeBreakdown)
    cacheability: CacheabilityStats = field(default_factory=CacheabilityStats)
    domains: Dict[str, DomainCacheability] = field(default_factory=dict)
    sizes: Dict[str, SizeDistribution] = field(
        default_factory=lambda: {
            ct: SizeDistribution(ct) for ct in _SIZE_CONTENT_TYPES
        }
    )
    apps: AppUsageReport = field(default_factory=AppUsageReport)
    client_sketch: HyperLogLog = field(default_factory=HyperLogLog)

    def __post_init__(self) -> None:
        self._classifier: Optional[UserAgentClassifier] = None
        self._app_memo: Dict[str, AppIdentity] = {}

    # Transient per-shard caches must not travel through pickle (the
    # classifier memo can be large, and it rebuilds for free).
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_classifier", None)
        state.pop("_app_memo", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._classifier = None
        self._app_memo = {}

    @property
    def record_count(self) -> int:
        return self.summary.total_logs

    def unique_clients_estimate(self) -> float:
        """Sketch-based unique-client estimate (vs exact ``summary``)."""
        return self.client_sketch.estimate()

    def ingest(self, record: RequestLog) -> None:
        """Fold one record; mirrors the serial §4 pipeline exactly."""
        self.summary.add(record)
        self.client_sketch.add(record.client_id)
        content_type = record.content_type
        if content_type in self.sizes:
            self.sizes[content_type].add(record.response_bytes)
        if not record.is_json:
            return
        if self._classifier is None:
            self._classifier = UserAgentClassifier()
        self.traffic_source.add(record, self._classifier)
        self.request_type.add(record)
        self.cacheability.add(record)
        domain = self.domains.get(record.domain)
        if domain is None:
            domain = DomainCacheability(record.domain)
            self.domains[record.domain] = domain
        domain.total_requests += 1
        if record.cacheable:
            domain.cacheable_requests += 1
        ua_key = record.user_agent or ""
        identity = self._app_memo.get(ua_key)
        if identity is None:
            identity = identify_app(record.user_agent)
            self._app_memo[ua_key] = identity
        self.apps.add(identity, record)

    def update(self, records: Iterable[RequestLog]) -> "CharacterizationState":
        for record in records:
            self.ingest(record)
        return self

    def merge(self, other: "CharacterizationState") -> "CharacterizationState":
        """Combine two partial states; exact for all §4 counters."""
        self.summary.merge(other.summary)
        self.traffic_source.merge(other.traffic_source)
        self.request_type.merge(other.request_type)
        self.cacheability.merge(other.cacheability)
        for name, theirs in other.domains.items():
            mine = self.domains.get(name)
            if mine is None:
                self.domains[name] = DomainCacheability(
                    theirs.domain,
                    theirs.category,
                    theirs.cacheable_requests,
                    theirs.total_requests,
                )
            else:
                mine.cacheable_requests += theirs.cacheable_requests
                mine.total_requests += theirs.total_requests
        for content_type, theirs in other.sizes.items():
            mine = self.sizes.get(content_type)
            if mine is None:
                self.sizes[content_type] = theirs
            else:
                mine.merge(theirs)
        self.apps.merge(other.apps)
        self.client_sketch.merge(other.client_sketch)
        return self

    def build_heatmap(
        self, domain_categories: Optional[Mapping[str, str]] = None
    ) -> CacheabilityHeatmap:
        """Figure 4 heatmap from the merged per-domain counts."""
        heatmap = CacheabilityHeatmap()
        for name, stats in self.domains.items():
            category = stats.category
            if category is None and domain_categories:
                category = domain_categories.get(name)
            heatmap.add_domain(
                DomainCacheability(
                    stats.domain,
                    category,
                    stats.cacheable_requests,
                    stats.total_requests,
                )
            )
        return heatmap

    def to_report(self, domain_categories: Optional[Mapping[str, str]] = None):
        """Finalize into the serial pipeline's report type."""
        from ..core.pipeline import CharacterizationReport

        return CharacterizationReport(
            summary=self.summary,
            traffic_source=self.traffic_source,
            request_type=self.request_type,
            cacheability=self.cacheability,
            heatmap=self.build_heatmap(domain_categories),
            sizes=self.sizes,
            apps=self.apps,
        )

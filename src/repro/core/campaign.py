"""High-level campaign API: one call from seed to full report.

Bundles scenario construction, the spoofed-source scan, and the entire
analysis battery behind a single object, so downstream users (CLI,
examples, notebooks) don't re-wire the pipeline by hand::

    from repro.core.campaign import Campaign

    campaign = Campaign.run_default(seed=2019, n_ases=150)
    print(campaign.full_report())
    campaign.results.headline.v4.asn_rate   # structured access
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..rundir import RESULTS_SCHEMA_VERSION
from .analysis import (
    CountryRow,
    ForwardingStats,
    Headline,
    LocalInfiltrationStats,
    OpenClosedStats,
    QminStats,
    ResolverRange,
    SmallRangeStats,
    SourceCategoryTable,
    Table4Row,
    ZeroRangeStats,
    country_rows,
    forwarding_stats,
    headline,
    local_infiltration_stats,
    open_closed_stats,
    port_range_table,
    qmin_stats,
    range_histogram,
    resolver_ranges,
    small_range_patterns,
    source_category_table,
    table1,
    table2,
    zero_range_stats,
)
from .collection import Collector
from .passive import PassiveComparison, compare_zero_range
from .report import (
    render_country_table,
    render_forwarding,
    render_headline,
    render_histogram,
    render_open_closed,
    render_qmin,
    render_small_range,
    render_source_category_table,
    render_table4,
    render_zero_range,
)
from .scanner import ScanConfig, Scanner
from .targets import TargetSet

if TYPE_CHECKING:
    from ..scenarios.internet import BuiltScenario


@dataclass
class ScanMetadata:
    """Scan-phase accounting, decoupled from the live :class:`Scanner`.

    A single-process campaign copies these counters straight off its
    scanner; a sharded campaign sums them across shard workers, whose
    scanner objects never leave their processes.  Keeping the numbers in
    a plain dataclass lets the analysis/report layers work identically
    over both.
    """

    probes_scheduled: int = 0
    probes_sent: int = 0
    probes_suppressed: int = 0
    targets_planned: int = 0
    targets_unroutable: int = 0
    effective_duration: float = 0.0
    shards: int = 1
    wall_seconds: float = 0.0
    # -- resilience accounting (all zero when retries and faults are
    # off, which keeps the provenance block — and so results.json —
    # byte-identical to a build without the chaos fabric).
    probes_retransmitted: int = 0
    retries_recovered: int = 0
    retries_shed: int = 0
    retries_exhausted: int = 0
    retry_enabled: bool = False
    fault_clauses: int = 0

    @classmethod
    def from_scanner(
        cls, scanner: Scanner, *, wall_seconds: float = 0.0, shards: int = 1
    ) -> "ScanMetadata":
        return cls(
            probes_scheduled=scanner.probes_scheduled,
            probes_sent=scanner.probes_sent,
            probes_suppressed=scanner.probes_suppressed,
            targets_planned=scanner.targets_planned,
            targets_unroutable=scanner.targets_unroutable,
            effective_duration=scanner.effective_duration,
            shards=shards,
            wall_seconds=wall_seconds,
            probes_retransmitted=scanner.probes_retransmitted,
            retries_recovered=scanner.retries_recovered,
            retries_shed=scanner.retries_shed,
            retries_exhausted=scanner.retries_exhausted,
            retry_enabled=scanner.config.max_retries > 0,
        )

    @classmethod
    def merged(cls, parts: list["ScanMetadata"]) -> "ScanMetadata":
        """Fold per-shard metadata into campaign totals.

        Counters sum (shards partition the target space); the effective
        duration is pinned to the same value in every shard, so ``max``
        just recovers it.  Wall seconds sum worker time — the pipeline
        overwrites it with the parent's elapsed time afterwards.
        """
        return cls(
            probes_scheduled=sum(p.probes_scheduled for p in parts),
            probes_sent=sum(p.probes_sent for p in parts),
            probes_suppressed=sum(p.probes_suppressed for p in parts),
            targets_planned=sum(p.targets_planned for p in parts),
            targets_unroutable=sum(p.targets_unroutable for p in parts),
            effective_duration=max(
                (p.effective_duration for p in parts), default=0.0
            ),
            shards=len(parts),
            wall_seconds=sum(p.wall_seconds for p in parts),
            probes_retransmitted=sum(p.probes_retransmitted for p in parts),
            retries_recovered=sum(p.retries_recovered for p in parts),
            retries_shed=sum(p.retries_shed for p in parts),
            retries_exhausted=sum(p.retries_exhausted for p in parts),
            retry_enabled=any(p.retry_enabled for p in parts),
            fault_clauses=max(
                (p.fault_clauses for p in parts), default=0
            ),
        )

    def to_payload(self) -> dict:
        return {
            "probes_scheduled": self.probes_scheduled,
            "probes_sent": self.probes_sent,
            "probes_suppressed": self.probes_suppressed,
            "targets_planned": self.targets_planned,
            "targets_unroutable": self.targets_unroutable,
            "effective_duration": self.effective_duration,
            "shards": self.shards,
            "wall_seconds": self.wall_seconds,
            "probes_retransmitted": self.probes_retransmitted,
            "retries_recovered": self.retries_recovered,
            "retries_shed": self.retries_shed,
            "retries_exhausted": self.retries_exhausted,
            "retry_enabled": self.retry_enabled,
            "fault_clauses": self.fault_clauses,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ScanMetadata":
        return cls(**payload)


@dataclass
class CampaignResults:
    """Every analysis artifact of one completed campaign."""

    headline: Headline
    countries: list[CountryRow]
    table1: list[CountryRow]
    table2: list[CountryRow]
    source_categories: SourceCategoryTable
    ranges: list[ResolverRange]
    table4: list[Table4Row]
    zero_range: ZeroRangeStats
    small_ranges: SmallRangeStats
    open_closed: OpenClosedStats
    forwarding_v4: ForwardingStats
    forwarding_v6: ForwardingStats
    qmin: QminStats
    local_infiltration: LocalInfiltrationStats
    passive: PassiveComparison


@dataclass
class Campaign:
    """A completed scan plus its analyses.

    ``scanner`` is ``None`` for campaigns assembled by the staged
    pipeline from shard artifacts — the worker-process scanners no
    longer exist by merge time; their counters live in ``metadata``.
    """

    scenario: "BuiltScenario"
    targets: TargetSet
    scanner: Scanner | None
    collector: Collector
    #: wall-clock seconds behind :meth:`probes_per_second`: the scan
    #: phase when the caller timed it, or build through collect when
    #: :func:`~repro.core.pipeline.run_pipeline` assembled the campaign.
    scan_wall_seconds: float = 0.0
    #: scan accounting; derived from ``scanner`` when not provided.
    metadata: ScanMetadata | None = None
    #: serialized fault plan the run injected (``None`` for a clean
    #: fabric); its digest lands in the results provenance so two runs
    #: of the same scenario under different fault seeds are
    #: distinguishable from the artifacts alone.
    faults: dict | None = None
    #: longitudinal lineage of a campaign epoch (``plan_digest`` /
    #: ``epoch`` / ``base_scenario_key`` / ``lineage``), or ``None``
    #: outside evolution campaigns — absent from provenance entirely so
    #: non-campaign results stay byte-identical to earlier releases.
    evolution: dict | None = None
    #: deterministic AS-sampling spec applied to the target list when a
    #: campaign deadline degraded this epoch, or ``None``.  Recorded
    #: under ``provenance["degraded"]`` so sampled epochs are flagged
    #: in the artifacts themselves.
    sample: dict | None = None
    results: CampaignResults = field(init=False)

    def __post_init__(self) -> None:
        if self.metadata is None:
            if self.scanner is None:
                raise ValueError("campaign needs a scanner or metadata")
            self.metadata = ScanMetadata.from_scanner(
                self.scanner, wall_seconds=self.scan_wall_seconds
            )
        self.results = self._analyze()

    # -- construction ------------------------------------------------------

    @classmethod
    def run_default(
        cls,
        *,
        seed: int = 2019,
        n_ases: int = 150,
        duration: float = 240.0,
        scan_config: ScanConfig | None = None,
        shards: int = 1,
        workers: int | None = None,
        run_dir=None,
        progress=None,
    ) -> "Campaign":
        """Build a default synthetic Internet and run the full scan.

        Runs through the staged pipeline
        (:func:`~repro.core.pipeline.run_pipeline`): with ``shards > 1``
        the target ASes are partitioned across shard workers and the
        per-shard observations merged into a result byte-identical to
        the single-shard run; ``run_dir`` persists the stage artifacts.
        """
        from .pipeline import CampaignSpec, run_pipeline

        spec = CampaignSpec.from_scan_config(
            seed=seed,
            n_ases=n_ases,
            shards=shards,
            config=scan_config or ScanConfig(duration=duration),
        )
        outcome = run_pipeline(
            spec, run_dir=run_dir, workers=workers, progress=progress
        )
        assert outcome.campaign is not None
        return outcome.campaign

    def probes_per_second(self) -> float:
        """Scan-phase throughput (0.0 if timing was not captured)."""
        if self.scan_wall_seconds <= 0:
            return 0.0
        return self.metadata.probes_scheduled / self.scan_wall_seconds

    # -- analysis ------------------------------------------------------------

    def _analyze(self) -> CampaignResults:
        # Canonical observation order makes analysis independent of
        # event arrival order, so a merged multi-shard collection and a
        # single-process collection analyze byte-identically.
        self.collector.canonicalize()
        rows = country_rows(
            self.targets, self.collector, self.scenario.geo,
            self.scenario.routes,
        )
        ranges = resolver_ranges(self.collector)
        return CampaignResults(
            headline=headline(self.targets, self.collector),
            countries=rows,
            table1=table1(rows),
            table2=table2(rows),
            source_categories=source_category_table(self.collector),
            ranges=ranges,
            table4=port_range_table(ranges),
            zero_range=zero_range_stats(ranges),
            small_ranges=small_range_patterns(ranges),
            open_closed=open_closed_stats(self.collector),
            forwarding_v4=forwarding_stats(self.collector, 4),
            forwarding_v6=forwarding_stats(self.collector, 6),
            qmin=qmin_stats(self.collector),
            local_infiltration=local_infiltration_stats(self.collector),
            passive=compare_zero_range(
                ranges, self.scenario.port_history
            ),
        )

    # -- reporting -----------------------------------------------------------

    def full_report(self) -> str:
        """Render every table and statistic as one text document."""
        results = self.results
        sections = [
            ("Section 4: headline DSAV results",
             render_headline(results.headline)),
            ("Table 1: top-10 countries by AS count",
             render_country_table(results.table1, "")),
            ("Table 2: top-10 countries by reachable address fraction",
             render_country_table(results.table2, "")),
            ("Table 3: spoofed-source category effectiveness",
             render_source_category_table(results.source_categories)),
            ("Figure 2: source-port-range distribution",
             render_histogram(range_histogram(results.ranges, bin_width=2048))),
            ("Table 4: port-range buckets",
             render_table4(results.table4)),
            ("Section 5.1: open vs closed",
             render_open_closed(results.open_closed)),
            ("Section 5.2.1: zero source-port randomization",
             render_zero_range(results.zero_range)),
            ("Section 5.2.2: passive comparison",
             f"stable {results.passive.stable_zero}, "
             f"regressed {results.passive.regressed}, "
             f"insufficient {results.passive.insufficient}"),
            ("Section 5.2.3: ineffective allocation",
             render_small_range(results.small_ranges)),
            ("Section 5.4: forwarding",
             render_forwarding(results.forwarding_v4, results.forwarding_v6)),
            ("Section 3.6.4: QNAME minimization",
             render_qmin(results.qmin)),
            ("Section 5.5: local-system infiltration",
             f"dst-as-src: {results.local_infiltration.dst_as_src_targets} "
             f"targets; loopback: "
             f"{results.local_infiltration.loopback_targets}"),
        ]
        divider = "=" * 72
        return "\n".join(
            f"{divider}\n{title}\n{divider}\n{body}\n"
            for title, body in sections
        )

    def results_dict(self) -> dict:
        """Structured, JSON-serializable dump of every analysis result.

        The shape mirrors the paper's artifacts: one key per
        table/figure/statistic, numbers only — suitable for a data
        release or downstream plotting.
        """
        results = self.results

        def country(row: CountryRow) -> dict:
            return {
                "country": row.country,
                "total_asns": row.total_asns,
                "reachable_asns": row.reachable_asns,
                "total_addresses": row.total_addresses,
                "reachable_addresses": row.reachable_addresses,
            }

        def family(side) -> dict:
            return {
                "targeted_addresses": side.targeted_addresses,
                "reachable_addresses": side.reachable_addresses,
                "targeted_asns": side.targeted_asns,
                "reachable_asns": side.reachable_asns,
                "address_rate": side.address_rate,
                "asn_rate": side.asn_rate,
            }

        categories = {
            row.category.value: {
                "inclusive_v4": [
                    row.inclusive_v4.addresses, row.inclusive_v4.asns,
                ],
                "inclusive_v6": [
                    row.inclusive_v6.addresses, row.inclusive_v6.asns,
                ],
                "exclusive_v4": [
                    row.exclusive_v4.addresses, row.exclusive_v4.asns,
                ],
                "exclusive_v6": [
                    row.exclusive_v6.addresses, row.exclusive_v6.asns,
                ],
            }
            for row in results.source_categories.rows
        }
        # Full provenance of the run that produced these numbers.  This
        # is the only section allowed to differ between equivalent runs
        # (wall_seconds, shards); equivalence checks compare the
        # document minus this key.  The resilience sub-block appears
        # only when retries or a fault plan were active, so an
        # untouched run's results.json stays byte-identical to builds
        # that predate the chaos fabric.
        from ..netsim.faults import plan_digest
        from ..scenarios.compiled import content_key

        provenance = {
            "seed": self.scenario.params.seed,
            "n_ases": self.scenario.params.n_ases,
            "shards": self.metadata.shards,
            "probes_sent": self.metadata.probes_sent,
            "effective_duration": self.metadata.effective_duration,
            "wall_seconds": self.metadata.wall_seconds,
            # Run-identity keys (schema v3): everything `repro-dsav
            # diff` needs to decide whether two runs are comparable,
            # without rebuilding the scenario or reading the manifest.
            "scenario_content_key": content_key(self.scenario.params),
            "topology": (
                "tiered"
                if self.scenario.params.topology is not None
                else "star"
            ),
            "fault_plan_digest": (
                plan_digest(self.faults) if self.faults else None
            ),
        }
        if self.evolution is not None:
            provenance["evolution"] = dict(self.evolution)
        if self.sample is not None:
            provenance["degraded"] = {"asn_sample": dict(self.sample)}
        if self.metadata.retry_enabled or self.metadata.fault_clauses:
            provenance["resilience"] = {
                "retry_enabled": self.metadata.retry_enabled,
                "probes_retransmitted": self.metadata.probes_retransmitted,
                "retries_recovered": self.metadata.retries_recovered,
                "retries_shed": self.metadata.retries_shed,
                "retries_exhausted": self.metadata.retries_exhausted,
                "fault_clauses": self.metadata.fault_clauses,
            }
        return {
            "schema_version": RESULTS_SCHEMA_VERSION,
            "provenance": provenance,
            "seed": self.scenario.params.seed,
            "n_ases": self.scenario.params.n_ases,
            "probes": self.metadata.probes_scheduled,
            "headline": {
                "v4": family(results.headline.v4),
                "v6": family(results.headline.v6),
            },
            "table1": [country(r) for r in results.table1],
            "table2": [country(r) for r in results.table2],
            "table3": categories,
            "table4": [
                {
                    "bucket": row.bucket.label,
                    "total": row.total,
                    "open": row.open_,
                    "closed": row.closed,
                    "p0f_windows": row.p0f_windows,
                    "p0f_linux": row.p0f_linux,
                }
                for row in results.table4
            ],
            "open_closed": {
                "open": results.open_closed.open_,
                "closed": results.open_closed.closed,
                "asns_with_closed": (
                    results.open_closed.asns_with_closed_resolver
                ),
                "dsav_lacking_asns": results.open_closed.dsav_lacking_asns,
            },
            "zero_range": {
                "resolvers": results.zero_range.resolvers,
                "asns": results.zero_range.asns,
                "closed": results.zero_range.closed,
                # lists, not tuples, so the dict equals its own
                # JSON round trip (resume serves results from disk).
                "port_counts": [
                    [port, count]
                    for port, count in results.zero_range.port_counts
                ],
            },
            "small_ranges": {
                "resolvers": results.small_ranges.resolvers,
                "strictly_increasing": (
                    results.small_ranges.strictly_increasing
                ),
                "few_unique": results.small_ranges.few_unique,
            },
            "forwarding": {
                "v4": {
                    "resolved": results.forwarding_v4.resolved,
                    "direct": results.forwarding_v4.direct,
                    "forwarded": results.forwarding_v4.forwarded,
                },
                "v6": {
                    "resolved": results.forwarding_v6.resolved,
                    "direct": results.forwarding_v6.direct,
                    "forwarded": results.forwarding_v6.forwarded,
                },
            },
            "qmin": {
                "sources": results.qmin.minimizing_sources,
                "asns": results.qmin.minimizing_asns,
                "with_evidence": (
                    results.qmin.minimizing_asns_with_dsav_evidence
                ),
            },
            "passive": {
                "zero_range": results.passive.zero_range_resolvers,
                "stable": results.passive.stable_zero,
                "regressed": results.passive.regressed,
                "insufficient": results.passive.insufficient,
            },
            "local_infiltration": {
                "dst_as_src": results.local_infiltration.dst_as_src_targets,
                "loopback": results.local_infiltration.loopback_targets,
            },
        }

    def save_results(self, path) -> None:
        """Write :meth:`results_dict` as pretty-printed JSON."""
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.results_dict(), indent=2))

    def summary(self) -> str:
        """One-paragraph campaign summary."""
        results = self.results
        return (
            f"{self.metadata.probes_scheduled} probes to "
            f"{len(self.targets)} targets in "
            f"{len(self.targets.asns())} ASes; "
            f"{results.headline.v4.reachable_asns} IPv4 and "
            f"{results.headline.v6.reachable_asns} IPv6 ASes lack DSAV "
            f"({results.headline.v4.asn_rate:.0%} / "
            f"{results.headline.v6.asn_rate:.0%}); "
            f"{results.open_closed.closed} closed and "
            f"{results.open_closed.open_} open resolvers reached; "
            f"{results.zero_range.resolvers} with zero port "
            f"randomization."
        )

"""Staged campaign pipeline: build → scan → collect → analyze → report.

Every campaign result comes from :func:`run_pipeline` (the one-call
:meth:`~repro.core.campaign.Campaign.run_default` API is a thin wrapper
over it).  It runs the study as five explicit stages, each consuming
and producing a versioned, JSON-serializable artifact:

====================  =====================================================
stage                 artifact
====================  =====================================================
``build``             (none — the scenario is a pure function of the spec)
``scan``              ``shard-NNN.json`` per shard: scan counters + the
                      shard's serialized :class:`Collector` state
``collect``           ``observations.json``: the merged collection
``analyze``           ``results.json``: the full :meth:`results_dict`, and
                      the classified ``events.ndjson`` when the spec
                      journals
``report``            ``report.txt``: the rendered text report, and
                      ``telemetry.json`` when the spec collects metrics
====================  =====================================================

The scan stage is *shard-parallel*: the target ASes are partitioned into
``shards`` disjoint subsets — probe-weighted by default, so shards carry
equal probe load and finish together (``asn % shards`` remains available
as ``partition="modulo"``) — and each subset is scanned inline or by
its own worker process.  The parent builds (or cache-loads) the
scenario for the analyze stage; a forked worker inherits that object
copy-on-write, and every other shard — inline, or in a spawned worker
where the platform cannot fork — builds a private copy from the spec.
The merge in ``collect`` folds the per-shard observations back
together.

Why the merge is byte-identical to the single-process run
---------------------------------------------------------

Sharding by AS works because every result-affecting interaction in the
simulation is local to one target AS plus the shared (but stateless)
measurement infrastructure:

* probe identifiers, schedule offsets, packet loss, and latencies are
  pure functions of ``(seed, packet content)`` — never a position in a
  consumed RNG stream (see :mod:`repro.netsim.determinism`);
* per-AS behaviour (resolvers, ACLs, forwarders) is driven by per-AS
  RNGs derived from ``(seed, asn)``, so both ways a shard can obtain
  the full Internet — fork-inherited from the parent, or built from
  the spec — yield bit-identical ASes regardless of which shard scans
  them;
* the shared public DNS service is *stateless* (``NullCache``), so its
  responses are pure functions of the individual query.

A shard therefore observes exactly what the full campaign would have
observed for its targets, and :meth:`Collector.canonicalize` removes
the one remaining difference — event-arrival insertion order — before
analysis.

Persisting the stage artifacts into a run directory makes campaigns
resumable.  The directory's ``manifest.json`` is the only record of
what is committed (see :class:`RunDirectory`), so ``repro-dsav scan
--resume <dir>`` re-derives what the manifest has not committed: a
shard it does not record is scanned again, and whenever analyze must
run, collect is re-derived from the committed shard artifacts.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..durable import write_atomic
from ..netsim.determinism import stable_fraction
from ..netsim.faults import FaultPlan, ShardCrashInjected
from ..netsim.topology import TopologySpec
from ..obs.export import dump_telemetry, telemetry_payload
from ..obs.metrics import MetricsRegistry
from ..obs.spans import SpanRecorder, activate, span
from ..obs.stream import StreamWriter, TelemetrySnapshotter
from ..rundir import (
    ARTIFACT_SCHEMA_VERSION,
    STAGES,
    RunDirectory,
    UntrustedArtifact,
    json_text,
)
from .campaign import Campaign, ScanMetadata
from .collection import Collector
from .scanner import ScanConfig
from .targets import TargetSet

if TYPE_CHECKING:
    from ..scenarios.internet import BuiltScenario

#: Executions allowed per scan shard (1 initial + capped re-runs of a
#: crashed or killed worker) before the run is declared partial.
MAX_SHARD_ATTEMPTS = 3

#: Seconds between a scan shard's reports (its telemetry snapshots),
#: paced on the monotonic clock.  A worker's reports are the parent's
#: sign that it is alive.
_REPORT_INTERVAL = 0.5

#: Smallest accepted hang timeout: four report intervals, so a worker
#: that is sending probes always reports well within it.
MIN_HANG_TIMEOUT = 4 * _REPORT_INTERVAL


class PipelineError(RuntimeError):
    """Base for pipeline failures with CLI exit-code semantics."""

    #: process exit code the CLI maps this failure to.
    exit_code = 1


class ArtifactCorruptError(PipelineError):
    """A stage artifact failed its checksum or would not parse.

    The offending file has been quarantined (renamed aside) so a
    ``--resume`` regenerates it instead of trusting it.
    """

    exit_code = 4


class PartialScanError(PipelineError):
    """Some scan shards exhausted their re-execution attempts.

    Every shard that did complete has its artifact persisted, so the
    run is resumable once the underlying cause is fixed.
    """

    exit_code = 3

    def __init__(self, message: str, failed_shards: list[int]) -> None:
        super().__init__(message)
        self.failed_shards = failed_shards


@dataclass
class CampaignSpec:
    """Everything needed to (re)run one campaign deterministically.

    ``scan`` holds the :class:`ScanConfig` fields as a plain dict so the
    spec survives a JSON round trip; :meth:`scan_config` rebuilds the
    config object.  The spec is the identity of a run directory — a
    resume against a directory created from a different spec is refused.
    """

    seed: int = 2019
    n_ases: int = 150
    shards: int = 1
    #: how target ASes are assigned to shards.  ``"weighted"`` (the
    #: default) balances *planned probe counts* across shards with a
    #: greedy longest-processing-time fit, so shards finish together;
    #: ``"modulo"`` is the original ``asn % shards`` split.  Both yield
    #: byte-identical merged results — only wall-clock balance differs.
    partition: str = "weighted"
    #: collect campaign telemetry (metrics + spans) into
    #: ``telemetry.json``.  Never affects ``results.json``.
    metrics: bool = False
    #: record the per-probe event journal into ``events.ndjson``.
    #: Requires a run directory; never affects ``results.json``.
    journal: bool = False
    #: stream periodic telemetry snapshots of every shard into the
    #: run's ``telemetry-stream.ndjson`` for live observation
    #: (``repro watch``).  Requires a run directory; advisory only —
    #: never affects ``results.json`` or ``telemetry.json``.
    stream: bool = False
    #: serialized :class:`~repro.netsim.faults.FaultPlan` payload, or
    #: ``None`` for a fault-free campaign.  Stored as part of the spec
    #: so a resumed run injects exactly the same faults.
    faults: dict[str, Any] | None = None
    #: serialized :class:`~repro.netsim.topology.TopologySpec` payload,
    #: or ``None`` for the legacy star topology.  Part of the spec (and
    #: hence the scenario content key), so shards and resumes build the
    #: same world.
    topology: dict[str, Any] | None = None
    #: longitudinal evolution payload ``{"plan": <EvolutionPlan
    #: payload>, "epoch": N}``, or ``None`` outside campaigns.  Folded
    #: into the scenario content key (epoch N is a different world),
    #: while ``None`` leaves legacy keys untouched.
    evolution: dict[str, Any] | None = None
    #: deterministic AS sampling ``{"rate": f, "seed": s}`` applied to
    #: the target list, or ``None`` for the full population.  The
    #: campaign supervisor sets this when a wall-clock deadline degrades
    #: late epochs to a subset instead of dying; recorded in provenance.
    asn_sample: dict[str, Any] | None = None
    scan: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.partition not in ("weighted", "modulo"):
            raise ValueError(
                f"unknown partition scheme {self.partition!r} "
                "(expected 'weighted' or 'modulo')"
            )
        if self.faults is not None:
            # Validate eagerly: a bad plan should fail at spec time,
            # not inside a worker process mid-scan.
            FaultPlan.from_payload(self.faults)
        # Topology, evolution and AS count are checked by the params
        # the spec builds.
        self.scenario_params()
        if self.asn_sample is not None:
            rate = self.asn_sample.get("rate")
            seed = self.asn_sample.get("seed")
            if not isinstance(rate, (int, float)) or not 0 < rate <= 1:
                raise ValueError(
                    f"asn_sample rate must be in (0, 1], got {rate!r}"
                )
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ValueError(
                    f"asn_sample seed must be an int, got {seed!r}"
                )

    @classmethod
    def from_scan_config(
        cls,
        *,
        seed: int,
        n_ases: int,
        shards: int,
        config: ScanConfig,
        partition: str = "weighted",
        metrics: bool = False,
        journal: bool = False,
        stream: bool = False,
        faults: dict[str, Any] | None = None,
        topology: dict[str, Any] | None = None,
        evolution: dict[str, Any] | None = None,
        asn_sample: dict[str, Any] | None = None,
    ) -> "CampaignSpec":
        return cls(
            seed=seed,
            n_ases=n_ases,
            shards=shards,
            partition=partition,
            metrics=metrics,
            journal=journal,
            stream=stream,
            faults=faults,
            topology=topology,
            evolution=evolution,
            asn_sample=asn_sample,
            scan=asdict(config),
        )

    def scan_config(self) -> ScanConfig:
        return ScanConfig(**self.scan)

    def scenario_params(self) -> ScenarioParams:
        """The scenario parameters this spec builds (one place, so the
        parent pipeline and shard workers can never diverge)."""
        from ..scenarios import ScenarioParams

        topology = (
            TopologySpec.from_payload(self.topology)
            if self.topology is not None
            else None
        )
        return ScenarioParams(
            seed=self.seed,
            n_ases=self.n_ases,
            topology=topology,
            evolution=self.evolution,
        )

    def fault_plan(self) -> FaultPlan | None:
        """The fault plan this spec injects, or ``None``."""
        if self.faults is None:
            return None
        return FaultPlan.from_payload(self.faults)

    def to_payload(self) -> dict[str, Any]:
        payload = {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "seed": self.seed,
            "n_ases": self.n_ases,
            "shards": self.shards,
            "partition": self.partition,
            "metrics": self.metrics,
            "journal": self.journal,
            "stream": self.stream,
            "scan": dict(self.scan),
        }
        if self.faults is not None:
            payload["faults"] = dict(self.faults)
        if self.topology is not None:
            payload["topology"] = dict(self.topology)
        if self.evolution is not None:
            payload["evolution"] = dict(self.evolution)
        if self.asn_sample is not None:
            payload["asn_sample"] = dict(self.asn_sample)
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CampaignSpec":
        version = payload.get("schema_version")
        if version != ARTIFACT_SCHEMA_VERSION:
            raise ValueError(
                f"campaign spec has schema_version={version!r}, "
                f"this code reads version {ARTIFACT_SCHEMA_VERSION}"
            )
        return cls(
            seed=payload["seed"],
            n_ases=payload["n_ases"],
            shards=payload["shards"],
            partition=payload["partition"],
            metrics=payload["metrics"],
            journal=payload["journal"],
            stream=payload["stream"],
            faults=payload.get("faults"),
            topology=payload.get("topology"),
            evolution=payload.get("evolution"),
            asn_sample=payload.get("asn_sample"),
            scan=dict(payload["scan"]),
        )


def quarantine(path: Path) -> Path:
    """Move a corrupt artifact aside so the next resume re-derives it."""
    quarantined = path.with_name(path.name + ".quarantined")
    os.replace(path, quarantined)
    return quarantined


def _read_artifact(read, what: str):
    """``read()`` a committed artifact, the resume's way: one that fails
    its digest is quarantined, so the next resume re-derives it."""
    try:
        return read()
    except UntrustedArtifact as exc:
        quarantined = quarantine(exc.path)
        raise ArtifactCorruptError(
            f"{what} at {exc.path} failed its checksum "
            f"(recorded {exc.recorded[:12]}…, found {exc.actual[:12]}…); "
            f"moved to {quarantined.name} — rerun with --resume to "
            "regenerate it"
        ) from None


# ---------------------------------------------------------------------------
# scripted crashes
# ---------------------------------------------------------------------------


class _CrashFuse:
    """Fires scripted shard-crash clauses as the scan progresses.

    Each firing drops a marker file into the run directory *before*
    dying, so the re-executed shard sees the clause as spent and runs
    to completion — exactly ``times`` crashes per clause, across any
    number of re-executions.
    """

    def __init__(
        self,
        clauses,  # [(clause_index, ShardCrash)] for this shard
        rd: RunDirectory,
        shard_id: int,
        in_worker: bool,
    ) -> None:
        self._rd = rd
        self._shard = shard_id
        self._in_worker = in_worker
        self._armed = []
        for index, clause in clauses:
            fired = len(list(rd.crash_marker_glob(shard_id, index)))
            if fired < clause.times:
                self._armed.append([index, clause, fired])

    def check(self, sent: int) -> None:
        """Fire every armed clause due at *sent* probes."""
        for entry in self._armed:
            index, clause, fired = entry
            if fired < clause.times and sent == clause.after_probes:
                entry[2] = fired + 1
                self._trigger(index, clause, fired)

    def _trigger(self, index, clause, firing: int) -> None:
        self._rd.crash_marker_path(self._shard, index, firing).write_text(
            f"pid={os.getpid()}\n"
        )
        # Inline shards run in the pipeline parent: killing or hanging
        # would take the whole run down, so every mode degrades to the
        # catchable exception there.
        if not self._in_worker or clause.mode == "raise":
            raise ShardCrashInjected(self._shard, index)
        if clause.mode == "hang":
            while True:  # parent's hang-timeout reaper SIGKILLs us
                time.sleep(60)
        os.kill(os.getpid(), signal.SIGKILL)


# ---------------------------------------------------------------------------
# scan stage (runs in worker processes)
# ---------------------------------------------------------------------------

#: the parent pipeline's live scenario, published just before shard
#: workers fork so they inherit it copy-on-write.  Only ever *used* by
#: a worker job (``in_worker``): the parent needs its copy pristine for
#: the analyze stage, and each child's scan mutations stay private to
#: that child's address space.
_SHARED_SCENARIO = None
#: content key the published scenario was built under.
_SHARED_KEY: str | None = None


def _publish_scenario(scenario, key: str | None) -> None:
    global _SHARED_SCENARIO, _SHARED_KEY
    _SHARED_SCENARIO = scenario
    _SHARED_KEY = key


def _acquire_scenario(spec: CampaignSpec, payload: dict[str, Any]):
    """Obtain the shard's scenario: inherit the parent's, or build one.

    1. **inherited** — a worker job forked from the pipeline parent
       takes the published scenario at zero cost: the fork's
       copy-on-write pages carry it into the child.
    2. **built** — every other shard builds a private copy from the
       spec: inline shards, whose scan must not mutate the parent's
       analyze-stage scenario, and spawned workers, which inherit no
       memory.  One build costs less than serializing plus
       deserializing a copy would, and the build is a pure function of
       the spec, so both routes yield bit-identical worlds.

    Returns ``(scenario, source, seconds)`` where *source* names the
    route taken (``inherited``/``built``).
    """
    from ..scenarios import build_internet
    from ..scenarios.compiled import content_key

    params = spec.scenario_params()
    start = time.perf_counter()
    if (
        payload.get("in_worker")
        and _SHARED_SCENARIO is not None
        and _SHARED_KEY == content_key(params)
    ):
        return _SHARED_SCENARIO, "inherited", time.perf_counter() - start
    scenario = build_internet(params)
    return scenario, "built", time.perf_counter() - start


def _on_probe(scanner, snapshotter, fuse):
    """The one callback a shard's scanner makes per probe sent.

    The snapshotter ticks before the crash fuse checks, so the last
    report records a probe before a scripted crash fires on it.
    """

    def on_probe() -> None:
        if snapshotter is not None:
            snapshotter.tick()
        if fuse is not None:
            fuse.check(scanner.probes_sent)

    return on_probe


def run_scan_shard(payload: dict[str, Any], report=None) -> dict[str, Any]:
    """Scan one shard of the target space; module-level for pickling.

    The shard acquires the synthetic Internet via
    :func:`_acquire_scenario` — fork-inherited from the parent in a
    forked worker, built from the spec everywhere else; both yield
    bit-identical worlds — then scans only the targets of the ASes the
    job lists under ``asns``.  The campaign duration is pinned to the
    globally computed value so probes are paced exactly as in the
    unsharded run.

    ``report``, if given, receives this execution's telemetry
    snapshots, each as one list of events (see
    :class:`~repro.obs.stream.TelemetrySnapshotter`): one as the shard
    starts, whose ``stream.open`` opens the attempt, one once the
    scanner is built, one every :data:`_REPORT_INTERVAL` seconds while
    probes go out, and a final one after the scan, followed by the
    attempt's ``stream.close``.  Only a streamed spec's snapshots carry
    metric deltas.
    """
    spec = CampaignSpec.from_payload(payload["spec"])
    shard_id = payload["shard_id"]
    run_dir = payload.get("run_dir")
    rd = RunDirectory(run_dir) if run_dir is not None else None
    # Streaming needs a registry to diff for metrics.delta events, but
    # a SpanRecorder only when the spec asked for telemetry proper —
    # the shard artifact's "telemetry" key is gated on *both*, so a
    # stream-only run leaves artifacts and telemetry.json untouched.
    registry = (
        MetricsRegistry() if (spec.metrics or spec.stream) else None
    )
    recorder = SpanRecorder() if spec.metrics else None
    snapshotter = None
    if report is not None:
        snapshotter = TelemetrySnapshotter(
            report,
            shard_id=shard_id,
            interval=_REPORT_INTERVAL,
            registry=registry if spec.stream else None,
        )
        snapshotter.snapshot(force=True)
    journal = None
    if spec.journal:
        from ..obs.journal import Journal

        journal = Journal(
            shard_id=shard_id, path=rd.shard_events_path(shard_id)
        )
    fault_plan = spec.fault_plan()
    fuse = None
    if fault_plan is not None:
        crash_clauses = fault_plan.crash_clauses(shard_id)
        if crash_clauses:
            fuse = _CrashFuse(
                crash_clauses, rd, shard_id,
                in_worker=bool(payload.get("in_worker")),
            )

    timings: dict[str, Any] = {}
    members = frozenset(payload["asns"])

    def _scan() -> tuple[Any, Any, float]:
        with span("scan.shard", shard=shard_id):
            with span("build"):
                scenario, source, acquire_wall = _acquire_scenario(
                    spec, payload
                )
                timings["scenario_source"] = source
                timings["acquire_seconds"] = acquire_wall
                full = scenario.target_set()
                shard_targets = TargetSet(
                    targets=[t for t in full.targets if t.asn in members],
                    stats=full.stats,
                )
                config = spec.scan_config()
                config.pinned_duration = payload["pinned_duration"]
                if "pinned_retry_budget" in payload:
                    config.pinned_retry_budget = payload[
                        "pinned_retry_budget"
                    ]
                scanner, collector = scenario.make_scanner(
                    config, targets=shard_targets
                )
                if fault_plan is not None:
                    injector = fault_plan.compile()
                    if injector is not None:
                        scenario.fabric.install_faults(injector)
                if registry is not None:
                    from ..obs.instrument import instrument_scenario

                    instrument_scenario(registry, scenario)
                    scanner.bind_metrics(registry)
                if journal is not None:
                    from ..obs.instrument import journal_scenario

                    journal_scenario(journal, scenario)
                    scanner.bind_journal(journal)
                if snapshotter is not None:
                    snapshotter.attach(scanner)
                    snapshotter.snapshot(force=True)
                if fuse is not None or snapshotter is not None:
                    scanner.bind_progress(
                        _on_probe(scanner, snapshotter, fuse)
                    )
            with span("run") as run_span:
                scanner.run()
            if journal is not None:
                journal.flush()
            if registry is not None:
                from ..obs.instrument import harvest_scenario

                harvest_scenario(registry, scenario)
            if snapshotter is not None:
                # After the harvest, so the final metrics.delta carries
                # the end-of-run counters (cache hits, loop totals).
                snapshotter.close()
            return scanner, collector, run_span.wall if run_span else 0.0

    # Flush the buffered journal tail when the hang reaper SIGTERMs a
    # worker.  Only complete, already-serialized lines are written, so
    # a half-dead worker still leaves a parseable file.  A worker's
    # process ends with its job, so the handler is never restored.
    if payload.get("in_worker") and journal is not None:

        def flush_tail(signum, frame):
            try:
                journal.flush()
            finally:
                os._exit(128 + signum)

        signal.signal(signal.SIGTERM, flush_tail)

    profiler = None
    if payload.get("profile") and rd is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    try:
        if recorder is not None:
            with activate(recorder):
                scanner, collector, wall = _scan()
            # Per-shard wall time legitimately differs run to run and
            # between shardings, hence deterministic=False.
            assert registry is not None
            registry.histogram(
                "scan_shard_wall_seconds",
                "wall-clock seconds each scan shard took",
                buckets=(1.0, 5.0, 15.0, 60.0, 300.0, 1800.0),
                deterministic=False,
            ).observe(wall)
        else:
            from time import perf_counter

            start = perf_counter()
            scanner, collector, run_wall = _scan()
            # Inline shards (workers=0) run under the parent pipeline's
            # span recorder, so the run span still measured the scan
            # proper; detached workers fall back to the outer clock.
            wall = run_wall if run_wall else perf_counter() - start
    finally:
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(str(rd.profile_path(shard_id)))
    timings["scan_seconds"] = wall
    metadata = ScanMetadata.from_scanner(scanner, wall_seconds=wall)
    if fault_plan is not None:
        metadata.fault_clauses = len(fault_plan.clauses)
    artifact = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "shard_id": shard_id,
        "shards": spec.shards,
        "spec": spec.to_payload(),
        "metadata": metadata.to_payload(),
        # Provenance, not identity: how the worker obtained its scenario
        # and how long each stage took.  Wall clocks differ run to run,
        # so nothing here may feed the merged results.
        "timings": timings,
        "collection": collector.to_payload(),
    }
    if registry is not None and recorder is not None:
        artifact["telemetry"] = {
            "metrics": registry.to_payload(),
            "spans": recorder.to_payload(),
        }
    return artifact


def _probe_census(
    scenario: "BuiltScenario", targets: TargetSet
) -> dict[int, int]:
    """Planned first-attempt probe count per target ASN.

    The spoof planner is per-target deterministic, so counting plans in
    the parent matches exactly what each worker will schedule.  The
    census drives three global-to-local decisions: the probe-weighted
    shard partition, the duration stretch under ``max_rate``, and the
    per-shard retry-budget split.  ASNs whose targets all lack a spoof
    plan still appear (with weight 0) — every target ASN must land in
    exactly one shard so merged metadata matches the unsharded run.
    """
    planner = scenario.make_planner()
    per_asn: dict[int, int] = {}
    for target in targets.targets:
        per_asn.setdefault(target.asn, 0)
        plan = planner.plan(target.address)
        if plan is not None:
            per_asn[target.asn] += len(plan.sources)
    return per_asn


def _partition_asns(
    per_asn: dict[int, int], shards: int, scheme: str
) -> list[list[int]]:
    """Assign every census ASN to exactly one shard.

    ``"modulo"`` reproduces the historical ``asn % shards`` split.
    ``"weighted"`` runs a longest-processing-time greedy fit over the
    probe census: heaviest ASN first, always onto the least-loaded
    shard.  Ties break on (ASN, shard index), so the assignment is a
    pure function of the census — any process that recomputes it (a
    resume, a retry round) derives the identical partition.
    """
    groups: list[list[int]] = [[] for _ in range(shards)]
    if scheme == "modulo":
        for asn in sorted(per_asn):
            groups[asn % shards].append(asn)
        return groups
    load: list[tuple[int, int]] = [(0, index) for index in range(shards)]
    heapq.heapify(load)
    for asn in sorted(per_asn, key=lambda a: (-per_asn[a], a)):
        weight, index = heapq.heappop(load)
        groups[index].append(asn)
        heapq.heappush(load, (weight + per_asn[asn], index))
    return [sorted(group) for group in groups]


def _split_budget(budget: int, weights: list[int]) -> list[int]:
    """Split a campaign retry budget across shards, by probe share.

    Largest-remainder apportionment: shares sum exactly to *budget*
    and the split is deterministic for a given census.
    """
    total = sum(weights)
    if total == 0:
        return [0] * len(weights)
    shares = []
    remainders = []
    for index, weight in enumerate(weights):
        exact = budget * weight / total
        base = int(exact)
        shares.append(base)
        remainders.append((-(exact - base), index))
    leftover = budget - sum(shares)
    for _, index in sorted(remainders)[:leftover]:
        shares[index] += 1
    return shares


def _sample_targets(
    sample: dict[str, Any] | None, targets: TargetSet
) -> TargetSet:
    """Deterministic AS sampling of *targets* (``spec.asn_sample``).

    Content-keyed on ``(sample seed, asn)`` so a crashed run's resume
    selects the identical subset.
    """
    if sample is None:
        return targets
    seed, rate = int(sample["seed"]), float(sample["rate"])
    return TargetSet(
        targets=[
            t
            for t in targets.targets
            if stable_fraction(seed, "as-sample", int(t.asn)) < rate
        ],
        stats=targets.stats,
    )


#: Version of the shard-cache entry envelope.
SHARD_CACHE_VERSION = 1


class ShardCache:
    """Content-keyed on-disk cache of completed scan-shard artifacts.

    The incremental-rescan store for longitudinal campaigns: a shard
    whose *inputs* — base scenario key, per-AS evolution state digests
    of its member ASes, fault plan, scan config, pinned pacing figures,
    sampling — are unchanged between epochs is served from here instead
    of re-executed.  Entries carry their own sha256 so a torn write or
    bit rot misses (and is evicted) rather than corrupting an epoch.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def entry_key(payload: dict[str, Any]) -> str:
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / f"shard-{key}.json"

    def load(self, key: str) -> dict[str, Any] | None:
        path = self._path(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            envelope = json.loads(path.read_text())
        except ValueError:
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        body = envelope.get("body")
        canonical = json.dumps(
            body, sort_keys=True, separators=(",", ":")
        )
        if (
            envelope.get("schema_version") != SHARD_CACHE_VERSION
            or hashlib.sha256(canonical.encode()).hexdigest()
            != envelope.get("sha256")
        ):
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return body

    def store(self, key: str, body: dict[str, Any]) -> None:
        canonical = json.dumps(
            body, sort_keys=True, separators=(",", ":")
        )
        envelope = {
            "schema_version": SHARD_CACHE_VERSION,
            "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "body": body,
        }
        write_atomic(self._path(key), json_text(envelope))


class _ShardCacheContext:
    """One run's view of the shard cache: key derivation + fetch/store.

    The key folds in everything that can change a shard artifact's
    *measurements*: the base scenario content key (evolution stripped),
    the plan digest, each member AS's epoch-state digest, the fault
    plan payload (fault-cycle clauses re-seed it per epoch), the scan
    config, the globally derived pinned duration / retry-budget share
    (cross-shard couplings), sampling, and the shard geometry.  Within
    a hit only the embedded spec payload can differ (the epoch index),
    so it is patched on fetch — the merged results are then
    byte-identical to a full re-execution, which the determinism suite
    asserts.
    """

    def __init__(
        self, cache: ShardCache, spec: CampaignSpec, params, scenario
    ) -> None:
        from ..scenarios.compiled import content_key

        self.cache = cache
        self.spec = spec
        self.base_key = content_key(replace(params, evolution=None))
        self.plan_digest = None
        self._digests: dict[int, int] = {}
        if spec.evolution is not None:
            from ..campaigns.evolution import (
                EvolutionPlan,
                epoch_as_digest,
            )

            plan = EvolutionPlan.from_payload(spec.evolution["plan"])
            epoch = spec.evolution["epoch"]
            self.plan_digest = plan.digest()
            graph = getattr(scenario, "topology", None)
            for target in scenario.target_set().targets:
                if target.asn in self._digests:
                    continue
                tier = (
                    graph.tier_of(target.asn)
                    if graph is not None
                    else 3
                )
                self._digests[target.asn] = epoch_as_digest(
                    plan, epoch, target.asn, tier
                )

    def key_for(
        self,
        shard_id: int,
        member_asns,
        pinned: float,
        budget_share: int | None,
    ) -> str:
        spec = self.spec
        return ShardCache.entry_key(
            {
                "v": SHARD_CACHE_VERSION,
                "artifact_schema": ARTIFACT_SCHEMA_VERSION,
                "base": self.base_key,
                "plan": self.plan_digest,
                "scan": dict(spec.scan),
                "journal": spec.journal,
                "metrics": spec.metrics,
                "faults": spec.faults,
                "sample": spec.asn_sample,
                "shards": spec.shards,
                "shard": shard_id,
                "pinned": pinned,
                "budget": budget_share,
                "asns": [
                    [asn, self._digests.get(asn, 0)]
                    for asn in sorted(member_asns)
                ],
            }
        )

    def store_artifact(
        self, key: str, artifact: dict[str, Any], events: str | None
    ) -> None:
        self.cache.store(key, {"artifact": artifact, "events": events})


#: Seconds a SIGTERMed hung worker gets to flush its journal tail
#: before the reaper escalates to SIGKILL.
_TERM_GRACE = 5.0


#: how shard workers start: ``fork`` where the platform offers it, so
#: workers inherit the parent's scenario; ``spawn`` elsewhere, where
#: each worker builds its own.
_START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


def _cause(exc: BaseException) -> str:
    """A failed attempt's cause, the one shape every executor reports."""
    return f"{type(exc).__name__}: {exc}"


def _relay(progress, stream: StreamWriter | None, shard_id: int, events):
    """Pass one of a shard's reports on: its ``shard.health`` to the
    progress line, and every event to the stream file when the run
    streams."""
    if progress is not None:
        for event in events:
            if event["kind"] == "shard.health":
                progress.update(shard_id, event)
    if stream is not None:
        stream.write(events)


def _exit_with_parent() -> None:
    """End this worker the moment its parent process ends: the parent's
    sentinel becomes ready when it exits or is killed."""
    parent = multiprocessing.parent_process()
    multiprocessing.connection.wait([parent.sentinel])
    os._exit(1)


def _fork_shard_main(job: dict[str, Any], conn) -> None:
    """Entry point of one shard worker process.

    Runs the shard, sending each of its reports as ``("report",
    events)`` over the pipe as it scans, then ``("ok", artifact)`` or
    ``("err", cause)``, where *cause* is a ``"<Type>: <message>"``
    string, so no exception crosses the pipe.  Any death without a
    message (scripted SIGKILL, OOM, hang reaper) surfaces to the parent
    as EOF on the pipe.  A daemon thread ends the worker when its parent
    dies, whatever the worker is doing.
    """
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    try:
        artifact = run_scan_shard(
            job, lambda events: conn.send(("report", events))
        )
    except BaseException as exc:  # noqa: BLE001 — relayed, not handled
        conn.send(("err", _cause(exc)))
        return
    conn.send(("ok", artifact))


def _run_fork_round(
    jobs: list[dict[str, Any]],
    workers: int,
    progress,
    hang_timeout: float | None,
    stream: StreamWriter | None,
) -> tuple[list[dict[str, Any]], list[tuple[dict[str, Any], str]]]:
    """One process-per-job pass over *jobs*.

    Each shard gets its own fresh worker process, started with
    :data:`_START_METHOD`: a forked worker inherits the parent's built
    scenario copy-on-write (no rebuild, no pickle), and because the
    process serves exactly one job, its scan mutations die with it — a
    worker reused across jobs would hand the second job an
    already-mutated world.  Results return over a pipe; a worker that
    sends an error, or dies without sending a result (scripted crash,
    OOM kill, hang reaper), is reported as failed with its cause, and
    the caller's retry rounds re-execute it.

    A worker's reports arrive on the same pipe.  Each goes through
    :func:`_relay` to *progress* and *stream* and restarts the worker's
    silence clock, which starts at its first report (sent as its shard
    starts), so a spawned worker's interpreter start-up is never
    judged.  With *hang_timeout*, a worker silent that long gets
    SIGTERM — its flush handler writes the buffered journal tail and
    exits — then SIGKILL after :data:`_TERM_GRACE` seconds more, both
    through its own ``Process`` object.  An unread message on its pipe
    counts as life, so a parent slow to read never reaps a healthy
    worker.  No worker outlives this process (see
    :func:`_fork_shard_main`).
    """
    ctx = multiprocessing.get_context(_START_METHOD)
    completed: list[dict[str, Any]] = []
    failed: list[tuple[dict[str, Any], str]] = []
    pending = list(jobs)
    active: dict[Any, tuple[Any, dict[str, Any]]] = {}
    #: receiver -> monotonic time of the worker's last report.
    seen: dict[Any, float] = {}
    termed: set[Any] = set()
    limit = max(1, min(workers, len(jobs)))

    def _launch() -> None:
        job = pending.pop(0)
        receiver, sender = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_fork_shard_main, args=(job, sender), daemon=True
        )
        process.start()
        sender.close()
        active[receiver] = (process, job)

    def _reap(process) -> None:
        process.join(timeout=10.0)
        if process.is_alive():
            process.kill()
            process.join()

    while pending and len(active) < limit:
        _launch()
    while active:
        ready = multiprocessing.connection.wait(
            list(active),
            timeout=_REPORT_INTERVAL if hang_timeout is not None else None,
        )
        for conn in ready:
            process, job = active[conn]
            try:
                kind, value = conn.recv()
            except (EOFError, OSError):
                kind, value = "died", None
            if kind == "report":
                seen[conn] = time.monotonic()
                _relay(progress, stream, job["shard_id"], value)
                continue
            del active[conn]
            conn.close()
            _reap(process)
            if kind == "ok":
                completed.append(value)
                if progress is not None:
                    progress.shard_done()
            elif kind == "err":
                failed.append((job, value))
            else:
                failed.append(
                    (
                        job,
                        f"shard {job['shard_id']} worker died without "
                        f"a result (exitcode {process.exitcode})",
                    )
                )
            if pending:
                _launch()
        if hang_timeout is not None:
            now = time.monotonic()
            for conn, (process, _) in active.items():
                if conn not in seen or conn.poll():
                    continue
                silent = now - seen[conn]
                if silent >= hang_timeout + _TERM_GRACE:
                    process.kill()
                elif silent >= hang_timeout and conn not in termed:
                    termed.add(conn)
                    process.terminate()
    return completed, failed


# ---------------------------------------------------------------------------
# the pipeline driver
# ---------------------------------------------------------------------------


@dataclass
class PipelineOutcome:
    """What one pipeline invocation produced.

    ``campaign`` is ``None`` when the analyze stage was resumed from
    disk — the numbers and report are served from the artifacts without
    re-running anything.
    """

    campaign: Campaign | None
    results: dict[str, Any]
    report: str
    run_dir: Path | None
    stages_run: list[str]
    stages_skipped: list[str]
    #: full telemetry payload when the spec enabled metrics, else None.
    #: Lives beside the results (and in ``telemetry.json``), never
    #: inside them — results stay byte-identical with metrics on or off.
    telemetry: dict[str, Any] | None = None
    #: scan-stage execution counts ``{shard_id: executions}`` — a
    #: reused shard counts 0, a shard re-executed after one crash 2.
    #: ``None`` when the run was served from disk.
    scan_stats: dict[int, int] | None = None
    #: how the parent obtained its scenario: ``"built"`` (cold) or
    #: ``"cache"`` (content-keyed cache hit).  ``None`` when the run
    #: was served from disk without touching the builder.
    scenario_source: str | None = None
    #: scan shards served from the incremental-rescan shard cache this
    #: invocation (their executions count 0 in ``scan_stats``).
    cache_hits: tuple[int, ...] = ()


def run_pipeline(
    spec: CampaignSpec,
    *,
    run_dir=None,
    workers: int | None = None,
    progress=None,
    hang_timeout: float | None = None,
    scenario_cache=None,
    profile: bool = False,
    ledger=None,
    shard_cache=None,
) -> PipelineOutcome:
    """Run the staged campaign described by *spec*.

    ``run_dir`` persists stage artifacts (and enables resume: what its
    manifest has committed is reused, the rest re-derived).
    ``workers`` bounds the shard worker processes; ``0`` runs every
    shard inline in this process (useful under test, and what
    ``shards=1`` effectively is).
    ``progress`` is an optional live reporter (see
    :class:`repro.obs.progress.ProgressReporter`) fed by the scan stage.
    ``hang_timeout`` (seconds, at least :data:`MIN_HANG_TIMEOUT`) arms
    the hung-worker reaper: a worker that sends no report for that long
    is killed and its shard re-executed like any other crash.  A spec
    whose fault plan hangs one of its shards needs it.

    ``scenario_cache`` names a content-keyed scenario cache directory
    (or passes a :class:`~repro.scenarios.compiled.ScenarioCache`);
    ``None`` builds cold.  The cache is an execution detail, not
    campaign identity: hits and cold builds produce byte-identical
    artifacts.  ``profile`` makes every scan
    shard dump cProfile stats into the run directory, so it needs one.
    ``ledger`` names a cross-run ledger directory:
    after the run completes its row is appended to (or refreshed in)
    ``<ledger>/ledger.json`` — observational only, results are
    byte-identical with or without it.  ``shard_cache`` names (or
    passes) a :class:`ShardCache` for incremental rescans: shards whose
    content-keyed inputs are unchanged since a previous epoch are
    served from the cache instead of re-executed, with merged results
    byte-identical to a full re-execution.
    """
    # Checked before the run directory exists, so bad options leave
    # nothing behind.
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    # Written so that NaN fails too: every comparison with it is false.
    if hang_timeout is not None and not (
        MIN_HANG_TIMEOUT <= hang_timeout < math.inf
    ):
        raise ValueError(
            f"hang timeout must be finite and at least "
            f"{MIN_HANG_TIMEOUT:g} seconds, got {hang_timeout:g}"
        )
    if run_dir is None:
        for wanted, what, why in (
            (ledger is not None, "ledger", "the ledger indexes run "
             "artifacts on disk"),
            (spec.journal, "journal", "events.ndjson needs somewhere "
             "to live"),
            (spec.stream, "stream", "telemetry-stream.ndjson needs "
             "somewhere to live"),
            (profile, "profile", "profile-NNN.pstats needs somewhere "
             "to live"),
        ):
            if wanted:
                raise ValueError(f"{what} requires a run directory ({why})")
    crashes = []
    fault_plan = spec.fault_plan()
    if fault_plan is not None:
        for shard_id in range(spec.shards):
            crashes += [c for _, c in fault_plan.crash_clauses(shard_id)]
    if crashes and run_dir is None:
        raise ValueError(
            "shard-crash fault clauses require a run directory "
            "(crash markers track spent firings)"
        )
    if hang_timeout is None and any(c.mode == "hang" for c in crashes):
        raise ValueError(
            "a hang-mode shard-crash clause requires a hang timeout "
            "(nothing else ends the hung worker)"
        )
    rd = RunDirectory(run_dir) if run_dir is not None else None
    if rd is not None:
        rd.bind_spec(spec)
        if spec.faults is not None and not rd.committed(rd.faults_path.name):
            # The plan is part of the spec, but a standalone artifact
            # makes the chaos configuration of a run auditable without
            # digging through the manifest.
            rd.commit({rd.faults_path.name: json_text(dict(spec.faults))})
    stages_run: list[str] = []
    stages_skipped: list[str] = []

    # Every stage committed, with its files: serve the run without
    # rebuilding anything, once every file it serves passes its digest.
    if rd is not None and rd.complete():
        results = _read_artifact(rd.results, "results artifact")
        report = _read_artifact(
            partial(rd.read_bytes, rd.report_path.name), "report artifact"
        ).decode()
        telemetry = _read_artifact(rd.telemetry, "telemetry artifact")
        _read_artifact(rd.observations, "observations artifact")
        _read_artifact(rd.journal, "journal")
        _append_ledger(ledger, rd)
        return PipelineOutcome(
            campaign=None,
            results=results,
            report=report,
            run_dir=rd.path,
            stages_run=[],
            stages_skipped=list(STAGES),
            telemetry=telemetry,
        )

    # Span tracing is always on for the pipeline (its cost is a handful
    # of perf_counter calls per *stage*); the metrics registry exists
    # only when the spec asked for telemetry.
    recorder = SpanRecorder()
    registry = MetricsRegistry() if spec.metrics else None

    with activate(recorder), span("pipeline"):
        # -- build: forked workers inherit this copy; analyze reads it
        # directly.
        from ..scenarios.compiled import (
            ScenarioCache,
            build_or_load,
            content_key,
        )

        params = spec.scenario_params()
        cache = scenario_cache
        if cache is not None and not isinstance(cache, ScenarioCache):
            cache = ScenarioCache(cache)
        with span("build"):
            scenario, _, scenario_source = build_or_load(
                params, cache=cache
            )
            targets = _sample_targets(
                spec.asn_sample, scenario.target_set()
            )
        stages_run.append("build")

        # -- scan + collect.  Whenever analyze must run, collect is
        # re-derived from the committed shard artifacts, so a resumed
        # run merges the same shard telemetry an uninterrupted one does.
        scan_stats: dict[int, int] | None = None
        cache_hits: list[int] = []
        shard_ctx = None
        if shard_cache is not None and rd is not None:
            if not isinstance(shard_cache, ShardCache):
                shard_cache = ShardCache(shard_cache)
            shard_ctx = _ShardCacheContext(
                shard_cache, spec, params, scenario
            )
        with span("scan"):
            # Publish the built scenario for the duration of the scan,
            # so forked workers inherit the object.
            _publish_scenario(scenario, content_key(params))
            try:
                shard_payloads, scan_stats, cache_hits = _run_scan_stage(
                    spec, scenario, targets, rd, workers,
                    stages_run, stages_skipped, progress,
                    hang_timeout=hang_timeout, profile=profile,
                    shard_ctx=shard_ctx,
                )
            finally:
                _publish_scenario(None, None)
            # Fold each shard's telemetry into the campaign-wide view:
            # metrics merge deterministically, span trees graft under
            # this scan span.
            for payload in shard_payloads:
                shard_telemetry = payload.get("telemetry")
                if shard_telemetry is None:
                    continue
                if registry is not None:
                    registry.merge_payload(shard_telemetry["metrics"])
                for node in shard_telemetry["spans"]["spans"]:
                    recorder.graft_payload(node)
        with span("collect"):
            collector = _fresh_collector(scenario)
            shard_metas = []
            for payload in shard_payloads:
                collector.absorb_payload(payload["collection"])
                shard_metas.append(
                    ScanMetadata.from_payload(payload["metadata"])
                )
            collector.canonicalize()
            metadata = ScanMetadata.merged(shard_metas)
            if spec.journal and rd is not None:
                from ..obs.journal import merge_shard_journals

                merge_shard_journals(
                    [
                        rd.shard_events_path(shard_id)
                        for shard_id in range(spec.shards)
                    ],
                    rd.events_path,
                )
            if rd is not None:
                observations = {
                    "schema_version": ARTIFACT_SCHEMA_VERSION,
                    "spec": spec.to_payload(),
                    "metadata": metadata.to_payload(),
                    "collection": collector.to_payload(),
                }
                rd.commit(
                    {rd.observations_path.name: json_text(observations)},
                    "collect",
                )
        stages_run.append("collect")

        # -- analyze
        metadata.wall_seconds = recorder.elapsed()
        evolution_prov = None
        if spec.evolution is not None:
            from ..campaigns.evolution import EvolutionPlan, lineage_key

            plan = EvolutionPlan.from_payload(spec.evolution["plan"])
            base_key = content_key(replace(params, evolution=None))
            evolution_prov = {
                "plan_digest": plan.digest(),
                "epoch": spec.evolution["epoch"],
                "base_scenario_key": base_key,
                "lineage": lineage_key(base_key, plan),
            }
        with span("analyze"):
            campaign = Campaign(
                scenario,
                targets,
                None,
                collector,
                scan_wall_seconds=metadata.wall_seconds,
                metadata=metadata,
                faults=spec.faults,
                evolution=evolution_prov,
                sample=spec.asn_sample,
            )
            results = campaign.results_dict()
            journal: tuple[str, ...] = ()
            if spec.journal and rd is not None:
                from ..obs.journal import append_classifications

                append_classifications(rd.events_path, collector)
                journal = (rd.events_path.name,)
        if rd is not None:
            rd.commit(
                {rd.results_path.name: json_text(results)},
                "analyze",
                written=journal,
            )
        stages_run.append("analyze")

        # -- report
        with span("report"):
            report = campaign.full_report()
        stages_run.append("report")

    # The report stage commits once the pipeline span has closed, so
    # its telemetry.json holds the whole run's span tree.
    telemetry = None
    if registry is not None:
        telemetry = telemetry_payload(
            registry, recorder, spec=spec.to_payload()
        )
    if rd is not None:
        files = {rd.report_path.name: report}
        if telemetry is not None:
            files[rd.telemetry_path.name] = dump_telemetry(telemetry)
        rd.commit(files, "report")

    _append_ledger(ledger, rd)

    return PipelineOutcome(
        campaign=campaign,
        results=results,
        report=report,
        run_dir=rd.path if rd is not None else None,
        stages_run=stages_run,
        stages_skipped=stages_skipped,
        telemetry=telemetry,
        scan_stats=scan_stats,
        scenario_source=scenario_source,
        cache_hits=tuple(cache_hits),
    )


def resume_pipeline(
    run_dir,
    *,
    workers: int | None = None,
    progress=None,
    hang_timeout: float | None = None,
    scenario_cache=None,
    profile: bool = False,
    ledger=None,
    shard_cache=None,
) -> PipelineOutcome:
    """Resume the campaign recorded in *run_dir*'s manifest (a
    ``FileNotFoundError`` when no run has started there)."""
    spec = RunDirectory.open(run_dir).read_spec()
    return run_pipeline(
        spec,
        run_dir=run_dir,
        workers=workers,
        progress=progress,
        hang_timeout=hang_timeout,
        scenario_cache=scenario_cache,
        profile=profile,
        ledger=ledger,
        shard_cache=shard_cache,
    )


def _append_ledger(ledger, rd: RunDirectory | None) -> None:
    """Record a completed run in the cross-run ledger (if one is set)."""
    if ledger is None or rd is None:
        return
    from ..obs.ledger import Ledger

    Ledger(ledger).record(rd.path)


def _fresh_collector(scenario: "BuiltScenario") -> Collector:
    """An empty collector wired for merging shard payloads.

    The merged collector never ingests live query records, so it needs
    no probe index or channel terminators — only the pieces the
    analysis layer reads.
    """
    return Collector(
        codec=scenario.codec,
        probe_index={},
        real_addresses=frozenset(scenario.client.addresses),
        routes=scenario.routes,
    )


def _run_scan_stage(
    spec: CampaignSpec,
    scenario: "BuiltScenario",
    targets: TargetSet,
    rd: RunDirectory | None,
    workers: int | None,
    stages_run: list[str],
    stages_skipped: list[str],
    progress=None,
    hang_timeout: float | None = None,
    profile: bool = False,
    shard_ctx: "_ShardCacheContext | None" = None,
) -> tuple[list[dict[str, Any]], dict[int, int], list[int]]:
    """Produce every shard artifact, reusing any the manifest records.

    Returns ``(artifacts in shard order, {shard_id: executions},
    cache-hit shard ids)`` — a reused shard counts zero executions, a
    shard that survived one crash counts two.  Crashed or killed
    workers are re-executed up to :data:`MAX_SHARD_ATTEMPTS` times;
    only the failed shards re-run, and each round's completed
    artifacts are committed the round they land.

    With *shard_ctx* (incremental rescans), a shard the manifest does
    not record whose content key hits the cache is materialized from
    the cached artifact — spec payload patched to the current epoch —
    and committed with the first round, executions 0.
    """
    if progress is not None:
        progress.total_shards = spec.shards
    config = spec.scan_config()
    pinned = config.duration
    budget_shares = None
    if (
        (spec.partition == "weighted" and spec.shards > 1)
        or config.max_rate is not None
        or config.retry_budget is not None
    ):
        per_asn = _probe_census(scenario, targets)
    else:
        # Nothing reads probe weights: the modulo split (and a single
        # shard) ignores them.
        per_asn = {t.asn: 0 for t in targets.targets}
    groups = _partition_asns(per_asn, spec.shards, spec.partition)
    per_shard = [sum(per_asn[asn] for asn in group) for group in groups]
    total = sum(per_shard)
    if config.max_rate is not None and total:
        # Shards must pace probes on the full campaign's timeline, but
        # the duration/max_rate stretch in schedule_campaign is computed
        # from the local probe total — a shard would stretch less.  Pin
        # the global figure into every shard.
        pinned = max(config.duration, total / config.max_rate)
    if config.retry_budget is not None:
        budget_shares = _split_budget(config.retry_budget, per_shard)

    shard_keys: dict[int, str] = {}
    if shard_ctx is not None and rd is not None:
        for shard_id, group in enumerate(groups):
            shard_keys[shard_id] = shard_ctx.key_for(
                shard_id,
                group,
                pinned,
                None if budget_shares is None else budget_shares[shard_id],
            )

    payloads: dict[int, dict[str, Any]] = {}
    shard_attempts: dict[int, int] = {}
    cache_hits: list[int] = []
    #: shard artifacts served from the cache, committed with the first
    #: round (or alone, when no shard runs).
    hit_files: dict[str, str] = {}
    pending: list[dict[str, Any]] = []
    for shard_id in range(spec.shards):
        artifact = None
        if (
            rd is not None
            and rd.committed(rd.shard_path(shard_id).name)
            # A journaled shard also needs its events file, written
            # before its artifact committed.
            and (not spec.journal or rd.shard_events_path(shard_id).exists())
        ):
            artifact = _read_artifact(
                partial(rd.shard, shard_id), f"shard {shard_id} artifact"
            )
        elif shard_id in shard_keys:
            body = shard_ctx.cache.load(shard_keys[shard_id])
            if body is not None:
                # Materialize the cached shard into the run directory,
                # its spec payload patched to this epoch's.
                artifact = dict(body["artifact"])
                artifact["spec"] = spec.to_payload()
                if spec.journal:
                    write_atomic(
                        rd.shard_events_path(shard_id), body["events"]
                    )
                hit_files[rd.shard_path(shard_id).name] = json_text(
                    artifact
                )
                cache_hits.append(shard_id)
        if artifact is not None:
            payloads[shard_id] = artifact
            shard_attempts[shard_id] = 0
            stages_skipped.append(f"scan[{shard_id}]")
            if progress is not None:
                meta = ScanMetadata.from_payload(artifact["metadata"])
                # An observation with a category is a resolver that
                # answered a spoofed probe: one penetration.
                penetrations = sum(
                    1 for observation
                    in artifact["collection"]["observations"]
                    if observation["categories"]
                )
                progress.update(
                    shard_id,
                    dict(planned=meta.probes_scheduled, sent=meta.probes_sent,
                         penetrations=penetrations),
                    reused=True,
                )
                progress.shard_done()
            continue
        job = {
            "spec": spec.to_payload(),
            "shard_id": shard_id,
            "asns": groups[shard_id],
            "pinned_duration": pinned,
        }
        if budget_shares is not None:
            job["pinned_retry_budget"] = budget_shares[shard_id]
        if profile:
            job["profile"] = True
        if rd is not None:
            job["run_dir"] = str(rd.path)
        shard_attempts[shard_id] = 0
        pending.append(job)

    if not pending and rd is not None:
        rd.commit(hit_files, "scan")
    if pending:
        if workers is None:
            workers = min(len(pending), os.cpu_count() or 1)
        inline = workers <= 0 or len(pending) == 1
        # Every shard's snapshots, whichever process scans it, are
        # appended to the run's one stream file by this process.
        stream = StreamWriter(rd.stream_path) if spec.stream else None
        results: list[dict[str, Any]] = []
        remaining = pending
        while remaining:
            for job in remaining:
                shard_attempts[job["shard_id"]] += 1
            failed: list[tuple[dict[str, Any], str]]
            if inline:
                round_results, failed = [], []
                for job in remaining:
                    report = None
                    if progress is not None or stream is not None:
                        report = partial(
                            _relay, progress, stream, job["shard_id"]
                        )
                    try:
                        round_results.append(run_scan_shard(job, report))
                    except Exception as exc:  # noqa: BLE001 — retried
                        # Fails the attempt as a worker's error does.
                        failed.append((job, _cause(exc)))
                        continue
                    if progress is not None:
                        progress.shard_done()
            else:
                for job in remaining:
                    job["in_worker"] = True
                round_results, failed = _run_fork_round(
                    remaining, workers, progress, hang_timeout, stream
                )
            # Commit survivors the round they land (in shard order, so
            # stage bookkeeping stays deterministic despite worker
            # races) — work completed before a crash is never redone.
            # Each is stored in the shard cache first, so a kill before
            # the commit leaves a shard the resume serves from there.
            files, hit_files = hit_files, {}
            for artifact in sorted(
                round_results, key=lambda a: a["shard_id"]
            ):
                results.append(artifact)
                shard_id = artifact["shard_id"]
                if rd is None:
                    continue
                if shard_id in shard_keys:
                    events = None
                    if spec.journal:
                        events = rd.shard_events_path(shard_id).read_text()
                    shard_ctx.store_artifact(
                        shard_keys[shard_id], artifact, events
                    )
                files[rd.shard_path(shard_id).name] = json_text(artifact)
            if rd is not None:
                rd.commit(files, None if failed else "scan")
            if not failed:
                break
            retry_jobs: list[dict[str, Any]] = []
            exhausted: list[tuple[int, str]] = []
            for job, cause in sorted(
                failed, key=lambda item: item[0]["shard_id"]
            ):
                shard_id = job["shard_id"]
                if shard_attempts[shard_id] >= MAX_SHARD_ATTEMPTS:
                    exhausted.append((shard_id, cause))
                else:
                    retry_jobs.append(job)
            if exhausted:
                if stream is not None:
                    # Only now: a failed attempt that will be retried
                    # stays open, so the run does not look finished
                    # between a crash and the shard's re-execution.
                    for shard_id, cause in exhausted:
                        stream.close_shard(shard_id, f"failed: {cause}")
                detail = "; ".join(
                    f"shard {shard_id}: {cause}"
                    for shard_id, cause in exhausted
                )
                raise PartialScanError(
                    f"{len(exhausted)} scan shard(s) failed after "
                    f"{MAX_SHARD_ATTEMPTS} attempts ({detail}); "
                    "completed shard artifacts are persisted — fix the "
                    "cause and rerun with --resume",
                    [shard_id for shard_id, _ in exhausted],
                )
            remaining = retry_jobs
        for artifact in sorted(results, key=lambda a: a["shard_id"]):
            payloads[artifact["shard_id"]] = artifact
            stages_run.append(f"scan[{artifact['shard_id']}]")

    # Deterministic merge order regardless of which shards ran live.
    return (
        [payloads[shard_id] for shard_id in range(spec.shards)],
        shard_attempts,
        cache_hits,
    )

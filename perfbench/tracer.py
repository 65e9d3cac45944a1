"""Outside-in layer tracer for the DSAV pipeline.

The benchmark measures ``src/`` without changing it: this module wraps
the public entry points of each layer (``LAYER_POINTS``) from the
outside, records one span per call and sums a few per-call values, and
restores every original attribute afterwards.

Spans live in four flat arrays per process (kind, parent, start, end),
so recording one costs a few appends and two clock reads.  Forked
shard workers inherit the installed wrappers and the buffer; each
worker writes out the spans it recorded itself when its
``run_scan_shard`` call returns.  The workload process writes its own
buffer when the tracer is finished.  :func:`load_trace` merges the
files back into one span list, and :func:`self_times` turns it into
per-span self time: a span's duration minus the part of it that its
child spans cover.

Clock: ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, one clock
shared by every process, so spans from different processes and the
benchmark's own timestamps sit on one timeline.

The same machinery with only the coarse ``STAGE_POINTS`` (called a
handful of times per pipeline run) is the stage clock of untraced
timed runs; it is how those runs find where the build ends and the
scan stage begins.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
import uuid
from array import array
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class Point:
    """One wrapped entry point.

    ``target`` is ``"module:attr"`` or ``"module:Class.method"``.
    ``value`` maps ``(args, result)`` to a number summed per point (bytes
    encoded, events processed, ...).  ``note`` maps ``(args, result)``
    to a small dict kept with the call's start and end times.  A point
    with ``span=False`` records only its note, no span, so it never
    counts as attributed time.  ``boundary`` marks the call a forked
    worker runs: on return the worker writes out its own spans.
    """

    layer: str
    target: str
    value: Callable[[tuple, Any], float] | None = None
    note: Callable[[tuple, Any], dict] | None = None
    span: bool = True
    boundary: bool = False

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.target.partition(':')[2]}"


def _result(args, result) -> float:
    return float(result or 0)


def _len_result(args, result) -> float:
    return float(len(result))


def _len_arg1(args, result) -> float:
    return float(len(args[1]))


def _snapshot_written(args, result) -> float:
    return 1.0 if result else 0.0


def _blob_note(args, result) -> dict:
    return {"bytes": len(result)}


def _build_note(args, result) -> dict:
    _scenario, blob, source = result
    return {"source": source, "bytes": len(blob) if blob else 0}


def _shard_note(args, result) -> dict:
    return {
        "shard": result.get("shard_id"),
        "timings": dict(result.get("timings") or {}),
    }


def _pipeline_note(args, result) -> dict:
    return {
        "scan_stats": {
            str(k): v for k, v in (result.scan_stats or {}).items()
        },
        "cache_hits": list(result.cache_hits),
        "scenario_source": result.scenario_source,
    }


#: Stage clock: coarse points that bound the pipeline stages.  Every
#: run (timed and traced) installs these; each fires O(1) times per
#: pipeline run.
STAGE_POINTS: tuple[Point, ...] = (
    Point("run", "repro.core.pipeline:run_pipeline",
          note=_pipeline_note, span=False),
    Point("scenarios", "repro.scenarios.compiled:build_or_load",
          note=_build_note),
    Point("scenarios", "repro.scenarios.compiled:serialize_scenario",
          note=_blob_note),
    Point("scenarios", "repro.scenarios.compiled:write_artifact_bytes"),
    Point("collector", "repro.core.collection:Collector.absorb_payload"),
    Point("analyze", "repro.core.campaign:Campaign.results_dict"),
    Point("report", "repro.core.campaign:Campaign.full_report"),
)

#: Names of the stage points that end the build stage.
BUILD_POINTS = frozenset(
    {
        "scenarios.build_or_load",
        "scenarios.serialize_scenario",
        "scenarios.write_artifact_bytes",
    }
)

#: Names of every stage point that ``pipeline_runs`` reads.
STAGE_NAMES = frozenset(point.name for point in STAGE_POINTS)

#: Every layer entry point the traced run wraps, in report order.
LAYER_POINTS: tuple[Point, ...] = STAGE_POINTS + (
    Point("pipeline", "repro.core.pipeline:run_scan_shard",
          note=_shard_note, boundary=True),
    Point("scenarios", "repro.scenarios.internet:build_internet"),
    Point("scanner", "repro.core.scanner:Scanner.schedule_campaign"),
    Point("scanner", "repro.core.scanner:ScanClient.send_query"),
    Point("followup", "repro.core.followup:FollowUpEngine.launch"),
    Point("events", "repro.netsim.events:EventLoop.run", value=_result),
    Point("events", "repro.netsim.events:EventLoop.run_until",
          value=_result),
    Point("fabric", "repro.netsim.fabric:Fabric.send"),
    Point("routing", "repro.netsim.routing:RoutingTable.lookup"),
    Point("faults", "repro.netsim.faults:FaultInjector.drop_reason"),
    Point("faults", "repro.netsim.faults:FaultInjector.delivery_mods"),
    Point("faults", "repro.netsim.faults:FaultInjector.apply_route_events"),
    Point("codec", "repro.dns.message:Message.to_wire", value=_len_result),
    Point("codec", "repro.dns.message:Message.from_wire", value=_len_arg1),
    Point("host", "repro.dns.transport:DNSHost.handle_packet"),
    Point("host", "repro.netsim.fabric:Host.handle_packet"),
    Point("resolver", "repro.dns.resolver:RecursiveResolver.handle_dns"),
    Point("resolver",
          "repro.dns.resolver:RecursiveResolver.handle_dns_response"),
    Point("auth", "repro.dns.auth:AuthoritativeServer.handle_dns"),
    Point("collector", "repro.core.collection:Collector.on_record"),
    Point("collector", "repro.core.collection:Collector.canonicalize"),
    Point("journal", "repro.obs.journal:Journal.flush", value=_result),
    Point("journal", "repro.obs.journal:merge_shard_journals"),
    Point("journal", "repro.obs.journal:append_classifications"),
    Point("stream", "repro.obs.stream:TelemetrySnapshotter.snapshot",
          value=_snapshot_written),
    Point("metrics", "repro.obs.metrics:MetricsRegistry.merge_payload"),
    Point("campaign",
          "repro.campaigns.supervisor:CampaignSupervisor.save_schedule"),
    Point("evolution", "repro.campaigns.evolution:evolve_spec"),
    Point("shardcache", "repro.core.pipeline:ShardCache.load"),
    Point("shardcache", "repro.core.pipeline:ShardCache.store"),
    Point("ledger", "repro.obs.ledger:Ledger.record"),
)

#: Module each layer key stands for, as printed in the layer table.
LAYER_MODULES = {
    "pipeline": "core.pipeline",
    "scenarios": "scenarios",
    "scanner": "core.scanner",
    "followup": "core.followup",
    "events": "netsim.events",
    "fabric": "netsim.fabric",
    "routing": "netsim.routing",
    "faults": "netsim.faults",
    "codec": "dns.message",
    "host": "dns.transport",
    "resolver": "dns.resolver",
    "auth": "dns.auth",
    "collector": "core.collection",
    "analyze": "core.campaign:results",
    "report": "core.campaign:report",
    "journal": "obs.journal",
    "stream": "obs.stream",
    "metrics": "obs.metrics",
    "campaign": "campaigns.supervisor",
    "evolution": "campaigns.evolution",
    "shardcache": "core.pipeline:shardcache",
    "ledger": "obs.ledger",
}


def _resolve(target: str) -> tuple[Any, str]:
    """``(owner, attribute)`` for a ``module:attr`` target."""
    module_name, _, path = target.partition(":")
    owner: Any = import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Installs span-recording wrappers and keeps the span buffer."""

    def __init__(
        self, points: tuple[Point, ...], spill_dir: Path | str
    ) -> None:
        self.points = tuple(points)
        self.spill_dir = Path(spill_dir)
        #: shared by every span of this workload run, in every process.
        self.run_id = uuid.uuid4().hex
        self.kinds = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = [-1]
        self.sums = [0.0] * len(self.points)
        self.notes: list[tuple[int, float, float, dict]] = []
        self.missing: list[str] = []
        self.owner_pid = os.getpid()
        self.pid = self.owner_pid
        self.base = 0
        self._spills = 0
        self._patches: list[tuple[Any, str, Any]] = []
        #: ``id(wrapper) -> (wrapper, original)``; holding the wrapper
        #: keeps its id from being reused while the tracer lives.
        self.wrappers: dict[int, tuple[Any, Any]] = {}

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, kind: int, point: Point):
        kinds, parents = self.kinds, self.parents
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter
        value, note = point.value, point.note
        if not point.span:
            notes = self.notes

            def observe(*args, **kwargs):
                start = clock()
                result = fn(*args, **kwargs)
                notes.append((kind, start, clock(), note(args, result)))
                return result

            return observe
        if value is None and note is None and not point.boundary:

            def span(*args, **kwargs):
                idx = len(kinds)
                kinds.append(kind)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()

            return span
        sums, notes, tracer = self.sums, self.notes, self

        def span_with_value(*args, **kwargs):
            if point.boundary:
                tracer._enter_process()
            idx = len(kinds)
            kinds.append(kind)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if point.boundary and tracer.pid != tracer.owner_pid:
                    spill = True
                else:
                    spill = False
            if value is not None:
                sums[kind] += value(args, result)
            if note is not None:
                notes.append((kind, start, ends[idx], note(args, result)))
            if spill:
                tracer._spill()
            return result

        return span_with_value

    def install(self) -> "Tracer":
        """Wrap every point; a point whose target is gone is skipped and
        listed in ``missing``."""
        for kind, point in enumerate(self.points):
            try:
                owner, attr = _resolve(point.target)
                raw = (
                    owner.__dict__[attr]
                    if isinstance(owner, type)
                    else getattr(owner, attr)
                )
            except (ImportError, AttributeError, KeyError):
                self.missing.append(point.target)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, kind, point))
            else:
                wrapped = self._wrap(raw, kind, point)
            self.wrappers[id(wrapped)] = (wrapped, raw)
            self._patch(owner, attr, raw, wrapped)
            if not isinstance(owner, type):
                # ``from module import f`` copies the function into
                # other namespaces; wrap every copy that is loaded.
                for module in list(sys.modules.values()):
                    if (
                        module is not owner
                        and getattr(module, "__name__", "").startswith(
                            "repro"
                        )
                        and getattr(module, attr, None) is raw
                    ):
                        self._patch(module, attr, raw, wrapped)
        return self

    def _patch(self, owner, attr: str, raw, wrapped) -> None:
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every original, including copies that modules
        imported after :meth:`install` took of a wrapper."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, obj in list(vars(module).items()):
                wrapped, raw = self.wrappers.get(id(obj), (None, None))
                if wrapped is obj:
                    setattr(module, attr, raw)

    # -- process boundaries ------------------------------------------------

    def _enter_process(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            # A forked worker: spans below ``base`` are the parent's
            # and stay with the parent; values restart from zero.
            self.pid = pid
            self.base = len(self.kinds)
            self.sums[:] = [0.0] * len(self.sums)
            self.notes.clear()

    def _spill(self) -> None:
        self._spills += 1
        self._write(self.spill_dir / f"spans-{self.pid}-{self._spills}.pkl")
        self.base = len(self.kinds)
        self.sums[:] = [0.0] * len(self.sums)
        self.notes.clear()

    def _write(self, path: Path) -> None:
        base = self.base
        payload = {
            "run_id": self.run_id,
            "pid": self.pid,
            "main": self.pid == self.owner_pid,
            "base": base,
            "names": [point.name for point in self.points],
            "layers": [point.layer for point in self.points],
            "kinds": self.kinds[base:],
            "parents": self.parents[base:],
            "starts": self.starts[base:],
            "ends": self.ends[base:],
            "sums": list(self.sums),
            "notes": list(self.notes),
            "missing": list(self.missing),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)

    def finish(self) -> None:
        """Uninstall and write the workload process's own spans."""
        self.uninstall()
        self._write(self.spill_dir / "spans-main.pkl")


# ---------------------------------------------------------------------------
# analysis (runs in the benchmark process; imports nothing from ``src/``)
# ---------------------------------------------------------------------------


@dataclass
class Trace:
    """Spans of one workload run, merged across its processes."""

    run_id: str
    names: list[str]
    layers: list[str]
    kinds: list[int] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    #: index of the process that recorded each span (0 = workload).
    procs: list[int] = field(default_factory=list)
    sums: list[float] = field(default_factory=list)
    #: spans recorded per point.
    counts: list[int] = field(default_factory=list)
    #: ``(point name, start, end, note dict, process index)``.
    notes: list[tuple[str, float, float, dict, int]] = field(
        default_factory=list
    )
    missing: list[str] = field(default_factory=list)


def load_trace(spill_dir: Path | str) -> Trace:
    """Merge the span files one workload run left in *spill_dir*.

    Span ids are per-process array indices; a forked worker's ids below
    its ``base`` point into the workload process's buffer, which the
    worker inherited.  The workload process's file comes first, so those
    ids stay valid; each worker's own spans are renumbered after it.
    """
    spill_dir = Path(spill_dir)
    files = sorted(spill_dir.glob("spans-*.pkl"))
    payloads = []
    for path in files:
        with open(path, "rb") as handle:
            payloads.append(pickle.load(handle))
    payloads.sort(key=lambda p: (not p["main"], p["pid"]))
    if not payloads or not payloads[0]["main"]:
        raise ValueError(f"no workload span file in {spill_dir}")
    first = payloads[0]
    strays = [p["pid"] for p in payloads if p["run_id"] != first["run_id"]]
    if strays:
        raise ValueError(f"span files of another run in {spill_dir}: {strays}")
    trace = Trace(
        run_id=first["run_id"],
        names=list(first["names"]),
        layers=list(first["layers"]),
        sums=[0.0] * len(first["names"]),
        missing=list(first["missing"]),
    )
    for proc, payload in enumerate(payloads):
        base = payload["base"]
        offset = len(trace.kinds) - base
        trace.kinds.extend(payload["kinds"])
        trace.parents.extend(
            parent if parent < base else parent + offset
            for parent in payload["parents"]
        )
        trace.starts.extend(payload["starts"])
        trace.ends.extend(payload["ends"])
        trace.procs.extend([proc] * len(payload["kinds"]))
        for kind, value in enumerate(payload["sums"]):
            trace.sums[kind] += value
        trace.notes.extend(
            (trace.names[kind], start, end, note, proc)
            for kind, start, end, note in payload["notes"]
        )
    trace.counts = [0] * len(trace.names)
    for kind in trace.kinds:
        trace.counts[kind] += 1
    return trace


def self_times(
    starts: list[float], ends: list[float], parents: list[int]
) -> list[float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to their parent's interval and merged before
    subtracting, so overlapping children (parallel worker processes
    under one parent span) are not counted twice.
    """
    covered = [0.0] * len(starts)
    order = sorted(
        (i for i, parent in enumerate(parents) if parent >= 0),
        key=lambda i: (parents[i], starts[i]),
    )
    current = -1
    reach = 0.0
    for i in order:
        parent = parents[i]
        if parent != current:
            current = parent
            reach = starts[parent]
        lo = max(starts[i], reach)
        hi = min(ends[i], ends[parent])
        if hi > lo:
            covered[parent] += hi - lo
            reach = hi
    return [
        max(0.0, end - start - cov)
        for start, end, cov in zip(starts, ends, covered)
    ]


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by *intervals*."""
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


@dataclass
class PipelineRun:
    """Stage boundaries of one ``run_pipeline`` call (one epoch)."""

    start: float
    build_end: float
    collect_start: float
    analyze_start: float
    report_start: float
    end: float
    note: dict


def pipeline_runs(trace: Trace) -> list[PipelineRun]:
    """Stage boundaries of every pipeline run, from the stage points.

    The build ends with the last build-stage call (build or cache load,
    serialize, publish) before the first collector merge, which opens
    the collect stage; analyze opens with ``results_dict`` and report
    with ``full_report``.  Only the workload process's spans count.
    """
    runs = []
    stage_kinds = {
        kind for kind, name in enumerate(trace.names) if name in STAGE_NAMES
    }
    calls = [
        (trace.names[k], s, e)
        for k, s, e, p in zip(
            trace.kinds, trace.starts, trace.ends, trace.procs
        )
        if p == 0 and k in stage_kinds
    ]
    for name, start, end, note, proc in sorted(
        trace.notes, key=lambda n: n[1]
    ):
        if name != "run.run_pipeline" or proc != 0:
            continue
        inside = [c for c in calls if start <= c[1] and c[2] <= end]

        def first(span_name: str) -> float:
            hits = [s for n, s, _ in inside if n == span_name]
            if not hits:
                raise ValueError(
                    f"pipeline run without a {span_name} call"
                )
            return min(hits)

        collect_start = first("collector.Collector.absorb_payload")
        build_end = max(
            (e for n, _, e in inside
             if n in BUILD_POINTS and e <= collect_start),
            default=None,
        )
        if build_end is None:
            raise ValueError("pipeline run without a build stage call")
        runs.append(
            PipelineRun(
                start=start,
                build_end=build_end,
                collect_start=collect_start,
                analyze_start=first("analyze.Campaign.results_dict"),
                report_start=first("report.Campaign.full_report"),
                end=end,
                note=note,
            )
        )
    if not runs:
        raise ValueError("no run_pipeline call was recorded")
    return runs


# ---------------------------------------------------------------------------
# the cProfile second opinion
# ---------------------------------------------------------------------------

#: cProfile module prefixes compared with the span layers.
PROFILE_GROUPS = {
    "events": ("netsim.events",),
    "fabric": ("netsim.fabric",),
    "codec": ("dns.message", "dns.name"),
    "resolver": ("dns.resolver",),
    "auth": ("dns.auth",),
    "collector": ("core.collection",),
}


def profile_shares(pstats_paths: list[Path]) -> dict[str, float]:
    """Share of profiled own time per ``PROFILE_GROUPS`` layer, over the
    dumps of every profiled shard."""
    import pstats

    stats = pstats.Stats(*map(str, pstats_paths)).stats
    total = 0.0
    per_group = dict.fromkeys(PROFILE_GROUPS, 0.0)
    for (filename, _line, _func), entry in stats.items():
        own = entry[2]
        total += own
        marker = f"{os.sep}repro{os.sep}"
        if marker not in filename:
            continue
        module = (
            filename.rsplit(marker, 1)[1]
            .removesuffix(".py")
            .replace(os.sep, ".")
        )
        for group, prefixes in PROFILE_GROUPS.items():
            if module.startswith(prefixes):
                per_group[group] += own
                break
    return {
        group: (own / total if total else 0.0)
        for group, own in per_group.items()
    }

"""Live telemetry streaming: the run observatory's data plane.

``telemetry.json`` and the probe journal are post-hoc: nothing can be
read until the campaign ends.  This module turns the run directory
into a *live* surface.  Each scan shard builds periodic snapshots —
metric deltas, open-span state, queue depth, retry/fault counters and
scan progress — and the pipeline parent appends every shard's to the
run's one ``telemetry-stream.ndjson``, which any number of readers
tail while the run is in flight (or replay afterwards).

Write side: :class:`TelemetrySnapshotter` → :class:`StreamWriter`
-----------------------------------------------------------------

A snapshot is a scan shard's one report to the pipeline parent, which
feeds its ``shard.health`` to the progress line and, when the run
streams, appends it to the stream file.  The shard forces one as it
starts and one once its scanner is built; after that, its one
per-probe callback calls :meth:`TelemetrySnapshotter.tick`, which
checks the monotonic clock and emits a snapshot every half second
(the pipeline's report interval).  A snapshot is one list of events:

* ``shard.health`` — the shard's live state as a typed event: pid,
  sim/wall time, probes sent vs planned, penetrations, retry counters,
  event-loop queue depth, and the open span stack.
* ``metrics.delta`` — the per-metric *change* since the previous
  snapshot (counters and histogram cells as increments, gauges as
  current values).  Summing an attempt's deltas reproduces the
  shard's final registry, so readers never need the end-of-run
  artifact.

A forked worker sends the list over its result pipe; an inline shard
hands it to the parent's relay directly.  Only a streamed run diffs a
registry into ``metrics.delta`` events.  The parent's
:class:`StreamWriter` appends the list as complete lines with a
**single** ``os.write``, so a reader never observes a torn line.

Every line carries a versioned envelope: schema version ``v``, the
shard id, a ``seq`` that rises within one execution (attempt) of the
shard, and both wall-clock (``t_wall``, epoch seconds) and simulated
(``t_sim``) timestamps.  Each attempt opens with its own
``stream.open``, so a re-executed shard appends a new attempt and
nothing is rewritten.  A shard out of attempts gets its
``stream.close`` from the parent, with a ``failed: …`` status.

Streaming shares the telemetry contract: it observes, it never steers.
Results, ``telemetry.json`` and the journal are byte-identical with
the stream on or off (the stream tests assert the results on a
faulted run in forked workers).

Read side: :class:`StreamReader` / :class:`RunStream` / :class:`RunHealth`
--------------------------------------------------------------------------

:class:`StreamReader` tails the file, tolerating torn tails.
:class:`RunStream` adds the run's end condition.  :class:`RunHealth`
folds the events into derived run state — per-shard progress and
rates, stalled-shard detection, a running penetration-rate estimate
with per-ASN top movers, recent drop reasons, and an accumulated
:class:`~repro.obs.metrics.MetricsRegistry` ready for Prometheus
export — counting each shard's latest attempt only.  That is the
surface ``repro-dsav watch`` renders.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..rundir import STREAM_FILE, RunDirectory, RunDirectoryError
from .metrics import METRICS_SCHEMA_VERSION, Histogram, MetricsRegistry
from .spans import current_stack

#: Version stamped as ``v`` into every stream event line.
STREAM_SCHEMA_VERSION = 1

#: Every event kind a telemetry stream may contain.
STREAM_EVENT_KINDS = frozenset(
    ("stream.open", "shard.health", "metrics.delta", "stream.close")
)

#: Compact single-line encoder for stream events.
_ENCODER = json.JSONEncoder(
    separators=(",", ":"), allow_nan=False, check_circular=False
)


# ---------------------------------------------------------------------------
# write side
# ---------------------------------------------------------------------------


def _envelope(
    kind: str, shard: int, seq: int, t_wall: float, t_sim
) -> dict[str, Any]:
    return {
        "v": STREAM_SCHEMA_VERSION,
        "kind": kind,
        "shard": shard,
        "seq": seq,
        "t_wall": round(t_wall, 6),
        "t_sim": t_sim,
    }


class TelemetrySnapshotter:
    """Periodic snapshot builder for one execution of a scan shard.

    The shard calls :meth:`tick` after each probe it sends; between
    snapshots a tick costs one ``time.monotonic()`` check.  Snapshots
    are paced on that clock, so a step of the wall clock never delays
    one; ``t_wall`` stamps stay epoch seconds.  Each snapshot's events
    go to *sink* as one list.

    ``registry`` (optional) is diffed at each snapshot into a
    ``metrics.delta`` event.  :meth:`attach` binds the live scanner
    whose counters (progress, retries, queue depth, sim time) health
    events carry.
    """

    def __init__(
        self,
        sink,
        *,
        shard_id: int = 0,
        interval: float = 1.0,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.sink = sink
        self.shard_id = shard_id
        self.interval = interval
        self.registry = registry
        self._seq = 0
        self._closed = False
        self._next_due = float("-inf")
        self._scanner = None
        # Previous registry state, flattened for delta computation:
        # name -> {labels: value-or-histogram-cells}.
        self._last: dict[str, dict[tuple, Any]] = {}

    # -- scanner binding -------------------------------------------------

    def attach(self, scanner) -> None:
        """Source health fields from *scanner* (and its event loop)."""
        self._scanner = scanner

    # -- emission --------------------------------------------------------

    def tick(self) -> None:
        """Snapshot if the interval has elapsed since the last one."""
        if time.monotonic() >= self._next_due:
            self.snapshot()

    def _envelope(self, kind: str, t_wall: float) -> dict[str, Any]:
        scanner = self._scanner
        t_sim = scanner.fabric.now if scanner is not None else None
        event = _envelope(kind, self.shard_id, self._seq, t_wall, t_sim)
        self._seq += 1
        return event

    def _health_fields(self) -> dict[str, Any]:
        scanner = self._scanner
        fields: dict[str, Any] = {"pid": os.getpid()}
        if scanner is not None:
            fields.update(scanner.progress_stats())
            fields["queue_depth"] = scanner.fabric.loop.pending()
        spans = current_stack()
        if spans:
            fields["spans"] = spans
        return fields

    def _metric_deltas(self) -> list[dict[str, Any]]:
        """Changed samples per metric family since the last snapshot."""
        registry = self.registry
        if registry is None:
            return []
        families: list[dict[str, Any]] = []
        for metric in registry.metrics():
            last = self._last.setdefault(metric.name, {})
            changed: list[list] = []
            if isinstance(metric, Histogram):
                for labels, sample in metric.samples():
                    prev = last.get(labels)
                    if prev is not None and prev["count"] == sample["count"]:
                        continue
                    base_counts = (
                        prev["counts"] if prev is not None else None
                    )
                    delta = {
                        "counts": [
                            c - (base_counts[i] if base_counts else 0)
                            for i, c in enumerate(sample["counts"])
                        ],
                        "count": sample["count"]
                        - (prev["count"] if prev else 0),
                        "sum": sample["sum"] - (prev["sum"] if prev else 0.0),
                    }
                    changed.append([list(labels), delta])
                    last[labels] = {
                        "counts": list(sample["counts"]),
                        "count": sample["count"],
                        "sum": sample["sum"],
                    }
            elif metric.kind == "gauge":
                for labels, value in metric.samples():
                    if last.get(labels) == value:
                        continue
                    changed.append([list(labels), value])
                    last[labels] = value
            else:
                for labels, value in metric.samples():
                    prev = last.get(labels, 0)
                    if value == prev:
                        continue
                    changed.append([list(labels), value - prev])
                    last[labels] = value
            if not changed:
                continue
            family: dict[str, Any] = {
                "name": metric.name,
                "kind": metric.kind,
                "label_names": list(metric.label_names),
                "deterministic": metric.deterministic,
                "samples": changed,
            }
            if isinstance(metric, Histogram):
                family["buckets"] = list(metric.buckets)
            families.append(family)
        return families

    def snapshot(
        self, *, force: bool = False, status: str = "running"
    ) -> int:
        """Emit one snapshot (health + metric deltas); returns events
        emitted.  Throttled to ``interval`` unless *force*."""
        if self._closed:
            return 0
        mono = time.monotonic()
        if not force and mono < self._next_due:
            return 0
        self._next_due = mono + self.interval
        now = time.time()
        events: list[dict[str, Any]] = []
        if self._seq == 0:
            opening = self._envelope("stream.open", now)
            opening["pid"] = os.getpid()
            opening["interval"] = self.interval
            events.append(opening)
        health = self._envelope("shard.health", now)
        health.update(self._health_fields())
        health["status"] = status
        events.append(health)
        deltas = self._metric_deltas()
        if deltas:
            event = self._envelope("metrics.delta", now)
            event["deltas"] = deltas
            events.append(event)
        self.sink(events)
        return len(events)

    def close(self, status: str = "complete") -> None:
        """Emit a final snapshot plus the ``stream.close`` terminator.

        Idempotent.
        """
        if self._closed:
            return
        self.snapshot(force=True, status=status)
        closing = self._envelope("stream.close", time.time())
        closing["status"] = status
        closing["events"] = self._seq
        self.sink([closing])
        self._closed = True


class StreamWriter:
    """The run's one telemetry stream, appended by the pipeline parent
    with every shard's snapshots, whichever process scanned it."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        #: shard id -> the next ``seq`` of its latest attempt.
        self._next_seq: dict[int, int] = {}

    def write(self, events: list[dict[str, Any]]) -> None:
        for event in events:
            self._next_seq[event["shard"]] = event["seq"] + 1
        data = "".join(_ENCODER.encode(event) + "\n" for event in events)
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            # One write() of complete lines: readers see all of them or
            # none — never a torn line, even if we die right after.
            os.write(fd, data.encode())
        finally:
            os.close(fd)

    def close_shard(self, shard_id: int, status: str) -> None:
        """End *shard_id*'s latest attempt with a ``stream.close``,
        opening one first if the shard never streamed in this run."""
        now = time.time()
        events = []
        seq = self._next_seq.get(shard_id)
        if seq is None:
            opening = _envelope("stream.open", shard_id, 0, now, None)
            opening["pid"] = os.getpid()
            events.append(opening)
            seq = 1
        closing = _envelope("stream.close", shard_id, seq, now, None)
        closing["status"] = status
        closing["events"] = seq + 1
        events.append(closing)
        self.write(events)


# ---------------------------------------------------------------------------
# read side
# ---------------------------------------------------------------------------


def validate_stream_events(events: list[dict[str, Any]]) -> None:
    """Structural schema check; raises ValueError with a diagnosis."""

    def fail(index: int, message: str) -> None:
        raise ValueError(f"invalid stream event {index}: {message}")

    last_seq: dict[int, int] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            fail(index, "not an object")
        if event.get("v") != STREAM_SCHEMA_VERSION:
            fail(index, f"v={event.get('v')!r}")
        if event.get("kind") not in STREAM_EVENT_KINDS:
            fail(index, f"unknown kind {event.get('kind')!r}")
        shard = event.get("shard")
        if not isinstance(shard, int):
            fail(index, "missing shard id")
        seq = event.get("seq")
        if not isinstance(seq, int):
            fail(index, "missing seq")
        # seq rises within an attempt; a new attempt restarts it.
        if event["kind"] != "stream.open" and seq <= last_seq.get(shard, -1):
            fail(index, f"seq {seq} not monotonic for shard {shard}")
        last_seq[shard] = seq
        if not isinstance(event.get("t_wall"), (int, float)):
            fail(index, "missing t_wall")


class StreamReader:
    """Incremental reader of one telemetry stream file.

    ``poll()`` returns the complete events appended since the previous
    call.  A partial (torn) final line is left unconsumed until its
    newline arrives; a line that fails to parse is counted in
    ``invalid_lines`` and skipped.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.offset = 0
        self.invalid_lines = 0

    def poll(self) -> list[dict[str, Any]]:
        try:
            with self.path.open("rb") as handle:
                handle.seek(self.offset)
                chunk = handle.read()
        except OSError:
            return []
        # Only consume through the last complete line; a torn tail
        # stays on disk until its newline lands.
        end = chunk.rfind(b"\n")
        if end < 0:
            return []
        self.offset += end + 1
        events: list[dict[str, Any]] = []
        for raw in chunk[: end + 1].splitlines():
            if not raw.strip():
                continue
            try:
                events.append(json.loads(raw))
            except ValueError:
                self.invalid_lines += 1
        return events


class RunStream:
    """The telemetry stream of one run directory."""

    def __init__(self, run_dir: Path | str) -> None:
        self.run_dir = Path(run_dir)
        self._reader = StreamReader(self.run_dir / STREAM_FILE)
        #: shard id -> whether its latest attempt has closed.
        self._closed: dict[int, bool] = {}

    def poll(self) -> list[dict[str, Any]]:
        """New events, in the order the parent appended them."""
        events = self._reader.poll()
        for event in events:
            kind = event.get("kind")
            if kind == "stream.open":
                self._closed[event.get("shard")] = False
            elif kind == "stream.close":
                self._closed[event.get("shard")] = True
        return events

    def finished(self) -> bool:
        """Whether no further stream events can arrive: the run's
        manifest, read afresh, commits its ``results.json``, or every
        shard it promises has closed its latest attempt in the events
        polled so far.  A killed attempt never closes; the parent closes
        a shard that is out of attempts just before the run fails as
        partial."""
        rd = RunDirectory(self.run_dir)
        try:
            if rd.committed(rd.results_path.name):
                return True
            shards = int(rd.manifest["spec"]["shards"])
        except (RunDirectoryError, KeyError, TypeError):
            return False
        return all(self._closed.get(shard, False) for shard in range(shards))


# ---------------------------------------------------------------------------
# derived health
# ---------------------------------------------------------------------------


@dataclass
class ShardView:
    """Rolling state of one shard, updated per absorbed event."""

    shard: int
    status: str = "waiting"
    pid: int | None = None
    planned: int = 0
    sent: int = 0
    suppressed: int = 0
    penetrations: int = 0
    retransmitted: int = 0
    retries_shed: int = 0
    retries_exhausted: int = 0
    queue_depth: int = 0
    sim_time: float | None = None
    last_wall: float | None = None
    spans: list[str] = field(default_factory=list)
    #: probes/s between the two most recent health events.
    rate: float = 0.0
    _prev: tuple[float, int] | None = None

    def absorb_health(self, event: dict[str, Any]) -> None:
        self.status = event.get("status", "running")
        self.pid = event.get("pid", self.pid)
        for name in (
            "planned", "sent", "suppressed", "penetrations",
            "retransmitted", "retries_shed", "retries_exhausted",
            "queue_depth",
        ):
            if name in event:
                setattr(self, name, event[name])
        self.spans = event.get("spans", [])
        sim = event.get("t_sim")
        if isinstance(sim, (int, float)):
            self.sim_time = sim
        wall = event.get("t_wall")
        if isinstance(wall, (int, float)):
            if self._prev is not None:
                prev_wall, prev_sent = self._prev
                span = wall - prev_wall
                if span > 0:
                    self.rate = max(0.0, (self.sent - prev_sent) / span)
            self._prev = (wall, self.sent)
            self.last_wall = wall


class RunHealth:
    """Fold a run's event stream into derived run-level state.

    Feed every event through :meth:`absorb`; read per-shard views from
    ``shards``, run totals from :meth:`totals`, and the Prometheus
    surface from :meth:`registry` (the accumulated metric deltas plus
    ``watch_*`` meta-gauges).  A shard's ``stream.open`` starts a new
    attempt: the view and metrics of its earlier attempt are dropped,
    so a re-executed shard is counted once.
    """

    def __init__(self) -> None:
        self.shards: dict[int, ShardView] = {}
        self.events_absorbed = 0
        #: most recent (wall, reason, asn, delta) drop observations.
        self.recent_drops: deque = deque(maxlen=16)
        #: shard id -> the metric deltas of its latest attempt, folded.
        self._registries: dict[int, MetricsRegistry] = {}

    # -- ingestion -------------------------------------------------------

    def absorb(self, event: dict[str, Any]) -> None:
        self.events_absorbed += 1
        shard = event.get("shard")
        if not isinstance(shard, int):
            return
        kind = event.get("kind")
        if kind == "stream.open":
            self.shards[shard] = ShardView(
                shard, status="running", pid=event.get("pid"),
                last_wall=event.get("t_wall"),
            )
            self._registries[shard] = MetricsRegistry()
            return
        view = self.shards.get(shard)
        if view is None:
            view = self.shards[shard] = ShardView(shard)
        if kind == "shard.health":
            view.absorb_health(event)
        elif kind == "metrics.delta":
            deltas = event.get("deltas", [])
            registry = self._registries.setdefault(shard, MetricsRegistry())
            registry.merge_payload(
                {"schema_version": METRICS_SCHEMA_VERSION, "metrics": deltas}
            )
            wall = event.get("t_wall")
            for family in deltas:
                if family.get("name") != "fabric_drops_total":
                    continue
                for labels, delta in family.get("samples", ()):
                    reason = labels[0] if labels else "?"
                    asn = labels[1] if len(labels) > 1 else "?"
                    self.recent_drops.append((wall, reason, asn, delta))
            if isinstance(wall, (int, float)):
                view.last_wall = wall
        elif kind == "stream.close":
            view.status = event.get("status", "complete")
            view.last_wall = event.get("t_wall", view.last_wall)

    def _by_first_label(self, name: str) -> dict[str, int]:
        """Metric *name* summed across shards, keyed by its first label."""
        totals: dict[str, int] = {}
        for registry in self._registries.values():
            metric = registry.get(name)
            if metric is None:
                continue
            for labels, value in metric.samples():
                key = labels[0] if labels else "?"
                totals[key] = totals.get(key, 0) + value
        return totals

    @property
    def asn_penetrations(self) -> dict[str, int]:
        """Penetrations per ASN (the top-mover source)."""
        return self._by_first_label("scan_penetrations_by_asn_total")

    @property
    def drop_reasons(self) -> dict[str, int]:
        """Fabric drops per reason."""
        return self._by_first_label("fabric_drops_total")

    # -- derived state ---------------------------------------------------

    def totals(self) -> dict[str, int | float]:
        views = self.shards.values()
        return {
            "shards": len(self.shards),
            "planned": sum(v.planned for v in views),
            "sent": sum(v.sent for v in views),
            "suppressed": sum(v.suppressed for v in views),
            "penetrations": sum(v.penetrations for v in views),
            "retransmitted": sum(v.retransmitted for v in views),
            "rate": sum(v.rate for v in views if v.status == "running"),
        }

    def penetration_rate(self) -> float | None:
        """Running penetrations-per-probe estimate, or None pre-probe."""
        totals = self.totals()
        if not totals["sent"]:
            return None
        return totals["penetrations"] / totals["sent"]

    def top_movers(self, n: int = 5) -> list[tuple[str, int]]:
        """The *n* ASNs with the most accumulated penetrations."""
        return sorted(
            self.asn_penetrations.items(),
            key=lambda item: (-item[1], item[0]),
        )[:n]

    def stalled(self, now: float, threshold: float) -> list[int]:
        """Shards still running whose last event is older than
        *threshold* wall seconds."""
        return sorted(
            view.shard
            for view in self.shards.values()
            if view.status == "running"
            and view.last_wall is not None
            and now - view.last_wall > threshold
        )

    def eta_seconds(self) -> float | None:
        """Remaining probes over the current aggregate rate."""
        totals = self.totals()
        remaining = totals["planned"] - totals["sent"]
        if remaining <= 0 or totals["rate"] <= 0:
            return None
        return remaining / totals["rate"]

    def registry(self) -> MetricsRegistry:
        """Accumulated metric deltas plus ``watch_*`` meta-gauges.

        Rendering this with
        :func:`repro.obs.export.to_prometheus` is the run's live
        ``/metrics`` surface.
        """
        registry = MetricsRegistry()
        for shard in sorted(self._registries):
            registry.merge(self._registries[shard])
        totals = self.totals()
        registry.gauge(
            "watch_shards_total", "shard streams discovered"
        ).set(len(self.shards))
        running = sum(
            1 for v in self.shards.values() if v.status == "running"
        )
        registry.gauge(
            "watch_shards_running", "shards currently streaming"
        ).set(running)
        registry.gauge(
            "watch_probes_planned", "planned probes across shards"
        ).set(totals["planned"])
        registry.gauge(
            "watch_probes_sent", "probes sent across shards"
        ).set(totals["sent"])
        registry.gauge(
            "watch_penetrations", "penetrations across shards"
        ).set(totals["penetrations"])
        rate = self.penetration_rate()
        if rate is not None:
            registry.gauge(
                "watch_penetration_rate",
                "running penetrations-per-probe estimate",
            ).set(round(rate, 6))
        return registry

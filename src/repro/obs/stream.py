"""Live telemetry streaming: the run observatory's data plane.

PR 3's ``telemetry.json`` and PR 4's journal are post-hoc: nothing can
be read until the campaign ends.  This module turns the run directory
into a *live* surface.  Each scan shard appends periodic snapshots —
metric deltas, open-span state, queue depth, retry/fault counters and
scan progress — to its own ``telemetry-stream-NNN.ndjson``, and any
number of readers tail those files while the run is in flight (or
replay them afterwards).

Write side: :class:`TelemetrySnapshotter`
-----------------------------------------

The scan shard's one per-probe callback calls
:meth:`TelemetrySnapshotter.tick`, which checks the wall clock and
emits a snapshot whenever the configured interval has elapsed.  The
first tick snapshots at once.  A snapshot is one or two lines:

* ``shard.health`` — the shard's live state as a typed event: pid,
  sim/wall time, probes sent vs planned, penetrations, retry counters,
  event-loop queue depth, and the open span stack.
* ``metrics.delta`` — the per-metric *change* since the previous
  snapshot (counters and histogram cells as increments, gauges as
  current values).  Summing a stream's deltas reproduces the shard's
  final registry, so readers never need the end-of-run artifact.

Every line carries a versioned envelope: schema version ``v``, the
shard id, a per-shard monotonic ``seq``, and both wall-clock
(``t_wall``, epoch seconds — merge key across shards) and simulated
(``t_sim``) timestamps.  Lines are buffered complete and flushed with
a **single** ``os.write`` per snapshot, so a reader never observes a
torn line and a SIGKILLed shard's stream still ends on a valid line.

Streaming shares the telemetry contract: it observes, it never steers.
Results, ``telemetry.json`` and the journal are byte-identical with
snapshots on or off, at any snapshot interval (the stream tests assert
the results on a faulted run in forked workers).

Read side: :class:`StreamReader` / :class:`RunStream` / :class:`RunHealth`
--------------------------------------------------------------------------

:class:`StreamReader` tails one shard file, tolerating torn tails and
mid-run truncation (a re-executed shard rewrites its stream from
scratch).  :class:`RunStream` discovers and merges every shard stream
of a run directory by ``(t_wall, shard, seq)``.  :class:`RunHealth`
folds the merged events into derived run state: per-shard progress and
rates, stalled-shard detection, a running penetration-rate estimate
with per-ASN top movers, recent drop reasons, and an accumulated
:class:`~repro.obs.metrics.MetricsRegistry` ready for Prometheus
export — the surface ``repro-dsav watch`` renders and the future
campaign-as-a-service daemon will serve from ``/metrics``.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .metrics import Histogram, MetricsRegistry
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


class TelemetrySnapshotter:
    """Periodic snapshot writer for one scan shard.

    The shard calls :meth:`tick` after each probe it sends; between
    snapshots a tick costs one ``time.time()`` check.

    ``registry`` (optional) is diffed at each snapshot into a
    ``metrics.delta`` event.  :meth:`attach` binds the live scanner
    whose counters (progress, retries, queue depth, sim time) health
    events carry.
    """

    def __init__(
        self,
        path: Path | str,
        *,
        shard_id: int = 0,
        interval: float = 1.0,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.path = Path(path)
        self.shard_id = shard_id
        self.interval = interval
        self.registry = registry
        self.events_written = 0
        self._seq = 0
        self._fd: int | None = None
        self._closed = False
        self._next_due = 0.0
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
        now = time.time()
        if now >= self._next_due:
            self.snapshot(now=now)

    def _open_file(self) -> int:
        # O_TRUNC: a re-executed shard (crash recovery) starts a fresh
        # stream; readers treat the shrink as a rewind.
        fd = os.open(
            self.path,
            os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
            0o644,
        )
        self._fd = fd
        return fd

    def _envelope(self, kind: str, t_wall: float) -> dict[str, Any]:
        scanner = self._scanner
        t_sim = scanner.fabric.now if scanner is not None else None
        event = {
            "v": STREAM_SCHEMA_VERSION,
            "kind": kind,
            "shard": self.shard_id,
            "seq": self._seq,
            "t_wall": round(t_wall, 6),
            "t_sim": t_sim,
        }
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
        self,
        *,
        force: bool = False,
        now: float | None = None,
        status: str = "running",
    ) -> int:
        """Emit one snapshot (health + metric deltas); returns lines
        written.  Throttled to ``interval`` unless *force*."""
        if self._closed:
            return 0
        if now is None:
            now = time.time()
        if not force and now < self._next_due:
            return 0
        self._next_due = now + self.interval
        lines: list[str] = []
        if self._seq == 0:
            opening = self._envelope("stream.open", now)
            opening["pid"] = os.getpid()
            opening["interval"] = self.interval
            lines.append(_ENCODER.encode(opening))
        health = self._envelope("shard.health", now)
        health.update(self._health_fields())
        health["status"] = status
        lines.append(_ENCODER.encode(health))
        deltas = self._metric_deltas()
        if deltas:
            event = self._envelope("metrics.delta", now)
            event["deltas"] = deltas
            lines.append(_ENCODER.encode(event))
        self._write(lines)
        return len(lines)

    def close(self, status: str = "complete") -> None:
        """Emit a final snapshot plus the ``stream.close`` terminator.

        Idempotent, and safe to call from a SIGTERM handler: whatever
        state is current gets flushed in complete lines.
        """
        if self._closed:
            return
        now = time.time()
        self.snapshot(force=True, now=now, status=status)
        closing = self._envelope("stream.close", now)
        closing["status"] = status
        closing["events"] = self._seq
        self._write([_ENCODER.encode(closing)])
        self._closed = True
        fd = self._fd
        if fd is not None:
            self._fd = None
            os.close(fd)

    def _write(self, lines: list[str]) -> None:
        if not lines:
            return
        fd = self._fd if self._fd is not None else self._open_file()
        # One write() of complete lines: readers see all of them or
        # none — never a torn line, even if we die right after.
        os.write(fd, ("\n".join(lines) + "\n").encode())
        self.events_written += len(lines)


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
        if shard in last_seq and seq <= last_seq[shard]:
            fail(index, f"seq {seq} not monotonic for shard {shard}")
        last_seq[shard] = seq
        if not isinstance(event.get("t_wall"), (int, float)):
            fail(index, "missing t_wall")


class StreamReader:
    """Incremental reader of one shard's telemetry stream.

    ``poll()`` returns the complete events appended since the previous
    call.  A partial (torn) final line is left unconsumed until its
    newline arrives; a line that fails to parse is counted in
    ``invalid_lines`` and skipped; a file that *shrank* (a re-executed
    shard truncated it) rewinds the reader to the start.
    """

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.offset = 0
        self.invalid_lines = 0
        self.closed = False
        self.last_event_wall: float | None = None

    def poll(self) -> list[dict[str, Any]]:
        try:
            with self.path.open("rb") as handle:
                size = handle.seek(0, os.SEEK_END)
                if size < self.offset:
                    # Shard re-execution truncated the stream: rewind.
                    self.offset = 0
                    self.closed = False
                handle.seek(self.offset)
                chunk = handle.read()
        except OSError:
            return []
        if not chunk:
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
                event = json.loads(raw)
            except ValueError:
                self.invalid_lines += 1
                continue
            events.append(event)
            wall = event.get("t_wall")
            if isinstance(wall, (int, float)):
                self.last_event_wall = wall
            if event.get("kind") == "stream.close":
                self.closed = True
        return events


def merge_events(events: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Order a batch of multi-shard events by ``(t_wall, shard, seq)``."""
    return sorted(
        events,
        key=lambda e: (
            e.get("t_wall", 0.0),
            e.get("shard", -1),
            e.get("seq", -1),
        ),
    )


class RunStream:
    """Merged view over every shard stream of one run directory."""

    GLOB = "telemetry-stream-*.ndjson"

    def __init__(self, run_dir: Path | str) -> None:
        self.run_dir = Path(run_dir)
        self.readers: dict[Path, StreamReader] = {}
        self._expected_shards: int | None = None

    def _discover(self) -> None:
        for path in sorted(self.run_dir.glob(self.GLOB)):
            if path not in self.readers:
                self.readers[path] = StreamReader(path)

    def poll(self) -> list[dict[str, Any]]:
        """New events across every shard, merged by ``(t_wall, shard,
        seq)``.  Late-appearing shard files are picked up on the fly."""
        self._discover()
        batch: list[dict[str, Any]] = []
        for reader in self.readers.values():
            batch.extend(reader.poll())
        return merge_events(batch)

    def _expected(self) -> int | None:
        """Shard count promised by the run's manifest, if readable."""
        if self._expected_shards is None:
            try:
                with open(self.run_dir / "manifest.json") as handle:
                    manifest = json.load(handle)
                self._expected_shards = int(manifest["spec"]["shards"])
            except (OSError, ValueError, KeyError, TypeError):
                return None
        return self._expected_shards

    def finished(self) -> bool:
        """Whether no further stream events can arrive.

        True once the run's ``results.json`` exists (the pipeline is
        past the scan stage) or every stream the manifest promises has
        appeared and seen its ``stream.close`` terminator.  A stream
        that closed early proves nothing about shards that have not
        opened theirs yet, so the manifest's shard count gates the
        all-closed path.
        """
        if (self.run_dir / "results.json").exists():
            return True
        self._discover()
        if not self.readers:
            return False
        if not all(reader.closed for reader in self.readers.values()):
            return False
        expected = self._expected()
        return expected is None or len(self.readers) >= expected

    @property
    def invalid_lines(self) -> int:
        return sum(r.invalid_lines for r in self.readers.values())


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
    """Fold a merged event stream into derived run-level state.

    Feed every event through :meth:`absorb`; read per-shard views from
    ``shards``, run totals from :meth:`totals`, and the Prometheus
    surface from :meth:`registry` (the accumulated metric deltas plus
    ``watch_*`` meta-gauges).
    """

    def __init__(self) -> None:
        self.shards: dict[int, ShardView] = {}
        self.events_absorbed = 0
        #: accumulated penetration deltas per ASN (top-mover source).
        self.asn_penetrations: dict[str, int] = {}
        #: accumulated drop deltas per reason.
        self.drop_reasons: dict[str, int] = {}
        #: most recent (wall, reason, asn, delta) drop observations.
        self.recent_drops: deque = deque(maxlen=16)
        self._registry = MetricsRegistry()

    # -- ingestion -------------------------------------------------------

    def absorb(self, event: dict[str, Any]) -> None:
        self.events_absorbed += 1
        shard = event.get("shard")
        if not isinstance(shard, int):
            return
        view = self.shards.get(shard)
        if view is None:
            view = self.shards[shard] = ShardView(shard)
        kind = event.get("kind")
        if kind == "shard.health":
            view.absorb_health(event)
        elif kind == "metrics.delta":
            self._absorb_deltas(event)
            wall = event.get("t_wall")
            if isinstance(wall, (int, float)):
                view.last_wall = wall
        elif kind == "stream.open":
            if view.status == "waiting":
                view.status = "running"
            view.pid = event.get("pid", view.pid)
            view.last_wall = event.get("t_wall", view.last_wall)
        elif kind == "stream.close":
            view.status = event.get("status", "complete")
            view.last_wall = event.get("t_wall", view.last_wall)

    def _absorb_deltas(self, event: dict[str, Any]) -> None:
        wall = event.get("t_wall", 0.0)
        for family in event.get("deltas", ()):
            name = family.get("name")
            kind = family.get("kind")
            samples = family.get("samples", ())
            label_names = tuple(family.get("label_names", ()))
            deterministic = bool(family.get("deterministic", True))
            if kind == "counter":
                metric = self._registry.counter(
                    name, "", label_names, deterministic=deterministic
                )
                for labels, delta in samples:
                    metric.inc(delta, tuple(labels))
            elif kind == "gauge":
                metric = self._registry.gauge(
                    name, "", label_names, deterministic=deterministic
                )
                for labels, value in samples:
                    metric.set_max(value, tuple(labels))
            elif kind == "histogram":
                metric = self._registry.histogram(
                    name, "", label_names,
                    buckets=tuple(family.get("buckets", ())),
                    deterministic=deterministic,
                )
                for labels, cells in samples:
                    key = tuple(labels)
                    mine = metric._values.get(key)
                    if mine is None:
                        metric._values[key] = {
                            "counts": list(cells["counts"]),
                            "sum": cells["sum"],
                            "count": cells["count"],
                        }
                    else:
                        mine["counts"] = [
                            a + b
                            for a, b in zip(mine["counts"], cells["counts"])
                        ]
                        mine["sum"] += cells["sum"]
                        mine["count"] += cells["count"]
            if name == "scan_penetrations_by_asn_total":
                for labels, delta in samples:
                    asn = labels[0] if labels else "?"
                    self.asn_penetrations[asn] = (
                        self.asn_penetrations.get(asn, 0) + delta
                    )
            elif name == "fabric_drops_total":
                for labels, delta in samples:
                    reason = labels[0] if labels else "?"
                    asn = labels[1] if len(labels) > 1 else "?"
                    self.drop_reasons[reason] = (
                        self.drop_reasons.get(reason, 0) + delta
                    )
                    self.recent_drops.append((wall, reason, asn, delta))

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
        registry = self._registry
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

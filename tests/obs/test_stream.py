"""Tests for the live telemetry stream: writer, reader, merge, health."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.core.pipeline import CampaignSpec, run_pipeline
from repro.core.scanner import ScanConfig
from repro.netsim.faults import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import (
    RunHealth,
    RunStream,
    StreamReader,
    TelemetrySnapshotter,
    merge_events,
    validate_stream_events,
)


def read_events(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------


def test_snapshotter_envelope_and_lifecycle(tmp_path):
    path = tmp_path / "telemetry-stream-003.ndjson"
    snapshotter = TelemetrySnapshotter(path, shard_id=3, interval=100.0)
    for _ in range(5):
        snapshotter.tick()
    snapshotter.close()
    events = read_events(path)
    validate_stream_events(events)
    assert events[0]["kind"] == "stream.open"
    assert events[0]["interval"] == 100.0
    assert events[-1]["kind"] == "stream.close"
    assert events[-1]["status"] == "complete"
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert all(e["shard"] == 3 for e in events)
    assert all(e["v"] == 1 for e in events)
    health = [e for e in events if e["kind"] == "shard.health"]
    # The first tick snapshots at once, the interval throttles the
    # other four, and close() takes the final snapshot.
    assert len(health) == 2


def test_snapshotter_close_is_idempotent(tmp_path):
    path = tmp_path / "s.ndjson"
    snapshotter = TelemetrySnapshotter(path, interval=0.001)
    snapshotter.tick()
    snapshotter.close()
    first = path.read_text()
    snapshotter.close()
    snapshotter.close(status="killed")
    assert path.read_text() == first


def test_snapshotter_rejects_bad_interval(tmp_path):
    with pytest.raises(ValueError, match="interval"):
        TelemetrySnapshotter(tmp_path / "s.ndjson", interval=0.0)


def test_metric_deltas_sum_to_final_registry(tmp_path):
    registry = MetricsRegistry()
    counter = registry.counter("c_total", "c", ("who",))
    gauge = registry.gauge("g_peak")
    hist = registry.histogram("h_seconds", "h", buckets=(1.0, 10.0))
    snapshotter = TelemetrySnapshotter(
        tmp_path / "s.ndjson", interval=100.0, registry=registry
    )
    for round_no in range(1, 4):
        counter.inc(round_no, ("a",))
        counter.inc(1, ("b",))
        gauge.set_max(round_no * 7)
        hist.observe(round_no * 4.0)
        snapshotter.snapshot(force=True)
    snapshotter.close()
    events = read_events(tmp_path / "s.ndjson")
    health = RunHealth()
    for event in events:
        health.absorb(event)
    merged = health.registry()
    assert merged.get("c_total").value(("a",)) == 1 + 2 + 3
    assert merged.get("c_total").value(("b",)) == 3
    assert merged.get("g_peak").value() == 21
    final = merged.get("h_seconds").value()
    assert final["count"] == 3
    assert final["counts"] == hist.value()["counts"]
    assert final["sum"] == pytest.approx(4.0 + 8.0 + 12.0)


def test_unchanged_metrics_emit_no_delta(tmp_path):
    registry = MetricsRegistry()
    counter = registry.counter("c_total")
    snapshotter = TelemetrySnapshotter(
        tmp_path / "s.ndjson", interval=100.0, registry=registry
    )
    counter.inc(5)
    snapshotter.snapshot(force=True)
    snapshotter.snapshot(force=True)  # nothing changed in between
    counter.inc(2)
    snapshotter.snapshot(force=True)
    deltas = [
        e for e in read_events(tmp_path / "s.ndjson")
        if e["kind"] == "metrics.delta"
    ]
    assert len(deltas) == 2
    assert deltas[0]["deltas"][0]["samples"] == [[[], 5]]
    assert deltas[1]["deltas"][0]["samples"] == [[[], 2]]


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------


def test_reader_tolerates_torn_tail(tmp_path):
    path = tmp_path / "s.ndjson"
    complete = json.dumps(
        {"v": 1, "kind": "shard.health", "shard": 0, "seq": 0,
         "t_wall": 1.0}
    )
    path.write_text(complete + "\n" + '{"v":1,"kind":"shard.hea')
    reader = StreamReader(path)
    events = reader.poll()
    assert len(events) == 1
    assert events[0]["seq"] == 0
    # The torn tail is not consumed; once its newline lands it parses.
    with path.open("a") as handle:
        handle.write('lth","shard":0,"seq":1,"t_wall":2.0}\n')
    events = reader.poll()
    assert len(events) == 1
    assert events[0]["seq"] == 1
    assert reader.invalid_lines == 0


def test_reader_skips_garbage_lines(tmp_path):
    path = tmp_path / "s.ndjson"
    good = json.dumps(
        {"v": 1, "kind": "shard.health", "shard": 0, "seq": 0,
         "t_wall": 1.0}
    )
    path.write_text("not json at all\n" + good + "\n")
    reader = StreamReader(path)
    events = reader.poll()
    assert len(events) == 1
    assert reader.invalid_lines == 1


def test_reader_rewinds_on_truncation(tmp_path):
    path = tmp_path / "s.ndjson"

    def line(seq):
        return json.dumps(
            {"v": 1, "kind": "shard.health", "shard": 0, "seq": seq,
             "t_wall": float(seq)}
        ) + "\n"

    path.write_text(line(0) + line(1) + line(2))
    reader = StreamReader(path)
    assert len(reader.poll()) == 3
    # A re-executed shard truncates and starts over.
    path.write_text(line(0))
    events = reader.poll()
    assert [e["seq"] for e in events] == [0]


def test_reader_missing_file_is_empty(tmp_path):
    assert StreamReader(tmp_path / "absent.ndjson").poll() == []


def test_merge_orders_by_wall_then_shard_then_seq():
    events = [
        {"t_wall": 2.0, "shard": 0, "seq": 5},
        {"t_wall": 1.0, "shard": 1, "seq": 0},
        {"t_wall": 1.0, "shard": 0, "seq": 1},
        {"t_wall": 1.0, "shard": 0, "seq": 0},
    ]
    merged = merge_events(events)
    assert [(e["t_wall"], e["shard"], e["seq"]) for e in merged] == [
        (1.0, 0, 0), (1.0, 0, 1), (1.0, 1, 0), (2.0, 0, 5),
    ]


def test_validate_rejects_non_monotonic_seq():
    events = [
        {"v": 1, "kind": "shard.health", "shard": 0, "seq": 1,
         "t_wall": 1.0},
        {"v": 1, "kind": "shard.health", "shard": 0, "seq": 1,
         "t_wall": 2.0},
    ]
    with pytest.raises(ValueError, match="not monotonic"):
        validate_stream_events(events)


# ---------------------------------------------------------------------------
# pipeline integration: determinism and shard equivalence
# ---------------------------------------------------------------------------


def minus_provenance(results):
    """Results payload without provenance, which records the spec
    (and therefore whether streaming was on)."""
    return {k: v for k, v in results.items() if k != "provenance"}


def run_streamed(
    tmp_path,
    name,
    *,
    shards,
    interval=0.001,
    stream=True,
    workers=0,
    faults=None,
    retries=0,
):
    spec = CampaignSpec.from_scan_config(
        seed=11,
        n_ases=30,
        shards=shards,
        config=ScanConfig(duration=45.0, max_retries=retries),
        stream=stream,
        faults=faults,
    )
    outcome = run_pipeline(
        spec,
        run_dir=tmp_path / name,
        workers=workers,
        snapshot_interval=interval,
    )
    return outcome


def accumulated_deterministic_deltas(run_dir):
    """Fold a run's stream deltas and keep the deterministic slice."""
    stream = RunStream(run_dir)
    health = RunHealth()
    for event in stream.poll():
        health.absorb(event)
    registry = health.registry()
    payload = registry.to_payload()
    slice_ = {}
    for family in payload["metrics"]:
        if family["name"].startswith("watch_"):
            continue
        # Deltas carry the deterministic flag end-to-end; only the
        # shard-order-independent slice must match across shardings.
        if not family.get("deterministic", True):
            continue
        if family["kind"] == "histogram":
            slice_[family["name"]] = [
                [labels, {"counts": v["counts"], "count": v["count"]}]
                for labels, v in family["samples"]
            ]
        elif family["kind"] == "gauge":
            continue
        else:
            slice_[family["name"]] = family["samples"]
    return slice_


def test_n_shard_stream_matches_single_shard(tmp_path):
    single = run_streamed(tmp_path, "one", shards=1)
    multi = run_streamed(tmp_path, "three", shards=3)
    assert minus_provenance(single.results) == minus_provenance(multi.results)
    one = accumulated_deterministic_deltas(tmp_path / "one")
    three = accumulated_deterministic_deltas(tmp_path / "three")
    assert one == three
    # Every shard produced a stream that opens and closes cleanly.
    for shard in range(3):
        events = read_events(
            tmp_path / "three" / f"telemetry-stream-{shard:03d}.ndjson"
        )
        validate_stream_events(events)
        assert events[0]["kind"] == "stream.open"
        assert events[-1]["kind"] == "stream.close"


BURST_LOSS = (
    Path(__file__).parents[2] / "examples" / "faultplans" / "burst-loss.json"
)


def test_streaming_never_changes_results(tmp_path):
    """A faulted, retried 4-shard campaign in forked workers: results
    are the same with streams on or off, and each worker's stream is
    complete down to its final probe count."""
    faulted = dict(
        shards=4,
        interval=0.05,
        workers=2,
        faults=FaultPlan.load(BURST_LOSS).to_payload(),
        retries=3,
    )
    on = run_streamed(tmp_path, "on", **faulted)
    off = run_streamed(tmp_path, "off", stream=False, **faulted)
    assert minus_provenance(on.results) == minus_provenance(off.results)
    assert not list((tmp_path / "off").glob("telemetry-stream-*"))
    for shard in range(4):
        events = read_events(
            tmp_path / "on" / f"telemetry-stream-{shard:03d}.ndjson"
        )
        validate_stream_events(events)
        kinds = {event["kind"] for event in events}
        assert events[0]["kind"] == "stream.open"
        assert {"shard.health", "metrics.delta"} <= kinds
        assert events[-1]["kind"] == "stream.close"
        health = [e for e in events if e["kind"] == "shard.health"]
        artifact = json.loads(
            (tmp_path / "on" / f"shard-{shard:03d}.json").read_text()
        )
        assert health[-1]["sent"] == artifact["metadata"]["probes_sent"]


def test_stream_requires_run_dir():
    spec = CampaignSpec.from_scan_config(
        seed=1, n_ases=10, shards=1,
        config=ScanConfig(duration=30.0), stream=True,
    )
    with pytest.raises(ValueError, match="requires a run directory"):
        run_pipeline(spec, workers=0)


def test_run_stream_finished_via_results_artifact(tmp_path):
    outcome = run_streamed(tmp_path, "done", shards=1)
    stream = RunStream(tmp_path / "done")
    assert stream.finished()
    events = stream.poll()
    assert events
    assert stream.poll() == []  # nothing new on a second poll


# ---------------------------------------------------------------------------
# crash tails
# ---------------------------------------------------------------------------


_KILLED_WRITER = textwrap.dedent(
    """
    import os, sys, time
    sys.path.insert(0, {src!r})
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.stream import TelemetrySnapshotter

    registry = MetricsRegistry()
    counter = registry.counter("c_total")
    snap = TelemetrySnapshotter(
        {path!r}, shard_id=0, interval=0.0001, registry=registry
    )
    print("ready", flush=True)
    while True:
        counter.inc()
        snap.tick()
    """
)


def test_sigkilled_shard_stream_ends_on_valid_line(tmp_path):
    """A SIGKILL mid-write must never leave a torn final line."""
    path = tmp_path / "telemetry-stream-000.ndjson"
    src = str(
        (os.path.dirname(__file__)) + "/../../src"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c",
         _KILLED_WRITER.format(src=src, path=str(path))],
        stdout=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline().strip() == b"ready"
        # Let it stream for a moment, then kill it mid-flight.
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if path.exists() and path.stat().st_size > 4096:
                break
            time.sleep(0.01)
        proc.kill()
    finally:
        proc.wait(timeout=10)
    raw = path.read_bytes()
    assert raw, "stream file never appeared"
    assert raw.endswith(b"\n")
    events = read_events(path)
    validate_stream_events(events)
    assert len(events) > 2
    # And the reader consumes the whole thing without complaints.
    reader = StreamReader(path)
    assert len(reader.poll()) == len(events)
    assert reader.invalid_lines == 0

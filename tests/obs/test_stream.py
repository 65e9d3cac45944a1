"""Tests for the live telemetry stream: writer, reader, health."""

import io
import json
import os
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
    STREAM_FILE,
    RunHealth,
    RunStream,
    StreamReader,
    StreamWriter,
    TelemetrySnapshotter,
    validate_stream_events,
)
from repro.obs.watch import run_watch

from ..conftest import minus_provenance

SRC = str(Path(__file__).parents[2] / "src")


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
    path = tmp_path / STREAM_FILE
    snapshotter = TelemetrySnapshotter(
        StreamWriter(path).write, shard_id=3, interval=100.0
    )
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
    snapshotter = TelemetrySnapshotter(
        StreamWriter(path).write, interval=0.001
    )
    snapshotter.tick()
    snapshotter.close()
    first = path.read_text()
    snapshotter.close()
    snapshotter.close(status="killed")
    assert path.read_text() == first


def test_snapshotter_rejects_bad_interval(tmp_path):
    with pytest.raises(ValueError, match="interval"):
        TelemetrySnapshotter(
            StreamWriter(tmp_path / "s.ndjson").write, interval=0.0
        )


def test_metric_deltas_sum_to_final_registry(tmp_path):
    registry = MetricsRegistry()
    counter = registry.counter("c_total", "c", ("who",))
    gauge = registry.gauge("g_peak")
    hist = registry.histogram("h_seconds", "h", buckets=(1.0, 10.0))
    snapshotter = TelemetrySnapshotter(
        StreamWriter(tmp_path / "s.ndjson").write,
        interval=100.0,
        registry=registry,
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
        StreamWriter(tmp_path / "s.ndjson").write,
        interval=100.0,
        registry=registry,
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


def test_reader_missing_file_is_empty(tmp_path):
    assert StreamReader(tmp_path / "absent.ndjson").poll() == []


def test_validate_rejects_non_monotonic_seq():
    events = [
        {"v": 1, "kind": "shard.health", "shard": 0, "seq": 1,
         "t_wall": 1.0},
        {"v": 1, "kind": "shard.health", "shard": 0, "seq": 1,
         "t_wall": 2.0},
    ]
    with pytest.raises(ValueError, match="not monotonic"):
        validate_stream_events(events)


def test_run_health_counts_only_the_latest_attempt():
    """A re-executed shard's stream.open supersedes what its killed
    attempt reported, so nothing is counted twice."""

    def attempt(sent, asn):
        def counter(name, label_names, labels, value):
            return {"name": name, "kind": "counter",
                    "label_names": label_names, "deterministic": True,
                    "samples": [[labels, value]]}

        return [
            {"kind": "stream.open", "seq": 0, "pid": 7},
            {"kind": "shard.health", "seq": 1, "planned": 100,
             "sent": sent, "penetrations": sent // 10},
            {"kind": "metrics.delta", "seq": 2, "deltas": [
                counter("scan_penetrations_by_asn_total", ["asn"],
                        [asn], sent // 10),
                counter("scan_probes_sent_total", [], [], sent),
            ]},
        ]

    closing = {"kind": "stream.close", "seq": 3, "status": "complete"}
    events = [
        dict(event, v=1, shard=1, t_wall=float(wall))
        for wall, event in enumerate(
            attempt(60, "64500") + attempt(40, "64501") + [closing]
        )
    ]
    validate_stream_events(events)  # seq restarts at the stream.open
    health = RunHealth()
    for event in events[:4]:  # the killed attempt, then the new open
        health.absorb(event)
    assert health.totals()["sent"] == 0
    assert "scan_probes_sent_total" not in health.registry()
    for event in events[4:]:
        health.absorb(event)
    totals = health.totals()
    assert (totals["shards"], totals["sent"], totals["penetrations"]) == (
        1, 40, 4,
    )
    assert health.shards[1].status == "complete"
    registry = health.registry()
    assert registry.get("scan_probes_sent_total").value() == 40
    assert registry.get("scan_penetrations_by_asn_total").samples() == [
        (("64501",), 4)
    ]
    assert health.top_movers() == [("64501", 4)]


# ---------------------------------------------------------------------------
# pipeline integration: determinism and shard equivalence (stream-off is
# the matrix world's stream=False cell)
# ---------------------------------------------------------------------------


def test_n_shard_stream_matches_single_shard(cell, reference):
    single = cell("shards=1")
    assert single.results() == reference.results()
    assert single.stream_deltas() == reference.stream_deltas()
    # Every shard's stream opens and closes cleanly, in the run's one
    # stream file.
    files = reference.run_dir.glob("telemetry-stream*")
    assert [path.name for path in files] == [STREAM_FILE]
    all_events = read_events(reference.run_dir / STREAM_FILE)
    validate_stream_events(all_events)
    for shard in range(reference.toggles["shards"]):
        events = [e for e in all_events if e["shard"] == shard]
        assert events[0]["kind"] == "stream.open"
        assert events[-1]["kind"] == "stream.close"


def run_streamed(
    tmp_path,
    name,
    *,
    shards,
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
    return run_pipeline(spec, run_dir=tmp_path / name, workers=workers)


BURST_LOSS = (
    Path(__file__).parents[2] / "examples" / "faultplans" / "burst-loss.json"
)


#: Kill shard 1's forked worker once, after its 200th probe.
CRASH_SHARD_1 = {
    "kind": "shard-crash", "shard": 1, "after_probes": 200, "mode": "kill",
}


def test_streaming_never_changes_results(tmp_path):
    """A faulted, retried 4-shard campaign in forked workers, whose
    shard 1 is killed once: `watch` follows the streamed run live to
    its end, reading the re-executed shard once, and the results equal
    those of the same run with streaming off."""
    plan = FaultPlan.load(BURST_LOSS).to_payload()
    plan["clauses"].append(CRASH_SHARD_1)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    run_dir = tmp_path / "on"
    results_path = tmp_path / "on.json"
    scan = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "scan", "--seed", "11",
         "--n-ases", "30", "--duration", "45", "--retries", "3",
         "--shards", "4", "--workers", "2", "--faults", str(plan_path),
         "--snapshots", "--quiet",
         "--run-dir", str(run_dir), "--json", str(results_path)],
        stdout=subprocess.DEVNULL,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    try:
        deadline = time.monotonic() + 60
        while not (run_dir / "manifest.json").exists():
            assert scan.poll() is None, "scan exited before its manifest"
            assert time.monotonic() < deadline
            time.sleep(0.01)
        followed = io.StringIO()
        assert run_watch(
            run_dir, json_mode=True, interval=0.02, timeout=60,
            out=followed,
        ) == 0
        assert scan.wait(timeout=120) == 0
    finally:
        if scan.poll() is None:
            scan.kill()
            scan.wait()
    events = [json.loads(line) for line in followed.getvalue().splitlines()]
    assert events == RunStream(run_dir).poll()
    validate_stream_events(events)
    assert [p.name for p in run_dir.glob("telemetry-stream*")] == [
        STREAM_FILE
    ]
    results = json.loads(results_path.read_text())
    health = RunHealth()
    for event in events:
        health.absorb(event)
    assert (
        health.registry().get("scan_probes_sent_total").value()
        == results["provenance"]["probes_sent"]
    )
    opens = [e["shard"] for e in events if e["kind"] == "stream.open"]
    assert sorted(opens) == [0, 1, 1, 2, 3]
    for shard in range(4):
        mine = [e for e in events if e["shard"] == shard]
        starts = [i for i, e in enumerate(mine) if e["kind"] == "stream.open"]
        latest = mine[starts[-1]:]
        assert latest[-1]["kind"] == "stream.close"
        assert latest[-1]["status"] == "complete"
        health_events = [e for e in latest if e["kind"] == "shard.health"]
        assert {"shard.health", "metrics.delta"} <= {
            e["kind"] for e in latest
        }
        artifact = json.loads(
            (run_dir / f"shard-{shard:03d}.json").read_text()
        )
        assert (
            health_events[-1]["sent"] == artifact["metadata"]["probes_sent"]
        )

    off = run_streamed(
        tmp_path, "off", stream=False, shards=4, workers=2, faults=plan,
        retries=3,
    )
    assert not list((tmp_path / "off").glob("telemetry-stream*"))
    assert minus_provenance(results) == minus_provenance(
        json.loads(json.dumps(off.results))
    )


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
    from repro.obs.stream import StreamWriter, TelemetrySnapshotter

    registry = MetricsRegistry()
    counter = registry.counter("c_total")
    snap = TelemetrySnapshotter(
        StreamWriter({path!r}).write, shard_id=0, interval=0.0001,
        registry=registry,
    )
    print("ready", flush=True)
    while True:
        counter.inc()
        snap.tick()
    """
)


def test_sigkilled_shard_stream_ends_on_valid_line(tmp_path):
    """A SIGKILL mid-write must never leave a torn final line."""
    path = tmp_path / STREAM_FILE
    proc = subprocess.Popen(
        [sys.executable, "-c",
         _KILLED_WRITER.format(src=SRC, path=str(path))],
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

"""Tests for the watch CLI engine: replay, dashboard, Prometheus."""

import io
import json
import time

from repro.cli import main
from repro.core.pipeline import CampaignSpec, run_pipeline
from repro.core.scanner import ScanConfig
from repro.obs.stream import (
    STREAM_FILE,
    RunHealth,
    RunStream,
    StreamWriter,
    TelemetrySnapshotter,
    validate_stream_events,
)
from repro.obs.watch import render_dashboard, run_watch

import pytest


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("watchrun") / "run"
    spec = CampaignSpec.from_scan_config(
        seed=5,
        n_ases=30,
        shards=2,
        config=ScanConfig(duration=45.0),
        stream=True,
    )
    run_pipeline(spec, run_dir=run_dir, workers=0)
    return run_dir


def test_watch_json_replays_full_stream(finished_run):
    out = io.StringIO()
    code = run_watch(finished_run, json_mode=True, once=True, out=out)
    assert code == 0
    events = [json.loads(line) for line in out.getvalue().splitlines()]
    validate_stream_events(events)
    # The replay equals what the merge layer reads directly.
    direct = RunStream(finished_run).poll()
    assert events == direct
    shards_seen = {e["shard"] for e in events}
    assert shards_seen == {0, 1}
    kinds = {e["kind"] for e in events}
    assert {"stream.open", "shard.health", "metrics.delta",
            "stream.close"} <= kinds


def test_watch_json_follow_terminates_on_finished_run(finished_run):
    # Without --once the watcher follows, notices the run is finished,
    # drains, and exits 0 rather than polling forever.
    out = io.StringIO()
    code = run_watch(
        finished_run, json_mode=True, interval=0.01, out=out
    )
    assert code == 0
    assert out.getvalue().count("stream.close") == 2


def test_watch_dashboard_renders_shard_rows(finished_run):
    out = io.StringIO()
    code = run_watch(finished_run, once=True, out=out)
    assert code == 0
    text = out.getvalue()
    assert "[finished]" in text
    assert "penetrations" in text
    # One row per shard.
    assert "    0 complete" in text
    assert "    1 complete" in text
    assert "top ASN movers" in text


def test_watch_prom_textfile_is_valid_prometheus(finished_run, tmp_path):
    prom = tmp_path / "watch.prom"
    code = run_watch(
        finished_run, once=True, prom_textfile=prom, out=io.StringIO()
    )
    assert code == 0
    text = prom.read_text()
    assert text.endswith("\n")
    families = set()
    for line in text.splitlines():
        assert line, "prometheus text format has no blank lines here"
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert kind in ("counter", "gauge", "histogram")
            families.add(name)
            continue
        if line.startswith("#"):
            continue
        # sample lines: name{labels} value
        name, _, value = line.rpartition(" ")
        float(value)  # parses as a number
        bare = name.split("{", 1)[0]
        root = (
            bare.rsplit("_bucket", 1)[0]
            .rsplit("_sum", 1)[0]
            .rsplit("_count", 1)[0]
        )
        assert root in families or bare in families
    assert any(f.startswith("watch_") for f in families)
    assert "scan_probes_sent_total" in families


@pytest.mark.parametrize("flag", ["--interval", "--timeout"])
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_watch_bad_interval_or_timeout_exits_two_with_one_line(
    capsys, finished_run, flag, value
):
    """Refused before the first poll: nothing is rendered."""
    assert main(["watch", str(finished_run), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1


def test_watch_timeout_on_streamless_run(tmp_path):
    # A directory with no streams and no results: times out with 2.
    code = run_watch(
        tmp_path,
        json_mode=True,
        interval=0.01,
        timeout=0.05,
        out=io.StringIO(),
        err=io.StringIO(),
    )
    assert code == 2


def test_watch_timeout_counts_from_the_last_event(tmp_path):
    """A run whose events stop before it finishes (its pipeline parent
    died) times out too, not only a run that never streamed."""
    (tmp_path / "manifest.json").write_text(
        json.dumps({"spec": {"shards": 1}})
    )
    TelemetrySnapshotter(
        StreamWriter(tmp_path / STREAM_FILE).write, shard_id=0
    ).snapshot(force=True)
    err = io.StringIO()
    started = time.monotonic()
    code = run_watch(
        tmp_path,
        json_mode=True,
        interval=0.05,
        timeout=0.3,
        out=io.StringIO(),
        err=err,
    )
    assert code == 2
    assert time.monotonic() - started < 1.0
    assert len(err.getvalue().splitlines()) == 1


def test_render_dashboard_flags_stalled_shards():
    health = RunHealth()
    health.absorb(
        {"v": 1, "kind": "shard.health", "shard": 0, "seq": 0,
         "t_wall": 100.0, "t_sim": 1.0, "pid": 42, "planned": 10,
         "sent": 3, "status": "running"}
    )
    text = render_dashboard(
        health, run_dir="x", now=200.0, stall_after=10.0
    )
    assert "STALLED" in text
    assert "000" in text
    fresh = render_dashboard(
        health, run_dir="x", now=101.0, stall_after=10.0
    )
    assert "STALLED" not in fresh


def test_failed_shard_row_stays_aligned_and_cause_printed_once(tmp_path):
    """A parent-written ``failed: <cause>`` close keeps the shard's row
    under its headers; the cause is printed once, below the table."""
    cause = "shard 1 worker died without a result (exitcode -9)"
    writer = StreamWriter(tmp_path / "telemetry-stream.ndjson")
    for shard in (0, 1):
        writer.write([
            {"v": 1, "kind": "stream.open", "shard": shard, "seq": 0,
             "t_wall": 100.0, "t_sim": None, "pid": 4200 + shard},
            {"v": 1, "kind": "shard.health", "shard": shard, "seq": 1,
             "t_wall": 101.0, "t_sim": 5.0, "pid": 4200 + shard,
             "planned": 300, "sent": 120, "status": "running"},
        ])
    writer.close_shard(1, f"failed: {cause}")
    health = RunHealth()
    for line in writer.path.read_text().splitlines():
        health.absorb(json.loads(line))
    assert health.shards[1].status == f"failed: {cause}"

    text = render_dashboard(health, run_dir="x", now=102.0, finished=True)
    lines = text.splitlines()
    header = next(line for line in lines if line.startswith("shard status"))
    row = next(line for line in lines if line.startswith("    1 "))
    assert row.find("failed ") == header.index("status")
    # A column wider than its header would push the last one, the span
    # ("-" here), right of its header.
    assert row.endswith("  -")
    assert len(row) - 1 == header.index("span")
    assert text.count(cause) == 1
    assert f"shard 001 failed: {cause}" in lines

"""Tests for the live scan progress reporter."""

import io

from repro.obs.progress import ProgressReporter, _format_eta


class TtyStream(io.StringIO):
    def isatty(self):
        return True


def test_eta_formatting():
    assert _format_eta(42) == "42s"
    assert _format_eta(61) == "1m01s"
    assert _format_eta(3600) == "1h00m"
    assert _format_eta(7325) == "2h02m"


def test_counts_accumulate_through_callbacks():
    reporter = ProgressReporter(io.StringIO(), total_shards=4)
    # Each report carries a shard's running totals; the latest one
    # replaces the shard's earlier reports.
    for sent in range(1, 8):
        reporter.update(
            0, {"planned": 100, "sent": sent, "penetrations": sent // 7}
        )
    reporter.shard_done()
    assert reporter.planned == 100
    assert reporter.sent == 7
    assert reporter.penetrations == 1
    assert reporter.shards_done == 1


def test_nontty_renders_plain_lines():
    stream = io.StringIO()
    reporter = ProgressReporter(stream, total_shards=2)
    # Non-tty throttling stretches to >= 5s between renders.
    assert reporter.min_interval >= 5.0
    reporter.update(0, {"planned": 10, "sent": 0})
    reporter.shard_done()  # forced render
    lines = stream.getvalue().splitlines()
    assert lines
    assert all(line.startswith("scan: probes") for line in lines)
    assert "\r" not in stream.getvalue()
    assert "shards 1/2" in lines[-1]


def test_tty_redraws_in_place_and_finishes_with_newline():
    stream = TtyStream()
    reporter = ProgressReporter(stream, total_shards=1)
    reporter.update(0, {"planned": 5, "sent": 1})
    reporter.finish()
    value = stream.getvalue()
    assert value.startswith("\r")
    assert value.endswith("\n")


def test_eta_appears_once_rate_is_known():
    stream = io.StringIO()
    reporter = ProgressReporter(stream)
    reporter.update(0, {"planned": 1_000_000, "sent": 1})
    reporter.shard_done()
    assert "eta " in stream.getvalue()


def test_silent_when_nothing_rendered():
    stream = TtyStream()
    reporter = ProgressReporter(stream, min_interval=0.0)
    # A reporter no shard fed (a run served from disk) prints nothing,
    # not a zero line.
    reporter.finish()
    assert stream.getvalue() == ""


def test_reused_shard_counts_toward_totals_not_rate():
    stream = io.StringIO()
    reporter = ProgressReporter(stream)
    # A resumed run credits 900 probes of a reused shard instantly; the
    # rate must come only from the 1 live probe, so the ETA does not
    # collapse to ~0.
    reporter.update(
        0, {"planned": 900, "sent": 900, "penetrations": 12}, reused=True
    )
    reporter.update(1, {"planned": 100, "sent": 1})
    assert reporter.sent == 901
    assert reporter.penetrations == 12
    elapsed = 10.0
    reporter._started -= elapsed
    line = reporter._line()
    assert "probes 901/1,000" in line
    # Rate reflects live work only (1 probe / ~10s ≈ 0/s rendered),
    # nowhere near the 90/s a naive sent/elapsed would claim.
    assert reporter._total("sent", live=True) == 1
    assert "  0/s  " in line
    assert "90/s" not in line


def test_seeding_everything_disables_eta():
    stream = io.StringIO()
    reporter = ProgressReporter(stream)
    reporter.update(0, {"planned": 500, "sent": 500}, reused=True)
    # Fully-resumed run: no live probes, rate 0, no bogus ETA.
    line = reporter._line()
    assert "  0/s  " in line
    assert "eta" not in line

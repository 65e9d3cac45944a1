"""Tests for telemetry export: schema validation, Prometheus, rendering."""

import pytest

from repro.durable import write_atomic
from repro.obs.export import (
    dump_telemetry,
    load_telemetry,
    payload_to_prometheus,
    render_telemetry,
    telemetry_payload,
    to_prometheus,
    validate_telemetry,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder


def sample_registry():
    registry = MetricsRegistry()
    registry.counter(
        "fabric_drops_total", "drops", ("reason", "asn")
    ).inc(4, ("loss", ""))
    registry.gauge("depth_peak").set_max(12)
    hist = registry.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    return registry


def test_write_load_roundtrip(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("pipeline"):
        pass
    payload = telemetry_payload(
        sample_registry(), recorder, spec={"seed": 7}
    )
    path = tmp_path / "telemetry.json"
    write_atomic(path, dump_telemetry(payload))
    assert load_telemetry(path) == payload


def test_write_refuses_invalid():
    with pytest.raises(ValueError, match="invalid telemetry"):
        dump_telemetry({"kind": "telemetry"})


def test_validate_diagnoses_malformations():
    good = telemetry_payload(sample_registry())
    validate_telemetry(good)

    bad = dict(good, kind="something-else")
    with pytest.raises(ValueError, match="kind"):
        validate_telemetry(bad)

    bad = dict(good, schema_version=99)
    with pytest.raises(ValueError, match="schema_version"):
        validate_telemetry(bad)

    import copy

    bad = copy.deepcopy(good)
    bad["metrics"]["metrics"][0]["samples"] = [[["only-one-label"], 1]]
    with pytest.raises(ValueError, match="label"):
        validate_telemetry(bad)

    bad = copy.deepcopy(good)
    for family in bad["metrics"]["metrics"]:
        if family["kind"] == "histogram":
            family["samples"][0][1]["counts"] = [1]
    with pytest.raises(ValueError, match="bucket/count"):
        validate_telemetry(bad)


def test_prometheus_text_format():
    text = to_prometheus(sample_registry())
    assert "# TYPE fabric_drops_total counter" in text
    assert 'fabric_drops_total{reason="loss",asn=""} 4' in text
    assert "# TYPE depth_peak gauge" in text
    assert "depth_peak 12" in text
    # Histogram buckets are cumulative with an +Inf catch-all.
    assert 'lat_seconds_bucket{le="0.1"} 1' in text
    assert 'lat_seconds_bucket{le="1"} 2' in text
    assert 'lat_seconds_bucket{le="+Inf"} 3' in text
    assert "lat_seconds_count 3" in text
    assert text.endswith("\n")


def test_payload_to_prometheus_accepts_telemetry_envelope():
    payload = telemetry_payload(sample_registry())
    assert payload_to_prometheus(payload) == to_prometheus(sample_registry())


def test_render_telemetry_sections():
    recorder = SpanRecorder()
    with recorder.span("pipeline"):
        with recorder.span("scan"):
            pass
    text = render_telemetry(telemetry_payload(sample_registry(), recorder))
    assert "Stage / span timings" in text
    assert "pipeline" in text
    assert "Counters" in text
    assert 'fabric_drops_total{reason="loss",asn=""}' in text
    assert "Gauges (peaks)" in text
    assert "Histograms" in text
    assert "lat_seconds: count=3" in text


def test_histogram_quantile_interpolates():
    from repro.obs.metrics import histogram_quantile

    buckets = (0.1, 1.0)
    counts = [1, 1, 1]  # one observation per bucket incl. +Inf
    assert histogram_quantile(buckets, counts, 0.0) == 0.0
    # Median falls in the (0.1, 1.0] bucket, halfway through it.
    assert histogram_quantile(buckets, counts, 0.5) == pytest.approx(0.55)
    # Quantiles landing in the +Inf bucket clamp to the last finite bound.
    assert histogram_quantile(buckets, counts, 0.99) == 1.0
    # Empty histogram renders as 0 rather than NaN.
    assert histogram_quantile(buckets, [0, 0, 0], 0.5) == 0.0
    with pytest.raises(ValueError, match="quantile"):
        histogram_quantile(buckets, counts, 1.5)


def test_histogram_quantile_edge_cases():
    from repro.obs.metrics import histogram_quantile

    buckets = (0.1, 1.0)
    # Empty histogram: every quantile is 0, not NaN or a crash.
    assert histogram_quantile(buckets, [0, 0, 0], 0.0) == 0.0
    assert histogram_quantile(buckets, [0, 0, 0], 1.0) == 0.0
    # All observations in one (interior) bucket: quantiles interpolate
    # linearly within that bucket's bounds and never leave it.
    counts = [0, 10, 0]
    assert histogram_quantile(buckets, counts, 0.0) == pytest.approx(0.1)
    assert histogram_quantile(buckets, counts, 0.5) == pytest.approx(0.55)
    assert histogram_quantile(buckets, counts, 1.0) == pytest.approx(1.0)
    # All observations beyond the last finite bound (+Inf-only): every
    # quantile clamps to the last finite bucket bound.
    inf_only = [0, 0, 7]
    for q in (0.0, 0.5, 0.99, 1.0):
        assert histogram_quantile(buckets, inf_only, q) == 1.0
    # All observations in the *first* bucket interpolate down from 0.
    first_only = [4, 0, 0]
    assert histogram_quantile(buckets, first_only, 0.5) == pytest.approx(
        0.05
    )


def test_obs_json_payload_with_zero_histograms():
    from repro.obs.export import obs_json_payload

    registry = MetricsRegistry()
    registry.counter("probes_total", "probes").inc(3)
    payload = telemetry_payload(registry)
    enriched = obs_json_payload(payload)
    # No histogram families → an explicit empty mapping, not a missing
    # key and not a crash.
    assert enriched["histogram_summaries"] == {}
    assert enriched["metrics"] == payload["metrics"]


def test_histogram_summaries_and_json_payload():
    from repro.obs.export import histogram_summaries, obs_json_payload

    payload = telemetry_payload(sample_registry())
    summaries = histogram_summaries(payload)
    assert set(summaries) == {"lat_seconds"}
    ((labels, summary),) = summaries["lat_seconds"]
    assert labels == []
    assert summary["count"] == 3
    assert summary["sum"] == pytest.approx(5.55)
    assert summary["p50"] == pytest.approx(0.55)
    assert summary["p99"] == 1.0  # +Inf bucket clamps
    enriched = obs_json_payload(payload)
    assert enriched["histogram_summaries"] == summaries
    # The source payload is untouched.
    assert "histogram_summaries" not in payload


def test_render_telemetry_includes_percentiles():
    text = render_telemetry(telemetry_payload(sample_registry()))
    assert "p50=" in text
    assert "p95=" in text
    assert "p99=" in text


def test_write_prom_textfile_atomic(tmp_path):
    path = tmp_path / "node" / "repro.prom"
    path.parent.mkdir()
    write_atomic(path, to_prometheus(sample_registry()))
    assert "depth_peak 12" in path.read_text()
    # Rewrites replace in place and leave no tmp litter behind.
    write_atomic(path, "changed 1\n")
    assert path.read_text() == "changed 1\n"
    assert [p.name for p in path.parent.iterdir()] == ["repro.prom"]

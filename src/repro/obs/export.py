"""Telemetry export: Prometheus text format and ``telemetry.json``.

The staged pipeline writes one ``telemetry.json`` per run directory,
next to the stage artifacts (``shard-NNN.json``, ``observations.json``,
``results.json``).  It is deliberately **not** part of
``results.json`` — campaign results stay byte-identical with metrics on
or off — and it is versioned so readers refuse artifacts they cannot
interpret instead of guessing.

Layout::

    {
      "schema_version": 1,
      "kind": "telemetry",
      "spec": {...},            # echo of the campaign spec (optional)
      "metrics": {...},         # MetricsRegistry payload
      "spans": {...}            # SpanRecorder payload (wall/sim tree)
    }

``repro-dsav obs <run-dir>`` renders this file.
``test_telemetry_json_written_and_valid`` validates it with
:func:`validate_telemetry`, and
``test_four_shard_deterministic_slice_matches_one_shard`` compares the
deterministic slice across shard counts with
:func:`deterministic_counters`.
"""

from __future__ import annotations

import json
from pathlib import Path

from .metrics import (
    METRICS_SCHEMA_VERSION,
    Histogram,
    MetricsRegistry,
    deterministic_samples,
    histogram_quantile,
)
from .spans import SPANS_SCHEMA_VERSION, SpanRecorder, render_span_nodes

#: Version of the telemetry.json envelope.
TELEMETRY_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# generic versioned-envelope helpers
# ---------------------------------------------------------------------------
#
# Every machine-readable observatory document (ledger.json, the diff
# and trend --json payloads) and every campaign record (campaign.json,
# schedule.json) shares one envelope convention: ``schema_version`` +
# ``kind`` at the top level, and canonical rendering (sorted keys,
# two-space indent, trailing newline) so identical content is
# identical bytes.


def dump_envelope(payload: dict) -> str:
    """Canonical text form: byte-identical for identical content."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_envelope(path: Path, *, kind: str, version: int) -> dict:
    """The envelope stored at *path*; raises ValueError, one line naming
    the file, unless it is a JSON object of *kind* and *version*."""
    try:
        payload = json.loads(path.read_bytes())
    except ValueError as exc:
        raise ValueError(f"{path} is not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    found = (payload.get("kind"), payload.get("schema_version"))
    if found != (kind, version):
        raise ValueError(
            f"{path} holds kind={found[0]!r} schema_version={found[1]!r}, "
            f"this code reads kind={kind!r} schema_version={version}"
        )
    return payload


# ---------------------------------------------------------------------------
# telemetry.json
# ---------------------------------------------------------------------------


def telemetry_payload(
    registry: MetricsRegistry,
    recorder: SpanRecorder | None = None,
    *,
    spec: dict | None = None,
) -> dict:
    payload: dict = {
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "kind": "telemetry",
        "metrics": registry.to_payload(),
    }
    if spec is not None:
        payload["spec"] = spec
    if recorder is not None:
        payload["spans"] = recorder.to_payload()
    return payload


def dump_telemetry(payload: dict) -> str:
    """*payload*, validated, as the text of ``telemetry.json``."""
    validate_telemetry(payload)
    return json.dumps(payload, indent=2) + "\n"


def load_telemetry(path: Path | str) -> dict:
    payload = json.loads(Path(path).read_text())
    validate_telemetry(payload)
    return payload


def validate_telemetry(payload: dict) -> None:
    """Structural schema check; raises ValueError with a diagnosis."""

    def fail(message: str) -> None:
        raise ValueError(f"invalid telemetry artifact: {message}")

    if not isinstance(payload, dict):
        fail("top level is not an object")
    if payload.get("schema_version") != TELEMETRY_SCHEMA_VERSION:
        fail(
            f"schema_version={payload.get('schema_version')!r}, "
            f"expected {TELEMETRY_SCHEMA_VERSION}"
        )
    if payload.get("kind") != "telemetry":
        fail(f"kind={payload.get('kind')!r}, expected 'telemetry'")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        fail("missing metrics section")
    if metrics.get("schema_version") != METRICS_SCHEMA_VERSION:
        fail("metrics section has wrong schema_version")
    families = metrics.get("metrics")
    if not isinstance(families, list):
        fail("metrics.metrics is not a list")
    for family in families:
        name = family.get("name")
        if not isinstance(name, str) or not name:
            fail("metric family without a name")
        kind = family.get("kind")
        if kind not in ("counter", "gauge", "histogram"):
            fail(f"metric {name}: unknown kind {kind!r}")
        if not isinstance(family.get("label_names"), list):
            fail(f"metric {name}: label_names is not a list")
        if not isinstance(family.get("deterministic"), bool):
            fail(f"metric {name}: missing deterministic flag")
        samples = family.get("samples")
        if not isinstance(samples, list):
            fail(f"metric {name}: samples is not a list")
        n_labels = len(family["label_names"])
        for sample in samples:
            if not (isinstance(sample, list) and len(sample) == 2):
                fail(f"metric {name}: malformed sample {sample!r}")
            labels, value = sample
            if len(labels) != n_labels:
                fail(
                    f"metric {name}: sample has {len(labels)} label "
                    f"values for {n_labels} label names"
                )
            if kind == "histogram":
                if not isinstance(value, dict) or not {
                    "counts", "sum", "count"
                } <= set(value):
                    fail(f"metric {name}: malformed histogram sample")
                if len(value["counts"]) != len(family.get("buckets", [])) + 1:
                    fail(f"metric {name}: bucket/count length mismatch")
            elif not isinstance(value, (int, float)):
                fail(f"metric {name}: non-numeric sample value {value!r}")
        if kind == "histogram" and not isinstance(
            family.get("buckets"), list
        ):
            fail(f"metric {name}: histogram without buckets")
    spans = payload.get("spans")
    if spans is not None:
        if not isinstance(spans, dict):
            fail("spans section is not an object")
        if spans.get("schema_version") != SPANS_SCHEMA_VERSION:
            fail("spans section has wrong schema_version")
        if not isinstance(spans.get("spans"), list):
            fail("spans.spans is not a list")


#: Quantiles summarized for every histogram in human/JSON output.
SUMMARY_QUANTILES = (("p50", 0.5), ("p95", 0.95), ("p99", 0.99))


def histogram_summaries(payload: dict) -> dict:
    """Per-histogram percentile estimates from the fixed buckets.

    Returns ``{name: [[labels, {count, sum, p50, p95, p99}], ...]}``
    for every histogram family in a telemetry (or bare registry)
    payload, so scripts get latencies without re-deriving quantiles
    from bucket counts.
    """
    metrics = payload.get("metrics", payload)
    if "metrics" in metrics and "schema_version" in metrics:
        families = metrics["metrics"]
    else:
        families = payload["metrics"]
    summaries: dict = {}
    for family in families:
        if family["kind"] != "histogram":
            continue
        buckets = family["buckets"]
        rows = []
        for labels, sample in family["samples"]:
            row = {"count": sample["count"], "sum": sample["sum"]}
            for key, q in SUMMARY_QUANTILES:
                row[key] = round(
                    histogram_quantile(buckets, sample["counts"], q), 6
                )
            rows.append([labels, row])
        summaries[family["name"]] = rows
    return summaries


def obs_json_payload(payload: dict) -> dict:
    """The machine-readable ``obs --json`` document.

    The telemetry payload as stored, extended with derived
    ``histogram_summaries`` — scriptable without parsing Prometheus
    text or re-implementing quantile math.
    """
    validate_telemetry(payload)
    out = dict(payload)
    out["histogram_summaries"] = histogram_summaries(payload)
    return out


def deterministic_counters(payload: dict) -> dict:
    """Shard-order-independent metric samples of a telemetry payload.

    This is the slice that must be identical between an N-shard and a
    1-shard run; wall-clock and occupancy metrics are excluded.
    """
    return deterministic_samples(payload["metrics"])


# ---------------------------------------------------------------------------
# Prometheus text format
# ---------------------------------------------------------------------------


def _label_text(label_names, label_values, extra: str = "") -> str:
    parts = [
        f'{name}="{value}"'
        for name, value in zip(label_names, label_values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for metric in registry.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for labels, sample in metric.samples():
                cumulative = 0
                for bound, count in zip(
                    metric.buckets, sample["counts"]
                ):
                    cumulative += count
                    le = 'le="%g"' % bound
                    labelled = _label_text(metric.label_names, labels, le)
                    lines.append(
                        f"{metric.name}_bucket{labelled} {cumulative}"
                    )
                cumulative += sample["counts"][-1]
                labelled = _label_text(
                    metric.label_names, labels, 'le="+Inf"'
                )
                lines.append(
                    f"{metric.name}_bucket{labelled} {cumulative}"
                )
                lines.append(
                    f"{metric.name}_sum"
                    f"{_label_text(metric.label_names, labels)}"
                    f" {sample['sum']:g}"
                )
                lines.append(
                    f"{metric.name}_count"
                    f"{_label_text(metric.label_names, labels)}"
                    f" {sample['count']}"
                )
        else:
            for labels, value in metric.samples():
                lines.append(
                    f"{metric.name}"
                    f"{_label_text(metric.label_names, labels)} {value:g}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def payload_to_prometheus(payload: dict) -> str:
    """Prometheus text for a telemetry (or registry) payload."""
    metrics = payload.get("metrics", payload)
    if "metrics" in metrics and "schema_version" in metrics:
        registry = MetricsRegistry.from_payload(metrics)
    else:
        registry = MetricsRegistry.from_payload(payload)
    return to_prometheus(registry)


# ---------------------------------------------------------------------------
# human-readable rendering (the `repro-dsav obs` view)
# ---------------------------------------------------------------------------


def _section(title: str) -> list[str]:
    return ["", title, "-" * len(title)]


def render_telemetry(payload: dict) -> str:
    """Stage/span flame summary plus top-line counters and histograms."""
    validate_telemetry(payload)
    lines: list[str] = []

    spans = payload.get("spans")
    if spans and spans.get("spans"):
        lines += _section("Stage / span timings (wall seconds, % of parent)")
        lines.append(render_span_nodes(spans["spans"]))

    registry = MetricsRegistry.from_payload(payload["metrics"])

    counters = [
        m for m in registry.metrics() if m.kind == "counter"
    ]
    if counters:
        lines += _section("Counters")
        for metric in counters:
            for labels, value in metric.samples():
                full = metric.name + _label_text(metric.label_names, labels)
                lines.append(f"{full:<52} {value:>12,}")

    gauges = [m for m in registry.metrics() if m.kind == "gauge"]
    if gauges:
        lines += _section("Gauges (peaks)")
        for metric in gauges:
            for labels, value in metric.samples():
                full = metric.name + _label_text(metric.label_names, labels)
                lines.append(f"{full:<52} {value:>12,g}")

    histograms = [m for m in registry.metrics() if m.kind == "histogram"]
    if histograms:
        lines += _section("Histograms")
        for metric in histograms:
            assert isinstance(metric, Histogram)
            for labels, sample in metric.samples():
                label_text = _label_text(metric.label_names, labels)
                quantiles = "  ".join(
                    f"{key}={histogram_quantile(metric.buckets, sample['counts'], q):g}"
                    for key, q in SUMMARY_QUANTILES
                )
                lines.append(
                    f"{metric.name}{label_text}: "
                    f"count={sample['count']} sum={sample['sum']:.2f}  "
                    f"{quantiles}"
                )
                peak = max(sample["counts"]) or 1
                bounds = [f"<={b:g}" for b in metric.buckets] + ["+Inf"]
                for bound, count in zip(bounds, sample["counts"]):
                    bar = "#" * round(24 * count / peak)
                    lines.append(f"    {bound:>10} {count:>8}  {bar}")

    return "\n".join(lines).lstrip("\n")

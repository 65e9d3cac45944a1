"""Campaign observability: metrics, span tracing, and telemetry export.

The paper's six-week measurement was only auditable because every stage
left counts behind — probes sent, responses seen, follow-ups fired.
This package gives the reproduction the same property:

``metrics``
    A process-local :class:`MetricsRegistry` of counters, gauges and
    fixed-bucket histograms, cheap enough for the packet hot path and
    mergeable across shard worker processes.
``spans``
    Lightweight wall/sim-time span tracing
    (``with span("scan.shard", shard=3):``) recording a tree of where
    the time went.
``export``
    Renders a registry as Prometheus text format and bundles registry
    plus span tree into the versioned ``telemetry.json`` artifact the
    staged pipeline writes next to its stage artifacts.
``instrument``
    Wires a registry through an already-built scenario (fabric,
    routing, event loop, resolvers) and harvests end-of-run counters.
``journal``
    The per-probe flight recorder: typed lifecycle events with stable
    probe ids, flushed to ``events.ndjson`` per shard and merged
    deterministically (the N-shard merge is byte-identical to the
    1-shard journal).
``explain``
    Causal reconstruction over a merged journal — the ``repro explain``
    CLI: per-probe narratives, per-ASN summaries, and an audit that
    ties every classification back to journal evidence.
``progress``
    A live rate/ETA progress line on stderr fed by the ``shard.health``
    event of each scan shard's reports, so long campaigns are not
    silent.
``stream``
    The live data plane: each shard's :class:`TelemetrySnapshotter`
    builds its reports, periodic ``shard.health`` events plus, when
    the run streams, metric deltas; the pipeline parent's
    :class:`StreamWriter` appends every shard's to the run's one
    ``telemetry-stream.ndjson``, and the
    :class:`StreamReader`/:class:`RunStream`/:class:`RunHealth` layer
    tails it into derived run health.
``watch``
    The ``repro watch`` CLI: a TTY dashboard over a live or finished
    run, ``--json`` event streaming, and a continuously rewritten
    Prometheus textfile.

Telemetry is strictly observational: it never enters
``results_dict``, so campaign results stay byte-identical with metrics
and journaling on or off, and the shard-equivalence guarantee is
untouched.
"""

from .journal import Journal, probe_id
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .progress import ProgressReporter
from .spans import Span, SpanRecorder, activate, current_stack, span
from .stream import (
    RunHealth,
    RunStream,
    StreamReader,
    TelemetrySnapshotter,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Journal",
    "MetricsRegistry",
    "ProgressReporter",
    "RunHealth",
    "RunStream",
    "Span",
    "SpanRecorder",
    "StreamReader",
    "TelemetrySnapshotter",
    "activate",
    "current_stack",
    "probe_id",
    "span",
]

"""``repro watch``: a live dashboard over a run's telemetry stream.

Three consumers, one stream reader (:mod:`repro.obs.stream`):

* **TTY dashboard** — per-shard rows (status, pid, probes, rate, retry
  and fault counters, queue depth, open span), run totals with ETA and
  a running penetration-rate estimate, per-ASN top movers and recent
  drop reasons.  Redraws in place on a terminal, degrades to periodic
  plain blocks when piped.
* **``--json``** — the run's event stream itself, one event per
  line on stdout, for machine consumers (and for replaying a finished
  run).
* **``--prom-textfile PATH``** — continuously rewrites a Prometheus
  textfile with the accumulated metric deltas plus derived ``watch_*``
  gauges: the exact surface a campaign-as-a-service daemon will serve
  from ``/metrics``.

Watching is read-only: it reads the stream file and the run's
``manifest.json``, which says whether the run has committed its
results, and touches nothing else, so it is always safe against a live
run.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

from ..durable import write_atomic
from .export import to_prometheus
from .progress import _format_eta
from .stream import RunHealth, RunStream

#: Compact single-line encoder for --json output.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)

#: Wall seconds without events before a running shard counts as stalled.
STALL_AFTER = 10.0


def _fmt_rate(rate: float) -> str:
    return f"{rate:,.0f}/s"


def render_dashboard(
    health: RunHealth,
    run_dir: Path,
    *,
    now: float | None = None,
    finished: bool = False,
    stall_after: float = STALL_AFTER,
) -> str:
    """The multi-line dashboard block for one refresh."""
    if now is None:
        now = time.time()
    totals = health.totals()
    lines = []
    status = "finished" if finished else "live"
    lines.append(
        f"watch {run_dir}  [{status}]  "
        f"events={health.events_absorbed}  shards={totals['shards']}"
    )
    top = (
        f"probes {totals['sent']:,}/{totals['planned']:,}"
        f"  rate {_fmt_rate(totals['rate'])}"
        f"  penetrations {totals['penetrations']:,}"
    )
    rate = health.penetration_rate()
    if rate is not None:
        top += f" ({rate:.2%})"
    eta = health.eta_seconds()
    if eta is not None and not finished:
        top += f"  eta {_format_eta(eta)}"
    lines.append(top)
    lines.append(
        f"{'shard':>5} {'status':<9} {'pid':>7} "
        f"{'sent/planned':>17} {'rate':>9} {'pen':>5} "
        f"{'retx':>5} {'shed':>5} {'exh':>4} {'queue':>6}  span"
    )
    causes = []
    for shard_id in sorted(health.shards):
        view = health.shards[shard_id]
        span_text = ">".join(view.spans) if view.spans else "-"
        # A status with a cause ("failed: <cause>") shows its head in
        # the column, and the whole status once below the table.
        head, has_cause, _ = view.status.partition(":")
        if has_cause:
            causes.append(f"shard {view.shard:03d} {view.status}")
        lines.append(
            f"{view.shard:>5} {head:<9} "
            f"{view.pid if view.pid else '-':>7} "
            f"{view.sent:>9,}/{view.planned:<7,} "
            f"{_fmt_rate(view.rate):>9} {view.penetrations:>5,} "
            f"{view.retransmitted:>5,} {view.retries_shed:>5,} "
            f"{view.retries_exhausted:>4,} {view.queue_depth:>6,}  "
            f"{span_text}"
        )
    lines.extend(causes)
    movers = health.top_movers()
    if movers:
        lines.append(
            "top ASN movers: "
            + "  ".join(f"AS{asn}({count})" for asn, count in movers)
        )
    if health.drop_reasons:
        recent = ", ".join(
            f"{reason}@AS{asn} x{delta}"
            for _, reason, asn, delta in list(health.recent_drops)[-5:]
        )
        totals_text = ", ".join(
            f"{reason}:{count}"
            for reason, count in sorted(health.drop_reasons.items())
        )
        lines.append(f"drops: {totals_text}  recent: {recent}")
    if not finished:
        stalled = health.stalled(now, stall_after)
        if stalled:
            lines.append(
                f"STALLED (> {stall_after:g}s without events): "
                + ", ".join(f"{s:03d}" for s in stalled)
            )
    return "\n".join(lines)


def run_watch(
    run_dir,
    *,
    json_mode: bool = False,
    prom_textfile=None,
    interval: float = 1.0,
    once: bool = False,
    timeout: float | None = None,
    stall_after: float = STALL_AFTER,
    out=None,
    err=None,
) -> int:
    """Tail *run_dir*'s telemetry stream until the run finishes.

    Returns a process exit code: ``0`` on a completed (or ``--once``)
    watch, ``2`` when *timeout* wall seconds pass without a stream
    event on a run that is not finished, counted from the last event,
    or from the start while none has come.  An *interval* or *timeout*
    that is not positive and finite raises ``ValueError`` before the
    first poll.
    """
    for name, value in (("interval", interval), ("timeout", timeout)):
        # Written so that NaN fails too: every comparison with it is false.
        if value is not None and not 0 < value < math.inf:
            raise ValueError(
                f"{name} must be positive and finite, got {value:g}"
            )
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    run_dir = Path(run_dir)
    stream = RunStream(run_dir)
    health = RunHealth()
    prom_path = Path(prom_textfile) if prom_textfile else None
    is_tty = bool(getattr(out, "isatty", lambda: False)())
    last_event = time.time()
    drained_after_finish = False

    while True:
        events = stream.poll()
        now = time.time()
        if events:
            last_event = now
        for event in events:
            health.absorb(event)
        if json_mode:
            for event in events:
                out.write(_ENCODER.encode(event) + "\n")
            out.flush()
        else:
            block = render_dashboard(
                health,
                run_dir,
                now=now,
                finished=stream.finished(),
                stall_after=stall_after,
            )
            if is_tty:
                # Home the cursor and clear below: in-place redraw
                # without scrollback spam.
                out.write("\x1b[H\x1b[J" + block + "\n")
            else:
                out.write(block + "\n\n")
            out.flush()
        if prom_path is not None:
            write_atomic(prom_path, to_prometheus(health.registry()))
        if once:
            return 0
        if stream.finished():
            if drained_after_finish and not events:
                return 0
            # One extra poll after finishing so a tail written between
            # our last poll and the results artifact is not dropped.
            drained_after_finish = True
            continue
        if timeout is not None and now - last_event >= timeout:
            hint = (
                "is the scan still running?"
                if health.events_absorbed
                else "is the run streaming? scan needs --snapshots"
            )
            err.write(
                f"watch: no stream events in {run_dir} for "
                f"{timeout:g}s ({hint})\n"
            )
            return 2
        time.sleep(interval)

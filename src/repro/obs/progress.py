"""Live scan progress: a rate/ETA reporter on stderr.

A production-scale campaign is hours of silence without this.  A scan
shard's reports are its telemetry snapshots, sent every half second
of scanning (see :mod:`repro.obs.stream`); the pipeline parent passes
each one's ``shard.health`` event, which carries the scanner's counters
(:meth:`~repro.core.scanner.Scanner.progress_stats`), to
:meth:`ProgressReporter.update`, whether the shard runs inline or in a
forked worker.  The reporter keeps each shard's latest counters and
renders a single-line status to stderr: probes sent vs planned, send
rate, penetrations so far, shards done, and an ETA extrapolated from
the wall-clock rate.

On a terminal the line redraws in place with ``\\r``; piped to a file it
degrades to a periodic plain line so logs stay readable.  Progress never
touches stdout — that stream is reserved for reports and JSON.
"""

from __future__ import annotations

import sys
import time
from typing import TextIO


def _format_eta(seconds: float) -> str:
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class ProgressReporter:
    """Throttled progress line fed with per-shard scan counters."""

    def __init__(
        self,
        stream: TextIO | None = None,
        *,
        total_shards: int = 0,
        min_interval: float = 0.5,
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.total_shards = total_shards
        self.min_interval = min_interval
        self.shards_done = 0
        # Latest counters per shard: a re-executed shard's reports
        # replace those of its crashed attempt instead of adding to them.
        self._shards: dict[int, dict[str, int]] = {}
        # Shards reused from disk (resumed runs).  They count toward the
        # sent/planned totals but not the rate/ETA: no wall time was
        # spent on them in this process.
        self._reused: set[int] = set()
        self._started = time.perf_counter()
        self._last_render = 0.0
        self._rendered_any = False
        self._is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        # Non-tty consumers get a line every few seconds, not every 0.5s.
        if not self._is_tty:
            self.min_interval = max(self.min_interval, 5.0)

    def update(
        self, shard: int, stats: dict[str, int], *, reused: bool = False
    ) -> None:
        """Record *shard*'s latest ``planned``/``sent``/``penetrations``.

        *reused* marks a shard whose artifact a resumed run read from
        disk: its probes count toward the totals but not toward the
        rate — otherwise the rate spikes and the ETA collapses to near
        zero right after ``--resume``.
        """
        self._shards[shard] = stats
        if reused:
            self._reused.add(shard)
        self._render()

    def _total(self, key: str, *, live: bool = False) -> int:
        return sum(
            stats.get(key, 0)
            for shard, stats in self._shards.items()
            if not (live and shard in self._reused)
        )

    @property
    def planned(self) -> int:
        return self._total("planned")

    @property
    def sent(self) -> int:
        return self._total("sent")

    @property
    def penetrations(self) -> int:
        return self._total("penetrations")

    def shard_done(self) -> None:
        self.shards_done += 1
        self._render(force=True)

    def finish(self) -> None:
        """Render the final state and terminate the progress line.  A
        reporter no shard ever fed (a run served from disk) prints
        nothing."""
        if self._shards:
            self._render(force=True)
        if self._rendered_any and self._is_tty:
            self.stream.write("\n")
            self.stream.flush()

    # -- rendering -------------------------------------------------------

    def _line(self) -> str:
        elapsed = max(time.perf_counter() - self._started, 1e-9)
        planned, sent = self.planned, self.sent
        rate = self._total("sent", live=True) / elapsed
        parts = [f"probes {sent:,}/{planned:,}"]
        parts.append(f"{rate:,.0f}/s")
        parts.append(f"penetrations {self.penetrations:,}")
        if self.total_shards:
            parts.append(f"shards {self.shards_done}/{self.total_shards}")
        if rate > 0 and planned > sent:
            parts.append(f"eta {_format_eta((planned - sent) / rate)}")
        return "scan: " + "  ".join(parts)

    def _render(self, *, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        line = self._line()
        if self._is_tty:
            # Pad to wipe leftovers from a previously longer line.
            self.stream.write("\r" + line.ljust(78))
        else:
            self.stream.write(line + "\n")
        self.stream.flush()
        self._rendered_any = True

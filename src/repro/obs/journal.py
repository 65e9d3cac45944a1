"""Per-probe event journal: the campaign's flight recorder.

Aggregate counters (PR 3) say *how many* probes penetrated; they cannot
say *why probe N did or did not*.  The journal records the lifecycle of
every probe as typed events — emission, the border verdicts it met, the
recursion it triggered, its observation at the authoritative servers,
and finally the classification that cites it — into newline-delimited
JSON that :mod:`repro.obs.explain` reconstructs into causal chains.

Identity
--------

Every experiment query name is unique (it embeds the send timestamp,
spoofed source, target and ASN), so the qname *is* the probe identity.
:func:`probe_id` hashes the qname's wire form into a stable 16-hex-digit
id that any component holding the name — scanner, resolver, collector,
authoritative server — derives independently, without coordination.
Events that carry a qname tag themselves with that id; fabric events
(which see only packets) are joined by ``(src, dst, sport)`` instead,
the source port being content-hashed per probe.

Determinism
-----------

Journaling shares the telemetry contract: it observes, it never steers.
Event content is a pure function of simulated traffic, which PR 2 made
shard-invariant, so the merged ``events.ndjson`` of an N-shard run is
byte-identical to the 1-shard run: :func:`merge_shard_journals` parses
every shard's events, sorts by ``(sim_time, probe_id, kind rank, body)``
— the per-shard ``seq`` is discarded and renumbered globally — and
writes canonical JSON lines.

Like ``bind_metrics``, the wiring is duck-typed: ``netsim`` and ``dns``
components hold an opaque journal reference (or ``None``) and never
import this package; the disabled cost is one attribute check.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import groupby
from pathlib import Path
from typing import Any

from ..durable import atomic_open
from ..netsim.determinism import stable_hash

#: Version stamped as ``v`` into every event line.
JOURNAL_SCHEMA_VERSION = 1

#: Every event kind the journal may contain, with its causal rank:
#: events sharing a timestamp and probe sort in lifecycle order, so the
#: merged file reads as a narrative even before `explain` touches it.
EVENT_KINDS = {
    "probe.sent": 0,
    "probe.suppressed": 0,
    #: a retransmission of an unanswered probe; shares its timestamp
    #: and probe id with the ``probe.sent`` it precedes, and cites the
    #: previous attempt's probe id as ``prev``.
    "probe.retransmit": 0,
    "fabric.path": 1,
    #: a fault-plan clause touched a delivered packet (duplication,
    #: slowdown, reorder jitter); drops surface as ``fabric.path``
    #: outcomes (``fault-loss`` / ``fault-blackhole`` / ``fault-outage``).
    "fault.injected": 1,
    "resolver.recursion": 2,
    "resolver.upstream": 3,
    "resolver.response": 4,
    "auth.query": 5,
    "probe.penetration": 6,
    "classify.target": 7,
    "classify.asn": 8,
}


def probe_id(qname_wire: bytes) -> str:
    """Stable probe identity derived from a query name's wire form."""
    return f"{stable_hash('probe-id', qname_wire):016x}"


#: The canonical encoder.  ``json.dumps`` with options builds a new
#: encoder on every call; the merge encodes tens of thousands of events.
_CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


def event_line(event: dict[str, Any]) -> str:
    """Canonical one-line JSON serialization of *event*.

    Sorted keys and compact separators make the byte representation a
    pure function of the event content — the foundation of the
    byte-identical shard merge.
    """
    return _CANONICAL_ENCODER.encode(event)


#: Non-canonical encoder for the per-shard flush hot path.
_FAST_ENCODER = json.JSONEncoder(
    separators=(",", ":"), allow_nan=False, check_circular=False
)


#: Events a :class:`Journal` buffers before it flushes them to its file.
_MAX_BUFFERED = 100_000


class Journal:
    """Bounded in-memory event buffer, flushing to an NDJSON file.

    The buffer flushes to *path* whenever it reaches
    :data:`_MAX_BUFFERED` events (and on :meth:`flush`); the first
    flush truncates any stale file from an earlier crashed run.
    """

    def __init__(self, *, path: Path | str, shard_id: int = 0) -> None:
        self.shard_id = shard_id
        self.path = Path(path)
        self.events_emitted = 0
        self._buffer: list[dict[str, Any]] = []
        self._seq = 0
        self._flushed_any = False
        # Hot-path caches: probe ids are re-derived at every lifecycle
        # stage of the same query name, and the fabric asks about every
        # DNS packet it routes — both must cost a dict/set probe, not a
        # hash computation.
        self._pid_memo: dict[Any, str] = {}
        self._addr_memo: dict[Any, str] = {}
        self._name_memo: dict[Any, str] = {}
        self._flows: set[tuple] = set()

    # -- identity helpers (duck-called from dns/netsim, no imports) ------

    def probe_for(self, qname) -> str:
        """Probe id for *qname* (anything with a ``to_wire()``)."""
        pid = self._pid_memo.get(qname)
        if pid is None:
            pid = self._pid_memo[qname] = probe_id(qname.to_wire())
        return pid

    def addr(self, address) -> str:
        """Memoized ``str(address)`` — addresses repeat across events."""
        s = self._addr_memo.get(address)
        if s is None:
            s = self._addr_memo[address] = str(address)
        return s

    def name(self, qname) -> str:
        """Memoized ``str(qname)`` for event payloads."""
        s = self._name_memo.get(qname)
        if s is None:
            s = self._name_memo[qname] = str(qname)
        return s

    def expect_flow(self, src, dst, sport: int) -> None:
        """Mark ``(src, dst, sport)`` as a scanner-emitted query flow.

        The fabric journals the traversal of these flows only: they are
        the ones ``probe.sent`` events reference, so recording every
        other DNS packet (resolver upstream queries, retransmissions)
        would bloat the journal with entries nothing can join against.
        """
        self._flows.add((src, dst, sport))

    def wants_flow(self, src, dst, sport: int) -> bool:
        """Whether the fabric should journal this flow's traversal."""
        return (src, dst, sport) in self._flows

    # -- emission --------------------------------------------------------

    def _push(self, body: str) -> None:
        """Commit one pre-formatted event body (sans version and seq).

        The buffer holds finished JSON lines, not dicts: the line is
        completed here with the schema version and sequence number, so
        event state dies young and the buffer itself is invisible to
        the cyclic GC (strings are not tracked).  Holding 100k dicts
        instead measurably slows every gen-2 collection under a scan.
        """
        self.events_emitted += 1
        seq = self._seq
        self._seq = seq + 1
        self._buffer.append(
            f'{{{body},"v":{JOURNAL_SCHEMA_VERSION},"seq":{seq}}}'
        )
        if len(self._buffer) >= _MAX_BUFFERED:
            self.flush()

    def record(self, event: dict[str, Any]) -> None:
        """Append a prebuilt event dict (must contain ``kind`` + ``t``).

        The journal adds the schema version and the per-shard sequence
        number.  This is the generic path for the rare kinds; the scan
        hot paths use the typed methods below.
        """
        self.events_emitted += 1
        event["v"] = JOURNAL_SCHEMA_VERSION
        event["seq"] = self._seq
        self._seq += 1
        self._buffer.append(_FAST_ENCODER.encode(event))
        if len(self._buffer) >= _MAX_BUFFERED:
            self.flush()

    def emit(
        self, kind: str, t: float | None, probe: str | None = None, **fields
    ) -> None:
        """Record one event of *kind* at simulated time *t*."""
        event: dict[str, Any] = {"kind": kind, "t": t}
        if probe is not None:
            event["probe"] = probe
        event.update(fields)
        self.record(event)

    # -- typed fast paths ------------------------------------------------
    #
    # A scan emits tens of thousands of events; routing each through a
    # kwargs dict and a JSON encoder costs ~7us per event where a single
    # f-string costs well under 1us.  The instrumented call sites in
    # ``core``/``dns``/``netsim`` therefore use these kind-specific
    # methods, which format the line directly.  The embedded strings
    # (qnames, addresses, enum values, host names) come from the
    # simulation's own generators and never contain JSON-significant
    # characters; if one ever did, the merge step's ``json.loads`` of
    # every line would fail loudly rather than corrupt silently.

    def probe_sent(self, t, probe, src, dst, asn, sport, qname) -> None:
        self._push(
            f'"kind":"probe.sent","t":{t!r},"probe":"{probe}",'
            f'"src":"{src}","dst":"{dst}","asn":{asn},'
            f'"sport":{sport},"qname":"{qname}"'
        )

    def recursion(
        self, t, probe, resolver, asn, qname, qtype, forwarder
    ) -> None:
        fwd = "null" if forwarder is None else f'"{forwarder}"'
        self._push(
            f'"kind":"resolver.recursion","t":{t!r},"probe":"{probe}",'
            f'"resolver":"{resolver}","asn":{asn},"qname":"{qname}",'
            f'"qtype":{qtype},"forwarder":{fwd}'
        )

    def upstream(
        self, t, probe, resolver, server, qname, qtype, sport, msg_id
    ) -> None:
        self._push(
            f'"kind":"resolver.upstream","t":{t!r},"probe":"{probe}",'
            f'"resolver":"{resolver}","server":"{server}",'
            f'"qname":"{qname}","qtype":{qtype},"sport":{sport},'
            f'"msg_id":{msg_id}'
        )

    def response(
        self, t, probe, resolver, qname, qtype, rcode, duration
    ) -> None:
        self._push(
            f'"kind":"resolver.response","t":{t!r},"probe":"{probe}",'
            f'"resolver":"{resolver}","qname":"{qname}","qtype":{qtype},'
            f'"rcode":"{rcode}","duration":{duration!r}'
        )

    def auth_query(
        self, t, probe, server, src, sport, qname, qtype, transport
    ) -> None:
        self._push(
            f'"kind":"auth.query","t":{t!r},"probe":"{probe}",'
            f'"server":"{server}","src":"{src}","sport":{sport},'
            f'"qname":"{qname}","qtype":{qtype},"transport":"{transport}"'
        )

    # A fabric.path event is assembled across the routing decision:
    # ``fabric_head`` opens the record when the packet enters the
    # fabric, the border helpers append egress/ingress verdict segments
    # as filters are consulted, and ``fabric_done`` stamps the
    # destination ASN plus outcome and commits the event.

    def fabric_head(self, t, src, dst, sport, dport, transport) -> str:
        return (
            f'"kind":"fabric.path","t":{t!r},"src":"{self.addr(src)}",'
            f'"dst":"{self.addr(dst)}","sport":{sport},"dport":{dport},'
            f'"transport":"{transport}"'
        )

    def fabric_aspath(self, hops, rels) -> str:
        """Segment recording the policy path a packet is walking.

        Only emitted in policy-aware topology mode; legacy star events
        keep their exact byte layout.  ``rels[i]`` labels ``hops[i+1]``
        from ``hops[i]``'s perspective.
        """
        hop_list = ",".join(str(h) for h in hops)
        rel_list = ",".join(f'"{r}"' for r in rels)
        return f',"as_path":[{hop_list}],"rels":[{rel_list}]'

    def fabric_transit(self, asn, verdict) -> str:
        """Segment naming the transit border that filtered the packet."""
        return f',"transit":{{"asn":{asn},"verdict":"{verdict}"}}'

    def fabric_egress(self, asn, osav, verdict, prefix) -> str:
        filt = "null" if prefix is None else f'"{self.addr(prefix)}"'
        return (
            f',"egress":{{"asn":{asn},'
            f'"osav":{"true" if osav else "false"},'
            f'"verdict":"{verdict}","filter":{filt}}}'
        )

    def fabric_ingress(self, asn, dsav, martians, verdict, prefix) -> str:
        filt = "null" if prefix is None else f'"{self.addr(prefix)}"'
        return (
            f',"ingress":{{"asn":{asn},'
            f'"dsav":{"true" if dsav else "false"},'
            f'"martian_filtering":{"true" if martians else "false"},'
            f'"verdict":"{verdict}","filter":{filt}}}'
        )

    def fabric_done(self, head, from_asn, to_asn, outcome) -> None:
        self._push(
            head + f',"from_asn":{from_asn},'
            f'"to_asn":{"null" if to_asn is None else to_asn},'
            f'"outcome":"{outcome}"'
        )

    # -- persistence -----------------------------------------------------

    def flush(self) -> int:
        """Write buffered events to ``path``; returns events written.

        Shard files are written with a plain (insertion-order) encoder
        — it is measurably cheaper than the canonical form, and
        :func:`merge_shard_journals` re-serializes every line
        canonically anyway.
        """
        if not self._buffer and self._flushed_any:
            return 0
        mode = "a" if self._flushed_any else "w"
        with self.path.open(mode) as handle:
            handle.writelines(line + "\n" for line in self._buffer)
        written = len(self._buffer)
        self._flushed_any = True
        self._buffer = []
        return written


# ---------------------------------------------------------------------------
# reading, validation, merging
# ---------------------------------------------------------------------------


def _parse_lines(path: Path) -> Iterator[tuple[str, dict[str, Any]]]:
    """Yield ``(line, event)`` for every non-blank line of *path*.

    A line that is not JSON raises ``ValueError`` naming ``path:line``,
    so a torn journal is reported where it is torn.
    """
    with path.open() as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{number}: not a journal event ({exc})"
                ) from None
            yield line, event


def load_events(path: Path | str) -> list[dict[str, Any]]:
    """Parse an NDJSON journal file into a list of event dicts."""
    return [event for _, event in _parse_lines(Path(path))]


def validate_events(events: list[dict[str, Any]]) -> None:
    """Structural schema check; raises ValueError with a diagnosis."""

    def fail(index: int, message: str) -> None:
        raise ValueError(f"invalid journal event {index}: {message}")

    for index, event in enumerate(events):
        if not isinstance(event, dict):
            fail(index, "not an object")
        if event.get("v") != JOURNAL_SCHEMA_VERSION:
            fail(index, f"v={event.get('v')!r}")
        kind = event.get("kind")
        if kind not in EVENT_KINDS:
            fail(index, f"unknown kind {kind!r}")
        t = event.get("t")
        if t is not None and not isinstance(t, (int, float)):
            fail(index, f"non-numeric t {t!r}")
        if not isinstance(event.get("seq"), int):
            fail(index, "missing seq")
        probe = event.get("probe")
        if probe is not None and not (
            isinstance(probe, str) and len(probe) == 16
        ):
            fail(index, f"malformed probe id {probe!r}")


def _body_line(event: dict[str, Any]) -> str:
    """The event's canonical line with the shard-local ``seq`` removed."""
    return event_line({k: v for k, v in event.items() if k != "seq"})


def _coarse_key(event: dict[str, Any]) -> tuple:
    """The merge order's first three fields: ``(t, probe, kind rank)``."""
    t = event.get("t")
    return (
        t if t is not None else float("inf"),
        event.get("probe") or "",
        EVENT_KINDS[event["kind"]],
    )


def _merge_order(events: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """*events* sorted by ``(t, probe, kind rank, body minus seq)``.

    The body is the costly part of that key and only breaks ties of
    the first three fields, so it is computed for tied runs alone.
    """
    ordered: list[dict[str, Any]] = []
    for _, run in groupby(sorted(events, key=_coarse_key), key=_coarse_key):
        run = list(run)
        if len(run) > 1:
            run.sort(key=_body_line)
        ordered.extend(run)
    return ordered


def _write_journal(
    path: Path, kept: list[str], events: list[dict[str, Any]]
) -> None:
    """Atomically write *kept* lines as they are, then *events* in merge
    order as canonical lines, ``seq`` numbered on from ``len(kept)``."""
    with atomic_open(path) as handle:
        handle.writelines(line + "\n" for line in kept)
        for seq, event in enumerate(_merge_order(events), len(kept)):
            event["seq"] = seq
            handle.write(event_line(event) + "\n")


def merge_shard_journals(
    shard_paths: list[Path | str], out_path: Path | str
) -> int:
    """Merge per-shard journal files into one deterministic journal.

    Shards partition the target space, so their event sets are disjoint
    and the union equals the unsharded run's set; sorting by
    ``(t, probe, kind rank, body)`` and renumbering ``seq`` globally
    therefore produces byte-identical output for any shard count.
    Each event is encoded canonically once, for output.  Returns the
    merged event count.
    """
    events: list[dict[str, Any]] = []
    for path in shard_paths:
        events.extend(load_events(path))
    validate_events(events)
    _write_journal(Path(out_path), [], events)
    return len(events)


# ---------------------------------------------------------------------------
# classification evidence
# ---------------------------------------------------------------------------


def append_classifications(events_path: Path | str, collector) -> int:
    """Append ``classify.*`` events citing the probes behind each verdict.

    Emits one ``classify.target`` per reachable target (the per-resolver
    "spoofed source reached it" verdict) and one ``classify.asn`` per
    (family, ASN) with reachable targets (the paper's "AS lacks DSAV"
    claim), each citing the probe ids whose ``probe.sent`` events match
    the target's working sources.  Idempotent: existing ``classify.*``
    lines are stripped before appending, so a resumed analyze stage
    never double-counts.  Returns the number of classification events.

    Precondition: *events_path* is :func:`merge_shard_journals` output,
    possibly already classified — canonical lines, sorted, ``seq``
    numbered from 0, any ``classify.*`` lines forming its suffix.  Scan
    events always carry a time and classifications never do, so the
    kept lines are already in merged order and are copied byte for
    byte; only the classifications are sorted, numbered and encoded.
    """
    events_path = Path(events_path)
    kept: list[str] = []
    # probe.sent events are the ground truth for which probe ids back a
    # (target, spoofed source) pair.
    by_pair: dict[tuple[str, str], list[str]] = {}
    for line, event in _parse_lines(events_path):
        kind = event["kind"]
        if kind.startswith("classify."):
            continue
        kept.append(line)
        if kind == "probe.sent":
            by_pair.setdefault(
                (event["dst"], event["src"]), []
            ).append(event["probe"])

    classifications: list[dict[str, Any]] = []
    reachable = sorted(
        (obs for obs in collector.observations.values() if obs.categories),
        key=lambda o: (o.target.version, int(o.target)),
    )
    for obs in reachable:
        probes = sorted(
            pid
            for source in obs.working_sources
            for pid in by_pair.get((str(obs.target), str(source)), [])
        )
        classifications.append(
            {
                "kind": "classify.target",
                "t": None,
                "target": str(obs.target),
                "family": obs.target.version,
                "asn": obs.asn,
                "open": obs.open_,
                "categories": sorted(c.value for c in obs.categories),
                "probes": probes,
                "v": JOURNAL_SCHEMA_VERSION,
            }
        )
    for family in (4, 6):
        by_asn: dict[int, list] = {}
        for obs in reachable:
            if obs.target.version == family:
                by_asn.setdefault(obs.asn, []).append(obs)
        for asn in sorted(by_asn):
            targets = by_asn[asn]
            probes = sorted(
                {
                    pid
                    for obs in targets
                    for source in obs.working_sources
                    for pid in by_pair.get(
                        (str(obs.target), str(source)), []
                    )
                }
            )
            classifications.append(
                {
                    "kind": "classify.asn",
                    "t": None,
                    "asn": asn,
                    "family": family,
                    "verdict": "no-dsav",
                    "targets": [str(obs.target) for obs in targets],
                    "probes": probes,
                    "v": JOURNAL_SCHEMA_VERSION,
                }
            )
    _write_journal(events_path, kept, classifications)
    return len(classifications)

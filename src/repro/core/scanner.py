"""The scan driver (Sections 3.2-3.5).

The :class:`ScanClient` is the spoofing-capable vantage point: a host in
an AS that performs no OSAV, crafting DNS queries whose IP source field
is set to whatever the spoof plan dictates.  The :class:`Scanner`
schedules one probe per (target, spoofed source) pair, spread evenly
over the experiment duration exactly as the paper describes, watches the
authoritative query logs in real time, and fires the follow-up engine
the *first* time a target is observed.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial
from itertools import islice
from random import Random

from ..dns.auth import AuthoritativeServer, QueryLogRecord
from ..dns.message import Message
from ..dns.rr import RRType
from ..netsim.addresses import Address, IntervalTable
from ..netsim.determinism import stable_fraction, stable_hash
from ..netsim.fabric import Fabric, Host
from ..netsim.packet import Packet, Transport
from ..obs.spans import span
from .followup import FollowUpEngine
from .qname import Channel, QueryNameCodec
from .sources import SourceCategory, SpoofedSource, SpoofPlanner
from .targets import TargetSet


class ScanClient(Host):
    """Packet-crafting measurement client (the "scapy" of the setup)."""

    def __init__(
        self, name: str, asn: int, rng: Random, *, hash_seed: int = 0
    ) -> None:
        super().__init__(name, asn)
        self.rng = rng
        #: seed mixed into the content hash that picks each probe's
        #: transaction ID and source port.  Content-derived IDs (rather
        #: than a consumed RNG stream) keep every probe identical
        #: between sharded and unsharded runs of the same campaign.
        self.hash_seed = hash_seed
        self.queries_sent = 0
        #: optional event journal (set via ``Scanner.bind_journal``);
        #: when present, each outgoing query flow is announced so the
        #: fabric knows which traversals to journal.
        self._journal = None

    def real_address(self, version: int) -> Address | None:
        """The client's genuine address for *version*, if configured."""
        for address in self.addresses:
            if address.version == version:
                return address
        return None

    def send_query(
        self,
        qname,
        src: Address,
        dst: Address,
        *,
        qtype: int = RRType.A,
    ) -> Packet:
        """Emit one UDP DNS query with an arbitrary (spoofed) source.

        The transaction ID and source port are hashed from the query
        content; experiment names are timestamp-unique, so every probe
        still gets its own identifiers.  Returns the sent packet so the
        caller can record its identifiers without re-hashing.
        """
        key = stable_hash(
            self.hash_seed, "probe", qname.to_wire(), int(src), int(dst), qtype
        )
        message = Message.make_query(key & 0xFFFF, qname, qtype)
        packet = Packet(
            src=src,
            dst=dst,
            sport=1024 + (key >> 16) % 64512,
            dport=53,
            payload=message.to_wire(),
            transport=Transport.UDP,
        )
        self.queries_sent += 1
        jr = self._journal
        if jr is not None:
            jr.expect_flow(src, dst, packet.sport)
        self.send(packet)
        return packet


@dataclass
class ScanConfig:
    """Parameters of one scan campaign."""

    keyword: str = "scan"
    duration: float = 300.0
    enable_followups: bool = True
    followup_count: int = 10
    #: TC-eliciting queries per target.  The paper sent one; under
    #: simulated packet loss a four-packet TCP exchange often dies, so
    #: a few attempts keep SYN-fingerprint coverage comparable.
    tcp_followup_count: int = 3
    followup_spacing: float = 0.25
    qtype: int = RRType.A
    #: administrative ceiling on outbound queries per second (the
    #: paper's vantage allowed ~700 qps, Section 3.4).  The campaign
    #: stretches beyond ``duration`` if needed to respect it.
    max_rate: float | None = None
    #: probes materialized onto the event loop per pacing step.  The
    #: streaming scheduler keeps only this many pending probe events on
    #: the heap at a time instead of one closure per planned probe.
    scheduler_batch: int = 512
    #: drive the campaign through the event loop's skip-ahead machinery:
    #: probe batches are staged as parallel time/row arrays instead of
    #: one heap entry (and one closure) per probe, and the loop jumps
    #: the clock between live events rather than stepping cancelled
    #: timers.  ``False`` selects the dense heap-backed path; both
    #: produce byte-identical artifacts (asserted by the equivalence
    #: suite), so this is purely a performance switch.
    skip_ahead: bool = True
    #: when set, the campaign is paced over exactly this many seconds,
    #: overriding the duration/max_rate stretch computed from the local
    #: probe total.  The sharded pipeline pins the globally computed
    #: duration here so every shard paces its targets on the same
    #: timeline as the unsharded run would.
    pinned_duration: float | None = None
    #: retransmission attempts per unanswered (target, source) pair
    #: after the first probe (the paper's vantage retried lost probes;
    #: skipping retries biases classification toward "filtered").  0
    #: disables the retry machinery entirely — the event loop and the
    #: results are then byte-identical to a build without it.
    max_retries: int = 0
    #: seconds to wait for the pair's first observation before the
    #: first retransmission; doubles (see ``retry_backoff``) per
    #: attempt.  Comfortably above the fabric's worst-case one-way
    #: latency so a timer firing means loss, not slowness.
    retry_timeout: float = 2.0
    #: exponential backoff base between attempts.
    retry_backoff: float = 2.0
    #: fraction of the backoff delay added as content-keyed jitter so
    #: retransmissions never synchronize into bursts.
    retry_jitter: float = 0.5
    #: campaign-wide ceiling on retransmissions; ``None`` is unlimited.
    #: When the budget runs dry further retries are shed (counted, not
    #: sent) — first-attempt probes are never shed, so degradation is
    #: graceful: coverage narrows before it breaks.
    retry_budget: int | None = None
    #: the sharded pipeline's apportionment of ``retry_budget`` for one
    #: shard (computed by the parent over the global plan census);
    #: overrides ``retry_budget`` when set.
    pinned_retry_budget: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.duration < math.inf:
            raise ValueError(
                f"duration must be positive and finite, got {self.duration}"
            )
        if self.followup_count < 1:
            raise ValueError("followup_count must be >= 1")
        if self.max_rate is not None and self.max_rate <= 0:
            raise ValueError("max_rate must be positive")
        if self.pinned_duration is not None and self.pinned_duration <= 0:
            raise ValueError("pinned_duration must be positive")
        if self.scheduler_batch < 1:
            raise ValueError("scheduler_batch must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_timeout <= 0:
            raise ValueError("retry_timeout must be positive")
        if self.retry_backoff < 1.0:
            raise ValueError("retry_backoff must be >= 1")
        if self.retry_jitter < 0:
            raise ValueError("retry_jitter must be >= 0")
        for name in ("retry_budget", "pinned_retry_budget"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class ProbeRecord:
    """Bookkeeping for one sent probe, used for later attribution."""

    target: Address
    asn: int
    source: Address
    category: SourceCategory
    send_time: float


class Scanner:
    """Orchestrates a full DSAV scan campaign."""

    def __init__(
        self,
        fabric: Fabric,
        client: ScanClient,
        codec: QueryNameCodec,
        targets: TargetSet,
        planner: SpoofPlanner,
        auth_servers: list[AuthoritativeServer],
        config: ScanConfig | None = None,
        *,
        seed: int = 0,
    ) -> None:
        self.fabric = fabric
        self.client = client
        self.codec = codec
        self.targets = targets
        self.planner = planner
        self.auth_servers = auth_servers
        self.config = config or ScanConfig()
        self.seed = seed
        self.rng = Random(seed)
        #: (target, source) -> category, filled as probes are scheduled.
        self.probe_index: dict[tuple[Address, Address], ProbeRecord] = {}
        #: target -> asn for every probed target.
        self.target_asn: dict[Address, int] = {}
        self.followups = FollowUpEngine(
            fabric, client, codec, config=self.config
        )
        self._followed_up: set[Address] = set()
        self.probes_scheduled = 0
        self.probes_sent = 0
        self.probes_suppressed = 0
        self.targets_planned = 0
        self.targets_unroutable = 0
        self.effective_duration = self.config.duration
        # -- retransmission state (see _send_probe / _check_retry).
        # All of it stays empty with max_retries=0, so the disabled
        # scan's event sequence is identical to a retry-free build.
        self._retry_enabled = self.config.max_retries > 0
        budget = self.config.pinned_retry_budget
        if budget is None:
            budget = self.config.retry_budget
        #: remaining campaign retransmission budget; None = unlimited.
        self._retry_budget_left: int | None = budget
        #: (target, source) -> pending timeout timer handle.
        self._retry_timers: dict[tuple[Address, Address], object] = {}
        #: (target, source) pairs observed at our authoritative servers.
        self._observed_pairs: set[tuple[Address, Address]] = set()
        #: (target, source) -> attempts sent so far (1 = first probe).
        self._attempts: dict[tuple[Address, Address], int] = {}
        #: (target, source) -> previous probe id, journal-only lineage.
        self._prev_probe_id: dict[tuple[Address, Address], str] = {}
        self.probes_retransmitted = 0
        self.retries_recovered = 0
        self.retries_shed = 0
        self.retries_exhausted = 0
        self._mx_retransmitted = None
        self._mx_retry_outcomes = None
        #: prefixes whose operators opted out (Section 3.8); checked at
        #: send time so a mid-campaign request stops traffic instantly.
        self._opt_out_prefixes: list = []
        #: compiled per-family view of the opt-out prefixes; the check
        #: runs once per probe, so it is a bisect, not a linear scan.
        self._opt_out_tables: dict[int, IntervalTable] = {}
        #: time-ordered stream of probes not yet on the event loop.
        self._probe_stream: Iterator[
            tuple[float, int, int, Address, int, SpoofedSource]
        ] | None = None
        #: (target, asn, source) rows of the currently staged batch,
        #: indexed by the loop's staged-fire position (sparse mode only).
        self._batch_rows: list[tuple[Address, int, Address]] = []
        #: optional scan instruments (see ``bind_metrics``); ``None``
        #: keeps the probe path at one extra attribute check each.
        self._mx_sent = None
        self._mx_suppressed = None
        self._mx_penetrations = None
        self._mx_penetrations_by_asn = None
        self._mx_probe_sim = None
        #: optional event journal (duck-typed like the metrics
        #: instruments above) and per-probe progress callback.
        self._journal = None
        self._progress = None

    def bind_metrics(self, registry) -> None:
        """Count probes and penetrations into *registry* from now on.

        All four instruments are content-keyed per target AS, so their
        shard merges equal the unsharded totals exactly.
        """
        self._mx_sent = registry.counter(
            "scan_probes_sent_total", "spoofed probes put on the wire"
        )
        self._mx_suppressed = registry.counter(
            "scan_probes_suppressed_total",
            "planned probes withheld by operator opt-outs",
        )
        self._mx_penetrations = registry.counter(
            "scan_penetrations_total",
            "targets whose spoofed probe reached our authoritative servers",
        )
        self._mx_penetrations_by_asn = registry.counter(
            "scan_penetrations_by_asn_total",
            "penetrated targets per originating AS",
            ("asn",),
        )
        self._mx_probe_sim = registry.histogram(
            "scan_probe_sim_seconds",
            "simulated send time of each probe within the campaign",
            buckets=(30.0, 60.0, 120.0, 240.0, 480.0, 960.0, 1920.0),
        )
        self._mx_retransmitted = registry.counter(
            "scan_probes_retransmitted_total",
            "probe retransmissions after an unanswered timeout",
        )
        self._mx_retry_outcomes = registry.counter(
            "scan_retry_outcomes_total",
            "terminal retry outcomes per (target, source) pair",
            ("outcome",),
        )

    def bind_journal(self, journal) -> None:
        """Record probe lifecycle events into *journal* from now on."""
        self._journal = journal
        # The client announces each outgoing query flow so the fabric
        # journals exactly those traversals and no other DNS traffic.
        self.client._journal = journal

    def bind_progress(self, callback) -> None:
        """Call ``callback()`` after each probe put on the wire.

        The callback reads whatever counts it needs from
        :meth:`progress_stats`.
        """
        self._progress = callback

    def progress_stats(self) -> dict[str, int]:
        """Current scan counters, for health snapshots mid-run."""
        return {
            "planned": self.probes_scheduled,
            "sent": self.probes_sent,
            "suppressed": self.probes_suppressed,
            "penetrations": len(self._followed_up),
            "retransmitted": self.probes_retransmitted,
            "retries_shed": self.retries_shed,
            "retries_exhausted": self.retries_exhausted,
        }

    def opt_out(self, prefix) -> None:
        """Stop sending any further queries toward *prefix*."""
        from ipaddress import ip_network

        if isinstance(prefix, str):
            prefix = ip_network(prefix)
        self._opt_out_prefixes.append(prefix)
        # Opt-outs are rare (operator email scale); recompiling the
        # whole table on each request keeps the per-probe check O(log n).
        self._opt_out_tables = {
            version: IntervalTable.from_networks(
                p for p in self._opt_out_prefixes if p.version == version
            )
            for version in (4, 6)
        }

    def _opted_out(self, target: Address) -> bool:
        table = self._opt_out_tables.get(target.version)
        return table is not None and table.contains_value(int(target))

    # -- campaign setup ------------------------------------------------------

    def schedule_campaign(self) -> None:
        """Plan the campaign and start the streaming probe scheduler.

        Each target's probes are spread evenly across the full campaign
        duration (Section 3.4); targets are offset from each other so the
        aggregate rate stays uniform.  Instead of materializing one
        closure per probe up front, a single pacing event pulls batches
        of probes from a time-ordered generator over the spoof plans and
        pushes each batch with :meth:`EventLoop.schedule_many`, so the
        event heap holds O(batch) probe entries at any moment.
        """
        for server in self.auth_servers:
            server.add_observer(self._on_auth_query)
        plans = []
        for target in self.targets.targets:
            plan = self.planner.plan(target.address)
            if plan is None or not plan.sources:
                self.targets_unroutable += 1
                continue
            plans.append((target, plan))
        # Respect the vantage point's administrative rate ceiling by
        # stretching the campaign rather than bursting (Section 3.4).
        total_probes = sum(len(plan.sources) for _, plan in plans)
        duration = self.config.duration
        if self.config.max_rate is not None and total_probes:
            duration = max(duration, total_probes / self.config.max_rate)
        if self.config.pinned_duration is not None:
            duration = self.config.pinned_duration
        self.effective_duration = duration
        self.probes_scheduled = total_probes

        for target, plan in plans:
            self.targets_planned += 1
            self.target_asn[target.address] = target.asn
        # Per-target streams are individually time-ordered; a heap merge
        # yields the global schedule in (time, target index) order.
        self._probe_stream = heapq.merge(
            *(
                self._target_stream(index, target, plan, duration)
                for index, (target, plan) in enumerate(plans)
            )
        )
        # The scanner owns the campaign's drain loop, so it picks the
        # loop mode to match its pump: staged batches under skip-ahead,
        # per-probe heap entries under dense.
        self.fabric.loop.skip_ahead = self.config.skip_ahead
        self._pump()

    def _target_stream(
        self, index: int, target, plan, duration: float
    ) -> Iterator[tuple[float, int, int, Address, int, SpoofedSource]]:
        """Yield one target's probes as (when, tie-break..., probe) rows.

        The per-target phase offset is hashed from the target address,
        not derived from the target's position in the global plan: a
        shard that scans a subset of the targets therefore sends each
        probe at exactly the moment the full campaign would, which is
        the foundation of the pipeline's byte-identical shard merge.
        Offsets stay uniform in [0, spacing), so the aggregate rate is
        as smooth as the old position-based stagger.
        """
        count = len(plan.sources)
        spacing = duration / count
        offset = (
            stable_fraction(
                self.seed,
                "schedule",
                int(target.address),
                target.address.version,
            )
            * spacing
        )
        for j, source in enumerate(plan.sources):
            yield (
                offset + j * spacing,
                index,
                j,
                target.address,
                target.asn,
                source,
            )

    def _pump(self) -> None:
        """Materialize the next probe batch onto the event loop.

        Sparse mode stages the batch as parallel arrays — no per-probe
        heap entry or closure — and the loop fires straight through
        :meth:`_fire_staged_probe`; dense mode pushes one event per
        probe plus a re-arm.  Both consume the same sequence-number
        stream, so they interleave with retries, follow-ups and fault
        timers identically.
        """
        stream = self._probe_stream
        if stream is None:
            return
        batch = list(islice(stream, self.config.scheduler_batch))
        if not batch:
            self._probe_stream = None
            return
        loop = self.fabric.loop
        if self.config.skip_ahead:
            whens = []
            rows = self._batch_rows
            rows.clear()
            for when, _index, _j, target, asn, source in batch:
                self.probe_index[(target, source.address)] = ProbeRecord(
                    target, asn, source.address, source.category, when
                )
                whens.append(when)
                rows.append((target, asn, source.address))
            loop.stage_batch(whens, self._fire_staged_probe, self._pump)
            return
        events = []
        for when, _index, _j, target, asn, source in batch:
            self.probe_index[(target, source.address)] = ProbeRecord(
                target, asn, source.address, source.category, when
            )
            events.append(
                (when, partial(self._send_probe, target, asn, source.address))
            )
        loop.schedule_many(events)
        # Re-arm at the batch's last timestamp: the final probe (lower
        # seq) fires first, then the pump refills — so equal-time probes
        # across batch boundaries still run in generator order.
        loop.schedule_at(batch[-1][0], self._pump)

    def _fire_staged_probe(self, pos: int) -> None:
        target, asn, source = self._batch_rows[pos]
        self._send_probe(target, asn, source)

    def _send_probe(
        self, target: Address, asn: int, source: Address, attempt: int = 1
    ) -> None:
        jr = self._journal
        if self._opted_out(target):
            self.probes_suppressed += 1
            mx = self._mx_suppressed
            if mx is not None:
                mx.inc()
            if jr is not None:
                # Encode the name the probe would have carried so the
                # suppression is attributable to a concrete probe id.
                qname = self.codec.encode(
                    self.fabric.now, source, target, asn, channel=Channel.MAIN
                )
                jr.emit(
                    "probe.suppressed",
                    self.fabric.now,
                    jr.probe_for(qname),
                    src=jr.addr(source),
                    dst=jr.addr(target),
                    asn=asn,
                    qname=jr.name(qname),
                    reason="opt-out",
                )
            return
        self.probes_sent += 1
        mx = self._mx_sent
        if mx is not None:
            mx.inc()
            self._mx_probe_sim.observe(self.fabric.now)
        qname = self.codec.encode(
            self.fabric.now, source, target, asn, channel=Channel.MAIN
        )
        packet = self.client.send_query(
            qname, source, target, qtype=self.config.qtype
        )
        if jr is not None:
            pid = jr.probe_for(qname)
            if attempt > 1:
                jr.emit(
                    "probe.retransmit",
                    self.fabric.now,
                    pid,
                    src=jr.addr(source),
                    dst=jr.addr(target),
                    asn=asn,
                    attempt=attempt,
                    prev=self._prev_probe_id.get((target, source)),
                )
            jr.probe_sent(
                self.fabric.now,
                pid,
                jr.addr(source),
                jr.addr(target),
                asn,
                packet.sport,
                jr.name(qname),
            )
        if self._retry_enabled:
            pair = (target, source)
            self._attempts[pair] = attempt
            if jr is not None:
                self._prev_probe_id[pair] = jr.probe_for(qname)
            self._retry_timers[pair] = self.fabric.loop.schedule(
                self._retry_delay(target, source, attempt),
                partial(self._check_retry, target, asn, source, attempt),
            )
        pg = self._progress
        if pg is not None:
            pg()

    # -- retransmission ----------------------------------------------------

    def _retry_delay(
        self, target: Address, source: Address, attempt: int
    ) -> float:
        """Timeout before attempt *attempt* is declared unanswered.

        Exponential backoff with content-keyed jitter: the jitter is a
        pure function of (seed, pair, attempt), never a consumed RNG
        stream, so a shard retries each pair at exactly the moment the
        unsharded campaign would — the retry path preserves the
        byte-identical shard merge.
        """
        base = self.config.retry_timeout * (
            self.config.retry_backoff ** (attempt - 1)
        )
        jitter = stable_fraction(
            self.seed,
            "retry",
            int(target),
            target.version,
            int(source),
            attempt,
        )
        return base * (1.0 + self.config.retry_jitter * jitter)

    def _check_retry(
        self, target: Address, asn: int, source: Address, attempt: int
    ) -> None:
        """Timeout timer for one attempt: retransmit, shed, or give up."""
        pair = (target, source)
        self._retry_timers.pop(pair, None)
        if pair in self._observed_pairs:
            return
        if attempt > self.config.max_retries:
            # The pair stayed silent through the full battery; with
            # independent per-attempt loss rolls that converges the
            # verdict from "maybe lost" to "filtered".
            self.retries_exhausted += 1
            mx = self._mx_retry_outcomes
            if mx is not None:
                mx.inc(1, ("exhausted",))
            return
        budget = self._retry_budget_left
        if budget is not None:
            if budget <= 0:
                self.retries_shed += 1
                if self._mx_retry_outcomes is not None:
                    self._mx_retry_outcomes.inc(1, ("shed",))
                return
            self._retry_budget_left = budget - 1
        self.probes_retransmitted += 1
        mx = self._mx_retransmitted
        if mx is not None:
            mx.inc()
        # The fresh send time lands in the qname, so the retransmission
        # is a new packet with independent loss/fault rolls.
        self._send_probe(target, asn, source, attempt + 1)

    # -- real-time reaction ----------------------------------------------------

    def _on_auth_query(self, record: QueryLogRecord) -> None:
        decoded = self.codec.decode(record.qname)
        if decoded is None or decoded.channel is not Channel.MAIN:
            return
        target = decoded.dst
        probe = self.probe_index.get((target, decoded.src))
        if probe is None:
            return  # open-resolver test or stray; no follow-up trigger
        if self._retry_enabled:
            # Pair-level settlement runs before the per-target follow-up
            # gate: a target observed via one source may still have
            # retries pending for its other sources' evidence.
            pair = (target, decoded.src)
            if pair not in self._observed_pairs:
                self._observed_pairs.add(pair)
                timer = self._retry_timers.pop(pair, None)
                if timer is not None:
                    self.fabric.loop.cancel(timer)
                if self._attempts.get(pair, 1) > 1:
                    self.retries_recovered += 1
                    if self._mx_retry_outcomes is not None:
                        self._mx_retry_outcomes.inc(1, ("recovered",))
        if target in self._followed_up:
            return
        self._followed_up.add(target)
        mx = self._mx_penetrations
        if mx is not None:
            mx.inc()
            self._mx_penetrations_by_asn.inc(1, (str(decoded.asn),))
        jr = self._journal
        if jr is not None:
            jr.emit(
                "probe.penetration",
                self.fabric.now,
                jr.probe_for(record.qname),
                src=jr.addr(decoded.src),
                dst=jr.addr(target),
                asn=decoded.asn,
            )
        if self.config.enable_followups and not self._opted_out(target):
            self.followups.launch(target, decoded.asn, decoded.src)

    # -- execution ---------------------------------------------------------------

    def run(self, *, settle: float = 60.0, max_events: int | None = None) -> None:
        """Run the campaign to completion plus *settle* seconds of drain."""
        with span("scan.schedule"):
            self.schedule_campaign()
        with span("scan.drain"):
            self.fabric.loop.run(max_events)
        # Drain any events scheduled by late follow-ups.
        with span("scan.settle"):
            self.fabric.loop.run_until(self.fabric.now + settle)
            self.fabric.loop.run(max_events)

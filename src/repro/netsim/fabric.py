"""The simulated Internet fabric: hosts, borders, and packet delivery.

The fabric glues the other netsim pieces together.  Hosts attach to an
autonomous system at one or more addresses; sending a packet walks it
through the origin AS border (OSAV), the global routing table, and the
destination AS border (DSAV / martian filtering) before handing it to
the host bound at the destination address.  Every drop is counted by
reason, which the test suite and the analysis layer lean on heavily.

Delivery is asynchronous through the shared :class:`~repro.netsim.events.
EventLoop`; per-path latency is deterministic for a given fabric seed so
experiments replay identically.
"""

from __future__ import annotations

import zlib
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

from .addresses import Address, intern_address
from .autonomous_system import AutonomousSystem, BorderVerdict
from .determinism import prefixed_fraction, stable_prefix
from .events import EventLoop
from .packet import Packet
from .routing import RoutingTable


class Host:
    """Base class for anything attached to the fabric.

    Subclasses override :meth:`handle_packet`.  A host may be bound at
    multiple addresses (e.g. a dual-stack DNS server).
    """

    def __init__(self, name: str, asn: int) -> None:
        self.name = name
        self.asn = asn
        self.addresses: list[Address] = []
        self.fabric: "Fabric | None" = None

    def handle_packet(self, packet: Packet) -> None:
        """Process an inbound packet; default implementation discards it."""

    def send(self, packet: Packet) -> None:
        """Inject *packet* into the fabric from this host."""
        if self.fabric is None:
            raise RuntimeError(f"host {self.name} is not attached to a fabric")
        self.fabric.send(self, packet)


#: Observer invoked for every packet the fabric accepts for delivery.
PacketTap = Callable[[Packet, Host], None]


# -- drop reasons ----------------------------------------------------------
#
# Every way the fabric can discard a packet names exactly one of these
# constants.  The same string is used for the ``drop_counts`` key, the
# ``fabric_drops_total`` metric label, and any diagnostic message, so a
# count in telemetry can always be traced back to one code path.

#: In-flight loss roll (congestion / rate limiting), content-keyed.
DROP_LOSS = "loss"
#: No announcement covers the destination address.
DROP_NO_ROUTE = "no-route"
#: A route exists but its origin ASN was never registered as a system.
DROP_UNROUTED_ASN = "unrouted-asn"
#: Destination AS reached, but no host is bound at the address.
DROP_NO_HOST = "no-host"
#: Border filters (values shared with :class:`BorderVerdict`).
DROP_OSAV = BorderVerdict.DROP_OSAV.value
DROP_DSAV = BorderVerdict.DROP_DSAV.value
DROP_MARTIAN = BorderVerdict.DROP_MARTIAN.value
DROP_SUBNET_SAV = BorderVerdict.DROP_SUBNET_SAV.value
#: Fault-plan injections (see :mod:`repro.netsim.faults`): a windowed
#: burst-loss roll, a blackholed destination prefix, a resolver outage.
DROP_FAULT_LOSS = "fault-loss"
DROP_FAULT_BLACKHOLE = "fault-blackhole"
DROP_FAULT_OUTAGE = "fault-outage"
#: BGP-dynamics fault clauses: traffic swallowed by a prefix hijacker,
#: or forwarded along a stale (stuck) route whose origin went dark.
DROP_FAULT_HIJACK = "fault-hijacked"
DROP_FAULT_STUCK = "fault-stuck-route"

#: The exhaustive set; ``Fabric._drop`` refuses anything else, so a new
#: drop path cannot ship without registering its reason here.
DROP_REASONS = frozenset(
    {
        DROP_LOSS,
        DROP_NO_ROUTE,
        DROP_UNROUTED_ASN,
        DROP_NO_HOST,
        DROP_OSAV,
        DROP_DSAV,
        DROP_MARTIAN,
        DROP_SUBNET_SAV,
        DROP_FAULT_LOSS,
        DROP_FAULT_BLACKHOLE,
        DROP_FAULT_OUTAGE,
        DROP_FAULT_HIJACK,
        DROP_FAULT_STUCK,
    }
)


@dataclass
class DropRecord:
    """One dropped packet with the reason it was discarded."""

    packet: Packet
    reason: str
    asn: int | None


@dataclass
class Fabric:
    """Simulated Internet connecting autonomous systems and hosts."""

    loop: EventLoop = field(default_factory=EventLoop)
    routes: RoutingTable = field(default_factory=RoutingTable)
    seed: int = 0
    base_latency: float = 0.010
    jitter_latency: float = 0.040
    #: fraction of otherwise-deliverable packets dropped in flight
    #: (congestion, rate limiting).  Deterministic for a given seed.
    loss_rate: float = 0.0
    record_drops: bool = False

    _systems: dict[int, AutonomousSystem] = field(default_factory=dict)
    _hosts: dict[Address, Host] = field(default_factory=dict)
    _taps: list[PacketTap] = field(default_factory=list)
    #: deterministic per-AS-pair latency, memoized (crc32 + string
    #: formatting per packet is measurable at campaign scale).
    _latency_cache: dict[tuple[int, int], float] = field(
        default_factory=dict, repr=False
    )
    drop_counts: Counter = field(default_factory=Counter)
    dropped: list[DropRecord] = field(default_factory=list)
    delivered_count: int = 0
    #: optional observability registry; when unset the per-packet cost
    #: of the instrumentation below is a single attribute check.
    metrics: object | None = field(default=None, repr=False)
    _mx_delivered: object | None = field(default=None, repr=False)
    _mx_drops: object | None = field(default=None, repr=False)
    #: optional event journal (duck-typed, see repro.obs.journal); when
    #: unset the per-packet cost is one attribute check in ``send``.
    _journal: object | None = field(default=None, repr=False)
    #: optional fault injector (see :meth:`install_faults`); ``None``
    #: keeps the packet path at one attribute check per send.
    faults: object | None = field(default=None, repr=False)
    #: hash state primed with the loss roll's constant ``(seed, "loss")``
    #: key prefix; built on the first roll (until then the class default
    #: ``None`` shows through) and never pickled.
    _loss_prefix: object | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_loss_prefix", None)
        return state

    def bind_metrics(self, registry) -> None:
        """Collect delivery/drop counters into *registry* from now on."""
        self.metrics = registry
        self._mx_delivered = registry.counter(
            "fabric_delivered_total", "packets handed to a bound host"
        )
        self._mx_drops = registry.counter(
            "fabric_drops_total",
            "packets discarded, by drop reason and border ASN",
            ("reason", "asn"),
        )
        if self.faults is not None:
            self.faults.bind_metrics(registry)

    def bind_journal(self, journal) -> None:
        """Record a ``fabric.path`` event per DNS query from now on."""
        self._journal = journal

    def install_faults(self, injector) -> None:
        """Subject the packet path to *injector*'s fault plan.

        The injector (a :class:`repro.netsim.faults.FaultInjector`, or
        anything duck-compatible) is consulted after the border filters
        accept a packet — faults model the network misbehaving, not the
        filters — and again when delivery latency is computed.  Pass
        the result of ``FaultPlan.compile()``; a ``None`` (zero-fault
        plan) is accepted and leaves the fabric untouched.
        """
        self.faults = injector
        if injector is not None and self.metrics is not None:
            injector.bind_metrics(self.metrics)

    # -- topology construction -------------------------------------------

    def add_system(self, system: AutonomousSystem) -> AutonomousSystem:
        """Register *system* and announce all of its prefixes."""
        if system.asn in self._systems:
            raise ValueError(f"duplicate ASN {system.asn}")
        self._systems[system.asn] = system
        for prefix in system.prefixes():
            self.routes.announce(prefix, system.asn)
        return system

    def system(self, asn: int) -> AutonomousSystem:
        """Return the AS registered under *asn* (KeyError if absent)."""
        return self._systems[asn]

    def systems(self) -> list[AutonomousSystem]:
        """Return all registered autonomous systems."""
        return list(self._systems.values())

    def attach(self, host: Host, *addresses: Address) -> Host:
        """Bind *host* at each address and wire it to this fabric."""
        if host.asn not in self._systems:
            raise ValueError(f"host {host.name}: unknown ASN {host.asn}")
        for address in addresses:
            address = intern_address(address)
            if address in self._hosts:
                raise ValueError(f"address already bound: {address}")
            self._hosts[address] = host
            host.addresses.append(address)
        host.fabric = self
        return host

    def bind_address(self, host: Host, address: Address) -> None:
        """Bind an additional address to an already-attached host."""
        if host.fabric is not self:
            raise ValueError(f"host {host.name} is not attached to this fabric")
        address = intern_address(address)
        if address in self._hosts:
            raise ValueError(f"address already bound: {address}")
        self._hosts[address] = host
        host.addresses.append(address)

    def host_at(self, address: Address) -> Host | None:
        """Return the host bound at *address*, if any."""
        return self._hosts.get(address)

    def add_tap(self, tap: PacketTap) -> None:
        """Register an observer called for each successfully routed packet."""
        self._taps.append(tap)

    # -- packet movement ---------------------------------------------------

    def send(self, origin: Host, packet: Packet) -> None:
        """Carry *packet* from *origin* toward its destination address.

        The packet faces, in order: the origin AS egress filter (OSAV),
        global routing on the destination address, and the destination AS
        ingress filter (DSAV / martians).  Intra-AS traffic never crosses
        a border and so skips both filters, mirroring the fact that DSAV
        is a border mechanism and cannot protect against insiders.
        """
        origin_as = self._systems.get(origin.asn)
        if origin_as is None:
            raise ValueError(
                f"host {origin.name} sends from ASN {origin.asn}, which was "
                f"never registered with this fabric (add_system first)"
            )
        # Flight-recorder entry for this traversal.  Only flows the
        # scan client announced are probe-relevant: resolver upstream
        # queries, retransmissions and responses have nothing a probe
        # id can join against, and recording them would triple the
        # journal for no forensic value.
        jr = self._journal
        rec: str | None = None
        rec_to_asn: int | None = None
        if (
            jr is not None
            and packet.dport == 53
            and jr.wants_flow(packet.src, packet.dst, packet.sport)
        ):
            rec = jr.fabric_head(
                self.loop.now,
                packet.src,
                packet.dst,
                packet.sport,
                packet.dport,
                packet.transport.value,
            )

        faults = self.faults
        if faults is not None and faults.next_route_event <= self.loop.now:
            # BGP dynamics: apply every announcement mutation whose sim
            # time has passed.  Keyed purely on packet timestamps, so
            # any shard's packets observe the same table states.
            faults.apply_route_events(self.routes, self.loop.now)

        dst_route = self.routes.lookup(packet.dst)
        if dst_route is None:
            if rec is not None:
                jr.fabric_done(rec, origin_as.asn, None, DROP_NO_ROUTE)
            self._drop(packet, DROP_NO_ROUTE, None)
            return
        dest_as = self._systems.get(dst_route.asn)
        if dest_as is None:
            if rec is not None:
                jr.fabric_done(
                    rec, origin_as.asn, dst_route.asn, DROP_UNROUTED_ASN
                )
            self._drop(packet, DROP_UNROUTED_ASN, dst_route.asn)
            return

        crossing_border = dest_as.asn != origin_as.asn
        #: summed per-link latency when a multi-hop policy path is
        #: walked; ``None`` keeps the legacy star pair latency.
        path_latency: float | None = None
        if crossing_border:
            rec_to_asn = dest_as.asn
            walk = None
            policy = self.routes.policy
            if policy is not None:
                # Policy-aware mode: the packet follows the compiled
                # valley-free AS path hop by hop.  ``as_path`` is a
                # bounded memo over precomputed next-hop columns — no
                # graph search happens here.
                walk = policy.as_path(origin_as.asn, dest_as.asn)
                if walk is None:
                    if rec is not None:
                        jr.fabric_done(
                            rec, origin_as.asn, rec_to_asn, DROP_NO_ROUTE
                        )
                    self._drop(packet, DROP_NO_ROUTE, origin_as.asn)
                    return
                if rec is not None:
                    rec += jr.fabric_aspath(walk[0], walk[1])
            verdict = origin_as.egress_verdict(packet)
            if rec is not None:
                rec += jr.fabric_egress(
                    origin_as.asn,
                    origin_as.osav,
                    verdict.value,
                    origin_as.covering_prefix(packet.src),
                )
            if verdict is not BorderVerdict.ACCEPT:
                if rec is not None:
                    jr.fabric_done(
                        rec, origin_as.asn, rec_to_asn, verdict.value
                    )
                self._drop(packet, verdict.value, origin_as.asn)
                return
            if walk is not None:
                hops = walk[0]
                total = 0.0
                prev = hops[0]
                for asn in hops[1:-1]:
                    total += self._latency(prev, asn)
                    prev = asn
                    transit_as = self._systems.get(asn)
                    if transit_as is None:
                        continue
                    verdict = transit_as.transit_verdict(packet)
                    if verdict is not BorderVerdict.ACCEPT:
                        if rec is not None:
                            rec += jr.fabric_transit(asn, verdict.value)
                            jr.fabric_done(
                                rec, origin_as.asn, rec_to_asn, verdict.value
                            )
                        self._drop(packet, verdict.value, asn)
                        return
                total += self._latency(prev, hops[-1])
                path_latency = total
            verdict = dest_as.ingress_verdict(packet)
            if rec is not None:
                rec += jr.fabric_ingress(
                    dest_as.asn,
                    dest_as.dsav,
                    dest_as.martian_filtering,
                    verdict.value,
                    dest_as.covering_prefix(packet.src),
                )
            if verdict is not BorderVerdict.ACCEPT:
                if rec is not None:
                    jr.fabric_done(
                        rec, origin_as.asn, rec_to_asn, verdict.value
                    )
                self._drop(packet, verdict.value, dest_as.asn)
                return
            # One TTL decrement per inter-AS link on the walked path;
            # star mode keeps its single origin→destination crossing.
            packet = packet.hop(len(walk[0]) - 1 if walk is not None else 1)
        else:
            rec_to_asn = dest_as.asn

        if faults is not None:
            reason = faults.drop_reason(
                packet, origin_as.asn, dest_as.asn, self.loop.now
            )
            if reason is not None:
                if rec is not None:
                    jr.fabric_done(rec, origin_as.asn, rec_to_asn, reason)
                self._drop(
                    packet,
                    reason,
                    None if reason == DROP_FAULT_LOSS else dest_as.asn,
                )
                return

        target = self._hosts.get(packet.dst)
        if target is None:
            if rec is not None:
                jr.fabric_done(rec, origin_as.asn, rec_to_asn, DROP_NO_HOST)
            self._drop(packet, DROP_NO_HOST, dest_as.asn)
            return

        if self.loss_rate > 0 and self._loss_roll(packet) < self.loss_rate:
            if rec is not None:
                jr.fabric_done(rec, origin_as.asn, rec_to_asn, DROP_LOSS)
            self._drop(packet, DROP_LOSS, None)
            return

        if rec is not None:
            jr.fabric_done(rec, origin_as.asn, rec_to_asn, "delivered")
        for tap in self._taps:
            tap(packet, target)
        latency = (
            path_latency
            if path_latency is not None
            else self._latency(origin.asn, dest_as.asn)
        )
        if faults is not None:
            mods = faults.delivery_mods(
                packet, origin_as.asn, dest_as.asn, self.loop.now
            )
            if mods is not None:
                factor, extra, duplicate_delay, kinds = mods
                latency = latency * factor + extra
                if duplicate_delay is not None:
                    self.loop.schedule(
                        latency + duplicate_delay,
                        lambda: self._deliver(target, packet),
                    )
                if rec is not None:
                    jr.emit(
                        "fault.injected",
                        self.loop.now,
                        None,
                        src=jr.addr(packet.src),
                        dst=jr.addr(packet.dst),
                        sport=packet.sport,
                        kinds=kinds,
                    )
        self.loop.schedule(latency, lambda: self._deliver(target, packet))

    def _deliver(self, target: Host, packet: Packet) -> None:
        self.delivered_count += 1
        mx = self._mx_delivered
        if mx is not None:
            mx.inc()
        target.handle_packet(packet)

    def _loss_roll(self, packet: Packet) -> float:
        """Per-packet loss roll, keyed on the packet's own content.

        A consumed RNG stream would make every packet's fate depend on
        how many other packets happened to precede it — which differs
        between a sharded and an unsharded run of the same campaign.
        Hashing the packet instead keeps the decision a pure function of
        (fabric seed, packet), so shard merges replay losses exactly.
        """
        prefix = self._loss_prefix
        if prefix is None:
            prefix = self._loss_prefix = stable_prefix(self.seed, "loss")
        return prefixed_fraction(
            prefix,
            int(packet.src),
            int(packet.dst),
            packet.sport,
            packet.dport,
            packet.transport.value,
            int(packet.tcp_flags),
            packet.payload,
        )

    def _drop(self, packet: Packet, reason: str, asn: int | None) -> None:
        assert reason in DROP_REASONS, f"unregistered drop reason {reason!r}"
        self.drop_counts[reason] += 1
        mx = self._mx_drops
        if mx is not None:
            mx.inc(1, (reason, "" if asn is None else str(asn)))
        if self.record_drops:
            self.dropped.append(DropRecord(packet, reason, asn))

    def _latency(self, src_asn: int, dst_asn: int) -> float:
        """Deterministic per-AS-pair latency derived from the fabric seed."""
        if src_asn == dst_asn:
            return self.base_latency / 2
        pair = (
            (src_asn, dst_asn) if src_asn < dst_asn else (dst_asn, src_asn)
        )
        latency = self._latency_cache.get(pair)
        if latency is None:
            key = f"{self.seed}:{pair[0]}:{pair[1]}"
            fraction = (zlib.crc32(key.encode()) % 1000) / 1000.0
            latency = self.base_latency + fraction * self.jitter_latency
            self._latency_cache[pair] = latency
        return latency

    # -- convenience -------------------------------------------------------

    def run(self, max_events: int | None = None) -> int:
        """Drain the event loop (see :meth:`EventLoop.run`)."""
        return self.loop.run(max_events)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.loop.now

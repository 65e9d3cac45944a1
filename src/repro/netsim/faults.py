"""Deterministic fault injection: the chaos side of the fabric.

The paper's six-week campaign ran over a hostile substrate — lossy
paths, rate-limited resolvers, partial outages, collector crashes.  This
module lets a reproduction *schedule* that hostility: a serializable
:class:`FaultPlan` composes windowed fault clauses (burst loss between
AS pairs, blackholed prefixes, resolver outages and slowdowns, packet
duplication, reordering jitter, BGP route dynamics — withdrawals,
prefix hijacks, stuck routes — and scripted shard-worker crashes) that
the fabric and the pipeline replay exactly.

Determinism contract
--------------------

Every per-packet decision a clause makes is keyed with
:func:`~repro.netsim.determinism.stable_fraction` on ``(plan seed,
clause index, packet content)`` — never a consumed RNG stream — so an
N-shard faulted run replays byte-identically to the 1-shard run, and a
re-executed crashed shard suffers exactly the losses the first attempt
did.  A plan with no clauses compiles to ``None`` and leaves the fabric
untouched, so the zero-fault run is bit-for-bit the unfaulted run.

The plan is JSON all the way down: ``FaultPlan.load`` / ``save`` round
trip the schema-versioned payload the pipeline stores as the
``faults.json`` run artifact.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from ipaddress import ip_address, ip_network
from pathlib import Path
from typing import Any

from .determinism import stable_fraction

#: Version stamped into every serialized plan; readers refuse others.
FAULT_SCHEMA_VERSION = 1


def plan_digest(payload: dict) -> str:
    """Content address of a serialized fault plan.

    Canonical-JSON sha256 over the full payload (seed included), so two
    plans with identical clauses but different seeds — which inject
    different packet fates — digest differently.  This is the identity
    the results provenance and the cross-run ledger carry.
    """
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def reseed_payload(payload: dict, seed: int) -> dict:
    """The same clauses under a different seed — new packet fates.

    Longitudinal campaigns use this for per-epoch fault scheduling (the
    ``fault-cycle`` evolution clause): the plan's structure is held
    fixed while every content-keyed roll re-keys, giving each epoch its
    own network weather.  The payload is round-tripped through
    :class:`FaultPlan` so malformed input fails here, not mid-epoch.
    """
    return FaultPlan.from_payload(payload).with_seed(seed).to_payload()

#: Shard-crash behaviours (see :class:`ShardCrash`).
CRASH_MODES = ("kill", "raise", "hang")


class ShardCrashInjected(RuntimeError):
    """Raised by a shard when a ``shard-crash`` clause fires in ``raise``
    mode, or in any mode inline.

    Like any exception that escapes a shard, it fails the attempt: the
    pipeline records ``"ShardCrashInjected: <message>"`` as the cause
    and re-executes the shard.
    """

    def __init__(self, shard: int, clause_index: int) -> None:
        super().__init__(
            f"injected crash: shard {shard} hit shard-crash clause "
            f"{clause_index}"
        )
        self.shard = shard
        self.clause_index = clause_index


def _window_contains(start: float, end: float | None, t: float) -> bool:
    return t >= start and (end is None or t < end)


@dataclass(frozen=True)
class BurstLoss:
    """Windowed loss burst, optionally scoped to an AS pair.

    ``src_asn`` / ``dst_asn`` of ``None`` are wildcards; the rate stacks
    on top of the fabric's builtin ``loss_rate`` (independent rolls).
    """

    rate: float
    start: float = 0.0
    end: float | None = None
    src_asn: int | None = None
    dst_asn: int | None = None


@dataclass(frozen=True)
class Blackhole:
    """Null-route every packet whose destination falls in ``prefix``."""

    prefix: str
    start: float = 0.0
    end: float | None = None


@dataclass(frozen=True)
class ResolverOutage:
    """Drop every packet addressed to ``address`` during the window."""

    address: str
    start: float = 0.0
    end: float | None = None


@dataclass(frozen=True)
class ResolverSlowdown:
    """Multiply delivery latency toward ``address`` by ``factor``."""

    address: str
    factor: float
    start: float = 0.0
    end: float | None = None


@dataclass(frozen=True)
class Duplicate:
    """Deliver a second copy of a fraction of packets, ``delay`` later."""

    rate: float
    delay: float = 0.050
    start: float = 0.0
    end: float | None = None


@dataclass(frozen=True)
class Reorder:
    """Add up to ``jitter`` seconds of extra delay to a packet fraction.

    Delaying one packet past its neighbours is exactly how reordering
    manifests to endpoints, so jitter is the whole mechanism.
    """

    rate: float
    jitter: float
    start: float = 0.0
    end: float | None = None


@dataclass(frozen=True)
class RouteWithdrawal:
    """Withdraw ``prefix`` from the routing table at sim time ``at``.

    Packets toward the prefix drop with ``no-route`` until
    ``restore_at`` (if given) re-installs the original announcement.
    The mutation is applied lazily when the first packet at or past
    ``at`` enters the fabric, so it is a pure function of packet
    timestamps and replays identically at any shard count.
    """

    prefix: str
    at: float = 0.0
    restore_at: float | None = None


@dataclass(frozen=True)
class PrefixHijack:
    """Announce ``prefix`` from ``by_asn`` during ``[at, end)``.

    The hijacker's announcement displaces (or shadows, for a
    more-specific) the legitimate origin: lookups resolve to
    ``by_asn``, packets walk the policy path toward the hijacker and
    are swallowed there with ``fault-hijacked``.  ``end`` of ``None``
    leaves the hijack in place for the rest of the run.
    """

    prefix: str
    by_asn: int
    at: float = 0.0
    end: float | None = None


@dataclass(frozen=True)
class StuckRoute:
    """Model slow convergence: a dead route that lingers in the table.

    The origin of ``prefix`` goes dark at ``at`` but the announcement
    stays installed for ``linger`` seconds — packets still forward
    along the stale path and drop with ``fault-stuck-route`` — before
    the withdrawal finally propagates and subsequent packets see
    ``no-route``.
    """

    prefix: str
    at: float = 0.0
    linger: float = 30.0


@dataclass(frozen=True)
class ShardCrash:
    """Kill shard ``shard``'s worker after it sends ``after_probes``.

    ``times`` bounds how often the clause fires across re-executions
    (the worker leaves a marker file per firing, so a re-run of the
    same shard does not crash forever), which is why the pipeline
    refuses such a clause without a run directory.  ``mode`` picks the
    failure: ``kill`` SIGKILLs the worker process (inline shards
    downgrade to ``raise``), ``raise`` throws
    :class:`ShardCrashInjected`, ``hang`` stops sending probes, and with
    them reports, so the parent's hang reaper must act; the pipeline
    refuses a ``hang`` clause without a hang timeout.
    """

    shard: int
    after_probes: int
    times: int = 1
    mode: str = "kill"


#: kind string -> clause class, the serialization dispatch table.
_CLAUSE_KINDS = {
    "burst-loss": BurstLoss,
    "blackhole": Blackhole,
    "resolver-outage": ResolverOutage,
    "resolver-slowdown": ResolverSlowdown,
    "duplicate": Duplicate,
    "reorder": Reorder,
    "route-withdrawal": RouteWithdrawal,
    "prefix-hijack": PrefixHijack,
    "stuck-route": StuckRoute,
    "shard-crash": ShardCrash,
}
_KIND_BY_CLASS = {cls: kind for kind, cls in _CLAUSE_KINDS.items()}


def _validate_clause(index: int, clause) -> None:
    def fail(message: str) -> None:
        kind = _KIND_BY_CLASS[type(clause)]
        raise ValueError(f"fault clause {index} ({kind}): {message}")

    start = getattr(clause, "start", None)
    end = getattr(clause, "end", None)
    if start is not None:
        if start < 0:
            fail(f"negative window start {start}")
        if end is not None and end <= start:
            fail(f"empty window [{start}, {end})")
    rate = getattr(clause, "rate", None)
    if rate is not None and not 0.0 < rate <= 1.0:
        fail(f"rate {rate} outside (0, 1]")
    if isinstance(clause, Blackhole):
        ip_network(clause.prefix)  # raises ValueError on garbage
    if isinstance(clause, (ResolverOutage, ResolverSlowdown)):
        ip_address(clause.address)
    if isinstance(clause, ResolverSlowdown) and clause.factor <= 1.0:
        fail(f"factor {clause.factor} must exceed 1")
    if isinstance(clause, Duplicate) and clause.delay <= 0:
        fail(f"duplicate delay {clause.delay} must be positive")
    if isinstance(clause, Reorder) and clause.jitter <= 0:
        fail(f"jitter {clause.jitter} must be positive")
    if isinstance(clause, (RouteWithdrawal, PrefixHijack, StuckRoute)):
        ip_network(clause.prefix)  # raises ValueError on garbage
        if clause.at < 0:
            fail(f"negative event time {clause.at}")
    if isinstance(clause, RouteWithdrawal):
        if clause.restore_at is not None and clause.restore_at <= clause.at:
            fail(
                f"restore_at {clause.restore_at} must follow at {clause.at}"
            )
    if isinstance(clause, PrefixHijack):
        if clause.by_asn < 1:
            fail(f"invalid hijacking ASN {clause.by_asn}")
        if clause.end is not None and clause.end <= clause.at:
            fail(f"empty hijack window [{clause.at}, {clause.end})")
    if isinstance(clause, StuckRoute) and clause.linger <= 0:
        fail(f"linger {clause.linger} must be positive")
    if isinstance(clause, ShardCrash):
        if clause.shard < 0:
            fail(f"negative shard {clause.shard}")
        if clause.after_probes < 1:
            fail("after_probes must be >= 1")
        if clause.times < 1:
            fail("times must be >= 1")
        if clause.mode not in CRASH_MODES:
            fail(f"mode {clause.mode!r} not in {CRASH_MODES}")


@dataclass
class FaultPlan:
    """A named, seeded composition of fault clauses.

    ``seed`` keys every clause roll; two plans with the same clauses
    but different seeds inject different (but each fully deterministic)
    packet fates.
    """

    seed: int = 0
    name: str = ""
    clauses: list = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.clauses is None:
            self.clauses = []
        for index, clause in enumerate(self.clauses):
            if type(clause) not in _KIND_BY_CLASS:
                raise ValueError(
                    f"fault clause {index}: unknown clause {clause!r}"
                )
            _validate_clause(index, clause)

    # -- serialization ---------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        clauses = []
        for clause in self.clauses:
            payload = {"kind": _KIND_BY_CLASS[type(clause)]}
            payload.update(vars(clause))
            clauses.append(payload)
        return {
            "schema_version": FAULT_SCHEMA_VERSION,
            "seed": self.seed,
            "name": self.name,
            "clauses": clauses,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "FaultPlan":
        version = payload.get("schema_version")
        if version != FAULT_SCHEMA_VERSION:
            raise ValueError(
                f"fault plan has schema_version={version!r}, this code "
                f"reads version {FAULT_SCHEMA_VERSION}"
            )
        clauses = []
        for index, item in enumerate(payload.get("clauses", [])):
            kind = item.get("kind")
            clause_cls = _CLAUSE_KINDS.get(kind)
            if clause_cls is None:
                raise ValueError(
                    f"fault clause {index}: unknown kind {kind!r} "
                    f"(known: {sorted(_CLAUSE_KINDS)})"
                )
            fields = {k: v for k, v in item.items() if k != "kind"}
            try:
                clauses.append(clause_cls(**fields))
            except TypeError as exc:
                raise ValueError(f"fault clause {index} ({kind}): {exc}")
        return cls(
            seed=payload.get("seed", 0),
            name=payload.get("name", ""),
            clauses=clauses,
        )

    @classmethod
    def load(cls, path) -> "FaultPlan":
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})")
        return cls.from_payload(payload)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_payload(), indent=2) + "\n")

    def digest(self) -> str:
        """Content address of this plan (see :func:`plan_digest`)."""
        return plan_digest(self.to_payload())

    def with_seed(self, seed: int) -> "FaultPlan":
        """A copy of this plan rolling its fates under *seed*."""
        return FaultPlan(
            seed=int(seed), name=self.name, clauses=self.clauses
        )

    # -- queries ---------------------------------------------------------

    def crash_clauses(self, shard: int) -> list[tuple[int, ShardCrash]]:
        """``(clause index, clause)`` pairs targeting *shard*."""
        return [
            (index, clause)
            for index, clause in enumerate(self.clauses)
            if isinstance(clause, ShardCrash) and clause.shard == shard
        ]

    def compile(self) -> "FaultInjector | None":
        """Build the packet-path injector, or ``None`` if nothing to do.

        Shard-crash clauses live in the pipeline, not the packet path;
        a plan containing only those (or nothing) leaves the fabric
        untouched, which is what makes the zero-fault run byte-identical
        to an unfaulted one.
        """
        packet_clauses = [
            (index, clause)
            for index, clause in enumerate(self.clauses)
            if not isinstance(clause, ShardCrash)
        ]
        if not packet_clauses:
            return None
        return FaultInjector(self.seed, packet_clauses)


class FaultInjector:
    """Compiled packet-path view of a plan, installed on a ``Fabric``.

    The fabric consults :meth:`drop_reason` once per deliverable packet
    and :meth:`delivery_mods` once per delivery; both are pure functions
    of (plan seed, clause, packet content, window), so installation
    never perturbs determinism — only fates.
    """

    __slots__ = (
        "seed",
        "_bursts",
        "_blackholes",
        "_outages",
        "_slowdowns",
        "_duplicates",
        "_reorders",
        "_stucks",
        "_hijacks",
        "_route_events",
        "_route_cursor",
        "next_route_event",
        "_displaced",
        "injections",
        "_mx_injections",
    )

    def __init__(self, seed: int, clauses: list[tuple[int, Any]]) -> None:
        self.seed = seed
        self._bursts: list[tuple[int, BurstLoss]] = []
        #: (index, version, lo, hi, start, end) per blackholed prefix.
        self._blackholes: list[tuple] = []
        self._outages: list[tuple] = []
        self._slowdowns: list[tuple] = []
        self._duplicates: list[tuple[int, Duplicate]] = []
        self._reorders: list[tuple[int, Reorder]] = []
        #: (version, lo, hi, start, end) windows where a stale route
        #: still forwards but the origin swallows the traffic.
        self._stucks: list[tuple] = []
        #: (version, lo, hi, start, end) windows owned by a hijacker.
        self._hijacks: list[tuple] = []
        #: (time, order, op, prefix, asn) announcements mutations,
        #: applied lazily in time order as packet timestamps pass them.
        self._route_events: list[tuple[float, int, str, str, int]] = []
        self._route_cursor = 0
        #: earliest unapplied route event; the fabric compares this to
        #: ``loop.now`` once per packet (one float compare).
        self.next_route_event = float("inf")
        #: prefix -> announcement displaced by a withdraw/hijack, so a
        #: restore re-installs exactly what was there.
        self._displaced: dict[str, Any] = {}
        #: injection counts by clause kind (mirrors the metric).
        self.injections: Counter = Counter()
        self._mx_injections = None
        for index, clause in clauses:
            if isinstance(clause, BurstLoss):
                self._bursts.append((index, clause))
            elif isinstance(clause, Blackhole):
                net = ip_network(clause.prefix)
                self._blackholes.append(
                    (
                        index,
                        net.version,
                        int(net.network_address),
                        int(net.broadcast_address),
                        clause.start,
                        clause.end,
                    )
                )
            elif isinstance(clause, ResolverOutage):
                self._outages.append(
                    (index, ip_address(clause.address), clause.start,
                     clause.end)
                )
            elif isinstance(clause, ResolverSlowdown):
                self._slowdowns.append(
                    (index, ip_address(clause.address), clause.factor,
                     clause.start, clause.end)
                )
            elif isinstance(clause, Duplicate):
                self._duplicates.append((index, clause))
            elif isinstance(clause, Reorder):
                self._reorders.append((index, clause))
            elif isinstance(clause, RouteWithdrawal):
                self._route_events.append(
                    (clause.at, index, "withdraw", clause.prefix, 0)
                )
                if clause.restore_at is not None:
                    self._route_events.append(
                        (clause.restore_at, index, "restore",
                         clause.prefix, 0)
                    )
            elif isinstance(clause, PrefixHijack):
                net = ip_network(clause.prefix)
                self._route_events.append(
                    (clause.at, index, "hijack", clause.prefix,
                     clause.by_asn)
                )
                if clause.end is not None:
                    self._route_events.append(
                        (clause.end, index, "unhijack", clause.prefix, 0)
                    )
                self._hijacks.append(
                    (
                        net.version,
                        int(net.network_address),
                        int(net.broadcast_address),
                        clause.at,
                        clause.end,
                    )
                )
            elif isinstance(clause, StuckRoute):
                net = ip_network(clause.prefix)
                self._route_events.append(
                    (clause.at + clause.linger, index, "withdraw",
                     clause.prefix, 0)
                )
                self._stucks.append(
                    (
                        net.version,
                        int(net.network_address),
                        int(net.broadcast_address),
                        clause.at,
                        clause.at + clause.linger,
                    )
                )
            else:  # pragma: no cover - compile() filters these
                raise TypeError(f"not a packet clause: {clause!r}")
        self._route_events.sort()
        if self._route_events:
            self.next_route_event = self._route_events[0][0]

    def apply_route_events(self, routes, now: float) -> None:
        """Apply every due announcement mutation to *routes*.

        Called by the fabric when ``next_route_event <= now``.  Events
        fire strictly in (time, clause index) order, so the table state
        any packet observes is a pure function of that packet's
        timestamp — the property that keeps N-shard faulted runs
        byte-identical to 1-shard.
        """
        events = self._route_events
        cursor = self._route_cursor
        while cursor < len(events) and events[cursor][0] <= now:
            _at, _index, op, prefix, asn = events[cursor]
            cursor += 1
            if op == "withdraw":
                displaced = routes.announcement_for(prefix)
                if displaced is not None:
                    self._displaced[prefix] = displaced
                    routes.withdraw(prefix)
            elif op == "restore":
                displaced = self._displaced.pop(prefix, None)
                if displaced is not None:
                    routes.announce(displaced.prefix, displaced.asn)
            elif op == "hijack":
                displaced = routes.announcement_for(prefix)
                if displaced is not None:
                    self._displaced[prefix] = displaced
                routes.announce(prefix, asn)
            else:  # unhijack
                routes.withdraw(prefix)
                displaced = self._displaced.pop(prefix, None)
                if displaced is not None:
                    routes.announce(displaced.prefix, displaced.asn)
        self._route_cursor = cursor
        self.next_route_event = (
            events[cursor][0] if cursor < len(events) else float("inf")
        )

    def bind_metrics(self, registry) -> None:
        """Count injections into *registry* from now on.

        Injections are content-keyed, so the counter is deterministic:
        shard merges sum to exactly the unsharded totals.
        """
        self._mx_injections = registry.counter(
            "fabric_fault_injections_total",
            "fault-plan clause firings, by clause kind",
            ("kind",),
        )

    # -- per-packet decisions --------------------------------------------

    def _roll(self, index: int, packet) -> float:
        """One clause's uniform roll for *packet*, content-keyed."""
        return stable_fraction(
            self.seed,
            "fault",
            index,
            int(packet.src),
            int(packet.dst),
            packet.sport,
            packet.dport,
            packet.transport.value,
            packet.payload,
        )

    def _record(self, kind: str) -> None:
        self.injections[kind] += 1
        mx = self._mx_injections
        if mx is not None:
            mx.inc(1, (kind,))

    def drop_reason(
        self, packet, src_asn: int, dst_asn: int, now: float
    ) -> str | None:
        """Drop verdict for *packet*, or ``None`` to let it through.

        Returns one of the ``fault-*`` drop reasons registered in
        :mod:`repro.netsim.fabric`.
        """
        dst_int = None
        for index, version, lo, hi, start, end in self._blackholes:
            if packet.dst.version != version:
                continue
            if not _window_contains(start, end, now):
                continue
            if dst_int is None:
                dst_int = int(packet.dst)
            if lo <= dst_int <= hi:
                self._record("blackhole")
                return "fault-blackhole"
        for version, lo, hi, start, end in self._stucks:
            if packet.dst.version != version:
                continue
            if not _window_contains(start, end, now):
                continue
            if dst_int is None:
                dst_int = int(packet.dst)
            if lo <= dst_int <= hi:
                self._record("stuck-route")
                return "fault-stuck-route"
        for version, lo, hi, start, end in self._hijacks:
            if packet.dst.version != version:
                continue
            if not _window_contains(start, end, now):
                continue
            if dst_int is None:
                dst_int = int(packet.dst)
            if lo <= dst_int <= hi:
                self._record("prefix-hijack")
                return "fault-hijacked"
        for index, address, start, end in self._outages:
            if packet.dst == address and _window_contains(start, end, now):
                self._record("resolver-outage")
                return "fault-outage"
        for index, clause in self._bursts:
            if not _window_contains(clause.start, clause.end, now):
                continue
            if clause.src_asn is not None and clause.src_asn != src_asn:
                continue
            if clause.dst_asn is not None and clause.dst_asn != dst_asn:
                continue
            if self._roll(index, packet) < clause.rate:
                self._record("burst-loss")
                return "fault-loss"
        return None

    def delivery_mods(
        self, packet, src_asn: int, dst_asn: int, now: float
    ) -> tuple[float, float, float | None, list[str]] | None:
        """Latency/duplication adjustments for a surviving packet.

        Returns ``(latency_factor, extra_delay, duplicate_delay,
        kinds)`` or ``None`` when no clause touches this packet —
        ``None`` keeps the common case allocation-free.
        """
        factor = 1.0
        extra = 0.0
        duplicate_delay = None
        kinds: list[str] | None = None
        for index, address, slow, start, end in self._slowdowns:
            if packet.dst == address and _window_contains(start, end, now):
                factor *= slow
                self._record("resolver-slowdown")
                kinds = (kinds or []) + ["resolver-slowdown"]
        for index, clause in self._reorders:
            if not _window_contains(clause.start, clause.end, now):
                continue
            roll = self._roll(index, packet)
            if roll < clause.rate:
                # Re-scale the winning roll into [0, 1) for the jitter
                # magnitude so one hash decides both fire-and-size.
                extra += clause.jitter * (roll / clause.rate)
                self._record("reorder")
                kinds = (kinds or []) + ["reorder"]
        for index, clause in self._duplicates:
            if not _window_contains(clause.start, clause.end, now):
                continue
            if self._roll(index, packet) < clause.rate:
                duplicate_delay = clause.delay
                self._record("duplicate")
                kinds = (kinds or []) + ["duplicate"]
        if kinds is None:
            return None
        return factor, extra, duplicate_delay, kinds

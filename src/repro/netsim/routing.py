"""BGP-style routing table with longest-prefix matching.

The global table maps announced prefixes to the autonomous system that
originates them.  The mutable source of truth is a binary radix trie
over address bits — the structure production routers use, O(prefix
length) for insert and withdraw.  Lookups, however, go through a
pyasn-style *compiled* view: once announcements settle, each family's
prefixes flatten into sorted, disjoint integer ``(start, end)``
intervals searched with one :func:`bisect.bisect_right`, fronted by a
bounded per-address route cache.  Any ``announce``/``withdraw`` marks
the compiled view dirty and drops the cache; the next lookup recompiles
automatically, so callers never see a stale route and the packet hot
path (:meth:`Fabric.send <repro.netsim.fabric.Fabric.send>`) always
hits the flat table.

This is the component that stands in for the public BGP table the paper
consulted to map DITL source addresses to ASNs and to enumerate each
AS's announced prefixes (Section 3.2).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from heapq import heappop, heappush
from ipaddress import ip_network
from typing import TYPE_CHECKING

from .addresses import Address, Network

if TYPE_CHECKING:
    from .topology import ASGraph


@dataclass(frozen=True, slots=True)
class Announcement:
    """A single BGP-style origination of *prefix* by *asn*."""

    prefix: Network
    asn: int

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ValueError(f"invalid ASN: {self.asn}")


class _TrieNode:
    """One node of the binary radix trie; ``announcement`` marks a route."""

    __slots__ = ("children", "announcement")

    def __init__(self) -> None:
        self.children: list[_TrieNode | None] = [None, None]
        self.announcement: Announcement | None = None


def _address_bits(value: int, width: int) -> Iterator[int]:
    """Yield the bits of *value* most-significant first over *width* bits."""
    for shift in range(width - 1, -1, -1):
        yield (value >> shift) & 1


#: Sentinel distinguishing "cached None" from "not cached".
_CACHE_MISS = object()

#: Ceiling on cached per-address routes; the cache is flushed wholesale
#: when it fills (simple, and a full flush is cheaper than eviction
#: bookkeeping at this size).
ROUTE_CACHE_LIMIT = 1 << 16


@dataclass
class RoutingTable:
    """Longest-prefix-match table from announced prefixes to origin ASNs.

    IPv4 and IPv6 each get their own trie (the mutable source of truth)
    plus a compiled flat interval view used by :meth:`lookup`.  Duplicate
    announcements of the same prefix overwrite (last announcement wins),
    matching the "most recent RIB snapshot" semantics the paper's
    lookups rely on.
    """

    _roots: dict[int, _TrieNode] = field(
        default_factory=lambda: {4: _TrieNode(), 6: _TrieNode()}
    )
    _announcements: dict[Network, Announcement] = field(default_factory=dict)
    #: version -> (starts, ends, announcements): disjoint sorted spans
    #: where each span maps to its most-specific covering announcement.
    _compiled: dict[
        int, tuple[list[int], list[int], list[Announcement]]
    ] = field(default_factory=dict, repr=False)
    _by_asn: dict[int, list[Network]] = field(default_factory=dict, repr=False)
    _dirty: bool = True
    _cache: dict[tuple[int, int], Announcement | None] = field(
        default_factory=dict, repr=False
    )
    #: optional route-cache instruments (see ``bind_metrics``); ``None``
    #: keeps the lookup fast path at one extra attribute check.
    _mx_hits: object | None = field(default=None, repr=False)
    _mx_misses: object | None = field(default=None, repr=False)
    #: optional AS-relationship graph + its compiled valley-free paths.
    #: ``None`` (the default) is the legacy star topology: every
    #: inter-AS packet crosses exactly the origin and destination
    #: borders, and nothing below changes behaviour.
    _graph: "ASGraph | None" = field(default=None, repr=False)
    _policy: "PolicyView | None" = field(default=None, repr=False)

    @property
    def policy(self) -> "PolicyView | None":
        """The compiled valley-free view, or ``None`` in star mode."""
        return self._policy

    @property
    def graph(self) -> "ASGraph | None":
        return self._graph

    def attach_graph(self, graph: "ASGraph") -> None:
        """Attach an AS-relationship graph and compile its path tables.

        The graph is immutable for the lifetime of a scenario, so the
        policy view compiles once here (at build time — the artifact
        then carries the tables) and is never invalidated by
        announcement churn: withdrawals and hijacks change *which
        origin* a lookup resolves to, not how ASes reach each other.
        """
        self._policy = PolicyView.compile(graph)
        self._graph = graph

    def as_path(
        self, src_asn: int, dst_asn: int
    ) -> tuple[tuple[int, ...], tuple[str, ...]] | None:
        """Valley-free AS path + per-hop relationship labels, or ``None``."""
        policy = self._policy
        if policy is None:
            return None
        return policy.as_path(src_asn, dst_asn)

    def announcement_for(self, prefix: Network | str) -> Announcement | None:
        """The exact-prefix announcement currently installed, if any."""
        if isinstance(prefix, str):
            prefix = ip_network(prefix)
        return self._announcements.get(prefix)

    def bind_metrics(self, registry) -> None:
        """Count route-cache hits/misses into *registry* from now on.

        Cache behaviour depends on how much other traffic shared the
        table (a shard sees only its own lookups), so these counters
        are excluded from shard-equivalence comparisons.
        """
        self._mx_hits = registry.counter(
            "routing_cache_hits_total",
            "compiled-LPM route cache hits",
            deterministic=False,
        )
        self._mx_misses = registry.counter(
            "routing_cache_misses_total",
            "compiled-LPM route cache misses (bisect lookups)",
            deterministic=False,
        )

    def announce(self, prefix: Network | str, asn: int) -> Announcement:
        """Install an origination of *prefix* by *asn*; return the entry."""
        if isinstance(prefix, str):
            prefix = ip_network(prefix)
        announcement = Announcement(prefix, asn)
        existing = self._announcements.get(prefix)
        if existing == announcement:
            # Identical re-announcement: the table's state is unchanged,
            # so don't invalidate the compiled view or drop the route
            # cache.  BGP fault clauses restore withdrawn/hijacked
            # prefixes mid-scan and must not pay a recompile when the
            # restore lands on an already-identical entry.
            return existing
        node = self._roots[prefix.version]
        bits = _address_bits(int(prefix.network_address), prefix.max_prefixlen)
        for _, bit in zip(range(prefix.prefixlen), bits):
            if node.children[bit] is None:
                node.children[bit] = _TrieNode()
            node = node.children[bit]  # type: ignore[assignment]
        node.announcement = announcement
        self._announcements[prefix] = announcement
        self._invalidate()
        return announcement

    def withdraw(self, prefix: Network | str) -> bool:
        """Remove the announcement for *prefix*; return whether it existed."""
        if isinstance(prefix, str):
            prefix = ip_network(prefix)
        if prefix not in self._announcements:
            return False
        del self._announcements[prefix]
        node: _TrieNode | None = self._roots[prefix.version]
        bits = _address_bits(int(prefix.network_address), prefix.max_prefixlen)
        for _, bit in zip(range(prefix.prefixlen), bits):
            assert node is not None
            node = node.children[bit]
        assert node is not None
        node.announcement = None
        self._invalidate()
        return True

    def _invalidate(self) -> None:
        self._dirty = True
        if self._cache:
            self._cache.clear()

    def compile(self) -> None:
        """Flatten the current announcements into the interval view.

        Prefixes of one family are proper CIDR sets — any two are
        disjoint or nested — so a single sweep with a nesting stack
        yields disjoint spans, each owned by its most-specific prefix.
        Runs in O(n log n); called automatically from :meth:`lookup`
        when the table is dirty, or explicitly to pre-warm.
        """
        compiled: dict[
            int, tuple[list[int], list[int], list[Announcement]]
        ] = {}
        by_asn: dict[int, list[Network]] = {}
        for announcement in self._announcements.values():
            by_asn.setdefault(announcement.asn, []).append(
                announcement.prefix
            )
        for prefixes in by_asn.values():
            prefixes.sort(
                key=lambda p: (p.version, int(p.network_address), p.prefixlen)
            )
        for version in (4, 6):
            spans = sorted(
                (
                    int(a.prefix.network_address),
                    a.prefix.prefixlen,
                    int(a.prefix.broadcast_address),
                    a,
                )
                for a in self._announcements.values()
                if a.prefix.version == version
            )
            starts: list[int] = []
            ends: list[int] = []
            owners: list[Announcement] = []

            def emit(s: int, e: int, owner: Announcement) -> None:
                if s <= e:
                    starts.append(s)
                    ends.append(e)
                    owners.append(owner)

            stack: list[tuple[int, Announcement]] = []
            cursor = 0
            for start, _prefixlen, end, announcement in spans:
                while stack and stack[-1][0] < start:
                    top_end, top_ann = stack.pop()
                    emit(cursor, top_end, top_ann)
                    cursor = top_end + 1
                if stack and cursor < start:
                    emit(cursor, start - 1, stack[-1][1])
                stack.append((end, announcement))
                cursor = start
            while stack:
                top_end, top_ann = stack.pop()
                emit(cursor, top_end, top_ann)
                cursor = top_end + 1
            compiled[version] = (starts, ends, owners)
        self._compiled = compiled
        self._by_asn = by_asn
        self._dirty = False

    def lookup(self, address: Address) -> Announcement | None:
        """Return the longest-prefix-match announcement covering *address*.

        Fast path: bounded route cache, then one bisect over the
        compiled intervals (recompiling first if announcements changed).
        """
        value = int(address)
        key = (address.version, value)
        cached = self._cache.get(key, _CACHE_MISS)
        if cached is not _CACHE_MISS:
            mx = self._mx_hits
            if mx is not None:
                mx.inc()
            return cached  # type: ignore[return-value]
        mx = self._mx_misses
        if mx is not None:
            mx.inc()
        if self._dirty:
            self.compile()
        starts, ends, owners = self._compiled[address.version]
        index = bisect_right(starts, value) - 1
        announcement = (
            owners[index] if index >= 0 and value <= ends[index] else None
        )
        if len(self._cache) >= ROUTE_CACHE_LIMIT:
            self._cache.clear()
        self._cache[key] = announcement
        return announcement

    def lookup_uncompiled(self, address: Address) -> Announcement | None:
        """Reference longest-prefix match via the radix trie.

        Kept as the independent oracle the compiled view is checked
        against (property tests) and as the baseline of the compiled-LPM
        performance floor (``benchmarks/test_bench_floors.py``).
        """
        node: _TrieNode | None = self._roots[address.version]
        best: Announcement | None = None
        for bit in _address_bits(int(address), address.max_prefixlen):
            assert node is not None
            if node.announcement is not None:
                best = node.announcement
            node = node.children[bit]
            if node is None:
                return best
        if node is not None and node.announcement is not None:
            best = node.announcement
        return best

    def origin_asn(self, address: Address) -> int | None:
        """Return the ASN originating the covering prefix, or ``None``."""
        announcement = self.lookup(address)
        return announcement.asn if announcement else None

    def prefixes_for_asn(self, asn: int) -> list[Network]:
        """Return every prefix currently originated by *asn*, sorted."""
        if self._dirty:
            self.compile()
        return list(self._by_asn.get(asn, ()))

    def announcements(self) -> Iterable[Announcement]:
        """Iterate over all installed announcements."""
        return self._announcements.values()

    def __len__(self) -> int:
        return len(self._announcements)

    def __contains__(self, prefix: Network) -> bool:
        return prefix in self._announcements


#: Unreachable-distance sentinel in the compiled policy tables.
_UNREACHABLE = 1 << 30

#: Ceiling on memoized (src, dst) AS paths; flushed wholesale like the
#: route cache.  Never invalidated: the graph is immutable per scenario.
PATH_CACHE_LIMIT = 1 << 16


class PolicyView:
    """Valley-free (Gao–Rexford) forwarding state compiled from a graph.

    BGP policy routing in the standard model: every AS prefers routes
    learned from customers over routes from peers over routes from
    providers (classes 1/2/3 below), breaks ties by AS-path length and
    then by lowest next-hop ASN, and exports customer routes to
    everyone but peer/provider routes only to its customers — the
    Gao–Rexford conditions that make every used path *valley-free*
    (once a path goes peer→peer or provider→customer it may only
    continue provider→customer).

    Compilation runs the textbook per-destination propagation over the
    **transit skeleton** — every AS with customers, peers, or anything
    other than exactly one provider — in three stages (customer-route
    BFS up provider links, one peer-exchange round, provider-route
    Dijkstra down customer links).  Stub ASes hang off a single
    provider, so their best paths are their provider's best paths
    extended by one hop, uniformly in both class and length; the
    decomposition is therefore *exact*, not an approximation, which the
    property tests check against a brute-force oracle.

    Per-packet work is array chasing only: ``as_path`` walks the
    precomputed next-hop columns (one O(1) index per hop) behind a
    bounded memo — no graph search ever runs at packet time.
    """

    __slots__ = (
        "graph",
        "_transit",
        "_index",
        "_stub_provider",
        "_tables",
        "_path_cache",
    )

    def __init__(
        self,
        graph: "ASGraph",
        transit: list[int],
        stub_provider: dict[int, int],
        tables: list[tuple[list[int], list[int], list[int]]],
    ) -> None:
        self.graph = graph
        self._transit = transit
        self._index = {asn: i for i, asn in enumerate(transit)}
        self._stub_provider = stub_provider
        self._tables = tables
        self._path_cache: dict[
            tuple[int, int], tuple[tuple[int, ...], tuple[str, ...]] | None
        ] = {}

    def __reduce__(self):
        return (
            self.__class__,
            (self.graph, self._transit, self._stub_provider, self._tables),
        )

    @classmethod
    def compile(cls, graph: "ASGraph") -> "PolicyView":
        """Run per-destination Gao–Rexford propagation over the skeleton."""
        transit = graph.transit_asns()
        index = {asn: i for i, asn in enumerate(transit)}
        stub_provider = {
            asn: graph.providers[asn][0]
            for asn in graph.tiers
            if asn not in index
        }
        n = len(transit)
        providers_idx: list[list[int]] = [[] for _ in range(n)]
        customers_idx: list[list[int]] = [[] for _ in range(n)]
        peers_idx: list[list[int]] = [[] for _ in range(n)]
        for asn, i in index.items():
            for p in graph.providers.get(asn, ()):
                pi = index.get(p)
                if pi is not None:
                    providers_idx[i].append(pi)
            for c in graph.customers.get(asn, ()):
                ci = index.get(c)
                if ci is not None:
                    customers_idx[i].append(ci)
            for q in graph.peers.get(asn, ()):
                qi = index.get(q)
                if qi is not None:
                    peers_idx[i].append(qi)

        tables = [
            cls._propagate(
                ti, n, transit, providers_idx, customers_idx, peers_idx
            )
            for ti in range(n)
        ]
        return cls(graph, transit, stub_provider, tables)

    @staticmethod
    def _propagate(
        ti: int,
        n: int,
        transit: list[int],
        providers_idx: list[list[int]],
        customers_idx: list[list[int]],
        peers_idx: list[list[int]],
    ) -> tuple[list[int], list[int], list[int]]:
        """Best (class, length, next-hop) from every AS toward ``transit[ti]``.

        Classes: 0 self, 1 customer route, 2 peer route, 3 provider
        route, 4 unreachable.  Ties break by length then by lowest
        next-hop ASN, all deterministically — no RNG anywhere.
        """
        cls_ = [4] * n
        dist = [_UNREACHABLE] * n
        nxt = [-1] * n
        cls_[ti] = 0
        dist[ti] = 0

        # Stage 1 — customer routes climb provider links from the
        # destination, level-synchronous BFS (shortest wins; equal
        # levels prefer the lowest learning-customer ASN).
        level = [ti]
        depth = 0
        while level:
            depth += 1
            candidates: dict[int, int] = {}
            for xi in level:
                for pi in providers_idx[xi]:
                    if dist[pi] != _UNREACHABLE:
                        continue
                    best = candidates.get(pi)
                    if best is None or transit[xi] < transit[best]:
                        candidates[pi] = xi
            for pi, via in candidates.items():
                cls_[pi] = 1
                dist[pi] = depth
                nxt[pi] = via
            level = sorted(candidates)

        # Stage 2 — one peer exchange: a peer exports only its
        # customer routes (and itself).
        peer_grants: list[tuple[int, int, int]] = []
        for yi in range(n):
            if dist[yi] != _UNREACHABLE:
                continue
            best_key = None
            best_via = -1
            for qi in peers_idx[yi]:
                if cls_[qi] <= 1:
                    key = (dist[qi] + 1, transit[qi])
                    if best_key is None or key < best_key:
                        best_key = key
                        best_via = qi
            if best_key is not None:
                peer_grants.append((yi, best_key[0], best_via))
        for yi, d, via in peer_grants:
            cls_[yi] = 2
            dist[yi] = d
            nxt[yi] = via

        # Stage 3 — provider routes cascade down customer links from
        # every AS that already selected a route (Dijkstra; ties
        # prefer the lowest providing ASN, first-pop wins).
        heap: list[tuple[int, int, int, int]] = []
        for xi in range(n):
            if cls_[xi] <= 2:
                for ci in customers_idx[xi]:
                    if cls_[ci] > 2:
                        heappush(
                            heap, (dist[xi] + 1, transit[xi], ci, xi)
                        )
        while heap:
            d, _via_asn, ci, from_xi = heappop(heap)
            if cls_[ci] <= 2 or dist[ci] <= d:
                continue
            cls_[ci] = 3
            dist[ci] = d
            nxt[ci] = from_xi
            for c2 in customers_idx[ci]:
                if cls_[c2] > 2 and dist[c2] > d + 1:
                    heappush(heap, (d + 1, transit[ci], c2, ci))
        return cls_, dist, nxt

    def as_path(
        self, src_asn: int, dst_asn: int
    ) -> tuple[tuple[int, ...], tuple[str, ...]] | None:
        """``(hops, rels)`` for src→dst, or ``None`` if policy-unreachable.

        ``hops`` runs from the source AS to the destination AS
        inclusive; ``rels[i]`` labels ``hops[i+1]`` from ``hops[i]``'s
        perspective (``provider``/``peer``/``customer``).
        """
        key = (src_asn, dst_asn)
        cached = self._path_cache.get(key, _CACHE_MISS)
        if cached is not _CACHE_MISS:
            return cached  # type: ignore[return-value]
        result = self._assemble(src_asn, dst_asn)
        if len(self._path_cache) >= PATH_CACHE_LIMIT:
            self._path_cache.clear()
        self._path_cache[key] = result
        return result

    def _assemble(
        self, src_asn: int, dst_asn: int
    ) -> tuple[tuple[int, ...], tuple[str, ...]] | None:
        if src_asn == dst_asn:
            return (src_asn,), ()
        index = self._index
        hops: list[int] = []
        entry = src_asn
        if src_asn not in index:
            provider = self._stub_provider.get(src_asn)
            if provider is None:
                return None
            hops.append(src_asn)
            entry = provider
        exit_ = dst_asn
        if dst_asn not in index:
            provider = self._stub_provider.get(dst_asn)
            if provider is None:
                return None
            exit_ = provider
        ei = index[entry]
        xi = index[exit_]
        _cls, dist, nxt = self._tables[xi]
        if dist[ei] >= _UNREACHABLE:
            return None
        transit = self._transit
        cur = ei
        while cur != xi:
            hops.append(transit[cur])
            cur = nxt[cur]
        hops.append(exit_)
        if dst_asn != exit_:
            hops.append(dst_asn)
        graph = self.graph
        rels = tuple(
            graph.relationship(a, b) or "unknown"
            for a, b in zip(hops, hops[1:])
        )
        return tuple(hops), rels

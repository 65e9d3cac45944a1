"""IP address and prefix utilities for the simulated Internet.

This module collects the address-manipulation primitives the rest of the
simulation is built on: a registry of IANA special-purpose prefixes
(RFC 6890), helpers for carving an autonomous system's announced space
into /24 (IPv4) or /64 (IPv6) subnets as described in Section 3.2 of the
paper, and deterministic random selection of host addresses inside a
subnet while respecting reserved addresses.

All functions accept and return :mod:`ipaddress` objects so callers never
juggle raw strings or integers.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from ipaddress import (
    IPv4Address,
    IPv4Network,
    IPv6Address,
    IPv6Network,
    ip_address,
    ip_network,
)
from typing import Union

Address = Union[IPv4Address, IPv6Address]
Network = Union[IPv4Network, IPv6Network]


class IntervalTable:
    """Sorted, merged integer intervals with O(log n) membership.

    The flat-table idiom production LPM tools (pyasn, routeviews
    consumers) use: prefixes collapse to inclusive ``[start, end]``
    integer spans, overlaps are merged once at construction, and
    membership is a single :func:`bisect.bisect_right`.  This replaces
    the per-check linear scans over :mod:`ipaddress` objects that used
    to dominate the packet hot path.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, intervals: Iterable[tuple[int, int]]) -> None:
        merged: list[list[int]] = []
        for start, end in sorted(intervals):
            if merged and start <= merged[-1][1] + 1:
                if end > merged[-1][1]:
                    merged[-1][1] = end
            else:
                merged.append([start, end])
        self._starts = [pair[0] for pair in merged]
        self._ends = [pair[1] for pair in merged]

    @classmethod
    def from_networks(cls, networks: Iterable[Network]) -> "IntervalTable":
        return cls(
            (int(n.network_address), int(n.broadcast_address))
            for n in networks
        )

    def contains_value(self, value: int) -> bool:
        index = bisect_right(self._starts, value) - 1
        return index >= 0 and value <= self._ends[index]

    def __contains__(self, address: Address) -> bool:
        return self.contains_value(int(address))

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __len__(self) -> int:
        return len(self._starts)

#: IANA special-purpose IPv4 prefixes (RFC 6890 and successors).  Targets
#: inside any of these are excluded from the experiment because no
#: legitimate public route exists for them (Section 3.1).
SPECIAL_PURPOSE_V4: tuple[IPv4Network, ...] = tuple(
    ip_network(p)
    for p in (
        "0.0.0.0/8",          # "this host on this network"
        "10.0.0.0/8",         # private-use
        "100.64.0.0/10",      # shared address space (CGN)
        "127.0.0.0/8",        # loopback
        "169.254.0.0/16",     # link local
        "172.16.0.0/12",      # private-use
        "192.0.0.0/24",       # IETF protocol assignments
        "192.0.2.0/24",       # TEST-NET-1
        "192.88.99.0/24",     # 6to4 relay anycast
        "192.168.0.0/16",     # private-use
        "198.18.0.0/15",      # benchmarking
        "198.51.100.0/24",    # TEST-NET-2
        "203.0.113.0/24",     # TEST-NET-3
        "224.0.0.0/4",        # multicast
        "240.0.0.0/4",        # reserved
        "255.255.255.255/32", # limited broadcast
    )
)

#: IANA special-purpose IPv6 prefixes.
SPECIAL_PURPOSE_V6: tuple[IPv6Network, ...] = tuple(
    ip_network(p)
    for p in (
        "::1/128",        # loopback
        "::/128",         # unspecified
        "::ffff:0:0/96",  # IPv4-mapped
        "64:ff9b::/96",   # IPv4-IPv6 translation
        "100::/64",       # discard-only
        "2001::/23",      # IETF protocol assignments
        "2001:db8::/32",  # documentation
        "fc00::/7",       # unique local
        "fe80::/10",      # link local
        "ff00::/8",       # multicast
    )
)

#: The private / unique-local spoofed sources used by the experiment
#: (Section 3.2): 192.168.0.10 and fc00::10.
PRIVATE_SOURCE_V4: IPv4Address = ip_address("192.168.0.10")
PRIVATE_SOURCE_V6: IPv6Address = ip_address("fc00::10")

#: The loopback spoofed sources (Section 3.2): 127.0.0.1 and ::1.
LOOPBACK_V4: IPv4Address = ip_address("127.0.0.1")
LOOPBACK_V6: IPv6Address = ip_address("::1")

#: Subnet granularity used when carving AS space (Section 3.2).
SUBNET_PREFIX_V4 = 24
SUBNET_PREFIX_V6 = 64


#: RFC 1918 / unique-local prefixes backing :func:`is_private`.
PRIVATE_V4: tuple[IPv4Network, ...] = tuple(
    ip_network(p)
    for p in ("10.0.0.0/8", "172.16.0.0/12", "192.168.0.0/16")
)
PRIVATE_V6: tuple[IPv6Network, ...] = (ip_network("fc00::/7"),)

_LOOPBACK_NETS = {
    4: (ip_network("127.0.0.0/8"),),
    6: (ip_network("::1/128"),),
}

#: Compiled integer interval tables, built once at import.  Every
#: per-packet classification below is a bisect over these instead of a
#: linear scan constructing :mod:`ipaddress` objects.
_SPECIAL_TABLE: dict[int, IntervalTable] = {
    4: IntervalTable.from_networks(SPECIAL_PURPOSE_V4),
    6: IntervalTable.from_networks(SPECIAL_PURPOSE_V6),
}
_PRIVATE_TABLE: dict[int, IntervalTable] = {
    4: IntervalTable.from_networks(PRIVATE_V4),
    6: IntervalTable.from_networks(PRIVATE_V6),
}
_LOOPBACK_TABLE: dict[int, IntervalTable] = {
    v: IntervalTable.from_networks(nets) for v, nets in _LOOPBACK_NETS.items()
}
_MARTIAN_TABLE: dict[int, IntervalTable] = {
    v: IntervalTable.from_networks(
        tuple(_LOOPBACK_NETS[v]) + ({4: PRIVATE_V4, 6: PRIVATE_V6}[v])
    )
    for v in (4, 6)
}


def is_special_purpose(address: Address) -> bool:
    """Return ``True`` if *address* falls in an IANA special-purpose block.

    The experiment excludes such addresses from its target set because
    there can be no legitimate entry for them in the public routing table
    (Section 3.1).
    """
    return _SPECIAL_TABLE[address.version].contains_value(int(address))


def is_loopback(address: Address) -> bool:
    """Return ``True`` for addresses in 127.0.0.0/8 or ::1/128."""
    return _LOOPBACK_TABLE[address.version].contains_value(int(address))


def is_private(address: Address) -> bool:
    """Return ``True`` for RFC 1918 / unique-local addresses."""
    return _PRIVATE_TABLE[address.version].contains_value(int(address))


def is_martian(address: Address) -> bool:
    """Return ``True`` for private *or* loopback sources (one bisect).

    This is the combined check AS border martian filtering performs on
    every cross-border packet; folding the two tables into one keeps it
    a single lookup on the hot path.
    """
    return _MARTIAN_TABLE[address.version].contains_value(int(address))


# -- address interning -------------------------------------------------------


class _InternedIPv4(IPv4Address):
    """An :class:`IPv4Address` whose hash is computed once and cached."""

    __slots__ = ("_cached_hash",)

    def __hash__(self) -> int:
        return self._cached_hash

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"

    def __reduce__(self):
        # Re-intern on load rather than restoring the cached hash:
        # ``ipaddress`` hashes are salted per process (PYTHONHASHSEED),
        # so a hash pickled by the building process would disagree with
        # fresh addresses in the loading process and silently break
        # dictionary lookups.  Re-interning also dedupes the loaded
        # object graph through the intern table.
        return (_restore_interned, (4, int(self)))


class _InternedIPv6(IPv6Address):
    """An :class:`IPv6Address` whose hash is computed once and cached."""

    __slots__ = ("_cached_hash",)

    def __hash__(self) -> int:
        return self._cached_hash

    def __repr__(self) -> str:
        return f"IPv6Address({str(self)!r})"

    def __reduce__(self):
        # See _InternedIPv4.__reduce__.
        return (_restore_interned, (6, int(self)))


def _restore_interned(version: int, value: int) -> Address:
    address = IPv4Address(value) if version == 4 else IPv6Address(value)
    return intern_address(address)


_INTERNED: dict[Address, Address] = {}


def intern_address(address: Address) -> Address:
    """Return a canonical, hash-cached instance equal to *address*.

    ``ipaddress`` objects recompute their hash on every dictionary
    operation, which the fabric's host table and the scanner's probe
    index pay for millions of times per campaign.  Interned addresses
    carry a cached hash (and identity equality for the common case), so
    keying those tables on interned objects makes each lookup cheap.
    Interning is purely value-based: the returned object compares,
    hashes, formats and sorts exactly like the original.
    """
    found = _INTERNED.get(address)
    if found is not None:
        return found
    if address.version == 4:
        interned: Address = _InternedIPv4(int(address))
        interned._cached_hash = IPv4Address.__hash__(interned)
    else:
        interned = _InternedIPv6(int(address))
        interned._cached_hash = IPv6Address.__hash__(interned)
    _INTERNED[address] = interned
    return interned


def subnet_prefix_length(version: int) -> int:
    """Return the subnet carving granularity for an IP *version* (4 or 6)."""
    if version == 4:
        return SUBNET_PREFIX_V4
    if version == 6:
        return SUBNET_PREFIX_V6
    raise ValueError(f"unknown IP version: {version!r}")


def subnet_of(address: Address) -> Network:
    """Return the /24 (IPv4) or /64 (IPv6) subnet containing *address*."""
    return ip_network(
        (address, subnet_prefix_length(address.version)), strict=False
    )


def iter_subnets(prefix: Network) -> Iterator[Network]:
    """Yield the /24 or /64 subnets making up *prefix*.

    A prefix already at or beyond the carving granularity yields just the
    enclosing subnet.
    """
    granularity = subnet_prefix_length(prefix.version)
    if prefix.prefixlen >= granularity:
        yield ip_network((prefix.network_address, granularity), strict=False)
        return
    yield from prefix.subnets(new_prefix=granularity)


def limited_subnets(
    prefix: Network,
    limit: int,
    preferred: frozenset[Network] | set[Network] = frozenset(),
) -> list[Network]:
    """Return up to *limit* carving subnets of *prefix*.

    Small prefixes are fully enumerated.  For prefixes with more subnets
    than *limit* (common for IPv6, where a /48 holds 65,536 /64s),
    subnets appearing in *preferred* — the hit-list preference of
    Section 3.2 — are returned first, followed by the lowest-numbered
    remaining subnets.  This mirrors the paper's targeted IPv6 prefix
    selection without enumerating sparse space.
    """
    if limit < 1:
        return []
    total = count_subnets(prefix)
    if total <= limit:
        return list(iter_subnets(prefix))
    granularity = subnet_prefix_length(prefix.version)
    chosen: list[Network] = [
        subnet
        for subnet in sorted(
            preferred, key=lambda s: int(s.network_address)
        )
        if subnet.version == prefix.version
        and subnet.prefixlen == granularity
        and subnet.network_address in prefix
    ][:limit]
    seen = set(chosen)
    base = int(prefix.network_address)
    step = 1 << (prefix.max_prefixlen - granularity)
    offset = 0
    while len(chosen) < limit and offset < total:
        subnet = ip_network((base + offset * step, granularity))
        offset += 1
        if subnet in seen:
            continue
        chosen.append(subnet)
    return chosen


def count_subnets(prefix: Network) -> int:
    """Return the number of /24 or /64 subnets contained in *prefix*."""
    granularity = subnet_prefix_length(prefix.version)
    if prefix.prefixlen >= granularity:
        return 1
    return 1 << (granularity - prefix.prefixlen)


def random_host_in_subnet(
    subnet: Network, rng: random.Random, *, limit: int | None = None
) -> Address:
    """Pick a host address from *subnet* uniformly at random.

    For IPv4 the first and last addresses of a /24 are excluded because of
    their reserved status (network and broadcast; Section 3.2).  For IPv6,
    the paper limits selection to the first 100 addresses of the /64 minus
    the first two (often the router); pass ``limit=100`` for that
    behaviour, which is also the default for IPv6.
    """
    base = int(subnet.network_address)
    if subnet.version == 4:
        size = subnet.num_addresses
        # Skip network (offset 0) and broadcast (offset size-1).
        offset = rng.randrange(1, size - 1)
        return ip_address(base + offset)
    if limit is None:
        limit = 100
    # Skip the first two addresses, often the router (Section 3.2).
    offset = rng.randrange(2, limit)
    return ip_address(base + offset)


def host_in_prefix(
    prefix: Network, rng: random.Random, *, offset_cap: int = 200
) -> Address:
    """Pick a host address inside *prefix* from an explicit *rng*.

    Used by the scenario builders when placing resolvers into announced
    space.  The offset is capped so huge prefixes still yield addresses
    near the base (dense, router-adjacent space, as in Section 3.2's
    observation that low addresses dominate).  The caller supplies the
    :class:`random.Random`: no module-level RNG state is consulted, so
    shard workers seeding their own streams stay deterministic.
    """
    base = int(prefix.network_address)
    span = min(prefix.num_addresses - 2, offset_cap)
    return ip_address(base + 1 + rng.randrange(max(span, 1)))

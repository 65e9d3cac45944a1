"""Resolver cache with positive and negative (RFC 2308) entries.

Entries expire against the shared simulated clock.  The cache also
records NXDOMAIN *cuts*: per RFC 8020, a cached NXDOMAIN for a name
implies nothing exists beneath it, which is exactly the interaction that
cost the paper visibility into QNAME-minimizing resolvers (Section
3.6.4).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .message import Rcode
from .name import Name
from .rr import RR


@dataclass
class CacheEntry:
    """One cached RRset or negative answer."""

    rrset: list[RR]
    rcode: Rcode
    expires_at: float

    @property
    def is_negative(self) -> bool:
        return not self.rrset


@dataclass
class Cache:
    """(name, type) → entry map with TTL-based expiry.

    ``clock`` is a zero-argument callable returning the current simulated
    time; wiring it to ``fabric.loop`` keeps cache behaviour in lockstep
    with the event simulation.
    """

    clock: Callable[[], float]
    max_entries: int = 100_000
    _entries: dict[tuple[Name, int], CacheEntry] = field(default_factory=dict)
    _nxdomain_names: dict[Name, float] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def put_positive(self, qname: Name, qtype: int, rrset: list[RR]) -> None:
        """Cache a positive answer for its minimum TTL."""
        if not rrset:
            raise ValueError("positive entry with empty RRset")
        ttl = min(rr.ttl for rr in rrset)
        self._store(qname, qtype, CacheEntry(
            list(rrset), Rcode.NOERROR, self.clock() + ttl
        ))

    def put_negative(
        self, qname: Name, qtype: int, rcode: Rcode, ttl: int
    ) -> None:
        """Cache a NODATA or NXDOMAIN answer for *ttl* seconds."""
        if rcode not in (Rcode.NOERROR, Rcode.NXDOMAIN):
            raise ValueError(f"unexpected negative rcode: {rcode}")
        self._store(qname, qtype, CacheEntry([], rcode, self.clock() + ttl))
        if rcode is Rcode.NXDOMAIN:
            self._nxdomain_names[qname] = self.clock() + ttl

    def get(self, qname: Name, qtype: int) -> CacheEntry | None:
        """Return a live entry for (*qname*, *qtype*), or ``None``."""
        key = (qname, qtype)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.expires_at <= self.clock():
            del self._entries[key]
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def covering_nxdomain(self, qname: Name) -> Name | None:
        """Return a cached-NXDOMAIN ancestor of *qname*, if any (RFC 8020).

        A resolver honouring RFC 8020 answers NXDOMAIN for *qname*
        immediately when one of its ancestors is known not to exist.
        """
        if not self._nxdomain_names:
            return None
        now = self.clock()
        for ancestor in qname.ancestors():
            expiry = self._nxdomain_names.get(ancestor)
            if expiry is not None:
                if expiry <= now:
                    del self._nxdomain_names[ancestor]
                    continue
                return ancestor
        return None

    def flush(self) -> None:
        """Drop every entry."""
        self._entries.clear()
        self._nxdomain_names.clear()

    def _store(self, qname: Name, qtype: int, entry: CacheEntry) -> None:
        if len(self._entries) >= self.max_entries:
            self._evict_expired()
        if len(self._entries) >= self.max_entries:
            # Evict the entry closest to expiry.
            victim = min(self._entries, key=lambda k: self._entries[k].expires_at)
            del self._entries[victim]
        self._entries[(qname, qtype)] = entry

    def _evict_expired(self) -> None:
        now = self.clock()
        stale = [k for k, e in self._entries.items() if e.expires_at <= now]
        for key in stale:
            del self._entries[key]

    def __len__(self) -> int:
        return len(self._entries)


class NullCache:
    """A cache that remembers nothing.

    Installed by stateless ("anycast") resolvers: a real anycast public
    DNS frontend gives no cache-state guarantees across queries, and for
    the simulation the absence of carried-over state is what makes each
    resolution a pure function of its own query — the property the
    sharded campaign pipeline relies on when different worker processes
    talk to their own replica of the public service.

    Implements the :class:`Cache` surface the resolver consumes; every
    read misses and every write is discarded.
    """

    hits: int = 0
    misses: int = 0

    def put_positive(self, qname: Name, qtype: int, rrset: list[RR]) -> None:
        """Discard the entry."""

    def put_negative(
        self, qname: Name, qtype: int, rcode: Rcode, ttl: int
    ) -> None:
        """Discard the entry."""

    def get(self, qname: Name, qtype: int) -> CacheEntry | None:
        """Always miss."""
        return None

    def covering_nxdomain(self, qname: Name) -> Name | None:
        """Never report a covering NXDOMAIN cut."""
        return None

    def flush(self) -> None:
        """Nothing to drop."""

    def __len__(self) -> int:
        return 0

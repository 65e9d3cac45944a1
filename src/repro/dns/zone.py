"""Authoritative zone data with RFC 1034 lookup semantics.

A :class:`Zone` stores RRsets under an origin and answers the questions
an authoritative server needs answered: exact match, CNAME, delegation
(zone cut with glue), wildcard synthesis, NODATA, and NXDOMAIN (with the
SOA the negative response must carry).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field

from .name import Name
from .rr import RR, NS, SOA, RRType


class LookupKind(enum.Enum):
    """Outcome category of a zone lookup."""

    ANSWER = "answer"
    CNAME = "cname"
    REFERRAL = "referral"
    NODATA = "nodata"
    NXDOMAIN = "nxdomain"
    NOT_IN_ZONE = "not-in-zone"


@dataclass
class LookupResult:
    """Result of :meth:`Zone.lookup`, ready to fill response sections."""

    kind: LookupKind
    answers: list[RR] = field(default_factory=list)
    authority: list[RR] = field(default_factory=list)
    additional: list[RR] = field(default_factory=list)


class Zone:
    """One zone: origin, SOA, and RRsets keyed by (name, type)."""

    def __init__(self, origin: Name, soa: SOA, *, soa_ttl: int = 3600) -> None:
        self.origin = origin
        self._records: dict[tuple[Name, int], list[RR]] = defaultdict(list)
        self._names: set[Name] = {origin}
        self.add(RR(origin, RRType.SOA, 1, soa_ttl, soa))

    @property
    def soa_rr(self) -> RR:
        return self._records[(self.origin, RRType.SOA)][0]

    def add(self, rr: RR) -> RR:
        """Insert *rr*; the owner must be at or under the origin."""
        if not rr.name.is_subdomain_of(self.origin):
            raise ValueError(f"{rr.name} is outside zone {self.origin}")
        self._records[(rr.name, rr.rrtype)].append(rr)
        # Register the owner and every empty non-terminal above it.
        for ancestor in rr.name.ancestors():
            self._names.add(ancestor)
            if ancestor == self.origin:
                break
        return rr

    def rrset(self, owner: Name, rrtype: int) -> list[RR]:
        """Return the RRset at (*owner*, *rrtype*), possibly empty."""
        return list(self._records.get((owner, rrtype), ()))

    def remove_rrset(self, owner: Name, rrtype: int) -> int:
        """Delete the whole RRset at (*owner*, *rrtype*); return count.

        The SOA at the apex is never deletable (RFC 2136 §3.4.2.4).
        """
        if owner == self.origin and rrtype == RRType.SOA:
            return 0
        removed = self._records.pop((owner, rrtype), [])
        return len(removed)

    def remove_record(self, rr: RR) -> bool:
        """Delete one specific record (matched by owner/type/rdata)."""
        key = (rr.name, rr.rrtype)
        existing = self._records.get(key)
        if not existing:
            return False
        kept = [r for r in existing if r.rdata != rr.rdata]
        if len(kept) == len(existing):
            return False
        if kept:
            self._records[key] = kept
        else:
            del self._records[key]
        return True

    def names(self) -> set[Name]:
        """Return every name that exists in the zone (incl. non-terminals)."""
        return set(self._names)

    def record_count(self) -> int:
        return sum(len(rrs) for rrs in self._records.values())

    # -- lookup ----------------------------------------------------------

    def lookup(self, qname: Name, qtype: int) -> LookupResult:
        """Answer (*qname*, *qtype*) per RFC 1034 §4.3.2.

        Checks, in order: containment in the zone, a zone cut between the
        origin and the qname (referral), an exact-name match (answer,
        CNAME, or NODATA), a wildcard at the closest encloser, and
        finally NXDOMAIN.
        """
        if not qname.is_subdomain_of(self.origin):
            return LookupResult(LookupKind.NOT_IN_ZONE)

        referral = self._find_zone_cut(qname)
        if referral is not None:
            return referral

        if qname in self._names:
            return self._answer_existing(qname, qtype)

        wildcard_result = self._try_wildcard(qname, qtype)
        if wildcard_result is not None:
            return wildcard_result

        return LookupResult(
            LookupKind.NXDOMAIN, authority=[self.soa_rr]
        )

    def _find_zone_cut(self, qname: Name) -> LookupResult | None:
        """Return a referral if an NS RRset sits strictly below the origin
        on the path from the origin to *qname* (exclusive of qname when
        the query is for the cut's own NS set)."""
        # Walk from just below the origin down towards qname: the
        # ancestors of qname deeper than the origin, nearest it first.
        depth = len(self.origin)
        path = []
        for node in qname.ancestors():
            if len(node) <= depth:
                break
            path.append(node)
        for node in reversed(path):
            ns_set = self._records.get((node, RRType.NS))
            if ns_set:
                additional = self._glue_for(ns_set)
                return LookupResult(
                    LookupKind.REFERRAL,
                    authority=list(ns_set),
                    additional=additional,
                )
        return None

    def _glue_for(self, ns_set: list[RR]) -> list[RR]:
        glue: list[RR] = []
        for ns_rr in ns_set:
            assert isinstance(ns_rr.rdata, NS)
            target = ns_rr.rdata.target
            for rrtype in (RRType.A, RRType.AAAA):
                glue.extend(self._records.get((target, rrtype), ()))
        return glue

    def _answer_existing(self, qname: Name, qtype: int) -> LookupResult:
        exact = self._records.get((qname, qtype))
        if exact:
            return LookupResult(LookupKind.ANSWER, answers=list(exact))
        cname = self._records.get((qname, RRType.CNAME))
        if cname and qtype != RRType.CNAME:
            answers = list(cname)
            # Chase the alias inside this zone where possible.
            target = cname[0].rdata.target  # type: ignore[union-attr]
            if target.is_subdomain_of(self.origin):
                chased = self.lookup(target, qtype)
                if chased.kind is LookupKind.ANSWER:
                    answers.extend(chased.answers)
            return LookupResult(LookupKind.ANSWER, answers=answers)
        return LookupResult(LookupKind.NODATA, authority=[self.soa_rr])

    def _try_wildcard(self, qname: Name, qtype: int) -> LookupResult | None:
        """Synthesize from ``*.<closest encloser>`` if one exists."""
        for encloser in qname.parent().ancestors():
            if not encloser.is_subdomain_of(self.origin):
                break
            wildcard = encloser.child(b"*")
            if wildcard in self._names:
                exact = self._records.get((wildcard, qtype))
                if exact:
                    answers = [
                        RR(qname, rr.rrtype, rr.rrclass, rr.ttl, rr.rdata)
                        for rr in exact
                    ]
                    return LookupResult(LookupKind.ANSWER, answers=answers)
                return LookupResult(
                    LookupKind.NODATA, authority=[self.soa_rr]
                )
            if encloser in self._names:
                # Closest encloser exists without a wildcard: no synthesis
                # from higher wildcards is permitted (RFC 4592).
                return None
            if encloser == self.origin:
                break
        return None

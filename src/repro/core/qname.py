"""Experiment query-name codec (Section 3.3).

Every query the scan sends encodes its own provenance in the query name:

    ts . src . dst . asn . kw . <experiment domain>

where ``ts`` is the send timestamp (making the name unique and therefore
never cached), ``src`` is the spoofed source address, ``dst`` the target
address, ``asn`` the target's AS number and ``kw`` the experiment
keyword.  Any query arriving at the authoritative servers can then be
attributed to the exact probe that induced it — including queries that
arrive indirectly through forwarders.

Follow-up queries use the same label stack under a channel subdomain
(``v4`` / ``v6`` for family-restricted delegations, ``tc`` for the
truncation domain that forces DNS-over-TCP; Section 3.5).

Addresses are made label-safe by replacing separators with dashes; IPv6
uses the exploded form so decoding is unambiguous.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from ipaddress import IPv6Address, ip_address

from ..netsim.addresses import Address
from ..dns.name import Name


class Channel(enum.Enum):
    """Which delegation a query name travels through."""

    MAIN = None        # directly under kw.<domain>
    V4_ONLY = "v4"     # delegated with A-only glue
    V6_ONLY = "v6"     # delegated with AAAA-only glue
    TCP = "tc"         # always answered with TC over UDP


def encode_address(address: Address) -> str:
    """Render *address* as a single DNS label chunk."""
    if address.version == 4:
        return str(address).replace(".", "-")
    return address.exploded.replace(":", "-")


def decode_address(label: str) -> Address:
    """Inverse of :func:`encode_address`."""
    if label.count("-") == 3:
        return ip_address(label.replace("-", "."))
    return IPv6Address(label.replace("-", ":"))


def encode_timestamp(time_value: float) -> str:
    """Render a simulated timestamp (seconds) with millisecond precision."""
    return f"t{int(round(time_value * 1000))}"


def decode_timestamp(label: str) -> float:
    if not label.startswith("t"):
        raise ValueError(f"bad timestamp label: {label!r}")
    return int(label[1:]) / 1000.0


@dataclass(frozen=True, slots=True)
class ExperimentQueryName:
    """Decoded provenance of one experiment query name."""

    timestamp: float
    src: Address
    dst: Address
    asn: int
    keyword: str
    channel: Channel


#: Entries each address-label memo of a codec holds before it starts
#: over, so a long scan cannot grow it without bound.
_MEMO_LIMIT = 1 << 16


@dataclass(frozen=True)
class QueryNameCodec:
    """Encoder/decoder bound to one experiment domain and keyword.

    The codec memoizes, per instance: the four channel base names, the
    label text of each address it encodes and the address of each label
    it decodes, and its last decode, which every authoritative query
    log record's two observers (the collector and the scanner's
    follow-up trigger) both ask for.  The memos are caches only: a
    pickled codec carries its domain and keyword and starts empty.
    """

    domain: Name
    keyword: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_channel_bases", {})
        object.__setattr__(self, "_labels", {})
        object.__setattr__(self, "_addresses", {})
        #: [qname, decoded] of the last decode, keyed on identity: the
        #: memo keeps the name alive, so a match is never a recycled
        #: object.  It starts on a key no caller can pass.
        object.__setattr__(self, "_last", [object(), None])

    def __getstate__(self) -> dict:
        return {"domain": self.domain, "keyword": self.keyword}

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "domain", state["domain"])
        object.__setattr__(self, "keyword", state["keyword"])
        self.__post_init__()

    def channel_base(self, channel: Channel) -> Name:
        """Return ``kw.<domain>`` or ``kw.<channel>.<domain>``."""
        cached = self._channel_bases.get(channel)
        if cached is not None:
            return cached
        base = self.domain
        if channel.value is not None:
            base = base.child(channel.value)
        base = base.child(self.keyword)
        self._channel_bases[channel] = base
        return base

    def _label(self, address: Address) -> str:
        """:func:`encode_address`, memoized."""
        label = self._labels.get(address)
        if label is None:
            if len(self._labels) >= _MEMO_LIMIT:
                self._labels.clear()
            label = self._labels[address] = encode_address(address)
        return label

    def _address(self, label: str) -> Address:
        """:func:`decode_address`, memoized (a bad label raises anew)."""
        address = self._addresses.get(label)
        if address is None:
            if len(self._addresses) >= _MEMO_LIMIT:
                self._addresses.clear()
            address = self._addresses[label] = decode_address(label)
        return address

    def encode(
        self,
        timestamp: float,
        src: Address,
        dst: Address,
        asn: int,
        *,
        channel: Channel = Channel.MAIN,
    ) -> Name:
        """Build the full experiment query name."""
        provenance = (
            encode_timestamp(timestamp).encode("ascii"),
            f"s{self._label(src)}".encode("ascii"),
            f"d{self._label(dst)}".encode("ascii"),
            f"a{asn}".encode("ascii"),
        )
        return Name(provenance + self.channel_base(channel).labels)

    def decode(self, qname: Name) -> ExperimentQueryName | None:
        """Decode *qname* if it is a full experiment name; else ``None``.

        Partial names — the prefixes QNAME-minimizing resolvers send,
        such as ``kw.<domain>`` alone — return ``None``; use
        :meth:`minimized_channel` to recognize those.
        """
        last = self._last
        if last[0] is qname:
            return last[1]
        decoded = self._decode(qname)
        last[0] = qname
        last[1] = decoded
        return decoded

    def _decode(self, qname: Name) -> ExperimentQueryName | None:
        channel = self.channel_of(qname)
        if channel is None:
            return None
        base = self.channel_base(channel)
        try:
            relative = qname.relativize(base)
        except Exception:
            return None
        if len(relative) != 4:
            return None
        ts_label, src_label, dst_label, asn_label = (
            label.decode("ascii") for label in relative
        )
        try:
            timestamp = decode_timestamp(ts_label)
            if not src_label.startswith("s") or not dst_label.startswith("d"):
                return None
            src = self._address(src_label[1:])
            dst = self._address(dst_label[1:])
            if not asn_label.startswith("a"):
                return None
            asn = int(asn_label[1:])
        except (ValueError, IndexError):
            return None
        return ExperimentQueryName(
            timestamp, src, dst, asn, self.keyword, channel
        )

    def channel_of(self, qname: Name) -> Channel | None:
        """Return the channel whose base contains *qname*, or ``None``."""
        best: Channel | None = None
        best_depth = -1
        for channel in Channel:
            base = self.channel_base(channel)
            if qname.is_subdomain_of(base) and len(base) > best_depth:
                best = channel
                best_depth = len(base)
        return best

    def minimized_channel(self, qname: Name) -> Channel | None:
        """Classify a QNAME-minimized prefix query (Section 3.6.4).

        Returns the channel when *qname* equals a channel base or an
        intermediate prefix of a full name (i.e. it sits under a channel
        base but lacks the four provenance labels); ``None`` for names
        unrelated to the experiment or already complete.
        """
        channel = self.channel_of(qname)
        if channel is None:
            return None
        base = self.channel_base(channel)
        depth = len(qname) - len(base)
        if 0 <= depth < 4:
            return channel
        return None

"""Packet model for the simulated Internet.

Packets carry real addresses, ports and payload bytes, plus the TCP/IP
header characteristics (initial TTL, window size, MSS, option layout)
that passive fingerprinting tools such as p0f key on.  The DNS layer
serializes messages to wire format and hands the bytes to this layer, so
the simulation moves actual byte strings end to end.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from .addresses import Address


class Transport(enum.Enum):
    """Transport protocol of a packet."""

    UDP = "udp"
    TCP = "tcp"


class TCPFlag(enum.IntFlag):
    """TCP control flags (subset relevant to the simulation)."""

    NONE = 0
    SYN = 0x02
    ACK = 0x10
    FIN = 0x01
    RST = 0x04


@dataclass(frozen=True, slots=True)
class TCPSignature:
    """TCP/IP header characteristics used for passive OS fingerprinting.

    These are the fields p0f derives its verdicts from: the initial IP
    time-to-live, the TCP window size (possibly expressed as a multiple
    of the MSS), the maximum segment size, the window scale factor, and
    the order of TCP options in the SYN segment.
    """

    initial_ttl: int
    window_size: int
    mss: int
    window_scale: int
    options: tuple[str, ...]

    def summary(self) -> str:
        """Return a compact, p0f-style textual signature."""
        opts = ",".join(self.options)
        return (
            f"{self.initial_ttl}:{self.window_size}:{self.mss}:"
            f"{self.window_scale}:{opts}"
        )


_packet_ids = itertools.count(1)


@dataclass(slots=True)
class Packet:
    """A single IP datagram (with UDP or TCP inside) in flight.

    ``src`` may be spoofed: the fabric delivers based on ``dst`` only, and
    validation (OSAV/DSAV) happens at network borders.  ``hops`` counts
    border crossings so receivers observe a decremented TTL, which the
    fingerprinting layer uses to estimate the sender's initial TTL.
    """

    src: Address
    dst: Address
    sport: int
    dport: int
    payload: bytes
    transport: Transport = Transport.UDP
    tcp_flags: TCPFlag = TCPFlag.NONE
    tcp_signature: TCPSignature | None = None
    ttl: int = 64
    hops: int = 0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def __post_init__(self) -> None:
        if self.src.version != self.dst.version:
            raise ValueError(
                f"address family mismatch: {self.src} -> {self.dst}"
            )
        for port in (self.sport, self.dport):
            if not 0 <= port <= 65535:
                raise ValueError(f"port out of range: {port}")

    @property
    def version(self) -> int:
        """IP version (4 or 6) of the packet."""
        return self.src.version

    @property
    def observed_ttl(self) -> int:
        """TTL as seen by the receiver after ``hops`` border crossings."""
        return max(self.ttl - self.hops, 0)

    def reply(self, payload: bytes, **overrides: object) -> "Packet":
        """Build a response packet with src/dst and ports swapped.

        Keyword *overrides* are applied on top of the swapped fields,
        letting callers set e.g. ``tcp_flags`` on the reply.
        """
        fields: dict[str, object] = {
            "src": self.dst,
            "dst": self.src,
            "sport": self.dport,
            "dport": self.sport,
            "payload": payload,
            "transport": self.transport,
            "tcp_flags": TCPFlag.NONE,
            "tcp_signature": None,
            "ttl": 64,
            "hops": 0,
            "packet_id": next(_packet_ids),
        }
        fields.update(overrides)
        return Packet(**fields)  # type: ignore[arg-type]

    def hop(self, count: int = 1) -> "Packet":
        """Return a copy of the packet after *count* border crossings."""
        # Every field, positionally in declaration order: this runs at
        # every border crossing, where ``dataclasses.replace`` (a dict
        # of field names) costs about three times as much.
        return Packet(
            self.src,
            self.dst,
            self.sport,
            self.dport,
            self.payload,
            self.transport,
            self.tcp_flags,
            self.tcp_signature,
            self.ttl,
            self.hops + count,
            self.packet_id,
        )

    def flow(self) -> tuple[Address, int, Address, int, Transport]:
        """Return the 5-tuple identifying this packet's flow."""
        return (self.src, self.sport, self.dst, self.dport, self.transport)

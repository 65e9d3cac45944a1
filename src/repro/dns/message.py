"""DNS messages: header, question, sections, and full wire codec.

The encoder performs RFC 1035 §4.1.4 name compression across all owner
names (rdata names are left uncompressed, which is always legal and is
what modern implementations emit for most types).  The decoder accepts
compressed names anywhere.  EDNS0 is supported through an OPT record in
the additional section, exposing the advertised UDP payload size that
governs truncation.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field, replace

from .name import ROOT, Name
from .rr import (
    CNAME,
    NS,
    PTR,
    RR,
    SOA,
    Opaque,
    Rdata,
    RRClass,
    RRType,
    decode_rdata,
)

HEADER_STRUCT = struct.Struct("!HHHHHH")
DEFAULT_UDP_PAYLOAD_SIZE = 512
EDNS_UDP_PAYLOAD_SIZE = 4096

#: EDNS option code for DNS cookies (RFC 7873).
EDNS_COOKIE = 10


def encode_edns_options(options: list[tuple[int, bytes]]) -> bytes:
    """Serialize EDNS option TLVs for OPT rdata (RFC 6891 §6.1.2)."""
    out = bytearray()
    for code, data in options:
        if not 0 <= code <= 0xFFFF:
            raise ValueError(f"bad option code: {code}")
        if len(data) > 0xFFFF:
            raise ValueError("option data too long")
        out += struct.pack("!HH", code, len(data))
        out += data
    return bytes(out)


def decode_edns_options(data: bytes) -> list[tuple[int, bytes]]:
    """Parse EDNS option TLVs from OPT rdata."""
    options: list[tuple[int, bytes]] = []
    cursor = 0
    while cursor < len(data):
        if cursor + 4 > len(data):
            raise ValueError("truncated EDNS option header")
        code, length = struct.unpack_from("!HH", data, cursor)
        cursor += 4
        if cursor + length > len(data):
            raise ValueError("truncated EDNS option data")
        options.append((code, data[cursor : cursor + length]))
        cursor += length
    return options


class Opcode(enum.IntEnum):
    """DNS opcodes (QUERY is the only one the simulation sends)."""

    QUERY = 0
    NOTIFY = 4
    UPDATE = 5


class Rcode(enum.IntEnum):
    """Response codes."""

    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5
    NOTAUTH = 9


class Flag(enum.IntFlag):
    """Header flag bits (QR/AA/TC/RD/RA in their wire positions)."""

    QR = 0x8000
    AA = 0x0400
    TC = 0x0200
    RD = 0x0100
    RA = 0x0080


#: Header bits the decoder preserves; built once so parsing a message
#: does not re-run five IntFlag ``|`` operations.
_HEADER_FLAG_MASK = int(Flag.QR | Flag.AA | Flag.TC | Flag.RD | Flag.RA)

#: Header field values to their members, so decoding a header is three
#: dict lookups rather than three enum calls.  A miss falls back to the
#: enum call, which raises for an unassigned opcode or rcode.
_OPCODES = {int(member): member for member in Opcode}
_RCODES = {int(member): member for member in Rcode}
_FLAGS = {
    bits: Flag(bits)
    for bits in range(_HEADER_FLAG_MASK + 1)
    if bits & _HEADER_FLAG_MASK == bits
}

#: Flag bits as plain ints: ``&`` and ``|`` on ``IntFlag`` members
#: build a new member through the enum machinery each time.
_QR, _AA, _TC, _RD = int(Flag.QR), int(Flag.AA), int(Flag.TC), int(Flag.RD)

_U16 = struct.Struct("!H")
_QUESTION_TAIL = struct.Struct("!HH")
_RR_HEAD = struct.Struct("!HHI")
_RR_FIXED = struct.Struct("!HHIH")


@dataclass(frozen=True)
class Question:
    """The question section entry: name, type, class."""

    qname: Name
    qtype: int
    qclass: int = RRClass.IN

    def to_text(self) -> str:
        return f"{self.qname} {RRType.label(self.qtype)}"


class _Writer:
    """Wire encoder with name compression state."""

    def __init__(self) -> None:
        self.out = bytearray()
        #: casefolded label suffix -> offset of its first encoding.
        self._offsets: dict[tuple[bytes, ...], int] = {}

    def write_name(self, name_: Name) -> None:
        out = self.out
        offsets = self._offsets
        labels = name_.labels
        key = name_._key
        for index in range(len(labels)):
            suffix = key[index:]
            here = len(out)
            # One lookup per suffix: record where it starts, or find
            # where an earlier name already wrote it.  Offsets past
            # 0x3FFF do not fit a pointer and are never recorded.
            if here < 0x3FFF:
                pointer = offsets.setdefault(suffix, here)
            else:
                pointer = offsets.get(suffix, here)
            if pointer != here:
                out += _U16.pack(0xC000 | pointer)
                return
            label = labels[index]
            out.append(len(label))
            out += label
        out.append(0)


@dataclass
class Message:
    """A complete DNS message."""

    msg_id: int
    flags: Flag = Flag(0)
    opcode: Opcode = Opcode.QUERY
    rcode: Rcode = Rcode.NOERROR
    question: Question | None = None
    answers: list[RR] = field(default_factory=list)
    authority: list[RR] = field(default_factory=list)
    additional: list[RR] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 <= self.msg_id <= 0xFFFF:
            raise ValueError(f"message ID out of range: {self.msg_id}")

    # -- convenience -----------------------------------------------------

    @classmethod
    def make_query(
        cls,
        msg_id: int,
        qname: Name,
        qtype: int,
        *,
        recursion_desired: bool = True,
        edns: bool = True,
    ) -> "Message":
        """Build a standard query, optionally with an EDNS0 OPT record."""
        flags = Flag.RD if recursion_desired else Flag(0)
        message = cls(msg_id, flags=flags, question=Question(qname, qtype))
        if edns:
            message.additional.append(_EDNS_OPT)
        return message

    def make_response(self, *, authoritative: bool = False) -> "Message":
        """Build an empty response mirroring this query's ID and question."""
        bits = _QR
        if authoritative:
            bits |= _AA
        if int(self.flags) & _RD:
            bits |= _RD
        response = Message(
            self.msg_id, flags=_FLAGS[bits], question=self.question
        )
        if self.edns_payload_size() is not None:
            response.additional.append(_EDNS_OPT)
        return response

    @property
    def is_response(self) -> bool:
        return int(self.flags) & _QR != 0

    @property
    def is_truncated(self) -> bool:
        return int(self.flags) & _TC != 0

    def truncated_copy(self) -> "Message":
        """Return a copy with TC set and the answer sections emptied."""
        copy = replace(
            self,
            flags=self.flags | Flag.TC,
            answers=[],
            authority=[],
            additional=[rr for rr in self.additional if rr.rrtype == RRType.OPT],
        )
        return copy

    def edns_payload_size(self) -> int | None:
        """Return the EDNS0 advertised UDP payload size, or ``None``."""
        for rr in self.additional:
            if rr.rrtype == RRType.OPT:
                return rr.rrclass  # OPT smuggles the size in the class field
        return None

    def edns_options(self) -> list[tuple[int, bytes]]:
        """Return the EDNS option TLVs, or an empty list."""
        for rr in self.additional:
            if rr.rrtype == RRType.OPT:
                return decode_edns_options(rr.rdata.to_wire())
        return []

    def edns_option(self, code: int) -> bytes | None:
        """Return the data of the first EDNS option with *code*."""
        for option_code, data in self.edns_options():
            if option_code == code:
                return data
        return None

    def set_edns_option(self, code: int, data: bytes) -> None:
        """Set (or replace) an EDNS option, adding OPT if necessary."""
        options = [
            (c, d) for c, d in self.edns_options() if c != code
        ]
        options.append((code, data))
        payload = self.edns_payload_size() or EDNS_UDP_PAYLOAD_SIZE
        self.additional = [
            rr for rr in self.additional if rr.rrtype != RRType.OPT
        ]
        self.additional.append(_make_opt(payload, options))

    def max_udp_size(self) -> int:
        """UDP payload limit this message's sender can accept."""
        return self.edns_payload_size() or DEFAULT_UDP_PAYLOAD_SIZE

    # -- wire format -----------------------------------------------------

    def to_wire(self) -> bytes:
        writer = _Writer()
        out = writer.out
        question = self.question
        flags_field = (
            int(self.flags) | (int(self.opcode) << 11) | int(self.rcode)
        )
        out += HEADER_STRUCT.pack(
            self.msg_id,
            flags_field,
            0 if question is None else 1,
            len(self.answers),
            len(self.authority),
            len(self.additional),
        )
        if question is not None:
            writer.write_name(question.qname)
            out += _QUESTION_TAIL.pack(question.qtype, question.qclass)
        for section in (self.answers, self.authority, self.additional):
            for rr in section:
                writer.write_name(rr.name)
                out += _RR_HEAD.pack(rr.rrtype, rr.rrclass, rr.ttl)
                rdata = rr.rdata.to_wire()
                out += _U16.pack(len(rdata))
                out += rdata
        return bytes(out)

    @classmethod
    def from_wire(cls, data: bytes) -> "Message":
        try:
            return cls._from_wire(data)
        except struct.error as exc:
            # Truncated fixed-width fields; normalize to the decoder's
            # single failure type.
            raise ValueError(f"truncated message: {exc}") from exc

    @classmethod
    def _from_wire(cls, data: bytes) -> "Message":
        if len(data) < HEADER_STRUCT.size:
            raise ValueError("message shorter than header")
        (msg_id, flags_field, qdcount, ancount, nscount, arcount) = (
            HEADER_STRUCT.unpack_from(data, 0)
        )
        code = (flags_field >> 11) & 0xF
        opcode = _OPCODES.get(code)
        if opcode is None:
            opcode = Opcode(code)
        code = flags_field & 0xF
        rcode = _RCODES.get(code)
        if rcode is None:
            rcode = Rcode(code)
        flags = _FLAGS[flags_field & _HEADER_FLAG_MASK]
        offset = HEADER_STRUCT.size
        question = None
        if qdcount > 1:
            raise ValueError(f"unsupported qdcount: {qdcount}")
        if qdcount == 1:
            qname, offset = Name.from_wire(data, offset)
            qtype, qclass = _QUESTION_TAIL.unpack_from(data, offset)
            offset += 4
            question = Question(qname, qtype, qclass)
        message = cls(
            msg_id,
            flags=flags,
            opcode=opcode,
            rcode=rcode,
            question=question,
        )
        for section, count in (
            (message.answers, ancount),
            (message.authority, nscount),
            (message.additional, arcount),
        ):
            for _ in range(count):
                rr, offset = _read_rr(data, offset)
                section.append(rr)
        return message

    def summary(self) -> str:
        """One-line description used in logs and test failures."""
        kind = "response" if self.is_response else "query"
        question = self.question.to_text() if self.question else "<none>"
        return (
            f"{kind} id={self.msg_id} {question} rcode={self.rcode.name} "
            f"an={len(self.answers)} ns={len(self.authority)} "
            f"ar={len(self.additional)}"
        )


def _make_opt(
    payload_size: int, options: list[tuple[int, bytes]] | None = None
) -> RR:
    rdata = encode_edns_options(options) if options else b""
    return RR(ROOT, RRType.OPT, payload_size, 0, Opaque(RRType.OPT, rdata))


#: The OPT record of every query and response that carries no EDNS
#: option.  ``RR`` and its rdata are frozen and :meth:`Message.
#: set_edns_option` replaces the record rather than editing it, so the
#: messages can share one.
_EDNS_OPT = _make_opt(EDNS_UDP_PAYLOAD_SIZE)

#: Rdata types that are exactly one (possibly compressed) name.
_NAME_RDATA = {RRType.NS: NS, RRType.CNAME: CNAME, RRType.PTR: PTR}
_SOA_TAIL = struct.Struct("!IIIII")


def _read_rr(data: bytes, offset: int) -> tuple[RR, int]:
    owner, offset = Name.from_wire(data, offset)
    rrtype, rrclass, ttl, rdlength = _RR_FIXED.unpack_from(data, offset)
    offset += 10
    end = offset + rdlength
    if end > len(data):
        raise ValueError("truncated rdata")
    if rrtype == RRType.OPT or not rdlength:
        # OPT rdata is opaque; empty rdata appears in dynamic-update
        # delete-RRset entries (RFC 2136 §2.5.2) for any type.
        rdata: Rdata = Opaque(rrtype, data[offset:end])
        if rrtype == RRType.OPT:
            ttl = 0  # extended rcode/flags unused by the simulation
    elif rrtype in _NAME_RDATA:
        # Incoming messages may compress rdata names, so they are read
        # against the whole message, once.
        target, _ = Name.from_wire(data, offset)
        rdata = _NAME_RDATA[rrtype](target)
    elif rrtype == RRType.SOA:
        mname, cursor = Name.from_wire(data, offset)
        rname, cursor = Name.from_wire(data, cursor)
        rdata = SOA(mname, rname, *_SOA_TAIL.unpack_from(data, cursor))
    else:
        rdata = decode_rdata(rrtype, data[offset:end])
    return RR(owner, rrtype, rrclass, ttl, rdata), end

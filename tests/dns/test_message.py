"""Unit and property tests for the DNS message wire codec."""

import struct
from ipaddress import IPv4Address, IPv6Address

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns.message import (
    DEFAULT_UDP_PAYLOAD_SIZE,
    EDNS_COOKIE,
    EDNS_UDP_PAYLOAD_SIZE,
    Flag,
    Message,
    Opcode,
    Question,
    Rcode,
    encode_edns_options,
)
from repro.dns.name import Name, NameError_, name
from repro.dns.rr import (
    A,
    AAAA,
    CNAME,
    NS,
    PTR,
    RR,
    SOA,
    TXT,
    Opaque,
    RRType,
    decode_rdata,
)


def sample_rrs():
    return [
        RR(name("a.example.org"), RRType.A, 1, 300, A(IPv4Address("1.2.3.4"))),
        RR(name("example.org"), RRType.NS, 1, 86400, NS(name("ns1.example.org"))),
        RR(
            name("example.org"),
            RRType.SOA,
            1,
            3600,
            SOA(name("ns1.example.org"), name("root.example.org"), 1, 2, 3, 4, 5),
        ),
        RR(name("t.example.org"), RRType.TXT, 1, 60, TXT.from_text("hi")),
    ]


class TestRoundtrip:
    def test_query_roundtrip(self):
        query = Message.make_query(4321, name("www.example.org"), RRType.A)
        decoded = Message.from_wire(query.to_wire())
        assert decoded.msg_id == 4321
        assert decoded.question == Question(name("www.example.org"), RRType.A)
        assert decoded.flags & Flag.RD
        assert not decoded.is_response
        assert decoded.edns_payload_size() == EDNS_UDP_PAYLOAD_SIZE

    def test_query_without_edns(self):
        query = Message.make_query(1, name("a.org"), RRType.A, edns=False)
        decoded = Message.from_wire(query.to_wire())
        assert decoded.edns_payload_size() is None
        assert decoded.max_udp_size() == DEFAULT_UDP_PAYLOAD_SIZE

    def test_response_with_sections(self):
        query = Message.make_query(7, name("a.example.org"), RRType.A)
        response = query.make_response(authoritative=True)
        rrs = sample_rrs()
        response.answers.append(rrs[0])
        response.authority.append(rrs[1])
        decoded = Message.from_wire(response.to_wire())
        assert decoded.is_response
        assert decoded.flags & Flag.AA
        assert len(decoded.answers) == 1
        assert decoded.answers[0].rdata == rrs[0].rdata
        assert decoded.authority[0].rdata == rrs[1].rdata

    def test_rcode_roundtrip(self):
        query = Message.make_query(7, name("a.org"), RRType.A)
        response = query.make_response()
        response.rcode = Rcode.NXDOMAIN
        assert Message.from_wire(response.to_wire()).rcode is Rcode.NXDOMAIN

    def test_soa_in_authority_roundtrip(self):
        query = Message.make_query(9, name("x.example.org"), RRType.A)
        response = query.make_response()
        response.authority.append(sample_rrs()[2])
        decoded = Message.from_wire(response.to_wire())
        soa = decoded.authority[0].rdata
        assert soa.mname == name("ns1.example.org")
        assert soa.minimum == 5


class TestCompression:
    def test_compression_shrinks_message(self):
        msg = Message(1, question=Question(name("www.example.org"), RRType.A))
        msg.answers.extend(
            RR(name("www.example.org"), RRType.A, 1, 300, A(IPv4Address(f"1.2.3.{i}")))
            for i in range(4)
        )
        wire = msg.to_wire()
        # Uncompressed owner name is 17 bytes; pointers are 2 bytes.
        uncompressed_estimate = len(msg.question.qname.to_wire()) * 5
        compressed_names = len(msg.question.qname.to_wire()) + 2 * 4
        assert len(wire) < 12 + 4 + uncompressed_estimate + 4 * 14
        decoded = Message.from_wire(wire)
        assert len(decoded.answers) == 4
        assert all(rr.name == name("www.example.org") for rr in decoded.answers)

    def test_case_insensitive_compression_targets(self):
        msg = Message(1, question=Question(name("WWW.Example.ORG"), RRType.A))
        msg.answers.append(
            RR(name("www.example.org"), RRType.A, 1, 300, A(IPv4Address("1.2.3.4")))
        )
        decoded = Message.from_wire(msg.to_wire())
        assert decoded.answers[0].name == name("www.example.org")


class TestTruncation:
    def test_truncated_copy_empties_sections(self):
        query = Message.make_query(7, name("a.example.org"), RRType.TXT)
        response = query.make_response()
        response.answers.append(sample_rrs()[3])
        truncated = response.truncated_copy()
        assert truncated.is_truncated
        assert truncated.answers == []
        decoded = Message.from_wire(truncated.to_wire())
        assert decoded.is_truncated


class TestValidation:
    def test_bad_id_rejected(self):
        with pytest.raises(ValueError):
            Message(70000)

    def test_short_wire_rejected(self):
        with pytest.raises(ValueError):
            Message.from_wire(b"\x00\x01")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            Message.from_wire(b"\xff" * 11)

    def test_multi_question_rejected(self):
        header = (5).to_bytes(2, "big") + b"\x00\x00" + (2).to_bytes(2, "big") + b"\x00" * 6
        with pytest.raises(ValueError):
            Message.from_wire(header + name("a.org").to_wire() + b"\x00\x01\x00\x01")

    def test_summary_mentions_question(self):
        query = Message.make_query(3, name("a.org"), RRType.A)
        assert "a.org." in query.summary()
        assert "query" in query.summary()


# -- fuzz: the decoder is total over arbitrary bytes -------------------------


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200))
def test_decoder_never_crashes_on_garbage(data):
    """Message.from_wire either decodes or raises ValueError — never
    anything else, whatever bytes arrive off the wire."""
    try:
        Message.from_wire(data)
    except ValueError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_decoder_survives_truncated_valid_messages(data):
    """Any prefix of a valid message either parses or ValueErrors."""
    query = Message.make_query(7, name("www.example.org"), RRType.A)
    wire = query.to_wire()
    cut = data.draw(st.integers(min_value=0, max_value=len(wire)))
    try:
        Message.from_wire(wire[:cut])
    except ValueError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=60), st.integers(0, 59))
def test_decoder_survives_bit_flips(noise, position):
    """Corrupting a valid message never escapes as a non-ValueError."""
    query = Message.make_query(7, name("www.example.org"), RRType.A)
    wire = bytearray(query.to_wire())
    for index, byte in enumerate(noise):
        wire[(position + index) % len(wire)] ^= byte
    try:
        Message.from_wire(bytes(wire))
    except ValueError:
        pass


# -- property test: arbitrary messages survive the wire ---------------------

_label = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=10)
_name = st.lists(_label, min_size=1, max_size=4).map(
    lambda ls: Name(tuple(l.encode() for l in ls))
)
_a_rr = st.tuples(_name, st.integers(0, 2**32 - 1), st.integers(0, 3600)).map(
    lambda t: RR(t[0], RRType.A, 1, t[2], A(IPv4Address(t[1])))
)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 0xFFFF),
    _name,
    st.sampled_from([RRType.A, RRType.AAAA, RRType.NS, RRType.TXT]),
    st.lists(_a_rr, max_size=5),
    st.sampled_from(list(Rcode)),
    st.booleans(),
)
def test_message_wire_roundtrip(msg_id, qname, qtype, answers, rcode, rd):
    message = Message(
        msg_id,
        flags=(Flag.RD if rd else Flag(0)) | Flag.QR,
        rcode=rcode,
        question=Question(qname, qtype),
    )
    message.answers.extend(answers)
    decoded = Message.from_wire(message.to_wire())
    assert decoded.msg_id == msg_id
    assert decoded.rcode == rcode
    assert decoded.question == Question(qname, qtype)
    assert bool(decoded.flags & Flag.RD) == rd
    assert len(decoded.answers) == len(answers)
    for got, expected in zip(decoded.answers, answers):
        assert got.name == expected.name
        assert got.ttl == expected.ttl
        assert got.rdata == expected.rdata


# -- shared state: the no-option OPT record ---------------------------------


def test_edns_option_on_one_query_leaves_another_untouched():
    """Queries without options share one OPT record; setting an option
    on one (the authoritative cookie path) must not reach the other."""
    first = Message.make_query(1, name("a.example.org"), RRType.A)
    second = Message.make_query(2, name("b.example.org"), RRType.A)
    response = second.make_response()
    first.set_edns_option(EDNS_COOKIE, b"\x01" * 8)
    assert first.edns_options() == [(EDNS_COOKIE, b"\x01" * 8)]
    assert second.edns_options() == []
    assert response.edns_options() == []
    assert Message.from_wire(second.to_wire()).edns_options() == []
    assert second.edns_payload_size() == EDNS_UDP_PAYLOAD_SIZE


# -- differential: the codec against the direct implementation --------------
#
# The codec below is the wire format written the direct way: a compression
# walk that slices the key tuple per label, names built through the
# validating constructor, header fields through enum calls, and NS/CNAME/
# PTR/SOA rdata names decoded, re-encoded and decoded again.  The fast
# codec must produce the same bytes and decode every input, valid or not,
# to an equal message or the same exception class.


def reference_name_from_wire(data: bytes, offset: int):
    labels: list[bytes] = []
    cursor = offset
    consumed = None
    seen_pointers: set[int] = set()
    while True:
        if cursor >= len(data):
            raise NameError_("truncated name")
        length = data[cursor]
        if length & 0xC0 == 0xC0:
            if cursor + 1 >= len(data):
                raise NameError_("truncated compression pointer")
            target = ((length & 0x3F) << 8) | data[cursor + 1]
            if target in seen_pointers:
                raise NameError_("compression pointer loop")
            if target >= cursor:
                raise NameError_("forward compression pointer")
            seen_pointers.add(target)
            if consumed is None:
                consumed = cursor + 2
            cursor = target
            continue
        if length & 0xC0:
            raise NameError_(f"reserved label type: {length:#x}")
        cursor += 1
        if length == 0:
            break
        if cursor + length > len(data):
            raise NameError_("truncated label")
        labels.append(data[cursor : cursor + length])
        cursor += length
    if consumed is None:
        consumed = cursor
    return Name(tuple(labels)), consumed


def reference_to_wire(message: Message) -> bytes:
    out = bytearray()
    offsets: dict = {}

    def write_name(name_):
        labels = name_.labels
        key = name_._key
        while key:
            if key in offsets:
                out.extend(struct.pack("!H", 0xC000 | offsets[key]))
                return
            if len(out) < 0x3FFF:
                offsets[key] = len(out)
            label = labels[len(labels) - len(key)]
            out.append(len(label))
            out.extend(label)
            key = key[1:]
        out.append(0)

    flags_field = (
        int(message.flags) | (int(message.opcode) << 11) | int(message.rcode)
    )
    out.extend(struct.pack(
        "!HHHHHH",
        message.msg_id,
        flags_field,
        1 if message.question else 0,
        len(message.answers),
        len(message.authority),
        len(message.additional),
    ))
    if message.question:
        write_name(message.question.qname)
        out.extend(struct.pack(
            "!HH", message.question.qtype, message.question.qclass
        ))
    for section in (message.answers, message.authority, message.additional):
        for rr in section:
            write_name(rr.name)
            out.extend(struct.pack("!HHI", rr.rrtype, rr.rrclass, rr.ttl))
            rdata = rr.rdata.to_wire()
            out.extend(struct.pack("!H", len(rdata)))
            out.extend(rdata)
    return bytes(out)


def _reference_read_rr(data: bytes, offset: int):
    owner, offset = reference_name_from_wire(data, offset)
    rrtype, rrclass, ttl, rdlength = struct.unpack_from("!HHIH", data, offset)
    offset += 10
    if offset + rdlength > len(data):
        raise ValueError("truncated rdata")
    raw = data[offset : offset + rdlength]
    offset += rdlength
    if raw and rrtype in (RRType.NS, RRType.CNAME, RRType.PTR, RRType.SOA):
        start = offset - rdlength
        if rrtype == RRType.SOA:
            mname, cursor = reference_name_from_wire(data, start)
            rname, cursor = reference_name_from_wire(data, cursor)
            raw = mname.to_wire() + rname.to_wire() + data[cursor : cursor + 20]
        else:
            raw = reference_name_from_wire(data, start)[0].to_wire()
    if rrtype == RRType.OPT or not raw:
        rdata = Opaque(rrtype, raw)
    else:
        rdata = decode_rdata(rrtype, raw)
    if rrtype == RRType.OPT:
        ttl = 0
    return RR(owner, rrtype, rrclass, ttl, rdata), offset


def reference_from_wire(data: bytes) -> Message:
    try:
        if len(data) < 12:
            raise ValueError("message shorter than header")
        msg_id, flags_field, qdcount, ancount, nscount, arcount = (
            struct.unpack_from("!HHHHHH", data, 0)
        )
        opcode = Opcode((flags_field >> 11) & 0xF)
        rcode = Rcode(flags_field & 0xF)
        flags = Flag(flags_field & 0x8780)
        offset = 12
        question = None
        if qdcount > 1:
            raise ValueError(f"unsupported qdcount: {qdcount}")
        if qdcount == 1:
            qname, offset = reference_name_from_wire(data, offset)
            qtype, qclass = struct.unpack_from("!HH", data, offset)
            offset += 4
            question = Question(qname, qtype, qclass)
        message = Message(
            msg_id, flags=flags, opcode=opcode, rcode=rcode, question=question
        )
        for section, count in (
            (message.answers, ancount),
            (message.authority, nscount),
            (message.additional, arcount),
        ):
            for _ in range(count):
                rr, offset = _reference_read_rr(data, offset)
                section.append(rr)
        return message
    except struct.error as exc:
        raise ValueError(f"truncated message: {exc}") from exc


#: Labels that share suffixes and differ in case, so compression pointers
#: and case-insensitive suffix matches are common.
_CASED_LABELS = st.sampled_from([
    b"www", b"WWW", b"example", b"Example", b"org", b"ORG", b"ns1", b"a",
    b"\x00\xff", b"k.w", b"x" * 40,
])
_wire_names = st.lists(_CASED_LABELS, max_size=4).map(
    lambda labels: Name(tuple(labels))
)
_u32 = st.integers(0, 2**32 - 1)


@st.composite
def _rrs(draw):
    rrtype = draw(st.sampled_from([
        RRType.A, RRType.AAAA, RRType.NS, RRType.CNAME, RRType.PTR,
        RRType.SOA, RRType.TXT, RRType.OPT, 99,
    ]))
    if rrtype == RRType.A:
        rdata = A(IPv4Address(draw(_u32)))
    elif rrtype == RRType.AAAA:
        rdata = AAAA(IPv6Address(draw(st.integers(0, 2**128 - 1))))
    elif rrtype in (RRType.NS, RRType.CNAME, RRType.PTR):
        kind = {RRType.NS: NS, RRType.CNAME: CNAME, RRType.PTR: PTR}[rrtype]
        rdata = kind(draw(_wire_names))
    elif rrtype == RRType.SOA:
        rdata = SOA(
            draw(_wire_names), draw(_wire_names),
            *(draw(_u32) for _ in range(5)),
        )
    elif rrtype == RRType.TXT:
        rdata = TXT(tuple(draw(st.lists(st.binary(max_size=12), max_size=3))))
    elif rrtype == RRType.OPT:
        options = draw(st.lists(
            st.tuples(st.integers(0, 0xFFFF), st.binary(max_size=10)),
            max_size=2,
        ))
        rdata = Opaque(RRType.OPT, encode_edns_options(options))
    else:
        rdata = Opaque(rrtype, draw(st.binary(max_size=12)))
    return RR(
        draw(_wire_names),
        rrtype,
        draw(st.sampled_from([1, 3, 254, 255, 512, 4096])),
        draw(st.integers(0, 0x7FFFFFFF)),
        rdata,
    )


@st.composite
def _messages(draw):
    message = Message(
        draw(st.integers(0, 0xFFFF)),
        flags=Flag(draw(st.integers(0, 0x8780)) & 0x8780),
        opcode=draw(st.sampled_from(list(Opcode))),
        rcode=draw(st.sampled_from(list(Rcode))),
        question=draw(st.none() | st.builds(
            Question,
            _wire_names,
            st.integers(0, 0xFFFF),
            st.sampled_from([1, 3, 255]),
        )),
    )
    for section in (message.answers, message.authority, message.additional):
        section.extend(draw(st.lists(_rrs(), max_size=3)))
    return message


def _decode_outcome(decode, wire: bytes):
    """What *decode* makes of *wire*: the exception class it raised, or
    the message, its re-encoding (label case included) and every owner
    name's labels."""
    try:
        message = decode(wire)
    except Exception as exc:  # the class is the outcome under test
        return type(exc)
    owners = [message.question.qname.labels] if message.question else []
    for section in (message.answers, message.authority, message.additional):
        owners.extend(rr.name.labels for rr in section)
    return message, reference_to_wire(message), owners


@settings(max_examples=300, deadline=None)
@given(message=_messages())
def test_to_wire_matches_the_direct_encoder(message):
    assert message.to_wire() == reference_to_wire(message)


@settings(max_examples=400, deadline=None)
@given(message=_messages(), data=st.data())
def test_from_wire_matches_the_direct_decoder(message, data):
    """Intact, bit-flipped, truncated, or both, a quarter each."""
    wire = bytearray(reference_to_wire(message))
    if data.draw(st.booleans()):
        for _ in range(data.draw(st.integers(1, 3))):
            bit = data.draw(st.integers(0, len(wire) * 8 - 1))
            wire[bit // 8] ^= 1 << (bit % 8)
    if data.draw(st.booleans()):
        wire = wire[: data.draw(st.integers(0, len(wire) - 1))]
    wire = bytes(wire)
    assert _decode_outcome(Message.from_wire, wire) == _decode_outcome(
        reference_from_wire, wire
    )


def test_every_header_flags_field_matches_the_direct_decoder():
    """All 2**16 flags fields, unassigned opcodes and rcodes included."""
    for flags_field in range(0x10000):
        wire = struct.pack("!HHHHHH", 7, flags_field, 0, 0, 0, 0)
        assert _decode_outcome(Message.from_wire, wire) == _decode_outcome(
            reference_from_wire, wire
        ), hex(flags_field)


@pytest.mark.parametrize("compressed", [False, True])
@pytest.mark.parametrize("last", [59, 60, 61, 62, 63])
def test_name_length_limit_matches_the_direct_decoder(compressed, last):
    """Names around the 255-octet limit: three 63-octet labels plus one
    of *last* octets, written out or reached through a pointer."""
    labels = [b"a" * 63, b"b" * 63, b"c" * 63, b"d" * last]
    plain = b"".join(bytes([len(x)]) + x for x in labels) + b"\x00"
    if compressed:
        # The tail label sits first in the buffer; the name at offset
        # ``start`` spells the first three labels and points back at it.
        tail = bytes([last]) + labels[3] + b"\x00"
        head = b"".join(bytes([len(x)]) + x for x in labels[:3])
        data, start = tail + head + b"\xc0\x00", len(tail)
    else:
        data, start = plain, 0

    def outcome(decode):
        try:
            found, end = decode(data, start)
        except Exception as exc:
            return type(exc)
        return found.labels, found._key, end

    assert outcome(Name.from_wire) == outcome(reference_name_from_wire)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=80), offset=st.integers(0, 79))
def test_name_from_wire_matches_the_direct_decoder(data, offset):
    def outcome(decode):
        try:
            found, end = decode(data, offset)
        except Exception as exc:
            return type(exc)
        return found.labels, found._key, end

    assert outcome(Name.from_wire) == outcome(reference_name_from_wire)

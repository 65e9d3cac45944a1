"""Unit and property tests for the experiment query-name codec."""

import pickle
from ipaddress import IPv4Address, IPv6Address, ip_address

import pytest
from hypothesis import given, strategies as st

from repro.core.qname import (
    Channel,
    QueryNameCodec,
    decode_address,
    decode_timestamp,
    encode_address,
    encode_timestamp,
)
from repro.dns.name import name

CODEC = QueryNameCodec(name("dns-lab.org"), "bcd19")

V4 = ip_address("203.0.113.7")
V6 = ip_address("2a00:1:2:3::42")


class TestAddressLabels:
    def test_v4_roundtrip(self):
        assert decode_address(encode_address(V4)) == V4

    def test_v6_roundtrip(self):
        assert decode_address(encode_address(V6)) == V6

    def test_labels_are_dns_safe(self):
        for address in (V4, V6):
            label = encode_address(address)
            assert "." not in label and ":" not in label
            assert len(label) <= 63


class TestTimestampLabels:
    def test_roundtrip_millisecond_precision(self):
        assert decode_timestamp(encode_timestamp(12.345)) == 12.345

    def test_bad_label(self):
        with pytest.raises(ValueError):
            decode_timestamp("x123")


class TestCodec:
    def test_main_channel_roundtrip(self):
        qname = CODEC.encode(3.25, V4, ip_address("20.0.0.9"), 1234)
        decoded = CODEC.decode(qname)
        assert decoded is not None
        assert decoded.timestamp == 3.25
        assert decoded.src == V4
        assert decoded.dst == ip_address("20.0.0.9")
        assert decoded.asn == 1234
        assert decoded.channel is Channel.MAIN
        assert decoded.keyword == "bcd19"

    @pytest.mark.parametrize(
        "channel", [Channel.V4_ONLY, Channel.V6_ONLY, Channel.TCP]
    )
    def test_channel_roundtrip(self, channel):
        qname = CODEC.encode(1.0, V6, V6, 99, channel=channel)
        decoded = CODEC.decode(qname)
        assert decoded.channel is channel

    def test_channel_base_layout(self):
        assert CODEC.channel_base(Channel.MAIN) == name("bcd19.dns-lab.org")
        assert CODEC.channel_base(Channel.V4_ONLY) == name(
            "bcd19.v4.dns-lab.org"
        )
        assert CODEC.channel_base(Channel.TCP) == name("bcd19.tc.dns-lab.org")

    def test_unrelated_name_decodes_none(self):
        assert CODEC.decode(name("www.example.com")) is None
        assert CODEC.minimized_channel(name("www.example.com")) is None

    def test_wrong_label_count_decodes_none(self):
        assert CODEC.decode(name("extra.t1.s1-2-3-4.d1-2-3-5.a9.bcd19.dns-lab.org")) is None

    def test_malformed_labels_decode_none(self):
        assert CODEC.decode(name("t1.x1-2-3-4.d1-2-3-5.a9.bcd19.dns-lab.org")) is None
        assert CODEC.decode(name("t1.s1-2-3-4.d1-2-3-5.zz.bcd19.dns-lab.org")) is None

    def test_minimized_prefixes_detected(self):
        full = CODEC.encode(1.0, V4, ip_address("20.0.0.9"), 1234)
        assert CODEC.decode(full) is not None
        assert CODEC.minimized_channel(full) is None  # complete names excluded
        # Each qmin prefix below the channel base is recognized.
        prefix = full.parent()
        seen = 0
        while len(prefix) >= len(CODEC.channel_base(Channel.MAIN)):
            assert CODEC.minimized_channel(prefix) is Channel.MAIN
            seen += 1
            prefix = prefix.parent()
        assert seen == 4  # kw, asn, dst, src prefixes

    def test_minimized_channel_specific(self):
        full = CODEC.encode(1.0, V4, ip_address("20.0.0.9"), 1, channel=Channel.V4_ONLY)
        assert CODEC.minimized_channel(full.parent()) is Channel.V4_ONLY


_v4 = st.integers(0, 2**32 - 1).map(IPv4Address)
_v6 = st.integers(0, 2**128 - 1).map(IPv6Address)


@given(
    st.integers(0, 10**9),
    st.one_of(_v4, _v6),
    st.one_of(_v4, _v6),
    st.integers(1, 4_000_000_000),
    st.sampled_from(list(Channel)),
)
def test_codec_roundtrip_property(ts_ms, src, dst, asn, channel):
    qname = CODEC.encode(ts_ms / 1000.0, src, dst, asn, channel=channel)
    decoded = CODEC.decode(qname)
    assert decoded is not None
    assert decoded.timestamp == pytest.approx(ts_ms / 1000.0)
    assert decoded.src == src
    assert decoded.dst == dst
    assert decoded.asn == asn
    assert decoded.channel is channel


@given(
    st.integers(0, 10**9),
    st.one_of(_v4, _v6),
    st.one_of(_v4, _v6),
    st.integers(1, 4_000_000_000),
    st.sampled_from(list(Channel)),
)
def test_encode_matches_the_label_by_label_build(ts_ms, src, dst, asn, channel):
    """The memoized one-step encode equals prepending each label in turn."""
    expected = (
        CODEC.channel_base(channel)
        .child(f"a{asn}")
        .child(f"d{encode_address(dst)}")
        .child(f"s{encode_address(src)}")
        .child(encode_timestamp(ts_ms / 1000.0))
    )
    qname = CODEC.encode(ts_ms / 1000.0, src, dst, asn, channel=channel)
    assert qname.labels == expected.labels
    assert qname == expected


def test_decode_memo_serves_the_same_name_once():
    codec = QueryNameCodec(name("dns-lab.org"), "bcd19")
    qname = codec.encode(1.5, V4, V6, 64500)
    first = codec.decode(qname)
    assert codec.decode(qname) is first  # the second observer's call
    # An equal name parsed afresh decodes to an equal result.
    again = name(str(qname))
    assert again is not qname
    assert codec.decode(again) == first
    assert codec.decode(name("unrelated.example")) is None
    assert codec.decode(qname) == first


def test_pickled_codec_leaves_its_memos_behind():
    codec = QueryNameCodec(name("dns-lab.org"), "bcd19")
    blank = pickle.dumps(codec)
    for i in range(5):
        qname = codec.encode(
            float(i), V4, ip_address(f"20.0.0.{i + 1}"), 64500 + i,
            channel=Channel.V6_ONLY,
        )
        assert codec.decode(qname) is not None
    assert codec._labels and codec._addresses and codec._last[0] is not None
    assert pickle.dumps(codec) == blank
    loaded = pickle.loads(pickle.dumps(codec))
    assert loaded == codec
    assert not loaded._labels and not loaded._addresses
    assert loaded._last[1] is None
    qname = loaded.encode(9.0, V4, V6, 7)
    assert loaded.decode(qname) == codec.decode(qname)

"""The content-keyed determinism helpers behind the shardable pipeline."""

import enum
import os
import subprocess
import sys
from hashlib import blake2b

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns.message import Flag, Opcode, Rcode
from repro.dns.rr import RRType
from repro.netsim.determinism import (
    derive_rng,
    derive_seed,
    prefixed_fraction,
    stable_fraction,
    stable_hash,
    stable_prefix,
    stable_range,
)
from repro.netsim.packet import TCPFlag


def test_same_parts_same_hash():
    assert stable_hash(1, "loss", b"abc") == stable_hash(1, "loss", b"abc")


def test_type_tags_prevent_cross_type_collisions():
    values = [1, "1", b"1", 1.0, True]
    hashes = [stable_hash(v) for v in values]
    assert len(set(hashes)) == len(values)


def test_parts_cannot_run_into_each_other():
    assert stable_hash("ab", "c") != stable_hash("a", "bc")
    assert stable_hash(b"ab", b"c") != stable_hash(b"a", b"c", b"")


def test_unsupported_part_type_rejected():
    with pytest.raises(TypeError):
        stable_hash(object())


def test_hash_is_process_independent():
    """Unlike ``hash()``, the digest must survive a fresh interpreter.

    Shard workers recompute every per-packet decision in their own
    process; a per-process salt would desynchronize them from the
    single-process run.
    """
    expected = stable_hash(2019, "probe", b"\x00wire", 42)
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.netsim.determinism import stable_hash;"
            "print(stable_hash(2019, 'probe', b'\\x00wire', 42))",
        ],
        capture_output=True,
        text=True,
        env=os.environ,
        check=True,
    )
    assert int(out.stdout.strip()) == expected


def test_fraction_in_unit_interval():
    fractions = [stable_fraction("f", i) for i in range(200)]
    assert all(0.0 <= f < 1.0 for f in fractions)
    # Sanity: the values actually spread over the interval.
    assert min(fractions) < 0.1 and max(fractions) > 0.9


def test_range_bounds_and_spread():
    values = [stable_range(10, "r", i) for i in range(200)]
    assert all(0 <= v < 10 for v in values)
    assert len(set(values)) == 10


def test_range_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        stable_range(0, "x")


def test_derived_rngs_replay_identically():
    a = derive_rng(5, "shard", 3)
    b = derive_rng(5, "shard", 3)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_derived_seeds_differ_by_parts():
    assert derive_seed(5, "shard", 0) != derive_seed(5, "shard", 1)
    assert derive_seed(5, "shard", 0) != derive_seed(6, "shard", 0)


def test_int_subclasses_hash_by_value():
    """An ``IntEnum``/``IntFlag`` member keys like the int it equals.

    ``str()`` of a member is ``"RRType.A"`` on Python 3.10 and ``"1"``
    on 3.11+, so a key encoded through ``str()`` would move with the
    interpreter; ``ScanClient.send_query`` hashes ``qtype=RRType.A``
    into every probe's transaction ID and source port.
    """

    class Custom(int):
        def __str__(self) -> str:
            return "not-a-number"

    assert stable_hash(RRType.A) == stable_hash(1)
    assert stable_hash(Flag.QR | Flag.RD) == stable_hash(0x8100)
    assert stable_hash(TCPFlag.NONE) == stable_hash(0)
    assert stable_hash(Custom(7)) == stable_hash(7)
    assert stable_hash(True) != stable_hash(1)
    assert stable_hash(2019, "probe", RRType.AAAA) == stable_hash(
        2019, "probe", 28
    )


# -- differential: the key encoding against the direct implementation ------


def reference_stable_hash(*parts) -> int:
    """``stable_hash`` written the direct way: every part through one
    ``isinstance`` chain, joined from a generator."""

    def encode(part) -> bytes:
        if isinstance(part, bool):
            return b"B" + (b"1" if part else b"0")
        if isinstance(part, int):
            return b"I" + str(part).encode("ascii")
        if isinstance(part, bytes):
            return b"Y" + part
        if isinstance(part, str):
            return b"S" + part.encode("utf-8")
        if isinstance(part, float):
            return b"F" + repr(part).encode("ascii")
        raise TypeError(f"unhashable key part for stable_hash: {part!r}")

    digest = blake2b(b"\x1f".join(encode(p) for p in parts), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


class Small(enum.IntEnum):
    NEGATIVE = -3
    ZERO = 0
    HUGE = 2**70


#: Members whose ``str()`` is their value (Python 3.11+), so the
#: reference's ``str()`` encoding and the by-value one must agree.
ENUM_MEMBERS = st.sampled_from(
    [*RRType, *Opcode, *Rcode, *Flag, *TCPFlag, *Small]
    + [Flag.QR | Flag.AA | Flag.RD, Flag(0), TCPFlag.SYN | TCPFlag.ACK]
)
KEY_PARTS = st.one_of(
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-1),
    st.booleans(),
    ENUM_MEMBERS,
    st.binary(max_size=48),
    st.text(max_size=24),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(KEY_PARTS, max_size=9))
def test_stable_hash_matches_the_direct_encoding(parts):
    assert stable_hash(*parts) == reference_stable_hash(*parts)
    assert stable_fraction(*parts) == reference_stable_hash(*parts) / 2**64


@settings(max_examples=200, deadline=None)
@given(
    prefix=st.lists(KEY_PARTS, min_size=1, max_size=3),
    parts=st.lists(KEY_PARTS, min_size=1, max_size=7),
)
def test_prefixed_fraction_matches_stable_fraction(prefix, parts):
    primed = stable_prefix(*prefix)
    assert prefixed_fraction(primed, *parts) == stable_fraction(
        *prefix, *parts
    )
    # The primed state is copied, never consumed: it serves again.
    assert prefixed_fraction(primed, *parts) == stable_fraction(
        *prefix, *parts
    )


def test_prefixed_fraction_needs_a_part():
    with pytest.raises(ValueError):
        prefixed_fraction(stable_prefix(1, "loss"))

"""Content-keyed determinism helpers for shardable simulations.

The staged campaign pipeline partitions target ASes across worker
processes and merges their observations back into one result that must
be byte-identical to the unsharded run.  That is only possible when
every result-affecting random decision is a pure function of *what* is
being decided — the packet, the target, the query name — rather than a
position in a shared consumed RNG stream, whose state would depend on
which other shards' events interleaved before it.

This module is that contract in code: :func:`stable_hash` maps any
composition of primitive values to a 64-bit integer that is identical
across processes, platforms and Python invocations (unlike ``hash()``,
which is salted per process), and the helpers derive fractions, bounded
integers and seeded :class:`random.Random` streams from it.  Simulation
components that need randomness key it on their own content::

    roll = stable_fraction(seed, "loss", int(src), int(dst), payload)
    rng = derive_rng(seed, "shard", shard_id)
"""

from __future__ import annotations

from hashlib import blake2b
from random import Random

__all__ = [
    "derive_rng",
    "derive_seed",
    "prefixed_fraction",
    "stable_fraction",
    "stable_hash",
    "stable_prefix",
    "stable_range",
]

_SEPARATOR = b"\x1f"


def _encode_part(part) -> bytes:
    """Render one key component as unambiguous bytes.

    Each value is tagged with its type so e.g. the integer ``1`` and the
    string ``"1"`` never collide, and parts cannot run into each other.
    An ``int`` subclass (an ``IntEnum`` or ``IntFlag`` member) encodes
    by value, exactly like the plain ``int`` it equals: ``str()`` of a
    member is ``"RRType.A"`` on some Python versions and ``"1"`` on
    others.
    """
    if isinstance(part, bool):  # before int: bool is an int subclass
        return b"B" + (b"1" if part else b"0")
    if isinstance(part, int):
        return b"I%d" % part
    if isinstance(part, bytes):
        return b"Y" + part
    if isinstance(part, str):
        return b"S" + part.encode("utf-8")
    if isinstance(part, float):
        return b"F" + repr(part).encode("ascii")
    raise TypeError(f"unhashable key part for stable_hash: {part!r}")


def _encode(parts) -> bytes:
    """Join the encodings of *parts* with the separator.

    Per-packet keys are plain ints, bytes and str, so those three are
    matched by exact type before the general :func:`_encode_part`;
    both give the same bytes for them.
    """
    out = []
    for part in parts:
        kind = type(part)
        if kind is int:
            out.append(b"I%d" % part)
        elif kind is bytes:
            out.append(b"Y" + part)
        elif kind is str:
            out.append(b"S" + part.encode())
        else:
            out.append(_encode_part(part))
    return _SEPARATOR.join(out)


def stable_hash(*parts) -> int:
    """Hash *parts* (ints, bytes, str, floats) to a stable 64-bit int.

    The digest is process-independent: the same parts give the same
    value in every worker, which is what lets sharded runs reproduce the
    unsharded run's per-packet decisions exactly.
    """
    digest = blake2b(_encode(parts), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def stable_prefix(*parts):
    """Return a hash state primed with the leading key *parts*.

    A caller that draws many keys sharing one constant prefix (a seed
    and a purpose) primes it once and passes the state to
    :func:`prefixed_fraction`.  The state is a ``blake2b`` object,
    which does not pickle: keep it out of pickled state.
    """
    return blake2b(_encode(parts) + _SEPARATOR, digest_size=8)


def prefixed_fraction(prefix, *parts) -> float:
    """``stable_fraction(*prefix_parts, *parts)`` from a primed state.

    *prefix* comes from :func:`stable_prefix`; *parts* must not be
    empty, because the prefix already ends in a separator.
    """
    if not parts:
        raise ValueError("prefixed_fraction needs at least one part")
    state = prefix.copy()
    state.update(_encode(parts))
    return int.from_bytes(state.digest(), "big") / 2**64


def stable_fraction(*parts) -> float:
    """Map *parts* to a uniform float in ``[0, 1)``."""
    return stable_hash(*parts) / 2**64


def stable_range(bound: int, *parts) -> int:
    """Map *parts* to an integer in ``[0, bound)``.

    The modulo bias is below 2**-40 for any bound under 2**24, far
    beneath anything the simulation can observe.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    return stable_hash(*parts) % bound


def derive_seed(*parts) -> int:
    """Derive an RNG seed from *parts* (e.g. ``(seed, shard_id)``)."""
    return stable_hash(*parts)


def derive_rng(*parts) -> Random:
    """Return a fresh :class:`random.Random` seeded from *parts*."""
    return Random(derive_seed(*parts))

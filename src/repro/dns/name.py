"""Domain names: parsing, comparison, and wire-format encoding.

Names are immutable tuples of label bytes.  Comparison and hashing are
case-insensitive per RFC 1035 §2.3.3, while the original octets are
preserved for re-serialization.  Wire-format decoding understands
RFC 1035 §4.1.4 compression pointers (with loop protection); encoding
with compression lives in :mod:`repro.dns.wire` because it needs
whole-message offset state.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255
_POINTER_MASK = 0xC0


class NameError_(ValueError):
    """A malformed domain name (bad label length, bad pointer, ...)."""


@functools.total_ordering
class Name:
    """An absolute DNS domain name.

    Construct from presentation format with :meth:`from_text` (or the
    module-level :func:`name` helper), or from labels directly.  The root
    name is the empty tuple of labels and renders as ``"."``.
    """

    __slots__ = ("labels", "_key", "_hash")

    def __init__(self, labels: tuple[bytes, ...]) -> None:
        total = 0
        for label in labels:
            if not label:
                raise NameError_("empty interior label")
            if len(label) > MAX_LABEL_LENGTH:
                raise NameError_(f"label too long: {len(label)} octets")
            total += len(label) + 1
        if total + 1 > MAX_NAME_LENGTH:
            raise NameError_(f"name too long: {total + 1} octets")
        self.labels = labels
        self._key = tuple(map(bytes.lower, labels))

    @classmethod
    def _from_validated(
        cls, labels: tuple[bytes, ...], key: tuple[bytes, ...]
    ) -> "Name":
        """Construct from labels already known to satisfy the length
        rules, with their casefolded key in hand.  Only for derivations
        of existing names (:meth:`parent`, :meth:`child`), where
        re-validating and re-casefolding every label would dominate the
        per-packet cost of name manipulation.
        """
        instance = cls.__new__(cls)
        instance.labels = labels
        instance._key = key
        return instance

    # -- construction ----------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse presentation format; a trailing dot is optional."""
        if text in (".", ""):
            return ROOT
        stripped = text.rstrip(".")
        labels = tuple(
            label.encode("ascii") for label in stripped.split(".")
        )
        if any(not label for label in labels):
            raise NameError_(f"empty label in {text!r}")
        return cls(labels)

    # -- structure -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def is_root(self) -> bool:
        """True for the root name ``"."``."""
        return not self.labels

    def parent(self) -> "Name":
        """Return the name with the leftmost label removed."""
        if self.is_root:
            raise NameError_("the root name has no parent")
        return Name._from_validated(self.labels[1:], self._key[1:])

    def child(self, label: str | bytes) -> "Name":
        """Return the name with *label* prepended."""
        if isinstance(label, str):
            label = label.encode("ascii")
        if not label or len(label) > MAX_LABEL_LENGTH:
            raise NameError_(f"bad label length: {len(label)} octets")
        total = sum(map(len, self.labels)) + len(self.labels)
        if total + len(label) + 2 > MAX_NAME_LENGTH:
            raise NameError_(
                f"name too long: {total + len(label) + 2} octets"
            )
        return Name._from_validated(
            (label,) + self.labels, (label.lower(),) + self._key
        )

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if *self* equals *other* or sits beneath it."""
        if len(other.labels) > len(self.labels):
            return False
        offset = len(self._key) - len(other._key)
        return self._key[offset:] == other._key

    def relativize(self, origin: "Name") -> tuple[bytes, ...]:
        """Return the labels of *self* left of *origin* (which must contain it)."""
        if not self.is_subdomain_of(origin):
            raise NameError_(f"{self} is not under {origin}")
        return self.labels[: len(self.labels) - len(origin.labels)]

    def ancestors(self) -> Iterator["Name"]:
        """Yield self, then each parent up to and including the root."""
        current = self
        while True:
            yield current
            if current.is_root:
                return
            current = current.parent()

    # -- comparison ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Name) and self._key == other._key

    def __lt__(self, other: "Name") -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        # Canonical DNS ordering: compare from the rightmost label.
        return tuple(reversed(self._key)) < tuple(reversed(other._key))

    def __hash__(self) -> int:
        # Names key the zone/record dicts consulted on every simulated
        # query, so the tuple hash is computed once and memoized.
        try:
            return self._hash
        except AttributeError:
            value = hash(self._key)
            self._hash = value
            return value

    def __getstate__(self):
        # The memoized hash must never cross a pickle boundary: tuple
        # hashes are salted per process (PYTHONHASHSEED), so a name
        # unpickled with the builder's hash silently misses in every
        # dict keyed by names created in the loading process.
        return (self.labels, self._key)

    def __setstate__(self, state) -> None:
        self.labels, self._key = state

    # -- text and wire ---------------------------------------------------

    def __str__(self) -> str:
        if self.is_root:
            return "."
        return ".".join(l.decode("ascii") for l in self.labels) + "."

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"

    def to_wire(self) -> bytes:
        """Encode without compression."""
        out = bytearray()
        for label in self.labels:
            out.append(len(label))
            out += label
        out.append(0)
        return bytes(out)

    @classmethod
    def from_wire(cls, data: bytes, offset: int) -> tuple["Name", int]:
        """Decode a (possibly compressed) name at *offset*.

        Returns the name and the offset just past its encoding in the
        original stream (pointers do not advance the outer cursor beyond
        the two pointer octets).
        """
        labels: list[bytes] = []
        cursor = offset
        consumed: int | None = None
        seen_pointers: set[int] = set()
        while True:
            if cursor >= len(data):
                raise NameError_("truncated name")
            length = data[cursor]
            if length & _POINTER_MASK == _POINTER_MASK:
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
            if length & _POINTER_MASK:
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
        return cls(tuple(labels)), consumed


#: The root name, ``"."``.
ROOT = Name(())


def name(text: str) -> Name:
    """Shorthand for :meth:`Name.from_text`."""
    return Name.from_text(text)

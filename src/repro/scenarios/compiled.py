"""Compiled-scenario artifacts: a built world as content-keyed bytes.

``build_internet`` is a pure function of :class:`ScenarioParams`, but it
is not free — route tables are compiled, geo tables filled, addresses
interned, and every AS populated.  This module serializes a fully built
:class:`~repro.scenarios.internet.BuiltScenario` into a versioned,
content-addressed artifact:

* a content-keyed on-disk cache (:class:`ScenarioCache`) lets repeated
  runs of the same spec load the world instead of building it (the
  pipeline parent consults it through :func:`build_or_load`);
* :func:`write_scenario`/:func:`load_scenario` save and restore a world
  by path.

Shard workers do not read artifacts: a forked worker inherits the
parent's live object, and any other shard builds its own copy, which
costs less than serializing plus deserializing one would.

Artifact format: one JSON header line (schema version, content key,
payload digest, summary fields) followed by a zlib-compressed pickle of
the scenario.  The content key hashes the canonical parameter payload
plus the builder code version, so any spec change — or any
semantics-changing builder change, via :data:`SCENARIO_CODE_VERSION` —
invalidates cache entries instead of silently serving a stale world.

Trust model: artifacts are pickles.  Load them only from directories
you (or your pipeline) wrote — the same trust boundary as the run
directory itself.  The payload digest in the header guards against
corruption, not against an adversarial artifact.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..durable import write_atomic
from .params import ResolverKind, ScenarioParams

if TYPE_CHECKING:
    from .internet import BuiltScenario

#: Artifact layout version.  Readers refuse artifacts from a different
#: version rather than guessing at their contents.
SCENARIO_SCHEMA_VERSION = 1

#: Version of the scenario *builder semantics*.  Bump whenever
#: ``build_internet`` changes what it produces for the same params —
#: the content key folds this in, so stale cache entries miss instead
#: of resurrecting an old world.
#: 2: policy-aware topology engine (graph + compiled valley-free path
#: tables ride inside the artifact; ``BuiltScenario`` gained a
#: ``topology`` field, so version-1 pickles must not be resurrected).
SCENARIO_CODE_VERSION = 2

_MAGIC = "repro-compiled-scenario"

class ScenarioArtifactError(ValueError):
    """An artifact failed validation (version, key, or digest)."""


def _kind_payload(kind: ResolverKind) -> dict[str, Any]:
    return {
        "key": kind.key,
        "os_name": kind.os_name,
        "software": kind.software,
        "weight": kind.weight,
        "open_probability": kind.open_probability,
        "fuzz_probability": kind.fuzz_probability,
    }


def params_payload(params: ScenarioParams) -> dict[str, Any]:
    """Canonical JSON-able view of *params*, for content addressing.

    Resolver kinds are represented by their registry descriptors (the
    allocator factory itself is code, captured by
    :data:`SCENARIO_CODE_VERSION`); every other field is a scalar or a
    plain dict and passes through unchanged.
    """
    payload: dict[str, Any] = {}
    for field in dataclasses.fields(params):
        value = getattr(params, field.name)
        if field.name == "resolver_mix":
            value = [_kind_payload(kind) for kind in value]
        elif field.name == "topology":
            value = value.to_payload() if value is not None else None
        elif field.name == "evolution":
            # Absent — not null — when unset, so every pre-evolution
            # content key survives (and with it the star pin of
            # test_star_topology_results_match_pin).
            if value is None:
                continue
        payload[field.name] = value
    return payload


def content_key(params: ScenarioParams) -> str:
    """Content address of the scenario *params* would build."""
    canonical = json.dumps(
        {
            "schema_version": SCENARIO_SCHEMA_VERSION,
            "code_version": SCENARIO_CODE_VERSION,
            "params": params_payload(params),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def serialize_scenario(scenario: "BuiltScenario") -> bytes:
    """Serialize a built scenario into artifact bytes (header + payload)."""
    payload = zlib.compress(
        pickle.dumps(scenario, protocol=pickle.HIGHEST_PROTOCOL), 1
    )
    header = {
        "format": _MAGIC,
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "code_version": SCENARIO_CODE_VERSION,
        "content_key": content_key(scenario.params),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "seed": scenario.params.seed,
        "n_ases": scenario.params.n_ases,
        "resolvers": len(scenario.ground_truth.resolvers),
    }
    return json.dumps(header, sort_keys=True).encode() + b"\n" + payload


def read_artifact_header(data: bytes) -> dict[str, Any]:
    """Parse and validate the artifact's JSON header line."""
    newline = data.find(b"\n")
    if newline < 0:
        raise ScenarioArtifactError("scenario artifact has no header line")
    try:
        header = json.loads(data[:newline])
    except ValueError as exc:
        raise ScenarioArtifactError(
            f"scenario artifact header is not valid JSON ({exc})"
        ) from exc
    if header.get("format") != _MAGIC:
        raise ScenarioArtifactError(
            f"not a compiled-scenario artifact (format="
            f"{header.get('format')!r})"
        )
    version = header.get("schema_version")
    if version != SCENARIO_SCHEMA_VERSION:
        raise ScenarioArtifactError(
            f"scenario artifact has schema_version={version!r}, this "
            f"code reads version {SCENARIO_SCHEMA_VERSION}"
        )
    return header


def _check_artifact(data: bytes, expect_key: str | None) -> None:
    """Refuse artifact *data* unless its header, content key and digest
    pass."""
    header = read_artifact_header(data)
    if expect_key is not None and header["content_key"] != expect_key:
        raise ScenarioArtifactError(
            f"scenario artifact was built from different parameters "
            f"(content key {header['content_key'][:12]}…, expected "
            f"{expect_key[:12]}…)"
        )
    digest = hashlib.sha256(data[data.find(b"\n") + 1 :]).hexdigest()
    if digest != header["payload_sha256"]:
        raise ScenarioArtifactError(
            f"scenario artifact payload failed its digest "
            f"(recorded {header['payload_sha256'][:12]}…, "
            f"found {digest[:12]}…)"
        )


def _unpickle(data: bytes) -> "BuiltScenario":
    """The scenario in artifact *data*, once checked."""
    return pickle.loads(zlib.decompress(data[data.find(b"\n") + 1 :]))


def deserialize_scenario(
    data: bytes, *, expect_key: str | None = None
) -> "BuiltScenario":
    """Load a scenario from artifact bytes, verifying header and digest.

    *expect_key* (normally :func:`content_key` of the spec about to be
    scanned) guards against loading an artifact built from different
    parameters or by a different builder version.
    """
    _check_artifact(data, expect_key)
    return _unpickle(data)


def write_scenario(path, scenario: "BuiltScenario") -> bytes:
    """Atomically write *scenario*'s artifact to *path*; return the bytes."""
    data = serialize_scenario(scenario)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, data)
    return data


def write_artifact_bytes(path, data: bytes) -> None:
    """Atomically write already-serialized artifact bytes to *path*."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, data)


def load_scenario(path, *, expect_key: str | None = None) -> "BuiltScenario":
    """Load a scenario artifact from *path* (see :func:`deserialize_scenario`)."""
    return deserialize_scenario(
        Path(path).read_bytes(), expect_key=expect_key
    )


class ScenarioCache:
    """Content-keyed on-disk store of compiled scenarios.

    Entries are immutable: the filename is the content key, so a hit is
    by construction the same world a cold build would produce, and a
    spec or builder-version change simply misses.  Concurrent writers
    are safe: both produce identical bytes, each writes its own
    ``.tmp<pid>`` file, and the rename that publishes it is atomic
    (:func:`repro.durable.atomic_open`).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)

    def entry_path(self, key: str) -> Path:
        return self.root / f"scenario-{key}.bin"

    def get_bytes(self, params: ScenarioParams) -> bytes | None:
        """Artifact bytes for *params*, or ``None`` on a miss.

        A corrupt entry (failed digest, wrong version) is evicted and
        treated as a miss rather than poisoning every future run.
        """
        key = content_key(params)
        path = self.entry_path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            _check_artifact(data, key)
        except ScenarioArtifactError:
            path.unlink(missing_ok=True)
            return None
        return data

    def put_bytes(self, params: ScenarioParams, data: bytes) -> Path:
        key = content_key(params)
        path = self.entry_path(key)
        write_artifact_bytes(path, data)
        return path


def build_or_load(
    params: ScenarioParams, *, cache: ScenarioCache | None = None
) -> tuple["BuiltScenario", bytes | None, str]:
    """Build *params*' scenario, or load it from *cache* on a hit.

    Returns ``(scenario, artifact_bytes, source)`` where *source* is
    ``"cache"`` or ``"built"``.  On a cold build with a cache attached
    the artifact is serialized once and stored; without a cache,
    ``artifact_bytes`` is ``None`` and nothing is serialized.
    """
    if cache is not None:
        data = cache.get_bytes(params)
        if data is not None:
            # get_bytes has checked the entry.
            return _unpickle(data), data, "cache"
    from .internet import build_internet

    scenario = build_internet(params)
    data = None
    if cache is not None:
        data = serialize_scenario(scenario)
        cache.put_bytes(params, data)
    return scenario, data, "built"

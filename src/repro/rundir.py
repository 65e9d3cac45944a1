"""Run directories: the one place that knows a run's files and which
of them can be trusted.

A run's ``manifest.json`` (its spec, the stages completed and the
sha256 of every committed file) is the only record of what it has
committed.  Every command reads a run's files through
:class:`RunDirectory` under one rule: a file is read only if the
manifest records it and its bytes match the recorded digest.  A file
the manifest does not record counts as absent; a recorded file whose
bytes differ is refused (:class:`UntrustedArtifact`).  This module
loads no other part of :mod:`repro` at import time, so the observatory
reads runs without importing the pipeline.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from .durable import sweep_temp_files, write_atomic

#: Version stamped into the manifest and every pipeline artifact but
#: ``results.json``.  Readers refuse another version rather than guess.
ARTIFACT_SCHEMA_VERSION = 1

#: Version of the :meth:`~repro.core.campaign.Campaign.results_dict`
#: schema, bumped whenever keys move or change meaning.  3: provenance
#: carries the run's identity keys (``scenario_content_key``,
#: ``topology``, ``fault_plan_digest``).
RESULTS_SCHEMA_VERSION = 3

#: Stage names, in execution order.
STAGES = ("build", "scan", "collect", "analyze", "report")

MANIFEST_FILE = "manifest.json"

#: The live telemetry stream of a run (``repro watch`` tails it).
STREAM_FILE = "telemetry-stream.ndjson"


class RunDirectoryError(ValueError):
    """A run directory, or a file in one, that a command refuses: one
    line of explanation, exit code 2."""

    exit_code = 2


class RunNotFound(RunDirectoryError, FileNotFoundError):
    """No run at the path: it is not a directory, or has no manifest."""


class UntrustedArtifact(RunDirectoryError):
    """A committed file whose bytes differ from the digest its manifest
    records."""

    def __init__(self, rd: "RunDirectory", name: str, actual: str) -> None:
        self.path = rd.path / name
        self.recorded = rd.manifest["artifacts"][name]
        self.actual = actual
        super().__init__(
            f"{self.path} does not match the digest its manifest records "
            f"(recorded {self.recorded[:12]}…, found {actual[:12]}…) — "
            f"regenerate it with `repro-dsav scan --resume {rd.path}`"
        )


def json_text(payload: dict[str, Any]) -> str:
    """The encoding of every JSON artifact a run writes."""
    return json.dumps(payload, indent=2) + "\n"


def _file_sha256(path: Path) -> str:
    with path.open("rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def _check_version(path: Path, payload: Any, version: int) -> None:
    """Refuse *payload*, read from *path*, unless it is of *version*."""
    if not isinstance(payload, dict):
        payload = {}
    found = payload.get("schema_version")
    if found != version:
        raise RunDirectoryError(
            f"{path} has schema_version={found!r}, this code reads "
            f"version {version} — re-run the campaign with this release"
        )


class RunDirectory:
    """The files of one pipeline run, read and committed through its
    manifest.

    Constructing one touches nothing on disk: :meth:`open` vets an
    existing run, and :meth:`bind_spec`, where a run starts, creates
    the directory.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.manifest_path = self.path / MANIFEST_FILE
        self.observations_path = self.path / "observations.json"
        self.results_path = self.path / "results.json"
        self.report_path = self.path / "report.txt"
        self.telemetry_path = self.path / "telemetry.json"
        self.events_path = self.path / "events.ndjson"
        self.stream_path = self.path / STREAM_FILE
        self.faults_path = self.path / "faults.json"
        self._manifest: dict[str, Any] | None = None

    @classmethod
    def open(cls, path) -> "RunDirectory":
        """The run at *path*, its manifest read and vetted; raises
        :class:`RunDirectoryError` if *path* holds no run of this
        release."""
        rd = cls(path)
        rd.manifest
        return rd

    # -- paths -----------------------------------------------------------

    def shard_path(self, shard_id: int) -> Path:
        return self.path / f"shard-{shard_id:03d}.json"

    def shard_events_path(self, shard_id: int) -> Path:
        return self.path / f"events-{shard_id:03d}.ndjson"

    def profile_path(self, shard_id: int) -> Path:
        """cProfile stats dumped by shard workers under ``--profile``."""
        return self.path / f"profile-{shard_id:03d}.pstats"

    def crash_marker_glob(self, shard_id: int, clause_index: int):
        """Markers left by already-fired shard-crash clauses."""
        return self.path.glob(
            f"crash-{shard_id:03d}-c{clause_index}-*.marker"
        )

    def crash_marker_path(
        self, shard_id: int, clause_index: int, firing: int
    ) -> Path:
        return self.path / (
            f"crash-{shard_id:03d}-c{clause_index}-{firing}.marker"
        )

    # -- manifest --------------------------------------------------------

    @property
    def manifest(self) -> dict[str, Any]:
        """The manifest as last committed, read from disk once."""
        if self._manifest is None:
            self._manifest = self._read_manifest()
        return self._manifest

    def _read_manifest(self) -> dict[str, Any]:
        if not self.path.is_dir():
            raise RunNotFound(f"{self.path} is not a directory")
        try:
            raw = self.manifest_path.read_bytes()
        except FileNotFoundError:
            raise RunNotFound(
                f"{self.path} has no manifest.json — not a pipeline run "
                "directory (create runs with `repro-dsav scan --run-dir`)"
            ) from None
        try:
            manifest = json.loads(raw)
        except ValueError as exc:
            raise RunDirectoryError(
                f"{self.manifest_path} is not valid JSON ({exc}) — the "
                "run directory cannot be trusted"
            ) from None
        _check_version(self.manifest_path, manifest, ARTIFACT_SCHEMA_VERSION)
        return manifest

    def read_spec(self):
        """The :class:`~repro.core.pipeline.CampaignSpec` the manifest
        records; a manifest without one that loads is refused."""
        from .core.pipeline import CampaignSpec

        # Read outside the try: RunNotFound is a ValueError too, and
        # bind_spec starts a new run on it.
        manifest = self.manifest
        try:
            return CampaignSpec.from_payload(manifest["spec"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise RunDirectoryError(
                f"{self.manifest_path} records no spec this code can read "
                f"({type(exc).__name__}: {exc})"
            ) from None

    def bind_spec(self, spec) -> None:
        """Record *spec* in a new run's manifest, or verify it matches.

        A run directory belongs to exactly one spec; re-entering it with
        different parameters would silently mix artifacts from two
        different campaigns, so that is an error.  A run re-entered with
        its own spec first loses the temp files of killed writers.
        """
        try:
            recorded = self.read_spec()
        except RunNotFound:
            self.path.mkdir(parents=True, exist_ok=True)
            sweep_temp_files(self.path)
            self._manifest = {
                "schema_version": ARTIFACT_SCHEMA_VERSION,
                "spec": spec.to_payload(),
                "stages_completed": [],
            }
            write_atomic(self.manifest_path, json_text(self._manifest))
            return
        if recorded != spec:
            raise ValueError(
                f"run directory {self.path} was created for "
                f"{recorded}, refusing to reuse it for {spec}"
            )
        sweep_temp_files(self.path)

    def commit(
        self,
        files: dict[str, str],
        stage: str | None = None,
        *,
        written: tuple[str, ...] = (),
    ) -> None:
        """Rename *files* (name → content) into place, then record their
        sha256 digests, those of *written* — files their own writer has
        already renamed into place, hashed from disk — and *stage* in
        one manifest write."""
        completed = self.manifest["stages_completed"]
        if not files and not written and (stage is None or stage in completed):
            return
        artifacts = self.manifest.setdefault("artifacts", {})
        for name, text in files.items():
            data = text.encode()
            write_atomic(self.path / name, data)
            artifacts[name] = hashlib.sha256(data).hexdigest()
        for name in written:
            artifacts[name] = _file_sha256(self.path / name)
        if stage is not None and stage not in completed:
            completed.append(stage)
        write_atomic(self.manifest_path, json_text(self.manifest))

    def committed(self, name: str) -> bool:
        """Whether the manifest records *name* and the file is there."""
        return (
            name in self.manifest.get("artifacts", {})
            and (self.path / name).exists()
        )

    def complete(self) -> bool:
        """Whether every stage that writes files (all but build) is
        committed, with the files a finished run serves: observations,
        results and report, plus telemetry and the journal when the
        spec meters and journals."""
        spec = self.manifest["spec"]
        served = [self.observations_path, self.results_path, self.report_path]
        if spec.get("metrics", False):
            served.append(self.telemetry_path)
        if spec.get("journal", False):
            served.append(self.events_path)
        completed = self.manifest["stages_completed"]
        return all(stage in completed for stage in STAGES[1:]) and all(
            self.committed(path.name) for path in served
        )

    # -- reads -----------------------------------------------------------

    def read_bytes(self, name: str) -> bytes | None:
        """Committed file *name*'s bytes, or ``None`` when the manifest
        does not record it or it is gone; raises
        :class:`UntrustedArtifact` when the bytes fail their digest."""
        if not self.committed(name):
            return None
        data = (self.path / name).read_bytes()
        self._verify(name, hashlib.sha256(data).hexdigest())
        return data

    def _verify(self, name: str, actual: str) -> None:
        if actual != self.manifest["artifacts"][name]:
            raise UntrustedArtifact(self, name, actual)

    def read_json(self, name: str, version: int | None = None) -> Any:
        """Committed JSON artifact *name*, parsed, or ``None`` (see
        :meth:`read_bytes`).  With *version*, an artifact of another
        ``schema_version`` is refused."""
        data = self.read_bytes(name)
        if data is None:
            return None
        payload = json.loads(data)
        if version is not None:
            _check_version(self.path / name, payload, version)
        return payload

    def results(self) -> dict[str, Any]:
        """The committed results; a run without them is refused."""
        results = self.read_json(
            self.results_path.name, RESULTS_SCHEMA_VERSION
        )
        if results is None:
            raise RunDirectoryError(
                f"{self.path} has no results.json — the run has not "
                "completed its analyze stage (finish it with "
                f"`repro-dsav scan --resume {self.path}`)"
            )
        return results

    def shard(self, shard_id: int) -> dict[str, Any] | None:
        return self.read_json(
            self.shard_path(shard_id).name, ARTIFACT_SCHEMA_VERSION
        )

    def observations(self) -> dict[str, Any] | None:
        return self.read_json(
            self.observations_path.name, ARTIFACT_SCHEMA_VERSION
        )

    def telemetry(self) -> dict[str, Any] | None:
        from .obs.export import validate_telemetry

        payload = self.read_json(self.telemetry_path.name)
        if payload is not None:
            try:
                validate_telemetry(payload)
            except ValueError as exc:
                raise RunDirectoryError(f"{self.telemetry_path}: {exc}")
        return payload

    def journal(self) -> Path | None:
        """The merged journal's path, once its bytes, hashed as a
        stream, pass; readers parse it line by line."""
        if not self.committed(self.events_path.name):
            return None
        self._verify(self.events_path.name, _file_sha256(self.events_path))
        return self.events_path

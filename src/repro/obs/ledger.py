"""Cross-run ledger: a versioned index of campaign run directories.

One row per completed run, derived **only** from the files its manifest
commits (``results.json``, ``telemetry.json``), read through
:class:`~repro.rundir.RunDirectory`, so the ledger is a pure function
of the run directories it indexes: the pipeline appends a run's row
after its report commit, :meth:`Ledger.rebuild` indexes exactly the
runs whose manifest records them complete, and the two produce
byte-identical ``ledger.json`` files
(``test_rebuild_is_byte_identical_to_incremental`` asserts this).

Each row carries the run's identity (spec content key, scenario
``content_key``, topology mode, fault-plan digest), the schema/code
versions that produced it, headline stats, a results digest (the same
"results minus provenance" slice the tier-1 pins hash, such as
``test_star_topology_results_match_pin``), a
telemetry digest over the deterministic metric families, and wall
timings.  ``repro-dsav trend`` consumes the ledger as its time-series
store; ``repro-dsav diff`` shares this module's refusals and
comparability keys.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from ..durable import pid_alive, write_atomic
from ..rundir import RunDirectory, RunDirectoryError, RunNotFound
from .export import deterministic_counters, dump_envelope, load_envelope

#: Version of the ledger.json envelope.
LEDGER_SCHEMA_VERSION = 1

#: Spec fields that identify *what was measured*.  Observability flags
#: (metrics/journal/stream), sharding, and partition scheme are
#: execution details — results are byte-identical across them — so
#: they stay out of the spec content key.
_SPEC_IDENTITY_FIELDS = ("seed", "n_ases", "scan", "faults", "topology")


class ObservatoryError(RuntimeError):
    """An observatory command cannot proceed; maps to CLI exit 2."""

    exit_code = 2


def _sha256(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def spec_key(spec_payload: dict) -> str:
    """Content address of a campaign spec's measurement identity."""
    identity = {
        field: spec_payload.get(field) for field in _SPEC_IDENTITY_FIELDS
    }
    return _sha256(identity)


@contextmanager
def refusals() -> Iterator[None]:
    """Inside the block, a run directory or run file the observatory
    must refuse raises :class:`ObservatoryError` with its one line."""
    try:
        yield
    except RunDirectoryError as exc:
        raise ObservatoryError(str(exc)) from None


def results_digest(results: dict) -> str:
    """Digest of the equivalence slice: results minus ``provenance``."""
    return _sha256(
        {k: v for k, v in results.items() if k != "provenance"}
    )


def telemetry_digest(rd: RunDirectory) -> str | None:
    """Digest of the deterministic metric slice, or None without one."""
    payload = rd.telemetry()
    if payload is None:
        return None
    return _sha256(deterministic_counters(payload))


def run_row(run_path, *, base=None) -> dict:
    """One ledger row, derived purely from *run_path*'s committed files."""
    run_path = Path(run_path)
    with refusals():
        rd = RunDirectory.open(run_path)
        results = rd.results()
        telemetry = telemetry_digest(rd)
    spec = rd.manifest["spec"]
    provenance = results["provenance"]

    def family(side: dict) -> dict:
        return {
            "targeted_addresses": side.get("targeted_addresses"),
            "reachable_addresses": side.get("reachable_addresses"),
            "targeted_asns": side.get("targeted_asns"),
            "reachable_asns": side.get("reachable_asns"),
            "address_rate": side.get("address_rate"),
            "asn_rate": side.get("asn_rate"),
        }

    headline = results.get("headline", {})
    if base is not None:
        try:
            run_name = run_path.resolve().relative_to(
                Path(base).resolve()
            ).as_posix()
        except ValueError:
            run_name = str(run_path.resolve())
    else:
        run_name = str(run_path)
    row = {
        "run": run_name,
        "spec_key": spec_key(spec),
        "scenario_key": provenance["scenario_content_key"],
        "topology": provenance["topology"],
        "fault_digest": provenance["fault_plan_digest"],
        "seed": results.get("seed"),
        "n_ases": results.get("n_ases"),
        "shards": provenance.get("shards"),
        "schema_versions": {
            "manifest": rd.manifest["schema_version"],
            "results": results["schema_version"],
        },
        "results_digest": results_digest(results),
        "telemetry_digest": telemetry,
        "stats": {
            "probes": results.get("probes"),
            "probes_sent": provenance.get("probes_sent"),
            "v4": family(headline.get("v4", {})),
            "v6": family(headline.get("v6", {})),
        },
        "wall_seconds": provenance.get("wall_seconds"),
    }
    evolution = provenance.get("evolution")
    if isinstance(evolution, dict):
        # Longitudinal runs: the lineage ties every epoch of one
        # campaign together even though each epoch's evolved spec has
        # its own scenario key; trend groups on it.
        row["lineage"] = evolution.get("lineage")
        row["epoch"] = evolution.get("epoch")
    degraded = provenance.get("degraded")
    if degraded is not None:
        row["degraded"] = degraded
    return row


def ledger_digest(payload: dict) -> str:
    """Digest of a ledger payload with per-row wall timings nulled.

    Wall seconds are the one nondeterministic field a row carries; the
    crash drills compare an interrupted-and-resumed campaign against an
    uninterrupted one through this digest, so it must not depend on how
    long each epoch actually took.
    """
    scrubbed = dict(payload)
    scrubbed["rows"] = [
        dict(row, wall_seconds=None) for row in payload.get("rows", [])
    ]
    return _sha256(scrubbed)


#: How long a lock may sit untouched before a waiter may take it over.
_LOCK_STALE_SECONDS = 30.0

#: How long :meth:`Ledger.record` waits for the lock before giving up.
_LOCK_WAIT_SECONDS = 60.0


class _LedgerLock:
    """Exclusive advisory lock guarding the ledger read-modify-write.

    ``Ledger.record`` is a load/insert/save cycle over ``ledger.json``;
    two pipelines sharing ``--ledger DIR`` could otherwise interleave
    those cycles and silently lose whichever row saved first.  The lock
    is an ``O_CREAT | O_EXCL`` file beside the ledger recording the
    holder's pid and acquisition time.  A holder that died (a crashed
    or SIGKILLed run) is taken over once the lock is provably stale:
    its pid no longer exists, or it is older than
    :data:`_LOCK_STALE_SECONDS`.
    """

    def __init__(self, base) -> None:
        self.path = Path(base) / "ledger.lock"

    def __enter__(self) -> "_LedgerLock":
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + _LOCK_WAIT_SECONDS
        while True:
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                self._take_over_if_stale()
                if time.monotonic() >= deadline:
                    raise ObservatoryError(
                        f"{self.path} is held by another run — waited "
                        f"{_LOCK_WAIT_SECONDS:.0f}s; remove the lock "
                        "file if no run is active"
                    )
                time.sleep(0.05)
                continue
            with os.fdopen(fd, "w") as handle:
                json.dump(
                    {"pid": os.getpid(), "time": time.time()}, handle
                )
            return self

    def __exit__(self, *exc) -> None:
        self.path.unlink(missing_ok=True)

    def _take_over_if_stale(self) -> None:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, ValueError):
            # Mid-write, vanished, or corrupt: only its age can judge.
            payload = None
        stale = False
        if isinstance(payload, dict):
            pid = payload.get("pid")
            if isinstance(pid, int) and pid > 0 and not pid_alive(pid):
                stale = True
            held = payload.get("time")
            if (
                isinstance(held, (int, float))
                and time.time() - held > _LOCK_STALE_SECONDS
            ):
                stale = True
        else:
            try:
                age = time.time() - self.path.stat().st_mtime
            except OSError:
                return  # gone — the next open attempt will win
            stale = age > _LOCK_STALE_SECONDS
        if stale:
            self.path.unlink(missing_ok=True)


class Ledger:
    """The ``ledger.json`` under one ledger directory."""

    def __init__(self, base) -> None:
        self.base = Path(base)

    @property
    def path(self) -> Path:
        return self.base / "ledger.json"

    # -- I/O -------------------------------------------------------------

    def load(self) -> dict:
        """The stored payload, or an empty ledger when none exists."""
        if not self.path.exists():
            return {
                "schema_version": LEDGER_SCHEMA_VERSION,
                "kind": "ledger",
                "rows": [],
            }
        try:
            return load_envelope(
                self.path, kind="ledger", version=LEDGER_SCHEMA_VERSION
            )
        except ValueError as exc:
            raise ObservatoryError(
                f"{exc} — rebuild it with `repro-dsav ledger {self.base} "
                "--rebuild`"
            ) from None

    def require(self) -> dict:
        """Like :meth:`load`, but a missing or empty ledger is an error.

        Commands that *read* the ledger (``ledger``, ``trend``) have
        nothing to say about zero rows, so both absence and emptiness
        map to the same one-line exit-2 hint instead of a traceback or
        a vacuous report.
        """
        if not self.path.exists():
            raise ObservatoryError(
                f"{self.path} not found — index runs with `repro-dsav "
                f"scan --ledger {self.base}` or `repro-dsav ledger "
                f"{self.base} --rebuild`"
            )
        payload = self.load()
        if not payload.get("rows"):
            raise ObservatoryError(
                f"{self.path} has no rows — index runs with "
                f"`repro-dsav scan --ledger {self.base}` or "
                f"`repro-dsav ledger {self.base} --rebuild`"
            )
        return payload

    def save(self, payload: dict) -> None:
        self.base.mkdir(parents=True, exist_ok=True)
        write_atomic(self.path, dump_envelope(payload))

    # -- mutation --------------------------------------------------------

    def record(self, run_path) -> dict:
        """Insert (or refresh) *run_path*'s row; returns the payload.

        Rows stay sorted by run name, and recording is idempotent, so
        incremental appends converge on exactly the bytes a
        :meth:`rebuild` over the same directories produces.

        The load/insert/save is guarded by an exclusive lock file, so
        two runs sharing ``--ledger DIR`` serialize their appends
        instead of silently dropping whichever row lost the
        read-modify-write race.
        """
        row = run_row(run_path, base=self.base)
        with _LedgerLock(self.base):
            payload = self.load()
            rows = [
                r for r in payload["rows"] if r.get("run") != row["run"]
            ]
            rows.append(row)
            rows.sort(key=lambda r: r.get("run", ""))
            payload["rows"] = rows
            self.save(payload)
        return payload

    def rebuild(self) -> dict:
        """Re-derive every row by scanning the ledger directory.

        Indexes every immediate subdirectory whose manifest records a
        complete run — exactly the runs the pipeline appends after its
        report commit; a subdirectory without a manifest is not a run.
        Runs recorded from outside the ledger directory are not
        rediscovered (co-locate run dirs under the ledger dir to keep it
        fully reconstructible).
        """
        if not self.base.is_dir():
            raise ObservatoryError(f"{self.base} is not a directory")
        rows = []
        with refusals():
            for child in sorted(self.base.iterdir()):
                try:
                    complete = RunDirectory(child).complete()
                except RunNotFound:
                    continue  # not a run
                if complete:
                    rows.append(run_row(child, base=self.base))
        payload = {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "kind": "ledger",
            "rows": rows,
        }
        self.save(payload)
        return payload


def render_ledger(payload: dict) -> str:
    """Human-readable table of the ledger rows."""
    from ..core.report import _format_table

    def short(value) -> str:
        return value[:10] if isinstance(value, str) else "-"

    def rate(value) -> str:
        return f"{value:.1%}" if isinstance(value, (int, float)) else "-"

    rows = [
        (
            row.get("run"),
            short(row.get("scenario_key")),
            row.get("topology"),
            short(row.get("fault_digest")),
            row.get("shards"),
            row.get("stats", {}).get("probes_sent"),
            rate(row.get("stats", {}).get("v4", {}).get("asn_rate")),
            rate(row.get("stats", {}).get("v6", {}).get("asn_rate")),
            f"{row.get('wall_seconds', 0) or 0:.2f}",
        )
        for row in payload.get("rows", [])
    ]
    table = _format_table(
        (
            "run", "scenario", "topo", "faults", "shards",
            "probes", "v4 asn%", "v6 asn%", "wall s",
        ),
        rows,
    )
    return f"{len(rows)} run(s) indexed\n{table}"

"""Epoch supervisor: crash-anywhere longitudinal campaigns.

A longitudinal campaign runs one evolved scenario per epoch — epoch N's
spec is :func:`~repro.campaigns.evolution.evolve_spec` of the base spec,
which is a pure function of ``(base, plan, N)`` — into one campaign
directory that doubles as the cross-run ledger.  The supervisor's job is
to make the whole campaign *resumable from any instant*: a SIGKILL
mid-epoch, mid-ledger-append, or mid-schedule-write must leave a
directory that ``resume_campaign`` drives to a final ledger whose
:func:`~repro.obs.ledger.ledger_digest` is byte-identical to an
uninterrupted run's.

The mechanism is a write-ahead schedule (``schedule.json``): every
status transition is persisted — fsynced, whole-file, write-then-rename
— *before* the work it describes, so on resume the schedule never
claims more progress than the artifacts on disk can back.  The
transitions are chosen so every crash window is safe:

* ``pending → running`` is written before the epoch's pipeline starts;
  re-entering a ``running`` epoch resumes its run directory, whose own
  stage artifacts are checksummed and individually resumable.
* Degradation decisions (deadline exceeded → sampled-AS subset) are
  made **once**, while the epoch is still ``pending``, and recorded in
  the same write that marks it ``running`` — resume honors the recorded
  decision instead of re-deciding with a different wall clock.
* ``running → done`` is written only after the pipeline has appended
  the epoch's ledger row; the append is insert-or-replace keyed on the
  run name and derived purely from on-disk artifacts, so the crash
  window between "ledger appended" and "done recorded" merely repeats
  an idempotent append.

Campaign layout (everything under one directory)::

    campaign.json    identity: base spec, plan, epoch count, policy
    schedule.json    the write-ahead schedule (one entry per epoch)
    ledger.json      cross-run ledger (epoch rows; pipeline-appended)
    epoch-NNN/       one pipeline run directory per epoch
    shardcache/      content-keyed shard results for incremental rescans
    quarantine/      run directories that failed their trust checks

Failure policy: each epoch gets ``max_attempts`` tries with exponential
backoff; corrupt artifacts are quarantined (single files by the
pipeline's checksum layer, whole run directories by the supervisor when
the manifest itself cannot be trusted) and regenerated on retry.  When
an epoch exhausts its attempts the campaign either ``abort``\\ s (exit
code 1, resumable later) or ``skip``\\ s it — marked ``skipped`` in the
schedule so the gap is explicit, never silent.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable

from ..core.pipeline import (
    CampaignSpec,
    PipelineError,
    PipelineOutcome,
    run_pipeline,
)
from ..durable import sweep_temp_files, write_atomic
from ..obs.export import dump_envelope, load_envelope
from ..obs.ledger import Ledger, ledger_digest, results_digest
from ..rundir import RunDirectory, RunDirectoryError, RunNotFound
from .evolution import EvolutionPlan, evolve_spec

#: Version of the ``schedule.json`` write-ahead schedule.
SCHEDULE_SCHEMA_VERSION = 1

#: Version of the ``campaign.json`` identity record.
CAMPAIGN_SCHEMA_VERSION = 1

_SCHEDULE_STATUSES = ("pending", "running", "done", "failed", "skipped")


class CampaignError(RuntimeError):
    """A campaign cannot proceed; maps to CLI exit 1 (resumable)."""

    exit_code = 1


@dataclass(frozen=True)
class CampaignPolicy:
    """Failure-handling and degradation knobs for one campaign.

    ``failure_policy`` decides what happens when an epoch exhausts its
    ``max_attempts``: ``"abort"`` stops the campaign (resumable),
    ``"skip"`` marks the epoch ``skipped`` and moves on.  ``backoff``
    seconds (doubled per attempt) separate retries.  ``deadline`` is a
    wall-clock budget in seconds: once elapsed, epochs not yet started
    are degraded to a deterministic sampled-AS subset (``degrade_rate``
    of ASes, seeded by the base spec) instead of being dropped — the
    degradation is recorded in both the schedule and the epoch's
    provenance.  ``incremental`` enables the content-keyed shard cache
    so epochs re-execute only the shards whose AS inputs evolved.
    """

    failure_policy: str = "abort"
    max_attempts: int = 3
    backoff: float = 0.0
    deadline: float | None = None
    degrade_rate: float = 0.25
    incremental: bool = True

    def __post_init__(self) -> None:
        if self.failure_policy not in ("abort", "skip"):
            raise ValueError(
                f"failure_policy must be 'abort' or 'skip', got "
                f"{self.failure_policy!r}"
            )
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        # Written so that NaN fails too: every comparison with it is false.
        if not 0 <= self.backoff < math.inf:
            raise ValueError(
                f"backoff must be finite and >= 0, got {self.backoff:g}"
            )
        if self.deadline is not None and not 0 <= self.deadline < math.inf:
            raise ValueError(
                f"deadline must be finite and >= 0, got {self.deadline:g}"
            )
        if not 0 < self.degrade_rate <= 1:
            raise ValueError("degrade_rate must be in (0, 1]")

    def to_payload(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "CampaignPolicy":
        return cls(**{f.name: payload[f.name] for f in fields(cls)})


def _pending_entry(epoch: int) -> dict[str, Any]:
    """Epoch *epoch*'s schedule entry before its first attempt."""
    return {
        "epoch": epoch,
        "status": "pending",
        "attempts": 0,
        "run_dir": f"epoch-{epoch:03d}",
        "degraded": None,
        "results_digest": None,
        "cache_hits": None,
        "error": None,
    }


class CampaignSupervisor:
    """Drives one campaign directory through its epochs.

    Construct via :func:`run_campaign` (new campaign) or
    :meth:`open` (existing directory); both funnel into :meth:`drive`,
    which walks the write-ahead schedule and runs every epoch that is
    not already ``done`` or ``skipped``.

    Each campaign record has one reader: :meth:`open` reads
    ``campaign.json``, :meth:`load_schedule` ``schedule.json`` and
    :meth:`~repro.obs.ledger.Ledger.load` ``ledger.json``.
    """

    def __init__(
        self,
        base: Path,
        spec: CampaignSpec,
        plan: EvolutionPlan,
        epochs: int,
        policy: CampaignPolicy,
        *,
        workers: int | None = None,
        echo: Callable[[str], None] | None = None,
    ) -> None:
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if spec.evolution is not None:
            raise CampaignError(
                "the base spec must not carry an evolution block — the "
                "supervisor stamps one per epoch"
            )
        self.base = Path(base)
        self.spec = spec
        self.plan = plan
        self.epochs = int(epochs)
        self.policy = policy
        self.workers = workers
        self.echo = echo or (lambda line: None)

    @classmethod
    def open(
        cls,
        base,
        *,
        policy: CampaignPolicy | None = None,
        workers: int | None = None,
        echo: Callable[[str], None] | None = None,
    ) -> "CampaignSupervisor":
        """The campaign that *base*'s ``campaign.json`` records, run
        under *policy* if one is given; a record that does not load is
        refused with one line naming it."""
        path = Path(base) / "campaign.json"
        if not path.exists():
            raise CampaignError(
                f"{path} not found — not a campaign directory (start one "
                "with `repro-dsav campaign run`)"
            )
        payload = load_envelope(
            path, kind="campaign", version=CAMPAIGN_SCHEMA_VERSION
        )
        try:
            return cls(
                base,
                CampaignSpec.from_payload(payload["spec"]),
                EvolutionPlan.from_payload(payload["plan"]),
                payload["epochs"],
                policy or CampaignPolicy.from_payload(payload["policy"]),
                workers=workers,
                echo=echo,
            )
        except (
            AttributeError, CampaignError, KeyError, TypeError, ValueError
        ) as exc:
            raise ValueError(
                f"{path} does not hold a campaign this code can read "
                f"({type(exc).__name__}: {exc})"
            ) from None

    # -- identity and schedule persistence ------------------------------

    @property
    def campaign_path(self) -> Path:
        return self.base / "campaign.json"

    @property
    def schedule_path(self) -> Path:
        return self.base / "schedule.json"

    def campaign_payload(self) -> dict[str, Any]:
        return {
            "schema_version": CAMPAIGN_SCHEMA_VERSION,
            "kind": "campaign",
            "spec": self.spec.to_payload(),
            "plan": self.plan.to_payload(),
            "epochs": self.epochs,
            "policy": self.policy.to_payload(),
        }

    def bind(self) -> dict[str, Any]:
        """Record the campaign identity, or verify it matches; returns
        the schedule to drive.

        A campaign directory belongs to exactly one (spec, plan,
        epochs) triple; re-entering it with different parameters would
        mix epochs from two different longitudinal studies.  The
        *policy* is runtime control, not identity — resuming with a
        longer deadline or a different failure policy is legitimate, so
        a changed policy is re-recorded rather than refused.  Every
        record is read before any is written, so a refused one leaves
        the directory as it was.  A campaign re-entered loses the temp
        files of killed writers, in its directory and its shard cache.
        """
        recorded = None
        if self.campaign_path.exists():
            recorded = CampaignSupervisor.open(self.base)
            for key in ("spec", "plan", "epochs"):
                if getattr(recorded, key) != getattr(self, key):
                    raise CampaignError(
                        f"{self.campaign_path} records a different "
                        f"campaign ({key} differs) — refusing to mix "
                        "epochs from two studies in one directory"
                    )
        schedule = self.load_schedule()
        Ledger(self.base).load()
        if recorded is not None:
            for directory in (self.base, self.base / "shardcache"):
                if directory.is_dir():
                    sweep_temp_files(directory)
        if recorded is None or recorded.policy != self.policy:
            self._save(self.campaign_path, self.campaign_payload())
        return schedule

    def load_schedule(self) -> dict[str, Any]:
        """The recorded schedule, or every epoch pending before the
        first schedule write."""
        path = self.schedule_path
        if not path.exists():
            return {
                "schema_version": SCHEDULE_SCHEMA_VERSION,
                "kind": "campaign-schedule",
                "epochs": [_pending_entry(e) for e in range(self.epochs)],
            }
        payload = load_envelope(
            path, kind="campaign-schedule", version=SCHEDULE_SCHEMA_VERSION
        )
        entries = payload.get("epochs")
        if not isinstance(entries, list) or len(entries) != self.epochs:
            raise ValueError(
                f"{path} does not schedule the {self.epochs} epoch(s) "
                "the campaign declares"
            )
        for epoch, entry in enumerate(entries):
            if (
                not isinstance(entry, dict)
                or entry.keys() != _pending_entry(epoch).keys()
                or entry["status"] not in _SCHEDULE_STATUSES
            ):
                raise ValueError(
                    f"{path} has a malformed entry for epoch {epoch}"
                )
        return payload

    def save_schedule(self, payload: dict[str, Any]) -> None:
        self._save(self.schedule_path, payload)

    @staticmethod
    def _save(path: Path, payload: dict[str, Any]) -> None:
        # Fsynced, unlike run artifacts: a resume can re-derive those,
        # but the write-ahead records must survive the crash that
        # follows them.
        write_atomic(path, dump_envelope(payload), fsync=True)

    # -- epoch execution -------------------------------------------------

    def epoch_spec(self, entry: dict[str, Any]) -> CampaignSpec:
        spec = evolve_spec(self.spec, self.plan, int(entry["epoch"]))
        if entry.get("degraded"):
            spec = replace(spec, asn_sample=dict(entry["degraded"]))
        return spec

    def _untrusted(self, run_dir: Path, entry: dict[str, Any]) -> bool:
        """Whether *run_dir*'s manifest cannot anchor a resume.

        True when the run directory does not open or records a spec
        other than this epoch's — retrying in place would fail
        identically forever, so the whole directory must be
        quarantined.  A missing manifest is fine (the retry binds a
        fresh one).
        """
        try:
            recorded = RunDirectory.open(run_dir).read_spec()
        except RunNotFound:
            return False
        except RunDirectoryError:
            return True
        return recorded != self.epoch_spec(entry)

    def _quarantine_run_dir(self, run_dir: Path, attempt: int) -> Path:
        aside = self.base / "quarantine" / (
            f"{run_dir.name}.attempt-{attempt}"
        )
        aside.parent.mkdir(parents=True, exist_ok=True)
        os.replace(run_dir, aside)
        return aside

    def _attempt(self, entry: dict[str, Any]) -> PipelineOutcome:
        run_dir = self.base / entry["run_dir"]
        shard_cache = (
            self.base / "shardcache" if self.policy.incremental else None
        )
        return run_pipeline(
            self.epoch_spec(entry),
            run_dir=run_dir,
            workers=self.workers,
            ledger=self.base,
            shard_cache=shard_cache,
        )

    def _run_epoch(
        self, schedule: dict[str, Any], entry: dict[str, Any], started: float
    ) -> None:
        """Drive one epoch to ``done`` or ``skipped`` (or raise)."""
        epoch = int(entry["epoch"])
        while True:
            if entry["status"] == "pending" and entry["degraded"] is None:
                # The degrade decision is made exactly once, before the
                # epoch first runs, and persisted with the `running`
                # mark below — a resumed campaign replays the recorded
                # decision instead of consulting a different clock.
                over_budget = (
                    self.policy.deadline is not None
                    and time.monotonic() - started >= self.policy.deadline
                )
                if over_budget:
                    entry["degraded"] = {
                        "rate": self.policy.degrade_rate,
                        "seed": self.spec.seed,
                    }
                    self.echo(
                        f"epoch {epoch}: wall budget exhausted — "
                        f"degrading to a "
                        f"{self.policy.degrade_rate:.0%} AS sample"
                    )
            entry["status"] = "running"
            entry["attempts"] = int(entry["attempts"]) + 1
            entry["error"] = None
            self.save_schedule(schedule)
            try:
                outcome = self._attempt(entry)
            except (PipelineError, ValueError, OSError) as exc:
                entry["status"] = "failed"
                entry["error"] = f"{type(exc).__name__}: {exc}"
                self.save_schedule(schedule)
                run_dir = self.base / entry["run_dir"]
                if run_dir.is_dir() and self._untrusted(run_dir, entry):
                    # The run directory's trust root (its manifest) is
                    # unreadable or records a different spec: move the
                    # whole directory aside so the retry starts clean.
                    # Single corrupt stage artifacts were already
                    # quarantined in place by the pipeline's checksum
                    # layer and regenerate on retry.
                    aside = self._quarantine_run_dir(
                        run_dir, int(entry["attempts"])
                    )
                    self.echo(
                        f"epoch {epoch}: quarantined untrusted run "
                        f"directory to {aside}"
                    )
                if int(entry["attempts"]) >= self.policy.max_attempts:
                    if self.policy.failure_policy == "skip":
                        entry["status"] = "skipped"
                        self.save_schedule(schedule)
                        self.echo(
                            f"epoch {epoch}: skipped after "
                            f"{entry['attempts']} attempt(s) — {exc}"
                        )
                        return
                    raise CampaignError(
                        f"epoch {epoch} failed after "
                        f"{entry['attempts']} attempt(s): {exc} — fix "
                        f"the cause and `repro-dsav campaign resume "
                        f"{self.base}`"
                    ) from exc
                delay = self.policy.backoff * (
                    2 ** (int(entry["attempts"]) - 1)
                )
                if delay > 0:
                    time.sleep(delay)
                self.echo(
                    f"epoch {epoch}: attempt {entry['attempts']} "
                    f"failed ({exc}); retrying"
                )
                continue
            # The pipeline has already appended this epoch's ledger row
            # (idempotently), so `done` never gets ahead of the ledger.
            entry["results_digest"] = results_digest(outcome.results)
            entry["cache_hits"] = len(outcome.cache_hits)
            entry["status"] = "done"
            entry["error"] = None
            self.save_schedule(schedule)
            self.echo(
                f"epoch {epoch}: done "
                f"({entry['cache_hits']} shard(s) from cache)"
            )
            return

    def drive(self) -> dict[str, Any]:
        """Run every unfinished epoch; returns the final status payload."""
        # Checked before the campaign directory is created.
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.base.is_file():
            raise ValueError(f"{self.base} is a file, not a directory")
        self.base.mkdir(parents=True, exist_ok=True)
        schedule = self.bind()
        # Persist the initial schedule before any epoch runs so a crash
        # during epoch 0 still finds a schedule to resume from.
        self.save_schedule(schedule)
        started = time.monotonic()
        for entry in schedule["epochs"]:
            if entry["status"] in ("done", "skipped"):
                continue
            self._run_epoch(schedule, entry, started)
        return self.status()

    def status(self) -> dict[str, Any]:
        """Snapshot of the campaign: identity, schedule, ledger."""
        schedule = self.load_schedule()
        counts = {status: 0 for status in _SCHEDULE_STATUSES}
        for entry in schedule["epochs"]:
            counts[entry["status"]] += 1
        ledger = Ledger(self.base)
        return {
            "campaign_dir": str(self.base),
            "campaign": self.campaign_payload(),
            "schedule": schedule,
            "counts": counts,
            "ledger_digest": (
                ledger_digest(ledger.load()) if ledger.path.exists() else None
            ),
        }


def run_campaign(
    spec: CampaignSpec,
    plan: EvolutionPlan,
    epochs: int,
    campaign_dir,
    *,
    policy: CampaignPolicy | None = None,
    workers: int | None = None,
    echo: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run (or continue) a longitudinal campaign in *campaign_dir*.

    Re-invoking over an existing directory with the same spec, plan,
    and epoch count continues where the schedule left off — the normal
    way to extend a crashed campaign is :func:`resume_campaign`, which
    reloads those from ``campaign.json``.
    """
    supervisor = CampaignSupervisor(
        campaign_dir,
        spec,
        plan,
        epochs,
        policy or CampaignPolicy(),
        workers=workers,
        echo=echo,
    )
    return supervisor.drive()


def resume_campaign(
    campaign_dir,
    *,
    policy: CampaignPolicy | None = None,
    workers: int | None = None,
    echo: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Resume the campaign recorded in *campaign_dir*.

    Spec, plan, and epoch count come from ``campaign.json``; *policy*
    optionally overrides the recorded one (e.g. a longer deadline for
    the retry).
    """
    return CampaignSupervisor.open(
        campaign_dir, policy=policy, workers=workers, echo=echo
    ).drive()


def campaign_status(campaign_dir) -> dict[str, Any]:
    """Snapshot of a campaign directory: identity, schedule, ledger."""
    return CampaignSupervisor.open(campaign_dir).status()


def render_status(payload: dict[str, Any]) -> str:
    """Human-readable campaign status table."""
    campaign = payload["campaign"]
    counts = payload["counts"]
    plan = campaign["plan"]
    lines = [
        f"campaign {payload['campaign_dir']}: "
        f"{campaign['epochs']} epoch(s), plan "
        f"{plan['name'] or '(unnamed)'} "
        f"[{len(plan['clauses'])} clause(s)]",
        "  "
        + ", ".join(
            f"{counts[status]} {status}"
            for status in _SCHEDULE_STATUSES
            if counts[status]
        ),
    ]
    for entry in payload["schedule"]["epochs"]:
        flags = []
        if entry["degraded"]:
            flags.append(f"degraded rate={entry['degraded'].get('rate')}")
        if entry["cache_hits"]:
            flags.append(f"{entry['cache_hits']} cached shard(s)")
        if entry["error"]:
            flags.append(entry["error"])
        suffix = f" ({'; '.join(flags)})" if flags else ""
        digest = entry["results_digest"]
        short = f" {digest[:12]}…" if digest else ""
        lines.append(
            f"  epoch {entry['epoch']:>3} {entry['status']:<8} "
            f"attempts={entry['attempts']}{short}{suffix}"
        )
    if payload["ledger_digest"]:
        lines.append(f"  ledger digest {payload['ledger_digest'][:16]}…")
    return "\n".join(lines)

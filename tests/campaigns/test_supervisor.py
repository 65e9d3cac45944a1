"""Epoch supervisor: write-ahead schedule, crash resume, policies.

The reference campaign (``tests/conftest.py``) is the control of every
test that needs one, and is shared read-only: a test that resumes or
extends it works on a copy.  It is incremental; one full rescan of it
runs once per module.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.campaigns.supervisor as supervisor_mod
from repro.campaigns import (
    CampaignError,
    CampaignPolicy,
    campaign_status,
    render_status,
    resume_campaign,
    run_campaign,
)
from repro.core.pipeline import PipelineError
from repro.obs.ledger import ledger_digest

from ..conftest import CAMPAIGN_EPOCHS, campaign_plan, campaign_spec

SEED = campaign_spec().seed


def _ledger_digest_of(base: Path) -> str:
    return ledger_digest(json.loads((base / "ledger.json").read_text()))


def _epoch_digests(status: dict) -> list:
    return [
        entry["results_digest"]
        for entry in status["schedule"]["epochs"]
    ]


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------


def test_campaign_runs_every_epoch(reference_campaign):
    base, status = reference_campaign
    assert status["counts"]["done"] == 3
    rows = json.loads((base / "ledger.json").read_text())["rows"]
    assert [row["run"] for row in rows] == [
        "epoch-000", "epoch-001", "epoch-002",
    ]
    assert [row["epoch"] for row in rows] == [0, 1, 2]
    lineages = {row["lineage"] for row in rows}
    assert len(lineages) == 1 and None not in lineages
    assert all(_epoch_digests(status))
    text = render_status(status)
    assert "3 done" in text and "epoch   2" in text


@pytest.fixture(scope="module")
def full_rescan(tmp_path_factory):
    """(campaign_dir, status) of the reference campaign with the shard
    cache off."""
    base = tmp_path_factory.mktemp("full-rescan") / "camp"
    status = run_campaign(
        campaign_spec(),
        campaign_plan(),
        CAMPAIGN_EPOCHS,
        base,
        workers=0,
        policy=CampaignPolicy(incremental=False),
    )
    return base, status


def test_identical_campaigns_are_byte_identical(
    reference_campaign, full_rescan
):
    """The same spec, plan and epochs give the same bytes, whichever
    shards the cache served."""
    (a_dir, a), (b_dir, b) = reference_campaign, full_rescan
    assert _ledger_digest_of(a_dir) == _ledger_digest_of(b_dir)
    assert _epoch_digests(a) == _epoch_digests(b)


def test_incremental_matches_full_rescan(reference_campaign, full_rescan):
    """Cache-served shards merge byte-identically to full re-execution."""
    (inc_dir, inc), (full_dir, full) = reference_campaign, full_rescan
    assert _epoch_digests(full) == _epoch_digests(inc)
    assert _ledger_digest_of(full_dir) == _ledger_digest_of(inc_dir)
    hits = [entry["cache_hits"] for entry in inc["schedule"]["epochs"]]
    assert sum(hits[1:]) > 0, "low churn should reuse some shards"
    assert all(
        entry["cache_hits"] == 0 for entry in full["schedule"]["epochs"]
    )


def copy_of(reference_campaign, tmp_path) -> Path:
    """A writable copy of the reference campaign directory."""
    base, _ = reference_campaign
    copy = tmp_path / "camp"
    shutil.copytree(base, copy)
    return copy


def test_resume_of_finished_campaign_is_a_noop(reference_campaign, tmp_path):
    camp = copy_of(reference_campaign, tmp_path)
    before = _ledger_digest_of(camp)
    schedule_before = (camp / "schedule.json").read_text()
    status = resume_campaign(camp, workers=0)
    assert status["counts"]["done"] == 3
    assert _ledger_digest_of(camp) == before
    assert (camp / "schedule.json").read_text() == schedule_before


# ---------------------------------------------------------------------------
# identity guards
# ---------------------------------------------------------------------------


def test_campaign_dir_binds_its_identity(reference_campaign, tmp_path):
    camp = copy_of(reference_campaign, tmp_path)
    with pytest.raises(CampaignError, match="epochs differs"):
        run_campaign(campaign_spec(), campaign_plan(), 4, camp, workers=0)
    with pytest.raises(CampaignError, match="plan differs"):
        run_campaign(
            campaign_spec(), campaign_plan(seed=99), 3, camp, workers=0
        )


def test_resume_requires_a_campaign_dir(tmp_path):
    with pytest.raises(CampaignError, match="not a campaign directory"):
        resume_campaign(tmp_path)
    with pytest.raises(CampaignError, match="not a campaign directory"):
        campaign_status(tmp_path)


def test_base_spec_must_not_carry_evolution(tmp_path):
    from repro.campaigns.evolution import evolve_spec

    evolved = evolve_spec(campaign_spec(), campaign_plan(), 1)
    with pytest.raises(CampaignError, match="evolution block"):
        run_campaign(evolved, campaign_plan(), 2, tmp_path / "camp", workers=0)


# ---------------------------------------------------------------------------
# failure policies
# ---------------------------------------------------------------------------


class _FlakyPipeline:
    """Fails epoch 1 a configurable number of times, then succeeds."""

    def __init__(self, failures: int) -> None:
        self.remaining = failures
        self.real = supervisor_mod.run_pipeline

    def __call__(self, spec, **kwargs):
        if (
            spec.evolution is not None
            and spec.evolution["epoch"] == 1
            and self.remaining > 0
        ):
            self.remaining -= 1
            raise PipelineError("scripted epoch-1 failure")
        return self.real(spec, **kwargs)


def test_retry_recovers_from_transient_failures(tmp_path, monkeypatch):
    monkeypatch.setattr(
        supervisor_mod, "run_pipeline", _FlakyPipeline(failures=2)
    )
    status = run_campaign(
        campaign_spec(), campaign_plan(), 3, tmp_path / "camp", workers=0,
        policy=CampaignPolicy(max_attempts=3),
    )
    assert status["counts"]["done"] == 3
    entry = status["schedule"]["epochs"][1]
    assert entry["attempts"] == 3
    assert entry["error"] is None


def test_abort_policy_stops_and_resume_completes(
    reference_campaign, tmp_path, monkeypatch
):
    real_pipeline = supervisor_mod.run_pipeline
    control_dir, control = reference_campaign
    monkeypatch.setattr(
        supervisor_mod, "run_pipeline", _FlakyPipeline(failures=99)
    )
    with pytest.raises(CampaignError, match="epoch 1 failed after 2"):
        run_campaign(
            campaign_spec(), campaign_plan(), 3, tmp_path / "camp", workers=0,
            policy=CampaignPolicy(
                failure_policy="abort", max_attempts=2
            ),
        )
    status = campaign_status(tmp_path / "camp")
    assert status["counts"]["done"] == 1
    assert status["counts"]["failed"] == 1
    assert status["counts"]["pending"] == 1
    assert "scripted" in status["schedule"]["epochs"][1]["error"]
    # Fixed cause → resume finishes the campaign byte-identically.
    monkeypatch.setattr(supervisor_mod, "run_pipeline", real_pipeline)
    resumed = resume_campaign(tmp_path / "camp", workers=0)
    assert resumed["counts"]["done"] == 3
    assert _epoch_digests(resumed) == _epoch_digests(control)
    assert _ledger_digest_of(tmp_path / "camp") == _ledger_digest_of(
        control_dir
    )


def test_skip_policy_marks_and_moves_on(tmp_path, monkeypatch):
    monkeypatch.setattr(
        supervisor_mod, "run_pipeline", _FlakyPipeline(failures=99)
    )
    status = run_campaign(
        campaign_spec(), campaign_plan(), 3, tmp_path / "camp", workers=0,
        policy=CampaignPolicy(failure_policy="skip", max_attempts=2),
    )
    assert status["counts"]["done"] == 2
    assert status["counts"]["skipped"] == 1
    entry = status["schedule"]["epochs"][1]
    assert entry["status"] == "skipped"
    assert entry["attempts"] == 2
    rows = json.loads(
        (tmp_path / "camp" / "ledger.json").read_text()
    )["rows"]
    assert [row["epoch"] for row in rows] == [0, 2]


def test_corrupt_epoch_manifest_is_quarantined(tmp_path):
    camp = tmp_path / "camp"
    poisoned = camp / "epoch-000"
    poisoned.mkdir(parents=True)
    (poisoned / "manifest.json").write_text("{not json")
    status = run_campaign(campaign_spec(), campaign_plan(), 2, camp, workers=0)
    assert status["counts"]["done"] == 2
    aside = camp / "quarantine" / "epoch-000.attempt-1"
    assert aside.is_dir()
    assert (aside / "manifest.json").read_text() == "{not json"
    assert status["schedule"]["epochs"][0]["attempts"] == 2


# ---------------------------------------------------------------------------
# deadline degradation
# ---------------------------------------------------------------------------


def test_deadline_degrades_late_epochs_deterministically(
    reference_campaign, tmp_path
):
    policy = CampaignPolicy(deadline=0.0, degrade_rate=0.5)
    status = run_campaign(
        campaign_spec(), campaign_plan(), 2, tmp_path / "camp", workers=0,
        policy=policy,
    )
    assert status["counts"]["done"] == 2
    sample = {"rate": 0.5, "seed": SEED}
    for entry in status["schedule"]["epochs"]:
        assert entry["degraded"] == sample
    for name in ("epoch-000", "epoch-001"):
        results = json.loads(
            (tmp_path / "camp" / name / "results.json").read_text()
        )
        assert results["provenance"]["degraded"] == {
            "asn_sample": sample
        }
    rows = json.loads(
        (tmp_path / "camp" / "ledger.json").read_text()
    )["rows"]
    assert all(
        row["degraded"] == {"asn_sample": sample} for row in rows
    )
    # The sample is a strict, deterministic subset of the full scan.
    full_dir, _ = reference_campaign
    degraded_targets = json.loads(
        (tmp_path / "camp" / "epoch-000" / "results.json").read_text()
    )["headline"]["v4"]["targeted_asns"]
    full_targets = json.loads(
        (full_dir / "epoch-000" / "results.json").read_text()
    )["headline"]["v4"]["targeted_asns"]
    assert 0 < degraded_targets < full_targets
    again = run_campaign(
        campaign_spec(), campaign_plan(), 2, tmp_path / "again", workers=0,
        policy=policy,
    )
    assert _epoch_digests(again) == _epoch_digests(status)


def test_degrade_decision_is_frozen_in_the_schedule(tmp_path):
    """A resumed campaign replays the recorded decision, not the clock."""
    run_campaign(
        campaign_spec(), campaign_plan(), 2, tmp_path / "camp", workers=0,
        policy=CampaignPolicy(deadline=0.0, degrade_rate=0.5),
    )
    schedule = json.loads(
        (tmp_path / "camp" / "schedule.json").read_text()
    )
    # Un-finish epoch 1: resume must re-run it with the *recorded*
    # degradation even though the recorded policy has a deadline that
    # a fresh clock would also trip — flip the policy to deadline-free
    # to prove the recorded decision wins over re-deciding.
    before = schedule["epochs"][1]["results_digest"]
    schedule["epochs"][1]["status"] = "pending"
    schedule["epochs"][1]["results_digest"] = None
    (tmp_path / "camp" / "schedule.json").write_text(
        json.dumps(schedule)
    )
    status = resume_campaign(
        tmp_path / "camp", workers=0, policy=CampaignPolicy()
    )
    entry = status["schedule"]["epochs"][1]
    assert entry["degraded"] == {"rate": 0.5, "seed": SEED}
    assert entry["results_digest"] == before


def test_resume_sweeps_dead_writers_temp_files(reference_campaign, tmp_path):
    """Re-entering a campaign removes the temp files of writers that
    died, in the campaign directory and its shard cache, and keeps a
    live writer's."""
    camp = copy_of(reference_campaign, tmp_path)
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    dead = child.pid
    planted = [
        camp / f"schedule.json.tmp{dead}",
        camp / "shardcache" / f"shard-{'0' * 64}.json.tmp{dead}",
    ]
    live = camp / f"ledger.json.tmp{os.getpid()}"
    for path in (*planted, live):
        path.write_text("{torn")
    resume_campaign(camp, workers=0)
    assert not [path for path in planted if path.exists()]
    assert live.exists()


def test_schedule_survives_torn_write(reference_campaign, tmp_path):
    """A stale schedule tmp file never shadows the real schedule."""
    camp = copy_of(reference_campaign, tmp_path)
    torn = (camp / "schedule.json").with_suffix(".json.tmp99999")
    torn.write_text("{torn")
    status = resume_campaign(camp, workers=0)
    assert status["counts"]["done"] == CAMPAIGN_EPOCHS

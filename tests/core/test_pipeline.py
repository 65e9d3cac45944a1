"""The staged campaign pipeline: shard-merge equivalence, artifact
serialization round trips, and resume semantics.

The clean star world's 1-shard and 4-shard runs (``tests/conftest.py``)
are shared read-only; a test that resumes or corrupts the 4-shard run
works on a copy.
"""

import json
import shutil
from dataclasses import replace

import pytest

from repro.core import ScanConfig
from repro.core import pipeline as pipeline_module
from repro.core.campaign import Campaign, ScanMetadata
from repro.core.collection import Collector, PortObservation, TargetObservation
from repro.core.pipeline import (
    ARTIFACT_SCHEMA_VERSION,
    CampaignSpec,
    resume_pipeline,
    run_pipeline,
)
from repro.core.qname import Channel
from repro.core.sources import SourceCategory
from repro.netsim.packet import TCPSignature
from repro.obs.export import deterministic_counters, load_telemetry

from ..conftest import CLEAN_N_ASES, CLEAN_SEED, clean_spec, minus_provenance


@pytest.fixture
def baseline_results(clean_star_one):
    """results_dict of the clean star world in one shard."""
    return clean_star_one[1].results


@pytest.fixture
def sharded(clean_star_four):
    """(spec, run_dir, outcome) of the clean star world in 4 shards."""
    run_dir, outcome = clean_star_four
    return clean_spec(4), run_dir, outcome


# -- shard-merge equivalence ----------------------------------------------


def test_four_shards_match_single_process(baseline_results, sharded):
    _, _, outcome = sharded
    assert minus_provenance(outcome.results) == minus_provenance(
        baseline_results
    )


def test_json_bytes_identical_minus_provenance(baseline_results, sharded):
    """The acceptance criterion, byte-for-byte on the saved JSON form."""
    _, _, outcome = sharded
    a = json.dumps(minus_provenance(baseline_results), indent=2)
    b = json.dumps(minus_provenance(outcome.results), indent=2)
    assert a == b


def test_equivalence_covers_both_families(baseline_results):
    """The comparison above must actually exercise v4 *and* v6 results."""
    headline = baseline_results["headline"]
    assert headline["v4"]["reachable_addresses"] > 0
    assert headline["v6"]["reachable_addresses"] > 0


def test_provenance_records_sharding(baseline_results, sharded):
    _, _, outcome = sharded
    assert baseline_results["schema_version"] == 3
    assert baseline_results["provenance"]["shards"] == 1
    assert outcome.results["provenance"]["shards"] == 4
    assert outcome.results["provenance"]["seed"] == CLEAN_SEED
    assert outcome.results["provenance"]["n_ases"] == CLEAN_N_ASES


def test_provenance_records_run_identity(baseline_results, sharded):
    """Schema v3: provenance carries the comparability keys."""
    from repro.scenarios import ScenarioParams
    from repro.scenarios.compiled import content_key

    _, _, outcome = sharded
    for results in (baseline_results, outcome.results):
        provenance = results["provenance"]
        assert provenance["scenario_content_key"] == content_key(
            ScenarioParams(seed=CLEAN_SEED, n_ases=CLEAN_N_ASES)
        )
        assert provenance["topology"] == "star"
        assert provenance["fault_plan_digest"] is None


def test_pipeline_ledger_hook_records_run(sharded, tmp_path):
    """run_pipeline(ledger=...) appends the run's ledger row."""
    from repro.obs.ledger import Ledger

    spec, run_dir, outcome = sharded
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    ledger_dir = tmp_path / "ledger"
    # The run is complete, so this is the served-from-disk path — the
    # ledger hook must fire there too.
    again = run_pipeline(spec, run_dir=copy, workers=0, ledger=ledger_dir)
    assert again.stages_run == []
    payload = Ledger(ledger_dir).load()
    assert len(payload["rows"]) == 1
    row = payload["rows"][0]
    assert row["run"] == str(copy.resolve())
    assert row["shards"] == 4
    assert row["scenario_key"] == (
        outcome.results["provenance"]["scenario_content_key"]
    )


def test_ledger_without_run_dir_is_an_error():
    with pytest.raises(ValueError, match="ledger requires"):
        run_pipeline(clean_spec(1), ledger="somewhere")


def test_shard_counters_sum_to_campaign_totals(sharded):
    _, run_dir, outcome = sharded
    shard_scheduled = 0
    for shard_id in range(4):
        artifact = json.loads(
            (run_dir / f"shard-{shard_id:03d}.json").read_text()
        )
        assert artifact["shard_id"] == shard_id
        shard_scheduled += artifact["metadata"]["probes_scheduled"]
    assert shard_scheduled == outcome.results["probes"]


def test_run_default_delegates_to_pipeline():
    """Campaign.run_default(shards=N) returns an equivalent campaign."""
    single = Campaign.run_default(seed=3, n_ases=18, duration=20.0)
    sharded = Campaign.run_default(
        seed=3, n_ases=18, duration=20.0, shards=2, workers=0
    )
    assert sharded.scanner is None
    assert minus_provenance(sharded.results_dict()) == minus_provenance(
        single.results_dict()
    )


# -- resume ----------------------------------------------------------------


def test_completed_run_resumes_from_artifacts_alone(
    sharded, monkeypatch, tmp_path
):
    _, run_dir, outcome = sharded
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    monkeypatch.setattr(
        pipeline_module, "run_scan_shard", _refuse_to_scan
    )
    resumed = resume_pipeline(copy, workers=0)
    assert resumed.campaign is None
    assert resumed.stages_run == []
    assert set(pipeline_module.STAGES) <= set(resumed.stages_skipped)
    assert resumed.results == outcome.results
    assert resumed.report == outcome.report


def test_resume_reuses_merged_observations(sharded, monkeypatch, tmp_path):
    """A run that lost its analysis resumes without scanning: collect
    re-runs from the committed shard artifacts, so the telemetry merges
    every shard's counters as the uninterrupted run did."""
    spec, run_dir, outcome = sharded
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    (copy / "results.json").unlink()
    (copy / "report.txt").unlink()
    monkeypatch.setattr(
        pipeline_module, "run_scan_shard", _refuse_to_scan
    )
    resumed = resume_pipeline(copy, workers=0)
    assert resumed.campaign is not None
    assert resumed.stages_skipped == [f"scan[{i}]" for i in range(4)]
    assert "collect" in resumed.stages_run
    assert minus_provenance(resumed.results) == minus_provenance(
        outcome.results
    )
    assert deterministic_counters(resumed.telemetry) == (
        deterministic_counters(outcome.telemetry)
    )
    assert (copy / "results.json").exists()
    assert (copy / "report.txt").exists()


def test_resume_runs_only_missing_shards(sharded, monkeypatch, tmp_path):
    spec, run_dir, outcome = sharded
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    for name in ("results.json", "report.txt", "observations.json"):
        (copy / name).unlink()
    (copy / "shard-002.json").unlink()

    ran = []
    real = pipeline_module.run_scan_shard

    def counting(job, *sinks):
        ran.append(job["shard_id"])
        return real(job, *sinks)

    monkeypatch.setattr(pipeline_module, "run_scan_shard", counting)
    resumed = resume_pipeline(copy, workers=0)
    assert ran == [2]
    assert minus_provenance(resumed.results) == minus_provenance(
        outcome.results
    )


def test_run_directory_refuses_spec_mismatch(sharded):
    _, run_dir, _ = sharded
    other = replace(clean_spec(4), seed=CLEAN_SEED + 1)
    with pytest.raises(ValueError, match="refusing to reuse"):
        run_pipeline(other, run_dir=run_dir, workers=0)


def test_resume_requires_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        resume_pipeline(tmp_path / "nowhere")


def _refuse_to_scan(job, *sinks):
    raise AssertionError(
        f"shard {job['shard_id']} re-ran during a resume that should "
        "have been served from artifacts"
    )


# -- artifact serialization ------------------------------------------------


def _full_observation() -> TargetObservation:
    from ipaddress import ip_address

    obs = TargetObservation(ip_address("198.51.100.7"), 65001)
    obs.first_seen = 12.625
    obs.categories = {SourceCategory.OTHER_PREFIX, SourceCategory.LOOPBACK}
    obs.working_sources = {
        ip_address("198.51.100.9"), ip_address("203.0.113.4")
    }
    obs.open_ = True
    obs.port_observations = [
        PortObservation(13.5, 40001, Channel.V4_ONLY),
        PortObservation(14.0, 40002, Channel.V6_ONLY),
    ]
    obs.direct = True
    obs.forwarded = True
    obs.forwarder_addresses = {ip_address("2001:db8::5")}
    obs.tcp_signature = TCPSignature(
        initial_ttl=64,
        window_size=29200,
        mss=1460,
        window_scale=7,
        options=("mss", "sok", "ts", "nop", "ws"),
    )
    obs.observed_ttl = 52
    return obs


def test_observation_payload_round_trips_through_json():
    original = _full_observation()
    payload = json.loads(json.dumps(original.to_payload()))
    restored = TargetObservation.from_payload(payload)
    assert restored == original


def test_observation_payload_preserves_infinite_first_seen():
    original = TargetObservation(
        __import__("ipaddress").ip_address("192.0.2.1"), 65000
    )
    assert original.first_seen == float("inf")
    payload = json.loads(json.dumps(original.to_payload()))
    assert TargetObservation.from_payload(payload) == original


def test_collector_payload_round_trips_live_campaign(scan_results):
    """Serialize a real campaign's collection and absorb it back."""
    scenario, _, _, collector = scan_results
    payload = json.loads(json.dumps(collector.to_payload()))
    merged = Collector(
        codec=scenario.codec,
        probe_index={},
        real_addresses=frozenset(scenario.client.addresses),
        routes=scenario.routes,
    )
    merged.absorb_payload(payload)
    merged.canonicalize()
    assert merged.to_payload() == collector.to_payload()
    assert merged.stats == collector.stats
    assert merged.late_targets == collector.late_targets
    assert merged.minimized_asns == collector.minimized_asns


def test_absorb_rejects_overlapping_shards(scan_results):
    scenario, _, _, collector = scan_results
    payload = collector.to_payload()
    merged = Collector(
        codec=scenario.codec,
        probe_index={},
        real_addresses=frozenset(scenario.client.addresses),
        routes=scenario.routes,
    )
    merged.absorb_payload(payload)
    with pytest.raises(ValueError, match="shard overlap"):
        merged.absorb_payload(payload)


def test_spec_round_trips():
    spec = CampaignSpec.from_scan_config(
        seed=9,
        n_ases=33,
        shards=5,
        config=ScanConfig(duration=77.0, max_rate=500.0),
    )
    restored = CampaignSpec.from_payload(
        json.loads(json.dumps(spec.to_payload()))
    )
    assert restored == spec
    assert restored.scan_config() == ScanConfig(
        duration=77.0, max_rate=500.0
    )


def test_metadata_round_trips_and_merges():
    parts = [
        ScanMetadata(
            probes_scheduled=10 * k,
            probes_sent=9 * k,
            probes_suppressed=k,
            targets_planned=2 * k,
            targets_unroutable=k % 2,
            effective_duration=300.0,
            wall_seconds=1.5,
        )
        for k in (1, 2, 3)
    ]
    restored = ScanMetadata.from_payload(
        json.loads(json.dumps(parts[0].to_payload()))
    )
    assert restored == parts[0]
    merged = ScanMetadata.merged(parts)
    assert merged.probes_scheduled == 60
    assert merged.probes_sent == 54
    assert merged.targets_planned == 12
    assert merged.effective_duration == 300.0
    assert merged.shards == 3


def test_artifact_schema_version_enforced():
    payload = CampaignSpec(seed=1, n_ases=10, shards=1).to_payload()
    payload["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
    with pytest.raises(ValueError, match="schema_version"):
        CampaignSpec.from_payload(payload)


# -- checksum envelope / quarantine ----------------------------------------


def test_corrupt_shard_artifact_quarantined_on_resume(
    sharded, monkeypatch, tmp_path
):
    """A truncated shard artifact fails its recorded checksum: the file
    is quarantined and the resume raises the exit-code-4 error."""
    from repro.core.pipeline import ArtifactCorruptError

    _, run_dir, _ = sharded
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    for name in ("results.json", "report.txt", "observations.json"):
        (copy / name).unlink()
    victim = copy / "shard-002.json"
    victim.write_text(victim.read_text()[:100])  # truncate mid-write

    with pytest.raises(ArtifactCorruptError, match="checksum") as excinfo:
        resume_pipeline(copy, workers=0)
    assert excinfo.value.exit_code == 4
    assert not victim.exists()
    assert (copy / "shard-002.json.quarantined").exists()

    # The quarantine cleared the way: a second resume regenerates the
    # shard and completes.
    resumed = resume_pipeline(copy, workers=0)
    assert "scan[2]" in resumed.stages_run


def test_corrupt_results_artifact_quarantined(sharded, tmp_path):
    from repro.core.pipeline import ArtifactCorruptError

    _, run_dir, _ = sharded
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    (copy / "results.json").write_text("{}")  # wrong bytes, valid JSON

    with pytest.raises(ArtifactCorruptError, match="results artifact"):
        resume_pipeline(copy, workers=0)
    assert (copy / "results.json.quarantined").exists()


def test_torn_telemetry_artifact_quarantined(sharded, tmp_path):
    """A torn telemetry.json of a finished run fails its checksum like
    any artifact, and the next resume re-derives it."""
    from repro.core.pipeline import ArtifactCorruptError

    _, run_dir, outcome = sharded
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    victim = copy / "telemetry.json"
    victim.write_bytes(victim.read_bytes()[:200])

    with pytest.raises(ArtifactCorruptError, match="telemetry artifact") as e:
        resume_pipeline(copy, workers=0)
    assert e.value.exit_code == 4
    assert (copy / "telemetry.json.quarantined").exists()

    resumed = resume_pipeline(copy, workers=0)
    assert load_telemetry(victim) == resumed.telemetry
    assert deterministic_counters(resumed.telemetry) == (
        deterministic_counters(outcome.telemetry)
    )


def test_unrecorded_artifacts_still_readable(sharded, tmp_path):
    """A run directory whose manifest records no ``artifacts`` vouches
    for none of its files: the resume re-derives every one of them,
    to the same results."""
    _, run_dir, outcome = sharded
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    manifest.pop("artifacts")
    (copy / "manifest.json").write_text(json.dumps(manifest))

    resumed = resume_pipeline(copy, workers=0)
    assert resumed.stages_run == [
        "build", "scan[0]", "scan[1]", "scan[2]", "scan[3]",
        "collect", "analyze", "report",
    ]
    assert minus_provenance(resumed.results) == minus_provenance(
        outcome.results
    )
    recorded = json.loads((copy / "manifest.json").read_text())["artifacts"]
    assert sorted(recorded) == sorted(
        json.loads((run_dir / "manifest.json").read_text())["artifacts"]
    )

"""Campaign telemetry: shard-merge equivalence of the deterministic
metric slice, the telemetry.json artifact, and the guarantee that
collecting metrics never perturbs campaign results.

The clean star world's 1-shard and 4-shard runs and the matrix world's
cells (``tests/conftest.py``) are shared read-only.
"""

import json
import shutil

from repro.core.pipeline import RunDirectory, run_pipeline
from repro.obs.export import (
    deterministic_counters,
    load_telemetry,
    validate_telemetry,
)

from ..conftest import CLEAN_SEED, clean_spec


# -- the deterministic shard-merge contract --------------------------------


def test_four_shard_deterministic_slice_matches_one_shard(
    clean_star_one, clean_star_four
):
    _, o1 = clean_star_one
    _, o4 = clean_star_four
    d1 = deterministic_counters(o1.telemetry)
    d4 = deterministic_counters(o4.telemetry)
    assert d1 == d4


def test_deterministic_slice_actually_covers_the_campaign(clean_star_one):
    """Guard against the equivalence passing vacuously."""
    _, outcome = clean_star_one
    slice_ = deterministic_counters(outcome.telemetry)
    assert any(
        name.startswith("fabric_drops_total") for name in slice_
    )
    assert slice_["scan_probes_sent_total"][0][1] > 0
    assert slice_["fabric_delivered_total"][0][1] > 0
    assert slice_["resolver_task_sim_seconds"][0][1]["count"] > 0


def test_nondeterministic_metrics_are_flagged(clean_star_one):
    _, outcome = clean_star_one
    flags = {
        family["name"]: family["deterministic"]
        for family in outcome.telemetry["metrics"]["metrics"]
    }
    for name in (
        "routing_cache_hits_total",
        "routing_cache_misses_total",
        "eventloop_queue_depth_peak",
        "eventloop_events_total",
        "scan_shard_wall_seconds",
    ):
        assert flags[name] is False, name
    for name in (
        "fabric_delivered_total",
        "fabric_drops_total",
        "scan_probes_sent_total",
        "scan_penetrations_total",
        "resolver_task_sim_seconds",
        "dns_cache_hits_total",
    ):
        assert flags[name] is True, name


# -- the telemetry artifact ------------------------------------------------


def test_telemetry_json_written_and_valid(clean_star_one, clean_star_four):
    for run_dir, outcome in (clean_star_one, clean_star_four):
        path = RunDirectory(run_dir).telemetry_path
        assert path.exists()
        payload = load_telemetry(path)
        validate_telemetry(payload)
        assert payload == outcome.telemetry
        assert payload["spec"]["seed"] == CLEAN_SEED


def test_span_tree_covers_pipeline_stages(clean_star_one):
    _, outcome = clean_star_one
    roots = outcome.telemetry["spans"]["spans"]
    assert [r["name"] for r in roots] == ["pipeline"]
    stage_names = [c["name"] for c in roots[0]["children"]]
    assert stage_names == ["build", "scan", "collect", "analyze", "report"]
    scan = roots[0]["children"][1]
    shard_spans = [c for c in scan["children"] if c["name"] == "scan.shard"]
    assert len(shard_spans) == 1
    assert shard_spans[0]["attrs"] == {"shard": 0}
    assert [c["name"] for c in shard_spans[0]["children"]] == ["build", "run"]


def test_four_shard_span_tree_grafts_every_shard(clean_star_four):
    _, outcome = clean_star_four
    scan = outcome.telemetry["spans"]["spans"][0]["children"][1]
    shards = sorted(
        c["attrs"]["shard"]
        for c in scan["children"]
        if c["name"] == "scan.shard"
    )
    assert shards == [0, 1, 2, 3]


def test_shard_artifacts_carry_telemetry(clean_star_four):
    run_dir, _ = clean_star_four
    rd = RunDirectory(run_dir)
    for shard_id in range(4):
        artifact = json.loads(rd.shard_path(shard_id).read_text())
        telemetry = artifact["telemetry"]
        assert telemetry["metrics"]["metrics"]
        assert telemetry["spans"]["spans"][0]["name"] == "scan.shard"


# -- results are never perturbed -------------------------------------------


def test_results_identical_with_metrics_on_and_off(cell, reference):
    assert cell("metrics=False").results() == reference.results()


def test_metrics_off_produces_no_telemetry(cell):
    off = cell("metrics=False")
    assert off.outcome.telemetry is None
    assert not RunDirectory(off.run_dir).telemetry_path.exists()


def test_resume_serves_telemetry_from_disk(clean_star_one, tmp_path):
    run_dir, first = clean_star_one
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    again = run_pipeline(clean_spec(1), run_dir=copy, workers=0)
    assert again.stages_run == []
    assert again.telemetry == first.telemetry


def test_metrics_and_journal_coexist(cell, reference):
    """Telemetry and the probe journal are independent observers: both
    on at once (the matrix reference) still leaves results identical to
    a run with either one off."""
    rd = RunDirectory(reference.run_dir)
    assert rd.telemetry_path.exists()
    assert rd.events_path.exists()
    validate_telemetry(load_telemetry(rd.telemetry_path))
    for off in ("metrics=False", "journal=False"):
        assert cell(off).results() == reference.results()

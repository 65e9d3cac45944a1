"""Structural run diff: determinism, antisymmetry, evidence, gating."""

import json
import shutil

import pytest

from repro.obs.diff import (
    DIFF_SCHEMA_VERSION,
    mirror,
    render_diff,
    run_diff,
)
from repro.obs.export import dump_envelope
from repro.obs.ledger import ObservatoryError
from repro.rundir import RunDirectory, json_text


def test_self_diff_is_empty_and_deterministic(observatory_runs):
    _, run_a, _ = observatory_runs
    one = run_diff(run_a, run_a)
    two = run_diff(run_a, run_a)
    assert one["empty"] is True
    assert one["flips"] == []
    assert one["results_changes"] == []
    assert one["drop_reasons"] == []
    assert one["telemetry"]["families"] == []
    assert render_diff(one) == ""
    assert dump_envelope(one) == dump_envelope(two)


def test_diff_is_antisymmetric(observatory_runs):
    _, run_a, run_b = observatory_runs
    forward = run_diff(run_a, run_b)
    backward = run_diff(run_b, run_a)
    assert mirror(forward) == backward
    assert mirror(backward) == forward
    assert mirror(mirror(forward)) == forward


def test_fault_seed_change_produces_journal_backed_flips(
    observatory_runs,
):
    """The acceptance scenario: same spec, different fault seeds."""
    _, run_a, run_b = observatory_runs
    envelope = run_diff(run_a, run_b)
    assert envelope["schema_version"] == DIFF_SCHEMA_VERSION
    assert envelope["kind"] == "run-diff"
    assert envelope["empty"] is False
    assert envelope["comparability"]["verdict"] == "comparable"
    assert any(
        "fault plans differ" in note
        for note in envelope["comparability"]["notes"]
    )
    flips = envelope["flips"]
    assert flips, "different fault seeds must flip some AS status"
    for flip in flips:
        assert flip["direction"] in ("remediated", "regressed", "partial")
        # Journaled runs back every flip with probe-id evidence on
        # whichever side reached the AS.
        if flip["direction"] == "remediated":
            assert flip["probes_a"]
            assert flip["targets_a"] and not flip["targets_b"]
        elif flip["direction"] == "regressed":
            assert flip["probes_b"]
            assert flip["targets_b"] and not flip["targets_a"]


def test_headline_deltas_are_b_minus_a(observatory_runs):
    _, run_a, run_b = observatory_runs
    envelope = run_diff(run_a, run_b)
    results_a = json.loads((run_a / "results.json").read_text())
    results_b = json.loads((run_b / "results.json").read_text())
    for fam in ("v4", "v6"):
        for key, entry in envelope["headline"][fam].items():
            assert entry["a"] == results_a["headline"][fam][key]
            assert entry["b"] == results_b["headline"][fam][key]
            assert entry["delta"] == pytest.approx(
                entry["b"] - entry["a"]
            )


def test_deterministic_telemetry_families_are_exact(observatory_runs):
    _, run_a, run_b = observatory_runs
    envelope = run_diff(run_a, run_b)
    families = {
        family["name"]: family
        for family in envelope["telemetry"]["families"]
    }
    assert envelope["telemetry"]["present"] == {"a": True, "b": True}
    # Burst loss changes delivery counts: the deterministic scan
    # counters must show exact per-sample deltas.
    exact = [f for f in families.values() if f["exact"]]
    assert exact
    for family in exact:
        for change in family["changes"]:
            assert change["a"] != change["b"]


def test_render_mentions_flips_and_evidence(observatory_runs):
    _, run_a, run_b = observatory_runs
    envelope = run_diff(run_a, run_b)
    text = render_diff(envelope)
    assert text.startswith("run diff:")
    assert "per-AS DSAV flips" in text
    assert "evidence probes" in text
    assert "comparability: comparable" in text


def test_incomparable_runs_refused_unless_advisory(
    observatory_runs, tmp_path
):
    _, run_a, _ = observatory_runs
    # A run of another world: its results carry another scenario key,
    # committed through its manifest as the pipeline commits them.
    other = RunDirectory(shutil.copytree(run_a, tmp_path / "other-world"))
    results = other.results()
    results["provenance"]["scenario_content_key"] = "f" * 64
    other.commit({other.results_path.name: json_text(results)})
    with pytest.raises(ObservatoryError, match="not comparable"):
        run_diff(run_a, other.path)
    envelope = run_diff(run_a, other.path, advisory=True)
    assert envelope["comparability"]["verdict"] == "advisory"
    assert not envelope["identity"]["scenario_key"]["equal"]


def test_diff_requires_run_directories(observatory_runs, tmp_path):
    _, run_a, _ = observatory_runs
    with pytest.raises(ObservatoryError) as excinfo:
        run_diff(run_a, tmp_path / "missing")
    assert excinfo.value.exit_code == 2
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ObservatoryError, match="no manifest.json"):
        run_diff(empty, run_a)

"""The run-directory reader: what opens as a run, and which of its files
a command may read."""

import json

import pytest

from repro.rundir import (
    RunDirectory,
    RunDirectoryError,
    RunNotFound,
    UntrustedArtifact,
)


def test_open_refuses_paths_that_hold_no_run(tmp_path):
    with pytest.raises(RunNotFound, match="not a directory"):
        RunDirectory.open(tmp_path / "nope")
    assert not (tmp_path / "nope").exists()
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(RunNotFound, match="no manifest.json"):
        RunDirectory.open(empty)
    legacy = tmp_path / "legacy"
    legacy.mkdir()
    (legacy / "manifest.json").write_text(
        json.dumps({"schema_version": 99, "spec": {}})
    )
    with pytest.raises(RunDirectoryError, match="schema_version=99"):
        RunDirectory.open(legacy)
    torn = tmp_path / "torn"
    torn.mkdir()
    (torn / "manifest.json").write_text("{not json")
    with pytest.raises(RunDirectoryError, match="not valid JSON"):
        RunDirectory.open(torn)


def test_a_manifest_without_a_spec_that_loads_is_refused(tmp_path):
    from repro.core.pipeline import CampaignSpec

    spec = CampaignSpec(seed=1, n_ases=10, shards=1).to_payload()
    del spec["partition"]
    manifests = {
        "spec-less": {"schema_version": 1, "stages_completed": []},
        "no-partition": {
            "schema_version": 1, "spec": spec, "stages_completed": [],
        },
    }
    for name, manifest in manifests.items():
        rd = RunDirectory(tmp_path / name)
        rd.path.mkdir()
        rd.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(RunDirectoryError) as caught:
            RunDirectory.open(rd.path).read_spec()
        assert not isinstance(caught.value, RunNotFound)
        assert str(caught.value).startswith(
            f"{rd.manifest_path} records no spec"
        )


def _run(tmp_path) -> RunDirectory:
    """A run directory that committed two files, with a third beside
    them."""
    rd = RunDirectory(tmp_path / "run")
    rd.path.mkdir()
    rd.manifest_path.write_text(
        json.dumps({"schema_version": 1, "spec": {}, "stages_completed": []})
    )
    rd.commit(
        {
            "observations.json": '{"schema_version": 1}\n',
            "events.ndjson": '{"kind": "probe.sent"}\n',
        },
        "collect",
    )
    (rd.path / "results.json").write_text('{"schema_version": 3}\n')
    return RunDirectory.open(rd.path)


def test_a_file_the_manifest_does_not_record_is_absent(tmp_path):
    rd = _run(tmp_path)
    assert rd.observations() == {"schema_version": 1}
    assert rd.journal() == rd.events_path
    assert rd.read_bytes("results.json") is None
    with pytest.raises(RunDirectoryError, match="not completed its analyze"):
        rd.results()
    assert not rd.complete()


def test_a_recorded_file_that_fails_its_digest_is_refused(tmp_path):
    rd = _run(tmp_path)
    rd.observations_path.write_text('{"schema_version": 1, "edited": 1}\n')
    rd.events_path.write_text('{"kind": "probe.sent", "edited": 1}\n')
    before = sorted(rd.path.iterdir())
    with pytest.raises(UntrustedArtifact, match="scan --resume") as caught:
        rd.observations()
    assert caught.value.exit_code == 2
    with pytest.raises(UntrustedArtifact):
        rd.journal()
    assert sorted(rd.path.iterdir()) == before

"""Tests for the command-line interface."""

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.campaigns import supervisor
from repro.cli import build_parser, main
from repro.obs.journal import load_events, validate_events
from repro.scenarios import compiled


def test_lab_command(capsys):
    assert main(["lab", "--queries", "500"]) == 0
    out = capsys.readouterr().out
    assert "Table 5" in out
    assert "Table 6" in out
    assert "windows-dns-2008r2-2019" in out
    assert "DS4/LB4/DS6/LB6" in out


def test_attack_command_all(capsys):
    assert main(["attack", "all"]) == 0
    out = capsys.readouterr().out
    assert "NXNS" in out
    assert "Reflection" in out
    assert "Poisoning search space" in out
    assert "65,536 combinations" in out


def test_attack_command_single(capsys):
    assert main(["attack", "poisoning"]) == 0
    out = capsys.readouterr().out
    assert "NXNS" not in out
    assert "combinations" in out


def test_attack_command_zone(capsys):
    assert main(["attack", "zone"]) == 0
    out = capsys.readouterr().out
    assert "without DSAV: update ACCEPTED - zone rewritten" in out
    assert "with DSAV: update blocked" in out


def test_scan_command_small(capsys, tmp_path):
    json_path = tmp_path / "results.json"
    assert main(["scan", "--n-ases", "15", "--seed", "3",
                 "--duration", "40", "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "Section 4: headline" in out
    assert "Table 3" in out
    assert "Table 4" in out
    assert "Reachable ASes" in out
    # Metrics off, no run directory: no telemetry is built.
    assert "Campaign telemetry" not in out
    import json

    data = json.loads(json_path.read_text())
    assert data["seed"] == 3
    assert "headline" in data and "table4" in data


def test_audit_command_auto_asn(capsys):
    assert main(["audit", "--n-ases", "20", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "Auditing AS" in out
    assert "verdict:" in out


def test_scan_metrics_then_obs(capsys, tmp_path):
    """The ISSUE acceptance flow: scan --metrics, then obs <run-dir>."""
    run_dir = tmp_path / "run"
    assert main(["scan", "--n-ases", "15", "--seed", "3",
                 "--duration", "40", "--metrics", "--workers", "0",
                 "--run-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "Campaign telemetry" in out
    assert (run_dir / "telemetry.json").exists()

    assert main(["obs", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "Stage / span timings" in out
    assert "pipeline" in out
    assert "scan.shard" in out
    assert "Counters" in out
    assert "fabric_drops_total" in out
    assert "scan_probes_sent_total" in out
    assert "Histograms" in out

    assert main(["obs", str(run_dir), "--prom"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE fabric_drops_total counter" in out
    assert "# TYPE resolver_task_sim_seconds histogram" in out
    assert 'le="+Inf"' in out


def test_scan_metrics_without_run_dir_prints_telemetry(capsys):
    assert main(["scan", "--n-ases", "15", "--seed", "3",
                 "--duration", "40", "--metrics", "--workers", "0"]) == 0
    out = capsys.readouterr().out
    assert "Campaign telemetry" in out
    assert "scan_probes_sent_total" in out


@pytest.fixture(scope="module")
def journaled_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("journaled") / "run"
    assert main(["scan", "--n-ases", "15", "--seed", "3",
                 "--duration", "40", "--journal", "--workers", "0",
                 "--run-dir", str(run_dir), "--quiet"]) == 0
    return run_dir


def test_obs_missing_telemetry_errors(capsys, tmp_path, journaled_run):
    """An empty directory is not a run (exit 2); a run made without
    --metrics has no telemetry to show (exit 1, pointing at the flag)."""
    assert main(["obs", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "no manifest.json" in err
    assert main(["obs", str(journaled_run)]) == 1
    err = capsys.readouterr().err
    assert "telemetry.json" in err
    assert "--metrics" in err


def test_scan_journal_then_explain(capsys, tmp_path):
    """The ISSUE acceptance flow: scan --journal, then explain."""
    run_dir = tmp_path / "run"
    assert main(["scan", "--n-ases", "15", "--seed", "3",
                 "--duration", "40", "--journal", "--workers", "0",
                 "--run-dir", str(run_dir)]) == 0
    captured = capsys.readouterr()
    assert (run_dir / "events.ndjson").exists()
    assert "probe journal written" in captured.err
    # stdout stays machine-parseable report text; chatter is on stderr.
    assert "probe journal written" not in captured.out
    assert "stages run" in captured.err

    assert main(["explain", str(run_dir), "--audit"]) == 0
    out = capsys.readouterr().out
    assert "audit OK" in out
    assert "headline counts match results.json" in out

    # Pick a probe id out of the journal and ask for its story.
    import json as json_module

    with (run_dir / "events.ndjson").open() as handle:
        probe = next(
            json_module.loads(line)["probe"]
            for line in handle
            if '"kind":"probe.sent"' in line
        )
    assert main(["explain", str(run_dir), "--probe", probe]) == 0
    out = capsys.readouterr().out
    assert f"probe {probe} spoofed" in out
    assert "OSAV" in out

    assert main(["explain", str(run_dir), "--probe", probe,
                 "--json"]) == 0
    chain = json_module.loads(capsys.readouterr().out)
    assert chain["probe"] == probe
    assert chain["sent"]["kind"] == "probe.sent"


def test_scan_quiet_suppresses_stderr_chatter(capsys, tmp_path):
    run_dir = tmp_path / "run"
    assert main(["scan", "--n-ases", "15", "--seed", "3",
                 "--duration", "40", "--journal", "--workers", "0",
                 "--run-dir", str(run_dir), "--quiet"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "Section 4: headline" in captured.out


def write_crash_plan(tmp_path, mode: str) -> Path:
    """Write a fault plan whose one clause crashes shard 1 once."""
    path = tmp_path / f"crash-{mode}.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "name": f"crash-{mode}",
        "clauses": [{"kind": "shard-crash", "shard": 1, "after_probes": 50,
                     "times": 1, "mode": mode}],
    }))
    return path


def fill_placeholders(flags: list[str], tmp_path) -> list[str]:
    """Replace FILE with an existing regular file, HANG_PLAN with a
    written plan that hangs shard 1, DIR with a path that does not
    exist yet, FOLDER with an existing directory and ORPHAN with a file
    in a directory that does not exist."""
    regular_file = tmp_path / "file"
    regular_file.write_text("not a directory\n")
    folder = tmp_path / "folder"
    folder.mkdir(exist_ok=True)
    placeholders = {
        "FILE": str(regular_file),
        "HANG_PLAN": str(write_crash_plan(tmp_path, "hang")),
        "DIR": str(tmp_path / "dir"),
        "FOLDER": str(folder),
        "ORPHAN": str(tmp_path / "missing" / "out.json"),
    }
    return [placeholders.get(flag, flag) for flag in flags]


def assert_one_error_line(err: str) -> None:
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


#: Bad ``scan`` values, each refused on its own, whatever the other
#: flags, before a run directory exists.
SCAN_BAD_INPUT = {
    "duration": ["--duration", "0"],
    "retries": ["--retries", "-1"],
    "n-ases": ["--n-ases", "2"],
    "shards": ["--shards", "0"],
    "workers": ["--workers", "-1"],
    "hang-timeout": ["--shards", "2", "--workers", "2", "--hang-timeout", "0"],
    "hang-timeout-floor": [
        "--shards", "2", "--workers", "2", "--hang-timeout", "0.5",
    ],
    "duration-nan": ["--duration", "nan"],
    "duration-inf": ["--duration", "inf"],
    "hang-timeout-nan": [
        "--shards", "2", "--workers", "2", "--hang-timeout", "nan",
    ],
    "hang-timeout-inf": [
        "--shards", "2", "--workers", "2", "--hang-timeout", "inf",
    ],
    "run-dir-file": ["--run-dir", "FILE"],
    "resume-file": ["--resume", "FILE"],
    "scenario-cache-file": ["--scenario-cache", "FILE"],
    "ledger-file": ["--ledger", "FILE"],
    "json-folder": ["--json", "FOLDER"],
    "json-in-missing-folder": ["--json", "ORPHAN"],
    "hang-crash-without-hang-timeout": [
        "--shards", "2", "--workers", "2", "--faults", "HANG_PLAN",
    ],
}


@pytest.mark.parametrize(
    "flags", list(SCAN_BAD_INPUT.values()), ids=list(SCAN_BAD_INPUT)
)
def test_scan_bad_input_exits_two_with_one_line(capsys, tmp_path, flags):
    run_dir = tmp_path / "run"
    flags = fill_placeholders(flags, tmp_path)
    # --run-dir comes first, so a --run-dir in *flags* overrides it.
    assert main(["scan", "--run-dir", str(run_dir), *flags]) == 2
    assert_one_error_line(capsys.readouterr().err)
    assert not run_dir.exists()


#: Flags that write into the run directory, refused without one.
NEEDS_RUN_DIR = {
    "journal": ["--journal"],
    "snapshots": ["--snapshots"],
    "profile": ["--profile"],
    "ledger": ["--ledger", "DIR"],
}


@pytest.mark.parametrize(
    "flags", list(NEEDS_RUN_DIR.values()), ids=list(NEEDS_RUN_DIR)
)
def test_scan_needs_run_dir_exits_two_with_one_line(capsys, tmp_path, flags):
    flags = fill_placeholders(flags, tmp_path)
    assert main(["scan", "--n-ases", "12", *flags]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "requires a run directory" in err
    assert not (tmp_path / "dir").exists()


def test_scan_crash_plan_without_run_dir_exits_two(capsys, tmp_path):
    """Crash markers need a run directory: refused before any shard
    runs, not after every attempt of the crashing shard."""
    plan = write_crash_plan(tmp_path, "raise")
    assert main(["scan", "--n-ases", "15", "--seed", "3", "--duration",
                 "30", "--shards", "2", "--workers", "2", "--faults",
                 str(plan), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "run directory" in err


#: sha256 of the default star topology's results minus provenance at
#: seed 2019, 40 ASes, 40 simulated seconds.  The analysis numbers are
#: those of the release before the topology engine; only the schema-v3
#: layout moved the pin.
STAR_PIN = "23d3649701298f22e57fbf0ea199262f99867ab1d316892b42ad865280a8b116"

#: sha256 of the same run's ``events.ndjson`` with ``--journal``: the
#: same at any shard count and hash seed.
STAR_JOURNAL_PIN = (
    "1c531b6cb42188ac96663eb36a072d867a782ab642319a3347c70612cda9394c"
)


#: sha256 of a tiered-topology run under the BGP-dynamics fault plan
#: (withdrawal, hijack, stuck route), results minus provenance, at seed
#: 2019, 40 ASes, 40 simulated seconds: the same at 1 and 4 shards.
TIERED_PIN = "229ab9a264a74b01b4dc712cdf1fb1220149821cb8a5a9d6f96bdf5194d2af8d"

BGP_DYNAMICS = (
    Path(__file__).parents[1] / "examples" / "faultplans" / "bgp-dynamics.json"
)


def _star_results_digest(path, *flags):
    assert main(["scan", "--seed", "2019", "--n-ases", "40",
                 "--duration", "40", "--quiet", "--json", str(path),
                 *flags]) == 0
    results = json.loads(path.read_text())
    results.pop("provenance")
    return hashlib.sha256(
        json.dumps(results, indent=2).encode()
    ).hexdigest()


def test_star_topology_results_match_pin(tmp_path):
    assert _star_results_digest(tmp_path / "star.json") == STAR_PIN


def test_tiered_bgp_dynamics_results_match_pin(tmp_path):
    digest = _star_results_digest(
        tmp_path / "tiered.json", "--topology", "tiered",
        "--faults", str(BGP_DYNAMICS), "--shards", "4",
    )
    assert digest == TIERED_PIN


def test_star_topology_journal_matches_pins(capsys, tmp_path):
    """Four forked shards give the 1-shard results pin and the journal
    pin."""
    run_dir = tmp_path / "run"
    digest = _star_results_digest(
        tmp_path / "star.json", "--journal", "--run-dir", str(run_dir),
        "--shards", "4",
    )
    assert digest == STAR_PIN
    for shard in range(4):
        artifact = json.loads((run_dir / f"shard-{shard:03d}.json").read_text())
        assert artifact["timings"]["scenario_source"] == "inherited"

    events_path = run_dir / "events.ndjson"
    digest = hashlib.sha256(events_path.read_bytes()).hexdigest()
    assert digest == STAR_JOURNAL_PIN
    events = load_events(events_path)
    validate_events(events)
    kinds = {e["kind"] for e in events}
    assert {"probe.sent", "fabric.path", "auth.query",
            "classify.target"} <= kinds
    capsys.readouterr()
    assert main(["explain", str(run_dir), "--audit"]) == 0
    assert "audit OK" in capsys.readouterr().out
    asn = next(e["asn"] for e in events if e["kind"] == "classify.asn")
    assert main(["explain", str(run_dir), "--asn", str(asn)]) == 0
    assert f"AS{asn}:" in capsys.readouterr().out


def test_explain_missing_journal_errors(capsys, tmp_path):
    """An empty directory is not a run (exit 2); a run made without
    --journal has no journal to explain (exit 1, pointing at the
    flag)."""
    assert main(["explain", str(tmp_path), "--audit"]) == 2
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "no manifest.json" in err
    run_dir = tmp_path / "run"
    assert main(["scan", "--n-ases", "12", "--seed", "3",
                 "--duration", "10", "--workers", "0",
                 "--run-dir", str(run_dir), "--quiet"]) == 0
    capsys.readouterr()
    assert main(["explain", str(run_dir), "--audit"]) == 1
    err = capsys.readouterr().err
    assert "events.ndjson" in err
    assert "--journal" in err


def test_explain_unknown_probe_errors(capsys, journaled_run):
    assert main(["explain", str(journaled_run), "--probe", "0" * 16]) == 1
    assert "not in journal" in capsys.readouterr().err


def test_explain_torn_journal_exits_two_with_one_line(
    capsys, tmp_path, journaled_run
):
    """A torn committed journal fails its digest before any line is
    parsed (``load_index`` names a torn line of a file outside a run:
    ``tests/obs/test_journal.py``)."""
    run_dir = tmp_path / "run"
    shutil.copytree(journaled_run, run_dir)
    events_path = run_dir / "events.ndjson"
    lines = events_path.read_text().splitlines(keepends=True)
    lines[5] = lines[5][: len(lines[5]) // 2] + "\n"
    events_path.write_text("".join(lines))
    assert main(["explain", str(run_dir), "--audit"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert f"{events_path} does not match the digest" in err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_attack():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["attack", "quantum"])


def test_scan_faults_flow(capsys, tmp_path):
    """scan --faults plan.json --retries: plan stored, scan completes."""
    from repro.netsim.faults import BurstLoss, FaultPlan
    from repro.scenarios import MEASUREMENT_ASN

    plan_path = tmp_path / "plan.json"
    FaultPlan(
        seed=3,
        name="cli-burst",
        clauses=[BurstLoss(rate=0.5, src_asn=MEASUREMENT_ASN)],
    ).save(plan_path)
    run_dir = tmp_path / "run"
    assert main(["scan", "--n-ases", "15", "--seed", "3",
                 "--duration", "40", "--workers", "0", "--quiet",
                 "--retries", "2", "--faults", str(plan_path),
                 "--run-dir", str(run_dir)]) == 0
    assert (run_dir / "faults.json").exists()
    import json

    results = json.loads((run_dir / "results.json").read_text())
    resilience = results["provenance"]["resilience"]
    assert resilience["retry_enabled"] is True
    assert resilience["fault_clauses"] == 1


def test_scan_faults_rejects_bad_plan(capsys, tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text("{not json")
    assert main(["scan", "--faults", str(plan_path)]) == 2
    err = capsys.readouterr().err
    assert "--faults" in err
    assert "not valid JSON" in err


def test_scan_resume_rejects_mismatched_flags(capsys, tmp_path):
    """--resume validates explicit flags against the recorded spec and
    fails with a one-line diff naming each contradiction."""
    run_dir = tmp_path / "run"
    assert main(["scan", "--n-ases", "15", "--seed", "3",
                 "--duration", "40", "--workers", "0", "--quiet",
                 "--run-dir", str(run_dir)]) == 0
    capsys.readouterr()

    assert main(["scan", "--resume", str(run_dir),
                 "--seed", "4", "--shards", "2"]) == 2
    err = capsys.readouterr().err
    line = [l for l in err.splitlines() if "spec mismatch" in l]
    assert len(line) == 1  # one-line diff
    assert "seed: run has 3, flag says 4" in line[0]
    assert "shards: run has 1, flag says 2" in line[0]


def test_scan_resume_accepts_matching_flags(capsys, tmp_path):
    run_dir = tmp_path / "run"
    assert main(["scan", "--n-ases", "15", "--seed", "3",
                 "--duration", "40", "--workers", "0", "--quiet",
                 "--run-dir", str(run_dir)]) == 0
    capsys.readouterr()
    # Re-stating the recorded values (or nothing) is fine.
    assert main(["scan", "--resume", str(run_dir), "--seed", "3",
                 "--n-ases", "15", "--quiet"]) == 0


def test_scan_resume_progress_counts_recorded_shards(capsys, tmp_path):
    """A resumed run's progress line counts shards against the spec
    recorded in the run directory, and credits the reused shard's
    penetrations as well as its probes."""
    run_dir = tmp_path / "run"
    out_json = tmp_path / "first.json"
    assert main(["scan", "--n-ases", "15", "--seed", "3",
                 "--duration", "40", "--shards", "2", "--workers", "0",
                 "--quiet", "--run-dir", str(run_dir),
                 "--json", str(out_json)]) == 0
    headline = json.loads(out_json.read_text())["headline"]
    reached = sum(headline[family]["reachable_addresses"]
                  for family in ("v4", "v6"))
    for name in ("shard-001.json", "observations.json", "results.json",
                 "report.txt"):
        (run_dir / name).unlink()
    capsys.readouterr()
    assert main(["scan", "--resume", str(run_dir)]) == 0
    err = capsys.readouterr().err
    progress = [line for line in err.splitlines() if line.startswith("scan:")]
    assert "shards 2/2" in progress[-1]
    assert f"penetrations {reached:,} " in progress[-1]


def test_scan_resume_missing_dir_errors(capsys, tmp_path):
    assert main(["scan", "--resume", str(tmp_path / "nowhere"),
                 "--quiet"]) == 2
    assert_one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "nowhere").exists()


def test_scan_of_a_manifest_without_a_spec_exits_two(capsys, tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    manifest = run / "manifest.json"
    manifest.write_text('{"schema_version": 1, "stages_completed": []}')
    for flags in (["--resume", str(run)], ["--run-dir", str(run)]):
        assert main(["scan", *flags, "--n-ases", "12", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert str(manifest) in err
    assert list(run.iterdir()) == [manifest]
    assert manifest.read_text() == (
        '{"schema_version": 1, "stages_completed": []}'
    )


def test_scan_resume_of_a_finished_run_prints_no_progress(
    capsys, journaled_run, tmp_path
):
    """A run served from disk feeds the progress line nothing, so it
    prints none."""
    run_dir = shutil.copytree(journaled_run, tmp_path / "run")
    assert main(["scan", "--resume", str(run_dir)]) == 0
    err = capsys.readouterr().err
    assert not [line for line in err.splitlines() if "scan:" in line]
    assert (
        "stages skipped (resumed): build, scan, collect, analyze, report"
        in err
    )


def test_scan_topology_tiered_runs_the_pipeline(capsys, tmp_path):
    """--topology tiered routes through the staged pipeline and records
    the spec so resume validation can detect contradictions."""
    import json

    run_dir = tmp_path / "run"
    assert main(["scan", "--n-ases", "15", "--seed", "3",
                 "--duration", "30", "--workers", "0", "--quiet",
                 "--topology", "tiered", "--run-dir", str(run_dir)]) == 0
    capsys.readouterr()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["spec"]["topology"]["kind"] == "tiered"
    assert (run_dir / "results.json").exists()

    # An explicit contradictory topology flag is refused on resume.
    assert main(["scan", "--resume", str(run_dir),
                 "--topology", "star"]) == 2
    err = capsys.readouterr().err
    assert "topology: run has tiered, flag says star" in err


@pytest.fixture(scope="module")
def observatory_cli_base(tmp_path_factory):
    """Two CLI-driven epochs in one ledger dir: same spec, new faults."""
    from repro.netsim.faults import BurstLoss, FaultPlan

    base = tmp_path_factory.mktemp("obs-cli")
    for name, fault_seed in (("epoch-000", 3), ("epoch-001", 11)):
        plan_path = base / f"plan-{fault_seed}.json"
        FaultPlan(
            seed=fault_seed,
            name=f"loss-{fault_seed}",
            clauses=[BurstLoss(rate=0.5)],
        ).save(plan_path)
        assert main(["scan", "--n-ases", "12", "--seed", "3",
                     "--duration", "30", "--workers", "0", "--quiet",
                     "--metrics", "--journal",
                     "--faults", str(plan_path),
                     "--run-dir", str(base / name),
                     "--ledger", str(base)]) == 0
    return base


def test_ledger_command_lists_runs(capsys, observatory_cli_base):
    import json as json_module

    base = observatory_cli_base
    assert main(["ledger", str(base)]) == 0
    out = capsys.readouterr().out
    assert "2 run(s) indexed" in out
    assert "epoch-000" in out and "epoch-001" in out

    assert main(["ledger", str(base), "--json"]) == 0
    payload = json_module.loads(capsys.readouterr().out)
    assert payload["kind"] == "ledger"
    assert len(payload["rows"]) == 2


def test_ledger_rebuild_matches_incremental(capsys, observatory_cli_base):
    base = observatory_cli_base
    before = (base / "ledger.json").read_bytes()
    assert main(["ledger", str(base), "--rebuild"]) == 0
    captured = capsys.readouterr()
    assert "ledger rebuilt: 2 run(s)" in captured.err
    assert (base / "ledger.json").read_bytes() == before


def test_diff_command_flow(capsys, observatory_cli_base):
    import json as json_module

    base = observatory_cli_base
    run_a, run_b = str(base / "epoch-000"), str(base / "epoch-001")

    assert main(["diff", run_a, run_b, "--json"]) == 0
    envelope = json_module.loads(capsys.readouterr().out)
    assert envelope["kind"] == "run-diff"
    assert envelope["empty"] is False
    assert envelope["comparability"]["verdict"] == "comparable"

    # Self-diff: empty envelope renders as *no* stdout at all.
    assert main(["diff", run_a, run_a]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""

    assert main(["diff", run_a, str(base / "nowhere")]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_trend_command_flow(capsys, observatory_cli_base):
    import json as json_module

    base = observatory_cli_base
    assert main(["trend", str(base)]) == 0
    out = capsys.readouterr().out
    assert "lineage" in out
    assert "asn-rate-v4:" in out

    assert main(["trend", str(base), "--json",
                 "--metric", "probes-sent"]) == 0
    envelope = json_module.loads(capsys.readouterr().out)
    assert envelope["kind"] == "trend"
    assert envelope["metric"] == "probes-sent"
    assert envelope["lineages"][0]["runs"] == ["epoch-000", "epoch-001"]

    assert main(["trend", str(base / "epoch-000")]) == 2
    assert "ledger.json" in capsys.readouterr().err


def test_watch_requires_run_artifacts(capsys, tmp_path):
    """Satellite: watch on a non-run dir fails fast with exit 2."""
    assert main(["watch", str(tmp_path), "--once"]) == 2
    err = capsys.readouterr().err
    assert "no manifest.json" in err

    assert main(["watch", str(tmp_path / "gone"), "--once"]) == 2
    assert "not a directory" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# campaign (longitudinal epochs)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def campaign_cli_dir(tmp_path_factory):
    """One small 3-epoch campaign driven entirely through the CLI."""
    base = tmp_path_factory.mktemp("campaign-cli")
    plan = base / "plan.json"
    plan.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "seed": 3,
                "name": "cli-drill",
                "clauses": [
                    {"kind": "resolver-churn", "rate": 0.1},
                    {"kind": "sav-remediation", "rate": 0.2},
                ],
            }
        )
    )
    camp = base / "camp"
    assert main([
        "campaign", "run", str(camp), "--plan", str(plan),
        "--epochs", "3", "--n-ases", "24", "--shards", "2",
        "--duration", "10", "--partition", "modulo", "--quiet",
    ]) == 0
    return camp


def test_campaign_run_produces_epochs_and_ledger(
    capsys, campaign_cli_dir
):
    camp = campaign_cli_dir
    capsys.readouterr()
    for name in ("epoch-000", "epoch-001", "epoch-002"):
        assert (camp / name / "results.json").exists()
    assert (camp / "schedule.json").exists()
    assert (camp / "campaign.json").exists()
    rows = json.loads((camp / "ledger.json").read_text())["rows"]
    assert [row["epoch"] for row in rows] == [0, 1, 2]


def test_campaign_status_and_resume_flow(capsys, campaign_cli_dir):
    camp = campaign_cli_dir
    assert main(["campaign", "status", str(camp)]) == 0
    out = capsys.readouterr().out
    assert "3 done" in out

    assert main(["campaign", "status", str(camp), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["done"] == 3
    assert payload["ledger_digest"]

    assert main(["campaign", "resume", str(camp), "--quiet"]) == 0
    capsys.readouterr()

    assert main(["campaign", "status", str(camp / "missing")]) == 1
    assert "not a campaign directory" in capsys.readouterr().err


def test_campaign_feeds_trend_and_diff(capsys, campaign_cli_dir):
    camp = campaign_cli_dir
    assert main(["trend", str(camp), "--json"]) == 0
    envelope = json.loads(capsys.readouterr().out)
    assert len(envelope["lineages"]) == 1
    lineage = envelope["lineages"][0]
    assert lineage["runs"] == ["epoch-000", "epoch-001", "epoch-002"]
    assert lineage["epochs"] == [0, 1, 2]
    assert lineage["lineage"]

    assert main([
        "diff", str(camp / "epoch-000"), str(camp / "epoch-001"),
        "--json",
    ]) == 0
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["comparability"]["verdict"] == "comparable"
    assert any(
        "evolution lineage" in note
        for note in envelope["comparability"]["notes"]
    )


def test_campaign_rejects_bad_plan(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main([
        "campaign", "run", str(tmp_path / "camp"), "--plan", str(bad),
        "--epochs", "2", "--quiet",
    ]) == 2
    assert "--plan" in capsys.readouterr().err


WHAC_A_MOLE = (
    Path(__file__).parents[1] / "examples" / "evolution" / "whac-a-mole.json"
)

#: Bad ``campaign run`` values, each refused on its own before the
#: campaign directory exists.
CAMPAIGN_BAD_INPUT = {
    "epochs-zero": ["--epochs", "0"],
    "epochs-negative": ["--epochs", "-1"],
    "workers": ["--workers", "-1"],
    "backoff-inf": ["--backoff", "inf"],
    "backoff-nan": ["--backoff", "nan"],
    "deadline-nan": ["--deadline", "nan"],
    "n-ases": ["--n-ases", "2"],
}


@pytest.mark.parametrize(
    "flags", list(CAMPAIGN_BAD_INPUT.values()), ids=list(CAMPAIGN_BAD_INPUT)
)
def test_campaign_run_bad_input_exits_two_with_one_line(
    capsys, tmp_path, flags
):
    camp = tmp_path / "camp"
    assert main([
        "campaign", "run", str(camp), "--plan", str(WHAC_A_MOLE),
        "--epochs", "2", "--n-ases", "12", "--duration", "10", "--quiet",
        *flags,
    ]) == 2
    assert_one_error_line(capsys.readouterr().err)
    assert not camp.exists()


def test_campaign_run_into_a_file_exits_two_with_one_line(capsys, tmp_path):
    [regular_file] = fill_placeholders(["FILE"], tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert main([
        "campaign", "run", regular_file, "--plan", str(WHAC_A_MOLE),
        "--epochs", "2", "--n-ases", "12", "--duration", "10", "--quiet",
    ]) == 2
    assert_one_error_line(capsys.readouterr().err)
    assert sorted(tmp_path.rglob("*")) == before


def test_campaign_resume_refuses_bad_workers(capsys, campaign_cli_dir):
    schedule = (campaign_cli_dir / "schedule.json").read_bytes()
    assert main([
        "campaign", "resume", str(campaign_cli_dir), "--workers", "-1",
    ]) == 2
    assert_one_error_line(capsys.readouterr().err)
    assert (campaign_cli_dir / "schedule.json").read_bytes() == schedule


def test_ledger_with_empty_rows_exits_two(capsys, tmp_path):
    (tmp_path / "ledger.json").write_text(
        json.dumps(
            {"schema_version": 1, "kind": "ledger", "rows": []}
        )
    )
    assert main(["ledger", str(tmp_path)]) == 2
    assert "no rows" in capsys.readouterr().err
    assert main(["trend", str(tmp_path)]) == 2
    assert "no rows" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# drawn flag combinations: valid flags around bad values
# ---------------------------------------------------------------------------


def flag(name: str, values) -> st.SearchStrategy:
    return values.map(lambda value: [name, str(value)])


SCAN_VALID = st.one_of(
    flag("--seed", st.integers(0, 99)),
    flag("--n-ases", st.integers(8, 30)),
    flag("--duration", st.sampled_from([5, 12.5, 40])),
    flag("--shards", st.integers(1, 4)),
    flag("--workers", st.integers(0, 2)),
    flag("--retries", st.integers(0, 3)),
    flag("--topology", st.sampled_from(["star", "tiered"])),
    st.just(["--metrics"]),
    st.just(["--quiet"]),
)

CAMPAIGN_VALID = st.one_of(
    flag("--seed", st.integers(0, 99)),
    flag("--n-ases", st.integers(8, 30)),
    flag("--duration", st.sampled_from([5, 12.5, 40])),
    flag("--shards", st.integers(1, 3)),
    flag("--workers", st.integers(0, 2)),
    flag("--partition", st.sampled_from(["weighted", "modulo"])),
    flag("--failure-policy", st.sampled_from(["abort", "skip"])),
    flag("--max-attempts", st.integers(1, 3)),
    flag("--backoff", st.sampled_from([0, 0.5])),
    flag("--deadline", st.sampled_from([0, 60])),
    flag("--degrade-rate", st.sampled_from([0.25, 1])),
    st.just(["--no-incremental"]),
)


@st.composite
def bad_scan_argv(draw) -> list[str]:
    """Valid ``scan`` flags, then one to three bad values (last, so no
    valid flag overrides one)."""
    argv = ["scan"]
    cases = dict(SCAN_BAD_INPUT)
    if draw(st.booleans()):
        argv += ["--run-dir", "DIR"]
        argv += sum(draw(st.lists(st.sampled_from(
            [["--journal"], ["--snapshots"]]), max_size=2)), [])
    else:
        cases.update(NEEDS_RUN_DIR)
    argv += sum(draw(st.lists(SCAN_VALID, max_size=5)), [])
    bad = draw(st.lists(st.sampled_from(sorted(cases)), min_size=1,
                        max_size=3))
    return argv + sum((cases[name] for name in bad), [])


@st.composite
def bad_campaign_argv(draw) -> list[str]:
    """Valid ``campaign run`` flags, then one to three bad values."""
    argv = ["campaign", "run", "DIR", "--plan", str(WHAC_A_MOLE),
            "--epochs", "2", "--quiet"]
    argv += sum(draw(st.lists(CAMPAIGN_VALID, max_size=5)), [])
    bad = draw(st.lists(st.sampled_from(sorted(CAMPAIGN_BAD_INPUT)),
                        min_size=1, max_size=3))
    return argv + sum((CAMPAIGN_BAD_INPUT[name] for name in bad), [])


def assert_refused_up_front(argv: list[str]) -> None:
    """*argv* exits 2 with one ``error:`` line, starts no scan and
    leaves no directory behind."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = fill_placeholders(argv, tmp)
        before = sorted(tmp.iterdir())
        err = io.StringIO()
        refuse = AssertionError(f"{argv} started a scan")
        with mock.patch.object(compiled, "build_or_load",
                               side_effect=refuse), \
                mock.patch.object(supervisor, "run_pipeline",
                                  side_effect=refuse), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2, argv
        assert_one_error_line(err.getvalue())
        assert sorted(tmp.iterdir()) == before, argv


@settings(max_examples=50, derandomize=True, deadline=None)
@given(argv=bad_scan_argv())
def test_drawn_bad_scan_flags_exit_two_with_one_line(argv):
    assert_refused_up_front(argv)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(argv=bad_campaign_argv())
def test_drawn_bad_campaign_flags_exit_two_with_one_line(argv):
    assert_refused_up_front(argv)

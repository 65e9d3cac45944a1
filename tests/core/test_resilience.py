"""Chaos-fabric resilience: retry recovery under injected loss, the
zero-fault identity guarantee, shard-count invariance of faulted runs,
and crash-tolerant shard scanning.

Campaigns here are small (40 ASes, 40 simulated seconds) but real: the
expensive baselines run once per module and are shared read-only.
"""

import io
import json
import time
from dataclasses import replace

import pytest

from repro.core import ScanConfig, pipeline
from repro.core.pipeline import (
    MIN_HANG_TIMEOUT,
    CampaignSpec,
    PartialScanError,
    PipelineError,
    _split_budget,
    resume_pipeline,
    run_pipeline,
)
from repro.netsim.faults import (
    BurstLoss,
    Duplicate,
    FaultPlan,
    Reorder,
    ShardCrash,
)
from repro.obs.export import deterministic_counters
from repro.obs.progress import ProgressReporter
from repro.obs.stream import RunStream, validate_stream_events
from repro.obs.watch import run_watch
from repro.scenarios import MEASUREMENT_ASN

SEED = 7
N_ASES = 40
DURATION = 40.0

#: Outbound burst loss on the measurement AS: every probe (but nothing
#: else) flips a 50/50 coin, so single-shot scans visibly under-count
#: while retried scans recover nearly everything.
BURST_PLAN = FaultPlan(
    seed=3,
    name="outbound-burst",
    clauses=[BurstLoss(rate=0.5, src_asn=MEASUREMENT_ASN)],
)


def spec_for(
    *, shards=1, retries=0, faults=None, journal=False, retry_budget=None,
    metrics=False,
) -> CampaignSpec:
    return CampaignSpec.from_scan_config(
        seed=SEED,
        n_ases=N_ASES,
        shards=shards,
        config=ScanConfig(
            duration=DURATION,
            max_retries=retries,
            retry_budget=retry_budget,
        ),
        metrics=metrics,
        journal=journal,
        faults=faults.to_payload() if faults is not None else None,
    )


def reach(results: dict) -> int:
    headline = results["headline"]
    return (
        headline["v4"]["reachable_addresses"]
        + headline["v6"]["reachable_addresses"]
    )


def minus_provenance(results: dict) -> dict:
    return {k: v for k, v in results.items() if k != "provenance"}


def scenario_sources(run_dir, shards: int = 4) -> set[str]:
    """How each shard's worker obtained its world (shard timings)."""
    return {
        json.loads((run_dir / f"shard-{i:03d}.json").read_text())[
            "timings"
        ]["scenario_source"]
        for i in range(shards)
    }


@pytest.fixture(scope="module")
def baseline():
    """The lossless (builtin 10% loss only) single-shot campaign."""
    return run_pipeline(spec_for(), workers=0).results


@pytest.fixture(scope="module")
def faulted_no_retry():
    return run_pipeline(spec_for(faults=BURST_PLAN), workers=0).results


@pytest.fixture(scope="module")
def faulted_retry():
    return run_pipeline(
        spec_for(faults=BURST_PLAN, retries=3), workers=0
    ).results


# -- retry recovery under injected loss ------------------------------------


def test_retries_recover_most_of_the_baseline(
    baseline, faulted_no_retry, faulted_retry
):
    """The acceptance criterion: under the canned burst-loss plan the
    retry-enabled run recovers >= 95% of the lossless baseline's
    penetrations, while the single-shot run demonstrably does not."""
    assert reach(faulted_retry) >= 0.95 * reach(baseline)
    assert reach(faulted_no_retry) < 0.90 * reach(baseline)


def test_retry_accounting_in_provenance(faulted_no_retry, faulted_retry):
    disabled = faulted_no_retry["provenance"]["resilience"]
    assert disabled["retry_enabled"] is False
    assert disabled["probes_retransmitted"] == 0
    assert disabled["fault_clauses"] == 1

    enabled = faulted_retry["provenance"]["resilience"]
    assert enabled["retry_enabled"] is True
    assert enabled["probes_retransmitted"] > 0
    assert enabled["retries_recovered"] > 0
    # Pairs that stay silent through every retransmission: with loss
    # at 50% and 4 independent attempts, a non-answer is ~94% likely
    # to be filtering, not loss — that is the disambiguation signal.
    assert enabled["retries_exhausted"] > 0
    assert enabled["retries_shed"] == 0


def test_zero_budget_sheds_every_retry(faulted_no_retry):
    """A zero retry budget degrades gracefully to single-shot fates:
    first-attempt probes are never shed, retries always are."""
    results = run_pipeline(
        spec_for(faults=BURST_PLAN, retries=3, retry_budget=0), workers=0
    ).results
    resilience = results["provenance"]["resilience"]
    assert resilience["probes_retransmitted"] == 0
    assert resilience["retries_shed"] > 0
    assert minus_provenance(results) == minus_provenance(faulted_no_retry)


def test_split_budget_is_exact_and_deterministic():
    shares = _split_budget(100, [3, 1, 1, 1])
    assert sum(shares) == 100
    assert shares == _split_budget(100, [3, 1, 1, 1])
    assert shares[0] == 50
    assert _split_budget(10, [0, 0]) == [0, 0]
    # Largest-remainder: no share drifts more than 1 from exact.
    for budget, weights in ((7, [1, 1, 1]), (11, [5, 3, 2, 1])):
        shares = _split_budget(budget, weights)
        assert sum(shares) == budget
        total = sum(weights)
        for share, weight in zip(shares, weights):
            assert abs(share - budget * weight / total) < 1


# -- identity guarantees ---------------------------------------------------


def test_zero_fault_plan_is_byte_identical_to_no_plan(baseline):
    """An installed-but-empty plan with retries off changes nothing:
    results.json is byte-identical to the unfaulted run."""
    results = run_pipeline(
        spec_for(faults=FaultPlan(name="zero")), workers=0
    ).results
    assert json.dumps(minus_provenance(results), indent=2) == json.dumps(
        minus_provenance(baseline), indent=2
    )
    assert "resilience" not in results["provenance"]


def test_faulted_retried_run_is_shard_invariant(tmp_path):
    """Byte-identical results.json *and* events.ndjson, and equal
    deterministic telemetry counters, 1 vs 4 shards, under a plan
    composing loss, reordering, and duplication plus the full retry
    machinery."""
    plan = FaultPlan(
        seed=3,
        name="chaos",
        clauses=[
            BurstLoss(rate=0.5, src_asn=MEASUREMENT_ASN),
            Reorder(rate=0.2, jitter=0.3),
            Duplicate(rate=0.1, delay=0.05),
        ],
    )
    artifacts = {}
    for shards in (1, 4):
        run_dir = tmp_path / f"shards-{shards}"
        outcome = run_pipeline(
            spec_for(shards=shards, retries=3, faults=plan, journal=True,
                     metrics=True),
            run_dir=run_dir,
            workers=0,
        )
        results = json.loads((run_dir / "results.json").read_text())
        results.pop("provenance")
        artifacts[shards] = (
            json.dumps(results, indent=2),
            (run_dir / "events.ndjson").read_bytes(),
            deterministic_counters(outcome.telemetry),
        )
    assert artifacts[1][0] == artifacts[4][0]
    assert artifacts[1][1] == artifacts[4][1]
    assert artifacts[1][2] == artifacts[4][2]
    assert artifacts[1][2]["scan_probes_retransmitted_total"][0][1] > 0


def test_faults_json_artifact_written(tmp_path):
    run_dir = tmp_path / "run"
    run_pipeline(
        spec_for(faults=BURST_PLAN), run_dir=run_dir, workers=0
    )
    stored = FaultPlan.load(run_dir / "faults.json")
    assert stored == BURST_PLAN


# -- crash-tolerant shard scanning -----------------------------------------


def crash_spec(clause: ShardCrash) -> CampaignSpec:
    return spec_for(
        shards=4, faults=FaultPlan(name="crash", clauses=[clause])
    )


def assert_progress_matches_run(progress, outcome, run_dir) -> None:
    """The live totals end on the run's own counts: a re-executed
    shard replaces its crashed attempt, and no heartbeat file exists."""
    scheduled = sum(
        json.loads((run_dir / f"shard-{i:03d}.json").read_text())[
            "metadata"
        ]["probes_scheduled"]
        for i in range(4)
    )
    assert progress.planned == scheduled
    assert progress.sent == outcome.results["provenance"]["probes_sent"]
    assert progress.shards_done == 4
    assert not list(run_dir.glob("heartbeat-*"))


def test_inline_crash_reexecutes_only_the_dead_shard(baseline, tmp_path):
    run_dir = tmp_path / "run"
    progress = ProgressReporter(io.StringIO(), total_shards=4)
    outcome = run_pipeline(
        crash_spec(ShardCrash(shard=1, after_probes=50, mode="kill")),
        run_dir=run_dir,
        workers=0,  # inline: kill downgrades to the catchable raise
        progress=progress,
    )
    assert outcome.scan_stats == {0: 1, 1: 2, 2: 1, 3: 1}
    assert list(run_dir.glob("crash-001-*.marker"))
    # Inline shards build private worlds; nothing is serialized.
    assert scenario_sources(run_dir) == {"built"}
    assert not (run_dir / "scenario.bin").exists()
    # Crash clauses never touch packet fates: the recovered run merges
    # to exactly the crash-free campaign.
    assert minus_provenance(outcome.results) == minus_provenance(baseline)
    assert_progress_matches_run(progress, outcome, run_dir)


def test_sigkilled_pool_worker_is_detected_and_reexecuted(
    baseline, tmp_path
):
    """The acceptance criterion: a SIGKILLed shard worker is detected,
    the shard re-executes, and the merged artifacts are unchanged."""
    run_dir = tmp_path / "run"
    progress = ProgressReporter(io.StringIO(), total_shards=4)
    outcome = run_pipeline(
        crash_spec(ShardCrash(shard=1, after_probes=50, mode="kill")),
        run_dir=run_dir,
        workers=2,
        progress=progress,
    )
    assert outcome.scan_stats[1] >= 2  # the dead shard re-executed
    assert list(run_dir.glob("crash-001-*.marker"))
    # Forked workers inherit the parent's world; nothing is serialized.
    assert scenario_sources(run_dir) == {"inherited"}
    assert not (run_dir / "scenario.bin").exists()
    assert minus_provenance(outcome.results) == minus_provenance(baseline)
    assert_progress_matches_run(progress, outcome, run_dir)


def test_hung_worker_is_reaped_and_reexecuted(baseline, tmp_path):
    run_dir = tmp_path / "run"
    outcome = run_pipeline(
        crash_spec(ShardCrash(shard=1, after_probes=50, mode="hang")),
        run_dir=run_dir,
        workers=2,
        hang_timeout=3.0,
    )
    assert outcome.scan_stats[1] >= 2
    assert minus_provenance(outcome.results) == minus_provenance(baseline)


def _slow_start_shard_main(job, conn) -> None:
    """A shard worker whose start-up outlasts the smallest hang
    timeout, as a spawned worker's interpreter start can on a loaded
    host."""
    time.sleep(MIN_HANG_TIMEOUT + 0.5)
    pipeline._fork_shard_main(job, conn)


def test_slow_spawned_start_up_is_not_reaped(tmp_path, monkeypatch):
    """A worker's hang clock starts at its first report, so start-up
    slower than the smallest hang timeout never reaps a healthy
    spawned worker."""
    monkeypatch.setattr(pipeline, "_START_METHOD", "spawn")
    monkeypatch.setattr(pipeline, "_fork_shard_main", _slow_start_shard_main)
    spec = CampaignSpec.from_scan_config(
        seed=SEED, n_ases=8, shards=2, config=ScanConfig(duration=DURATION)
    )
    outcome = run_pipeline(
        spec,
        run_dir=tmp_path / "run",
        workers=2,
        hang_timeout=MIN_HANG_TIMEOUT,
    )
    assert outcome.scan_stats == {0: 1, 1: 1}


def test_exhausted_shard_raises_partial_and_resumes(baseline, tmp_path):
    """A shard that crashes on every allowed attempt fails the run with
    exit-code-3 semantics and persisted survivor artifacts; a resume
    (the crash clause now spent) completes only the dead shard.  The
    parent closes the dead shard's stream, so a watcher of the failed
    run ends, and the resume appends the shard's completing attempt."""
    run_dir = tmp_path / "run"
    spec = replace(
        crash_spec(
            ShardCrash(shard=2, after_probes=50, times=3, mode="raise")
        ),
        stream=True,
    )
    with pytest.raises(PartialScanError) as excinfo:
        run_pipeline(spec, run_dir=run_dir, workers=0)
    assert excinfo.value.failed_shards == [2]
    assert excinfo.value.exit_code == 3
    assert isinstance(excinfo.value, PipelineError)
    persisted = {p.name for p in run_dir.glob("shard-*.json")}
    assert persisted == {
        "shard-000.json", "shard-001.json", "shard-003.json"
    }
    stream = RunStream(run_dir)
    events = stream.poll()
    assert stream.finished()
    last = [e for e in events if e["shard"] == 2][-1]
    assert last["kind"] == "stream.close"
    assert last["status"].startswith("failed: ")
    assert run_watch(
        run_dir, json_mode=True, interval=0.01, out=io.StringIO()
    ) == 0

    outcome = resume_pipeline(run_dir, workers=0)
    assert outcome.scan_stats == {0: 0, 1: 0, 2: 1, 3: 0}
    assert minus_provenance(outcome.results) == minus_provenance(baseline)
    events = RunStream(run_dir).poll()
    validate_stream_events(events)
    shard_2 = [e for e in events if e["shard"] == 2]
    assert [e["kind"] for e in shard_2].count("stream.open") == 4
    assert shard_2[-1]["kind"] == "stream.close"
    assert shard_2[-1]["status"] == "complete"

"""The 10^5-resolver campaign: scale acceptance for the staged pipeline.

Builds a paper-scale synthetic Internet — large enough to hold at least
100,000 recursive resolvers — and drives it through the sharded
pipeline end to end: one parent build, fork-shared workers,
probe-weighted partitioning, and the skip-ahead event loop.  The point
is not a micro-number but an existence proof with receipts: the
campaign completes, the artifacts merge, and the wall cost of every
stage is recorded in ``BENCH_scale.json`` at the repo root.

This is by far the heaviest benchmark in the suite (minutes, not
seconds); deselect it with ``-k "not scale_campaign"`` for quick bench
runs.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core import ScanConfig
from repro.core.pipeline import CampaignSpec, run_pipeline
from repro.scenarios.compiled import serialize_scenario

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_scale.json"

SEED = 2019
#: ~6.3 resolvers materialize per AS, so 16,000 ASes clears 10^5.
N_ASES = 16_000
RESOLVER_FLOOR = 100_000
DURATION = 240.0
SHARDS = 4


def test_bench_scale_campaign(emit, tmp_path):
    spec = CampaignSpec.from_scan_config(
        seed=SEED,
        n_ases=N_ASES,
        shards=SHARDS,
        config=ScanConfig(duration=DURATION),
    )
    run_dir = tmp_path / "scale-run"
    start = time.perf_counter()
    outcome = run_pipeline(spec, run_dir=run_dir)
    wall = time.perf_counter() - start

    # Run directories hold no scenario artifact: serialize the parent's
    # world, after the clock, for the size one would take.
    scenario = outcome.campaign.scenario
    resolvers = len(scenario.ground_truth.resolvers)
    artifact_bytes = len(serialize_scenario(scenario))
    assert resolvers >= RESOLVER_FLOOR, (
        f"scenario holds {resolvers} resolvers, wanted >= {RESOLVER_FLOOR}"
    )

    shard_timings = []
    for shard_id in range(SHARDS):
        artifact = json.loads(
            (run_dir / f"shard-{shard_id:03d}.json").read_text()
        )
        timings = artifact["timings"]
        shard_timings.append(
            {
                "shard": shard_id,
                "scenario_source": timings["scenario_source"],
                "acquire_seconds": round(timings["acquire_seconds"], 4),
                "scan_seconds": round(timings["scan_seconds"], 2),
                "probes": artifact["metadata"]["probes_scheduled"],
            }
        )
    scan_walls = [st["scan_seconds"] for st in shard_timings]

    probes = outcome.results["probes"]
    headline = outcome.results["headline"]
    targets = (
        headline["v4"]["targeted_addresses"]
        + headline["v6"]["targeted_addresses"]
    )
    result = {
        "harness": (
            f"seed={SEED}, n_ases={N_ASES}, shards={SHARDS}, "
            f"ScanConfig(duration={DURATION}), staged pipeline with "
            "build-once scenario sharing and probe-weighted partitioning"
        ),
        "cpu_count": os.cpu_count() or 1,
        "resolvers": resolvers,
        "targets": targets,
        "probes": probes,
        "wall_seconds": round(wall, 1),
        "probes_per_sec": round(probes / wall, 1),
        "scenario_source": outcome.scenario_source,
        "scenario_artifact_bytes": artifact_bytes,
        "shard_timings": shard_timings,
        "shard_scan_balance": (
            round(min(scan_walls) / max(scan_walls), 3)
            if max(scan_walls) > 0
            else None
        ),
        "headline_v4_asn_rate": round(
            outcome.results["headline"]["v4"]["asn_rate"], 4
        ),
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    lines = [
        "10^5-resolver campaign (staged pipeline, 4 shards)",
        "",
        f"resolvers: {resolvers:,}  targets: {result['targets']:,}  "
        f"probes: {probes:,}",
        f"wall: {result['wall_seconds']}s  "
        f"({result['probes_per_sec']:,.0f} probes/s)",
    ]
    for st in shard_timings:
        lines.append(
            f"    shard {st['shard']}: {st['probes']:,} probes, "
            f"scenario {st['scenario_source']} "
            f"({st['acquire_seconds']}s), scan {st['scan_seconds']}s"
        )
    emit("scale_campaign", "\n".join(lines))

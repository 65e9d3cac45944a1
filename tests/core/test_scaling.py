"""Scaling invariants: the fast paths must be invisible in the artifacts.

Every performance lever this pipeline grew — the skip-ahead event loop,
probe-weighted partitioning, build-once scenario sharing, the scenario
cache — is only admissible because the run artifacts stay byte-identical
to the slow path.  These tests pin that equivalence on a faulted,
journaled, 4-shard campaign.
"""

import json
from dataclasses import asdict

import pytest

from repro.core import pipeline
from repro.core.pipeline import CampaignSpec, run_pipeline
from repro.core.scanner import ScanConfig

SEED = 13
N_ASES = 24
DURATION = 40.0

FAULTS = {
    "schema_version": 1,
    "seed": 3,
    "name": "scaling",
    "clauses": [
        {"kind": "burst-loss", "rate": 0.2},
        {"kind": "reorder", "rate": 0.1, "jitter": 0.2},
    ],
}


def spec_with(*, skip_ahead: bool, shards: int = 4, partition: str = "weighted"):
    # max_retries without a retry budget: budget-free retry handling is
    # the configuration under which shard merges are order-independent.
    config = ScanConfig(
        duration=DURATION, max_retries=1, skip_ahead=skip_ahead
    )
    return CampaignSpec(
        seed=SEED,
        n_ases=N_ASES,
        shards=shards,
        partition=partition,
        journal=True,
        faults=FAULTS,
        scan=asdict(config),
    )


def run(tmp_path, name, spec, **kwargs):
    run_dir = tmp_path / name
    run_pipeline(spec, run_dir=run_dir, workers=0, **kwargs)
    results = json.loads((run_dir / "results.json").read_text())
    del results["provenance"]
    events = (run_dir / "events.ndjson").read_bytes()
    return results, events


@pytest.fixture(scope="module")
def sparse_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scaling")
    return run(tmp, "sparse", spec_with(skip_ahead=True))


class TestSkipAheadEquivalence:
    """Satellite: sparse and dense loops produce identical artifacts."""

    def test_dense_loop_matches(self, sparse_run, tmp_path):
        dense = run(tmp_path, "dense", spec_with(skip_ahead=False))
        assert dense[0] == sparse_run[0]
        assert dense[1] == sparse_run[1]

    def test_single_shard_matches(self, sparse_run, tmp_path):
        single = run(tmp_path, "single", spec_with(skip_ahead=True, shards=1))
        assert single[0] == sparse_run[0]
        assert single[1] == sparse_run[1]

    def test_modulo_partition_matches(self, sparse_run, tmp_path):
        modulo = run(
            tmp_path,
            "modulo",
            spec_with(skip_ahead=True, partition="modulo"),
        )
        assert modulo[0] == sparse_run[0]
        assert modulo[1] == sparse_run[1]


class TestScenarioCacheEquivalence:
    """Satellite: a cache-hit run is byte-identical to a cold build."""

    def test_warm_run_matches_cold(self, sparse_run, tmp_path):
        cache = tmp_path / "cache"
        cold = run(
            tmp_path, "cold", spec_with(skip_ahead=True), scenario_cache=cache
        )
        assert list(cache.glob("scenario-*.bin")), "cold run must fill cache"
        warm = run(
            tmp_path, "warm", spec_with(skip_ahead=True), scenario_cache=cache
        )
        assert cold[0] == sparse_run[0]
        assert warm[0] == cold[0]
        assert warm[1] == cold[1]


def test_weighted_partition_balances_probes(tmp_path):
    """LPT partitioning must spread planned probes across shards."""
    spec = spec_with(skip_ahead=True)
    run_dir = tmp_path / "balance"
    run_pipeline(spec, run_dir=run_dir, workers=0)
    planned = [
        json.loads((run_dir / f"shard-{i:03d}.json").read_text())["metadata"][
            "probes_scheduled"
        ]
        for i in range(4)
    ]
    assert sum(planned) > 0
    # The heaviest shard may exceed the lightest by at most the largest
    # single AS; for this world that is far under 2x.
    assert max(planned) < 2 * min(planned)


def shard_source(run_dir, shard_id: int) -> str:
    artifact = json.loads((run_dir / f"shard-{shard_id:03d}.json").read_text())
    return artifact["timings"]["scenario_source"]


def test_spawned_workers_build_their_own_world(tmp_path, monkeypatch):
    """Where the platform cannot fork, workers start by spawn, inherit
    nothing, and build private worlds that scan byte-identically."""
    monkeypatch.setattr(pipeline, "_START_METHOD", "spawn")
    spec = CampaignSpec.from_scan_config(
        seed=SEED, n_ases=8, shards=2, config=ScanConfig(duration=DURATION)
    )
    run_dir = tmp_path / "spawned"
    spawned = run_pipeline(spec, run_dir=run_dir, workers=2)
    inline = run_pipeline(spec, workers=0)
    assert spawned.scan_stats == {0: 1, 1: 1}
    assert [shard_source(run_dir, i) for i in range(2)] == ["built"] * 2
    spawned.results.pop("provenance")
    inline.results.pop("provenance")
    assert json.dumps(spawned.results, indent=2) == json.dumps(
        inline.results, indent=2
    )


#: Shard-cache entry names for three 4-shard specs.  Caches written by
#: earlier releases must keep hitting, so these keys must never move.
CACHE_SPECS = {
    "modulo": ({"partition": "modulo"}, {}),
    "weighted": ({"partition": "weighted"}, {}),
    "modulo-sampled-census": (
        {"partition": "modulo", "asn_sample": {"rate": 0.7, "seed": 5}},
        {"max_rate": 40.0},
    ),
}
CACHE_NAMES = {
    "modulo": [
        "a7a89750931f99cb4547fac219636e6efa2dd88434cc8bce243468b2c8d85c33",
        "ab507727db5585153caa50d762db585277b0899e4f53a8c29e31ccca7551a560",
        "ce4e4d8c9bdff6933f0e54818b5fea43c8546030f5851346802e4985b67188c9",
        "e41076be32bc41e03550185485666fc2327d6093d8278bcf750350ff11df35b9",
    ],
    "weighted": [
        "7fc35e724e46de47d567006c82714bf1ddac6adca623abb452bcc30bb9cb0ce8",
        "9c12264cf8ae35d07579224e5a4132646bbffad6088be4d767ee4808b955cad7",
        "d6ee2c56077e1693f3be155e8377fe3ed521782a8e7e728cd8a6e6882e701dc6",
        "dfddb2c2d421b6be44a2c2289779f57a6cc2b8edc796efa46694db045a9b9de5",
    ],
    "modulo-sampled-census": [
        "30b8dcaf23d284b397faf1e0363384147c8eda840c58d332d70baeaeb4dff14e",
        "3da24d04763dbc44bc9bae676fe3d8055a6cb51fe7aea2093971a3f3e40224d0",
        "a0504827a6e959a88f19d0b29e16bdeabeb85f7bc41b8c68006b1848e07f74b3",
        "e5778091e010f7246686de36e412e3fa4bb236e112cc32972ce36a019fa76797",
    ],
}


@pytest.mark.parametrize("name", sorted(CACHE_SPECS))
def test_shard_cache_keys_are_stable(tmp_path, name):
    fields, scan = CACHE_SPECS[name]
    spec = CampaignSpec.from_scan_config(
        seed=11,
        n_ases=16,
        shards=4,
        config=ScanConfig(duration=20.0, **scan),
        **fields,
    )
    cache = tmp_path / "cache"
    run_pipeline(
        spec, run_dir=tmp_path / "run", workers=0, shard_cache=cache
    )
    names = sorted(path.name for path in cache.iterdir())
    assert names == [f"shard-{key}.json" for key in CACHE_NAMES[name]]

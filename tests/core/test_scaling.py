"""Scaling paths: spawned workers, the shard-cache keys that caches
written by earlier releases hit, and the skip-ahead loop's shard
equivalence on the matrix world (``tests/conftest.py``).

Dense loop, partition and the scenario cache are cells of
``tests/invariants/test_matrix.py``.
"""

import json

import pytest

from repro.core import pipeline
from repro.core.pipeline import CampaignSpec, run_pipeline
from repro.core.scanner import ScanConfig

SEED = 13
DURATION = 40.0


def shard_source(run_dir, shard_id: int) -> str:
    artifact = json.loads((run_dir / f"shard-{shard_id:03d}.json").read_text())
    return artifact["timings"]["scenario_source"]


class TestSkipAheadEquivalence:
    """The skip-ahead loop's artifacts do not depend on the sharding."""

    def test_single_shard_matches(self, cell, reference):
        single = cell("shards=1")
        assert single.results() == reference.results()
        assert single.journal() == reference.journal()


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

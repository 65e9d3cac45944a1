"""Compiled-scenario artifacts: round trips, cache behaviour, and the
cross-process hash-salt regression.

The artifact is the backbone of build-once scenario sharing: the
pipeline parent serializes the built world exactly once and every
consumer — forked worker, resumed run, cache hit — must observe a world
that scans byte-identically to a fresh build.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.scanner import ScanConfig
from repro.scenarios import (
    SCENARIO_SCHEMA_VERSION,
    ScenarioArtifactError,
    ScenarioCache,
    ScenarioParams,
    build_internet,
    build_or_load,
    content_key,
    deserialize_scenario,
    load_scenario,
    serialize_scenario,
    write_scenario,
)
from repro.scenarios.compiled import read_artifact_header

PARAMS = ScenarioParams(seed=11, n_ases=10)


@pytest.fixture(scope="module")
def scenario():
    return build_internet(PARAMS)


@pytest.fixture(scope="module")
def blob(scenario):
    return serialize_scenario(scenario)


def scan_payload(s):
    """Canonical collection payload of a short scan over *s*."""
    scanner, collector = s.make_scanner(ScanConfig(duration=60.0))
    scanner.schedule_campaign()
    s.fabric.loop.run()
    collector.canonicalize()
    return json.dumps(collector.to_payload(), sort_keys=True, default=str)


# -- round trip -------------------------------------------------------------


class TestRoundTrip:
    def test_header_describes_the_world(self, scenario, blob):
        header = read_artifact_header(blob)
        assert header["schema_version"] == SCENARIO_SCHEMA_VERSION
        assert header["content_key"] == content_key(PARAMS)
        assert header["seed"] == PARAMS.seed
        assert header["n_ases"] == PARAMS.n_ases
        assert header["resolvers"] == len(scenario.ground_truth.resolvers)

    def test_loaded_world_scans_identically(self, blob):
        loaded = deserialize_scenario(blob)
        assert scan_payload(loaded) == scan_payload(build_internet(PARAMS))

    def test_file_round_trip(self, scenario, tmp_path):
        path = tmp_path / "scen.bin"
        write_scenario(path, scenario)
        loaded = load_scenario(path, expect_key=content_key(PARAMS))
        assert loaded.params == PARAMS
        assert len(loaded.ground_truth.resolvers) == len(
            scenario.ground_truth.resolvers
        )

    def test_wrong_key_is_refused(self, blob):
        with pytest.raises(ScenarioArtifactError, match="different parameters"):
            deserialize_scenario(blob, expect_key="0" * 64)

    def test_corrupt_payload_is_refused(self, blob):
        with pytest.raises(ScenarioArtifactError, match="digest"):
            deserialize_scenario(blob[:-10] + b"corruption")

    def test_garbage_is_refused(self):
        with pytest.raises(ScenarioArtifactError):
            deserialize_scenario(b"not an artifact\npayload")


def test_loaded_names_hash_like_fresh_names(tmp_path):
    """Regression: a memoized ``Name`` hash must not cross processes.

    Tuple hashes are salted per process (PYTHONHASHSEED), so an artifact
    written under one salt used to carry stale name hashes that silently
    missed in every zone dict of the loading process — the world scanned
    but every query came back NXDOMAIN.  Write the artifact under two
    different explicit salts and require the loaded world to scan
    identically to a locally built one.
    """
    script = (
        "from repro.scenarios import ScenarioParams, build_internet, "
        "write_scenario\n"
        "import sys\n"
        "write_scenario(sys.argv[1], "
        "build_internet(ScenarioParams(seed=11, n_ases=10)))\n"
    )
    baseline = scan_payload(build_internet(PARAMS))
    for salt in ("1", "4242"):
        path = tmp_path / f"scen-{salt}.bin"
        env = dict(os.environ, PYTHONHASHSEED=salt)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        subprocess.run(
            [sys.executable, "-c", script, str(path)],
            check=True,
            env=env,
        )
        loaded = load_scenario(path, expect_key=content_key(PARAMS))
        assert scan_payload(loaded) == baseline


# -- cache ------------------------------------------------------------------


class TestScenarioCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ScenarioCache(tmp_path / "cache")
        assert cache.get_bytes(PARAMS) is None
        scenario, blob, source = build_or_load(PARAMS, cache=cache)
        assert source == "built"
        assert blob is not None
        assert cache.get_bytes(PARAMS) == blob
        again, blob2, source2 = build_or_load(PARAMS, cache=cache)
        assert source2 == "cache"
        assert blob2 == blob
        assert again.params == scenario.params

    def test_spec_change_invalidates(self, tmp_path):
        cache = ScenarioCache(tmp_path / "cache")
        build_or_load(PARAMS, cache=cache)
        changed = ScenarioParams(seed=PARAMS.seed + 1, n_ases=PARAMS.n_ases)
        assert content_key(changed) != content_key(PARAMS)
        assert cache.get_bytes(changed) is None
        _, _, source = build_or_load(changed, cache=cache)
        assert source == "built"

    def test_corrupt_entry_evicted(self, tmp_path):
        cache = ScenarioCache(tmp_path / "cache")
        _, blob, _ = build_or_load(PARAMS, cache=cache)
        entry = cache.entry_path(content_key(PARAMS))
        entry.write_bytes(blob[: len(blob) // 2])
        assert cache.get_bytes(PARAMS) is None
        assert not entry.exists()

    def test_no_cache_means_no_bytes(self):
        scenario, blob, source = build_or_load(PARAMS, cache=None)
        assert source == "built"
        assert blob is None
        assert scenario.params == PARAMS


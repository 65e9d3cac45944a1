"""The contract, checked once: how a scan is executed never changes what
it finds.

Each cell of the matrix flips one toggle of the reference run (see the
matrix world in ``tests/conftest.py``) and must reproduce the
reference's results minus provenance, its ``events.ndjson`` bytes, its
deterministic telemetry counters and its folded deterministic stream
deltas, for each observer both runs keep.  An observer a cell turns off
leaves no artifact.  The incremental shard cache holds the same contract
in ``test_incremental_matches_full_rescan``
(``tests/campaigns/test_supervisor.py``).
"""

import pstats

import pytest

from repro.obs.stream import STREAM_FILE

from ..conftest import CELLS, Cell, shard_artifact

#: The artifact each observer leaves, and what the matrix compares.
OBSERVERS = {
    "metrics": ("telemetry.json", Cell.counters),
    "journal": ("events.ndjson", Cell.journal),
    "stream": (STREAM_FILE, Cell.stream_deltas),
}


@pytest.mark.parametrize("name", list(CELLS))
def test_cell_matches_reference(name, reference, cell):
    run = cell(name)
    toggles = run.toggles
    assert run.results() == reference.results()
    assert (run.outcome.telemetry is not None) == toggles["metrics"]
    for observer, (artifact, observed) in OBSERVERS.items():
        on = toggles[observer]
        assert (run.run_dir / artifact).exists() == on
        if on:
            assert observed(run) == observed(reference), observer

    # The cell took the path its toggles name, so it compared something.
    assert run.outcome.scenario_source == (
        "cache" if toggles["scenario_cache"] else "built"
    )
    sources = {
        shard_artifact(run.run_dir, i)["timings"]["scenario_source"]
        for i in range(toggles["shards"])
    }
    assert sources == {"inherited" if toggles["workers"] else "built"}
    profiles = sorted(run.run_dir.glob("profile-*.pstats"))
    assert [p.name for p in profiles] == [
        f"profile-{i:03d}.pstats"
        for i in range(toggles["shards"] if toggles["profile"] else 0)
    ]
    for path in profiles:
        assert pstats.Stats(str(path)).total_calls > 0


def test_reference_compares_something_real(reference, cell):
    """Guards against a matrix that passes because nothing happened."""
    slice_ = reference.counters()
    assert slice_["scan_probes_retransmitted_total"][0][1] > 0
    assert any(name.startswith("fabric_drops_total") for name in slice_)
    headline = reference.outcome.results["headline"]
    assert headline["v4"]["reachable_addresses"] > 0
    assert headline["v6"]["reachable_addresses"] > 0
    assert reference.journal().count(b"\n") > 0

    # LPT weighting balances planned probes: the heaviest shard may
    # exceed the lightest by at most the largest single AS.
    weighted = reference.planned()
    assert min(weighted) > 0 and max(weighted) < 2 * min(weighted)
    assert weighted != cell("partition=modulo").planned()

    cache = reference.run_dir.parent / "scenario-cache"
    assert len(list(cache.glob("scenario-*.bin"))) == 1

"""Performance floors: the four gates a hot path must not fall through.

Performance is measured by ``perfbench/``; these tests only fail a
build when a hot path drops below a floor.  Each floor is a ratio
taken within one process, or a rate or time limit far from what the
code achieves, so it holds on any machine that runs the suite.  Seeds,
sizes, counts and thresholds are fixed, and nothing is written to disk.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_floors.py \\
        --override-ini=testpaths=benchmarks -q
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.core import ScanConfig
from repro.core.pipeline import CampaignSpec, run_pipeline
from repro.netsim.routing import PolicyView
from repro.netsim.topology import TopologySpec, generate_topology
from repro.scenarios import ScenarioParams, build_internet

#: Probes/s of the 240-AS scan before the compiled LPM and the
#: streaming scheduler landed.
PRE_REWORK_PROBES_PER_SEC = 555


@pytest.mark.parametrize("n_ases", [120, 240])
def test_compiled_lpm_beats_the_trie_walk(n_ases):
    """The compiled interval lookup is >= 5x the radix-trie walk it
    replaced (``lookup_uncompiled``), over the same 20,000 lookups."""
    scenario = build_internet(ScenarioParams(seed=7, n_ases=n_ases))
    routes = scenario.fabric.routes
    addresses = [
        t.address
        for t in scenario.target_set().targets
        if t.address.version == 4
    ]
    lookups = [addresses[i % len(addresses)] for i in range(20_000)]
    start = time.perf_counter()
    for address in lookups:
        routes.lookup_uncompiled(address)
    trie = time.perf_counter() - start
    routes._cache.clear()
    start = time.perf_counter()
    for address in lookups:
        routes.lookup(address)
    compiled = time.perf_counter() - start
    print(f"LPM @{n_ases} ASes: compiled {trie / compiled:.1f}x the trie")
    assert trie / compiled >= 5.0


def test_scan_beats_the_pre_rework_probe_rate():
    """A 240-AS scan, follow-ups included, stays above 555 probes/s;
    the build is outside the clock."""
    scenario = build_internet(ScenarioParams(seed=2019, n_ases=240))
    scanner, _ = scenario.make_scanner(ScanConfig(duration=240.0))
    start = time.perf_counter()
    scanner.run()
    rate = scanner.probes_scheduled / (time.perf_counter() - start)
    print(f"scan @240 ASes: {rate:,.0f} probes/s")
    assert rate > PRE_REWORK_PROBES_PER_SEC


def test_topology_engine_at_10k_ases():
    """On a 10,000-AS tiered graph every one of 50,000 random pairs has
    a path, generation and policy compilation each take under a minute,
    and warm path assembly runs at >= 100,000 paths/s."""
    asns = [1000 + i for i in range(10_000)]
    start = time.perf_counter()
    graph = generate_topology(TopologySpec(), seed=2019, asns=asns)
    generate = time.perf_counter() - start
    start = time.perf_counter()
    view = PolicyView.compile(graph)
    compile_ = time.perf_counter() - start

    rng = random.Random(7)
    nodes = sorted(graph.tiers)
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(50_000)]
    reachable = sum(1 for s, d in pairs if view.as_path(s, d) is not None)
    start = time.perf_counter()
    for s, d in pairs:
        view.as_path(s, d)
    warm = len(pairs) / (time.perf_counter() - start)
    print(f"10k-AS graph: generate {generate:.2f}s, compile "
          f"{compile_:.2f}s, {warm:,.0f} warm paths/s, "
          f"{reachable}/{len(pairs)} pairs reachable")

    # A tiered graph with a full tier-1 mesh is connected.
    assert reachable == len(pairs)
    assert generate < 60.0
    assert compile_ < 60.0
    assert warm >= 100_000


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason=f"the 4-shard speedup floor needs >= 4 cores; this host has "
    f"{os.cpu_count() or 1}",
)
def test_four_shards_are_three_times_faster_than_one():
    """With real parallelism, a 240-AS scan at 4 shards finishes >= 3x
    faster than at 1 shard."""

    def wall(shards: int) -> float:
        spec = CampaignSpec.from_scan_config(
            seed=2019, n_ases=240, shards=shards,
            config=ScanConfig(duration=240.0),
        )
        start = time.perf_counter()
        run_pipeline(spec)
        return time.perf_counter() - start

    one, four = wall(1), wall(4)
    print(f"1 shard {one:.2f}s, 4 shards {four:.2f}s: {one / four:.2f}x")
    assert one / four >= 3.0

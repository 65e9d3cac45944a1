"""Packet-pipeline throughput benchmark (the fast-path acceptance gate).

Measures the two hot-path rates the pipeline rework targets, each at two
scenario sizes:

* **routed packets/sec** — raw ``Fabric.send`` throughput over a cycle
  of routable IPv4 destinations (exercises compiled LPM + route cache +
  ingress interval tables), and
* **probes/sec** — a full campaign (scan + follow-ups + event loop)
  divided by its scan wall-clock.

Results land in machine-readable form at ``BENCH_pipeline.json`` in the
repo root.  ``baseline`` holds the pre-rework numbers measured with this
exact harness (trie walk per packet, eager scheduler) on the reference
machine; the ``speedup`` fields compare against it.  Because absolute
rates vary across machines, the *assertions* instead compare the
compiled lookup against the still-present trie walk
(``RoutingTable.lookup_uncompiled``) measured in the same process, which
must show the same order-of-magnitude gap on any hardware.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core import ScanConfig
from repro.netsim.packet import Packet, Transport
from repro.scenarios import ScenarioParams, build_internet

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULT_PATH = REPO_ROOT / "BENCH_pipeline.json"

#: Pre-rework rates, measured with this harness at the smaller size
#: before the compiled-LPM/streaming-scheduler changes landed.
BASELINE = {
    "routed_pkts_per_sec": 10_095,      # seed=7, n_ases=120, N=20_000
    "probes_per_sec": 555,              # seed=2019, n_ases=240 campaign
    "campaign_240_wall_seconds": 36.78,
}

_SIZES = (120, 240)
_N_PACKETS = 20_000


def _routed_packets_per_sec(n_ases: int) -> dict:
    """Time ``Fabric.send`` over a cycle of routable v4 destinations."""
    scenario = build_internet(ScenarioParams(seed=7, n_ases=n_ases))
    fabric = scenario.fabric
    client = scenario.client
    addresses = [
        t.address
        for t in scenario.target_set().targets
        if t.address.version == 4
    ]
    src = client.addresses[0]
    start = time.perf_counter()
    for i in range(_N_PACKETS):
        fabric.send(
            client,
            Packet(
                src=src,
                dst=addresses[i % len(addresses)],
                sport=1234,
                dport=53,
                payload=b"x",
                transport=Transport.UDP,
            ),
        )
    elapsed = time.perf_counter() - start
    # The same destinations through the reference trie walk, to pin the
    # compiled-path speedup to this machine rather than the baseline box.
    routes = fabric.routes
    lookups = [addresses[i % len(addresses)] for i in range(_N_PACKETS)]
    start = time.perf_counter()
    for address in lookups:
        routes.lookup_uncompiled(address)
    trie_elapsed = time.perf_counter() - start
    routes._cache.clear()
    start = time.perf_counter()
    for address in lookups:
        routes.lookup(address)
    compiled_elapsed = time.perf_counter() - start
    return {
        "n_ases": n_ases,
        "packets": _N_PACKETS,
        "pkts_per_sec": round(_N_PACKETS / elapsed, 1),
        "lookup_trie_per_sec": round(_N_PACKETS / trie_elapsed, 1),
        "lookup_compiled_per_sec": round(_N_PACKETS / compiled_elapsed, 1),
        "lookup_speedup": round(trie_elapsed / compiled_elapsed, 1),
    }


def _campaign_probes_per_sec(n_ases: int) -> dict:
    """Scan-only throughput: the build stays outside the clock."""
    scenario = build_internet(ScenarioParams(seed=2019, n_ases=n_ases))
    scanner, _ = scenario.make_scanner(ScanConfig(duration=240.0))
    start = time.perf_counter()
    scanner.run()
    elapsed = time.perf_counter() - start
    return {
        "n_ases": n_ases,
        "probes": scanner.probes_scheduled,
        "scan_wall_seconds": round(elapsed, 2),
        "probes_per_sec": round(scanner.probes_scheduled / elapsed, 1),
    }


def test_bench_perf_pipeline(emit):
    routed = [_routed_packets_per_sec(n) for n in _SIZES]
    campaigns = [_campaign_probes_per_sec(n) for n in _SIZES]

    small_routed = routed[0]
    small_campaign = next(c for c in campaigns if c["n_ases"] == 240)
    result = {
        "harness": {
            "routed": "seed=7 scenario, v4 target cycle, Fabric.send x20000",
            "campaign": "seed=2019 scenario, ScanConfig(duration=240)",
        },
        "baseline": BASELINE,
        "routed": routed,
        "campaigns": campaigns,
        "speedup": {
            "routed_pkts_per_sec": round(
                small_routed["pkts_per_sec"]
                / BASELINE["routed_pkts_per_sec"],
                2,
            ),
            "probes_per_sec": round(
                small_campaign["probes_per_sec"]
                / BASELINE["probes_per_sec"],
                2,
            ),
        },
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")

    lines = ["packet-pipeline throughput", ""]
    for row in routed:
        lines.append(
            f"routed @{row['n_ases']:>4} ASes: "
            f"{row['pkts_per_sec']:>10,.0f} pkts/s  "
            f"(LPM compiled/trie: {row['lookup_speedup']:.1f}x)"
        )
    for row in campaigns:
        lines.append(
            f"scan   @{row['n_ases']:>4} ASes: "
            f"{row['probes_per_sec']:>10,.0f} probes/s  "
            f"({row['probes']} probes in {row['scan_wall_seconds']}s)"
        )
    lines.append(
        f"vs pre-rework baseline: routed "
        f"{result['speedup']['routed_pkts_per_sec']}x, probes "
        f"{result['speedup']['probes_per_sec']}x"
    )
    emit("perf_pipeline", "\n".join(lines))

    # Machine-independent gate: the compiled LPM must beat the trie walk
    # it replaced by a wide margin at every size.
    for row in routed:
        assert row["lookup_speedup"] >= 5.0, row
    # End-to-end sanity: follow-ups and analysis included, the campaign
    # must sustain a healthy multiple of the pre-rework probe rate.
    assert small_campaign["probes_per_sec"] > BASELINE["probes_per_sec"]
    assert RESULT_PATH.exists()

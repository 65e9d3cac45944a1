"""Sharded campaigns over the policy-aware topology.

The tentpole determinism claim: a tiered-topology campaign with BGP
dynamics (withdrawals, hijacks, stuck routes) merged from N shards is
byte-identical to the same campaign run in a single shard — route
events are a pure function of packet timestamps, never of shard
layout.
"""

import json

import pytest

from repro.core import ScanConfig
from repro.core.pipeline import CampaignSpec, run_pipeline
from repro.netsim.faults import (
    FaultPlan,
    PrefixHijack,
    RouteWithdrawal,
    StuckRoute,
)
from repro.netsim.topology import TopologySpec
from repro.scenarios import FIRST_TARGET_ASN, build_internet

from ..conftest import minus_provenance

SEED = 5
N_ASES = 24
DURATION = 30.0


@pytest.fixture(scope="module")
def spec_with_bgp_faults():
    """A tiered campaign spec whose fault plan withdraws, hijacks, and
    wedges real target prefixes mid-scan."""
    topology = TopologySpec().to_payload()
    params = CampaignSpec(
        seed=SEED, n_ases=N_ASES, shards=1, topology=topology
    ).scenario_params()
    routes = build_internet(params).fabric.routes
    prefixes = []
    for asn in range(FIRST_TARGET_ASN, FIRST_TARGET_ASN + N_ASES):
        owned = [p for p in routes.prefixes_for_asn(asn) if p.version == 4]
        if owned:
            prefixes.append(str(owned[0]))
        if len(prefixes) == 3:
            break
    assert len(prefixes) == 3
    plan = FaultPlan(
        seed=SEED,
        name="bgp-dynamics",
        clauses=[
            RouteWithdrawal(prefix=prefixes[0], at=5.0, restore_at=18.0),
            PrefixHijack(prefix=prefixes[1], by_asn=64666, at=3.0, end=22.0),
            StuckRoute(prefix=prefixes[2], at=2.0, linger=10.0),
        ],
    )

    def make(shards: int) -> CampaignSpec:
        return CampaignSpec.from_scan_config(
            seed=SEED,
            n_ases=N_ASES,
            shards=shards,
            config=ScanConfig(duration=DURATION),
            faults=plan.to_payload(),
            topology=topology,
        )

    return make


@pytest.fixture(scope="module")
def faulted_single(spec_with_bgp_faults):
    """The faulted tiered campaign in one shard."""
    return run_pipeline(spec_with_bgp_faults(1), workers=0)


def test_faulted_tiered_campaign_is_shard_invariant(
    spec_with_bgp_faults, faulted_single, tmp_path
):
    sharded = run_pipeline(
        spec_with_bgp_faults(4), run_dir=tmp_path / "s4", workers=0
    )
    a = json.dumps(minus_provenance(faulted_single.results), indent=2)
    b = json.dumps(minus_provenance(sharded.results), indent=2)
    assert a == b


def test_bgp_faults_actually_bite(
    spec_with_bgp_faults, faulted_single, tmp_path
):
    """The equivalence above must not hold vacuously: the same campaign
    without the fault plan classifies differently."""
    spec = spec_with_bgp_faults(1)
    clean = CampaignSpec.from_scan_config(
        seed=SEED,
        n_ases=N_ASES,
        shards=1,
        config=ScanConfig(duration=DURATION),
        topology=spec.topology,
    )
    baseline = run_pipeline(clean, run_dir=tmp_path / "c", workers=0)
    assert minus_provenance(faulted_single.results) != minus_provenance(
        baseline.results
    )

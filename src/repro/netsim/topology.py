"""CAIDA-style tiered AS-relationship graph generator.

The paper's measurements span tens of thousands of ASes embedded in a
provider/peer/customer hierarchy; where an AS sits in that hierarchy
decides which borders its spoofed packets cross and therefore which
SAV deployments can catch them.  This module synthesizes a graph with
the familiar three-band shape of the inferred CAIDA AS-relationship
datasets:

* **tier 1** — a small clique of transit-free networks peering with
  each other (settlement-free core);
* **tier 2** — regional transit providers, each buying transit from a
  couple of tier-1s and densely peering with other tier-2s, the way
  mid-tier networks meet at IXPs;
* **tier 3** — stub edge ASes that originate prefixes but carry no
  third-party traffic.  Stubs attach to a single transit provider
  (primary/backup multihoming without announcement via the backup is
  modelled as single-homing, the common no-export configuration),
  which keeps the valley-free path computation in
  :mod:`repro.netsim.routing` *exact* with respect to the textbook
  per-destination Gao–Rexford propagation.

Every draw is content-keyed via :func:`stable_hash` /
:func:`stable_fraction` on ``(seed, purpose, asn...)`` so the same
spec + seed always yields the same graph in every process — the
property the compiled-scenario artifact and shard-identical campaigns
rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .determinism import stable_fraction, stable_hash, stable_range

__all__ = [
    "ASGraph",
    "TopologySpec",
    "generate_topology",
    "v4_prefix_lengths",
    "v4_prefix_count",
    "v6_prefix_lengths",
]

#: Relationship labels from the perspective of the *first* AS of an
#: ordered pair: ``relationship(a, b) == "provider"`` reads "b is a's
#: provider".
REL_PROVIDER = "provider"
REL_CUSTOMER = "customer"
REL_PEER = "peer"


@dataclass(frozen=True)
class TopologySpec:
    """Declarative knobs for the tiered generator.

    ``tier1``/``tier2`` default to ``None`` meaning "scale with the
    AS count" (roughly ``n**0.30`` and ``n**0.55``, matching the
    orders of magnitude of the real transit core vs. the stub edge).
    The spec is JSON-serializable so it can ride inside
    ``CampaignSpec`` payloads and the compiled-scenario content key.
    """

    kind: str = "tiered"
    tier1: int | None = None
    tier2: int | None = None
    #: mean number of IXP-style peer links per tier-2 AS.
    peer_degree: float = 4.0

    def __post_init__(self) -> None:
        if self.kind != "tiered":
            raise ValueError(f"unknown topology kind: {self.kind!r}")
        for name in ("tier1", "tier2"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.peer_degree < 0:
            raise ValueError("peer_degree must be >= 0")

    def to_payload(self) -> dict:
        return {
            "kind": self.kind,
            "tier1": self.tier1,
            "tier2": self.tier2,
            "peer_degree": self.peer_degree,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TopologySpec":
        if not isinstance(payload, dict):
            raise ValueError(f"topology payload must be a dict: {payload!r}")
        unknown = set(payload) - {"kind", "tier1", "tier2", "peer_degree"}
        if unknown:
            raise ValueError(f"unknown topology keys: {sorted(unknown)}")
        return cls(
            kind=payload.get("kind", "tiered"),
            tier1=payload.get("tier1"),
            tier2=payload.get("tier2"),
            peer_degree=payload.get("peer_degree", 4.0),
        )


@dataclass
class ASGraph:
    """An AS-relationship graph: tiers plus typed adjacency.

    Plain picklable data — the graph rides inside the compiled
    scenario artifact unchanged.  Adjacency is stored as sorted
    tuples; ``providers[a]`` lists a's transit providers,
    ``customers[a]`` its customers, ``peers[a]`` its settlement-free
    peers.  A *stub* is an AS with exactly one provider and no
    customers or peers; everything else belongs to the transit
    skeleton the valley-free computation runs over.
    """

    spec: TopologySpec
    seed: int
    tiers: dict[int, int] = field(default_factory=dict)
    providers: dict[int, tuple[int, ...]] = field(default_factory=dict)
    customers: dict[int, tuple[int, ...]] = field(default_factory=dict)
    peers: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def tier_of(self, asn: int) -> int:
        """Tier band of *asn* (1 core, 2 regional, 3 stub edge)."""
        return self.tiers.get(asn, 3)

    def relationship(self, a: int, b: int) -> str | None:
        """Label of *b* from *a*'s perspective, or ``None`` if no edge."""
        if b in self.providers.get(a, ()):
            return REL_PROVIDER
        if b in self.customers.get(a, ()):
            return REL_CUSTOMER
        if b in self.peers.get(a, ()):
            return REL_PEER
        return None

    def is_stub(self, asn: int) -> bool:
        return (
            len(self.providers.get(asn, ())) == 1
            and not self.customers.get(asn)
            and not self.peers.get(asn)
        )

    def transit_asns(self) -> list[int]:
        """Sorted ASNs of the transit skeleton (every non-stub AS)."""
        return sorted(a for a in self.tiers if not self.is_stub(a))

    def stub_asns(self) -> list[int]:
        return sorted(a for a in self.tiers if self.is_stub(a))

    def digest(self) -> int:
        """Stable 64-bit fingerprint over every node and edge."""
        parts: list = [self.seed, self.spec.kind]
        for asn in sorted(self.tiers):
            parts.append(asn)
            parts.append(self.tiers[asn])
        for tag, table in (("prov", self.providers), ("peer", self.peers)):
            for asn in sorted(table):
                if table[asn]:
                    parts.append(tag)
                    parts.append(asn)
                    parts.extend(table[asn])
        return stable_hash(*parts)


def _tier_sizes(spec: TopologySpec, n: int) -> tuple[int, int]:
    """Resolve (tier1, tier2) sizes for an *n*-AS population."""
    tier1 = spec.tier1 if spec.tier1 is not None else max(4, round(n**0.30))
    tier2 = spec.tier2 if spec.tier2 is not None else max(8, round(n**0.55))
    tier1 = max(1, min(tier1, n))
    tier2 = max(0, min(tier2, n - tier1))
    return tier1, tier2


def generate_topology(
    spec: TopologySpec,
    seed: int,
    asns: list[int],
    forced_stubs: tuple[int, ...] = (),
) -> ASGraph:
    """Build a tiered AS graph over *asns*, content-keyed on *seed*.

    *forced_stubs* (infrastructure / measurement ASes) are attached as
    stub customers of the transit core regardless of where their hash
    would have ranked them — the measurement client and anycast DNS
    operators are edge networks, not transit.
    """
    forced = sorted(set(forced_stubs))
    population = sorted(set(asns) - set(forced))
    if not population:
        raise ValueError("topology needs at least one AS")
    n_tier1, n_tier2 = _tier_sizes(spec, len(population))
    # Tier membership is ranked by an independent hash so it cannot
    # correlate with any per-AS draw elsewhere in the scenario build.
    ranked = sorted(
        population, key=lambda a: (stable_hash(seed, "topology-tier", a), a)
    )
    tier1 = sorted(ranked[:n_tier1])
    tier2 = sorted(ranked[n_tier1 : n_tier1 + n_tier2])
    stubs = sorted(ranked[n_tier1 + n_tier2 :] + forced)

    providers: dict[int, list[int]] = {a: [] for a in tier1 + tier2 + stubs}
    customers: dict[int, list[int]] = {a: [] for a in tier1 + tier2 + stubs}
    peers: dict[int, list[int]] = {a: [] for a in tier1 + tier2 + stubs}
    tiers: dict[int, int] = {}
    for a in tier1:
        tiers[a] = 1
    for a in tier2:
        tiers[a] = 2
    for a in stubs:
        tiers[a] = 3

    # Tier-1: settlement-free full mesh.
    for i, a in enumerate(tier1):
        for b in tier1[i + 1 :]:
            peers[a].append(b)
            peers[b].append(a)

    # Tier-2: multihomed transit customers of 2-3 tier-1s...
    for a in tier2:
        want = 1
        if len(tier1) >= 2:
            want = 2
            if (
                len(tier1) >= 3
                and stable_fraction(seed, "topology-t2-multihome", a) < 0.35
            ):
                want = 3
        chosen = sorted(
            tier1,
            key=lambda t: (stable_hash(seed, "topology-t2-provider", a, t), t),
        )[:want]
        for p in sorted(chosen):
            providers[a].append(p)
            customers[p].append(a)
    # ... with IXP-style dense peering among themselves.
    if len(tier2) > 1 and spec.peer_degree > 0:
        p_link = min(1.0, spec.peer_degree / (len(tier2) - 1))
        for i, a in enumerate(tier2):
            for b in tier2[i + 1 :]:
                if stable_fraction(seed, "topology-t2-peer", a, b) < p_link:
                    peers[a].append(b)
                    peers[b].append(a)

    # Stubs: single-homed customers of the regional tier (or of the
    # core when the population is too small to have a tier 2).
    pool = tier2 if tier2 else tier1
    for a in stubs:
        p = pool[stable_range(len(pool), seed, "topology-stub-provider", a)]
        providers[a].append(p)
        customers[p].append(a)

    return ASGraph(
        spec=spec,
        seed=seed,
        tiers=tiers,
        providers={a: tuple(sorted(v)) for a, v in providers.items()},
        customers={a: tuple(sorted(v)) for a, v in customers.items()},
        peers={a: tuple(sorted(v)) for a, v in peers.items()},
    )


# ---------------------------------------------------------------------------
# per-tier address-space skew
# ---------------------------------------------------------------------------

#: Candidate v4 prefix lengths per tier: transit networks hold short,
#: aggregated allocations; stubs announce the long tail of /22-/24s.
_V4_LENGTHS = {
    1: (16, 18, 20, 20, 22),
    2: (18, 20, 20, 22, 22, 24),
    3: (20, 22, 22, 23, 24, 24),
}
_V6_LENGTHS = {
    1: (48, 52, 56),
    2: (52, 56, 56, 60),
    3: (56, 56, 60, 60, 64, 64),
}


def v4_prefix_count(tier: int, as_rng) -> int:
    """Announced v4 prefix count for an AS of *tier* (heavy-tailed)."""
    if tier == 1:
        return 3 + min(int(as_rng.expovariate(0.35)), 13)
    if tier == 2:
        return 2 + min(int(as_rng.expovariate(0.6)), 8)
    return 1 + min(int(as_rng.expovariate(0.8)), 6)


def v4_prefix_lengths(tier: int) -> tuple[int, ...]:
    return _V4_LENGTHS.get(tier, _V4_LENGTHS[3])


def v6_prefix_lengths(tier: int) -> tuple[int, ...]:
    return _V6_LENGTHS.get(tier, _V6_LENGTHS[3])

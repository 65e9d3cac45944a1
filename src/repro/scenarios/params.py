"""Scenario parameters and resolver population mix.

The defaults are calibrated so a synthetic scan reproduces the *shape*
of the paper's findings: roughly half of ASes lack DSAV (with the
per-country skew of Tables 1-2), ~40% of reached resolvers are open,
Windows DNS resolvers are overwhelmingly open (89% in the paper), a
small population pins a single source port (port 53 ahead of 32768,
Section 5.2.1), a sliver uses tiny sequential pools (Section 5.2.3),
and most TCP SYNs defeat p0f (90% unclassified, Section 5.3.1).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from random import Random

from ..netsim.topology import TopologySpec
from ..oskernel.ports import FixedPortAllocator, IncrementingAllocator, PortAllocator
from ..oskernel.profiles import OSProfile, SOFTWARE_PROFILES, os_profile

#: Per-country multiplier applied to the base DSAV-lacking probability,
#: shaping Tables 1 and 2: the US sits well below average, Brazil /
#: Russia / Ukraine above, and the small "high exposure" countries
#: (Algeria, Morocco, ...) highest of all.
COUNTRY_DSAV_BIAS: dict[str, float] = {
    "US": 0.55,
    "DE": 0.70,
    "GB": 0.65,
    "CA": 0.70,
    "AU": 0.65,
    "BR": 1.15,
    "RU": 1.15,
    "UA": 1.25,
    "PL": 1.0,
    "IN": 0.8,
    "DZ": 1.35,
    "MA": 1.30,
    "SZ": 1.6,
    "BZ": 1.2,
    "BF": 1.25,
    "XK": 1.2,
    "BA": 1.1,
    "SC": 1.2,
    "WF": 1.9,
    "CI": 1.1,
}

#: Countries where reached networks expose a larger share of their
#: addresses (the Table 2 phenomenon): multiplier on per-resolver
#: acceptance odds (higher open rate, wider ACLs).
COUNTRY_EXPOSURE_BIAS: dict[str, float] = {
    "DZ": 3.0, "MA": 2.5, "SZ": 2.2, "BZ": 2.0, "BF": 2.0,
    "XK": 1.8, "BA": 1.6, "SC": 1.6, "WF": 1.8, "CI": 1.5,
    "RU": 1.5, "UA": 1.6, "IN": 1.5,
}

AllocatorFactory = Callable[[OSProfile, Random], PortAllocator]


def _software(name: str) -> AllocatorFactory:
    profile = SOFTWARE_PROFILES[name]
    return profile.allocator


def _fixed(port: int) -> AllocatorFactory:
    return lambda os_prof, rng: FixedPortAllocator(port)


def _incrementing_small() -> AllocatorFactory:
    def build(os_prof: OSProfile, rng: Random) -> PortAllocator:
        low = 2000 + rng.randrange(4000)
        span = 20 + rng.randrange(180)
        start = low + rng.randrange(span)
        return IncrementingAllocator(low, low + span, start=start)

    return build


def _tight_small_pool() -> AllocatorFactory:
    """A handful of ports inside a narrow band: the Section 5.2.3 case
    where 10 queries show seven or fewer distinct ports — vanishingly
    unlikely if the pool really spanned its observed range."""

    def build(os_prof: OSProfile, rng: Random) -> PortAllocator:
        from ..oskernel.ports import SmallSetAllocator

        low = 2000 + rng.randrange(4000)
        ports = rng.sample(range(low, low + 150), 5)
        return SmallSetAllocator(ports, rng)

    return build


@dataclass(frozen=True, slots=True)
class ResolverKind:
    """One entry of the resolver population mix."""

    key: str
    os_name: str
    software: str
    allocator: AllocatorFactory
    weight: float
    open_probability: float
    #: probability the SYN signature is perturbed beyond p0f's database
    fuzz_probability: float = 0.6

    @property
    def os(self) -> OSProfile:
        return os_profile(self.os_name)

    def __reduce__(self):
        # Allocator factories are closures; kinds pickle by key against
        # the registry built from RESOLVER_MIX below (scenario artifacts
        # reference population-mix entries, never carry their code).
        return (_resolver_kind, (self.key,))


#: The population mix.  Weights are relative; the rare fixed-port and
#: sequential kinds are oversampled ~2.5x relative to the paper's wild
#: population so small scenarios still populate the Section 5.2 tails
#: (the *ratios within* those tails match the paper).  Open
#: probabilities encode
#: the paper's open/closed correlations per bucket (Table 4): FreeBSD
#: and Linux pools are mostly closed, Windows DNS pools mostly open.
RESOLVER_MIX: tuple[ResolverKind, ...] = (
    ResolverKind(
        "linux-bind-modern", "ubuntu-modern", "bind-9.9.13-9.16.0",
        _software("bind-9.9.13-9.16.0"), 24.0, 0.04, 0.85,
    ),
    ResolverKind(
        "linux-knot", "ubuntu-modern", "knot-3.2.1",
        _software("knot-3.2.1"), 5.0, 0.10, 0.85,
    ),
    ResolverKind(
        "linux-unbound", "ubuntu-modern", "unbound-1.9.0",
        _software("unbound-1.9.0"), 26.0, 0.06, 0.85,
    ),
    ResolverKind(
        "linux-powerdns", "ubuntu-modern", "powerdns-recursor-4.2.0",
        _software("powerdns-recursor-4.2.0"), 15.0, 0.07, 0.85,
    ),
    ResolverKind(
        "linux-old-bind-full", "ubuntu-old", "bind-9.5.2-9.8.8",
        _software("bind-9.5.2-9.8.8"), 10.0, 0.10, 0.75,
    ),
    ResolverKind(
        "freebsd-bind", "freebsd", "bind-9.9.13-9.16.0",
        _software("bind-9.9.13-9.16.0"), 10.0, 0.10, 0.80,
    ),
    ResolverKind(
        "windows-dns-modern", "windows-2008r2+", "windows-dns-2008r2-2019",
        _software("windows-dns-2008r2-2019"), 11.0, 0.89, 0.11,
    ),
    ResolverKind(
        "windows-dns-2003", "windows-2003", "windows-dns-2003-2008",
        _software("windows-dns-2003-2008"), 1.0, 0.45, 0.15,
    ),
    ResolverKind(
        "bind-pinned-53", "ubuntu-old", "bind-query-source-pinned",
        _fixed(53), 1.5, 0.35, 0.80,
    ),
    ResolverKind(
        "baidu-crawler", "baidu-spider", "bind-pre-8.1",
        _fixed(53), 1.0, 0.55, 0.05,
    ),
    ResolverKind(
        "linux-pinned-32768", "ubuntu-old", "bind-query-source-pinned",
        _fixed(32768), 0.6, 0.40, 0.80,
    ),
    ResolverKind(
        "linux-pinned-32769", "ubuntu-modern", "bind-query-source-pinned",
        _fixed(32769), 0.2, 0.40, 0.85,
    ),
    ResolverKind(
        "bind-950-small-set", "ubuntu-old", "bind-9.5.0",
        _software("bind-9.5.0"), 0.4, 0.35, 0.80,
    ),
    ResolverKind(
        "windows-sequential", "windows-2008r2+", "custom-sequential",
        _incrementing_small(), 0.9, 0.80, 0.30,
    ),
    ResolverKind(
        "embedded-sequential", "generic-embedded", "custom-sequential",
        _incrementing_small(), 0.45, 0.80, 0.05,
    ),
    ResolverKind(
        "embedded-tight-pool", "generic-embedded", "custom-small-pool",
        _tight_small_pool(), 0.70, 0.75, 0.05,
    ),
)


_KIND_REGISTRY: dict[str, ResolverKind] = {}


def _resolver_kind(key: str) -> ResolverKind:
    """Resolve a pickled :class:`ResolverKind` back to its registry entry."""
    try:
        return _KIND_REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"resolver kind {key!r} is not registered; the artifact was "
            "built against a different resolver mix"
        ) from None


_KIND_REGISTRY.update((kind.key, kind) for kind in RESOLVER_MIX)


@dataclass
class ScenarioParams:
    """Knobs of the synthetic Internet."""

    seed: int = 1
    n_ases: int = 220
    #: fraction of ASes announcing IPv6 space (paper: ~15% of ASes).
    v6_as_fraction: float = 0.20
    #: base probability an AS lacks DSAV (modulated per country).
    dsav_lacking_rate: float = 0.68
    #: among DSAV-lacking ASes, probability inbound martians also pass.
    martian_unfiltered_rate: float = 0.18
    #: among DSAV-lacking ASes, probability the access layer runs
    #: IP Source Guard somewhere: inbound IPv4 packets spoofing the
    #: destination's own /24 are dropped on protected segments,
    #: suppressing same-prefix and dst-as-src hits.
    subnet_sav_v4_rate: float = 0.22
    #: fraction of a source-guarding AS's /24s actually protected
    #: (deployment is per access segment, not AS-wide).
    subnet_sav_coverage: float = 0.70
    #: fraction of in-flight packets lost (rate limiting, transient
    #: congestion).  Together with the per-segment source-guard and
    #: server-farm ACLs, this is what makes 97 other-prefix attempts
    #: beat a single same-prefix attempt in Table 3, as in the paper.
    packet_loss_rate: float = 0.10
    #: probability an AS performs OSAV (irrelevant to targets; realism).
    osav_rate: float = 0.75
    #: mean resolver count per AS (geometric-ish skew).
    mean_resolvers_per_as: float = 6.0
    #: fraction of DITL candidate addresses with no live resolver at scan
    #: time (churn, monitoring boxes, spoofed trace sources; the paper's
    #: 95% non-responding majority — scaled down so the synthetic scan
    #: keeps a usable reachable population at small sizes).
    dead_address_rate: float = 0.60
    #: resolver ACL shape among closed resolvers.
    acl_as_wide_rate: float = 0.45
    acl_subnet_only_rate: float = 0.15
    acl_narrow_rate: float = 0.30
    # remainder: ACL admits no address we can spoof ("external-only").
    #: fraction of AS-wide ACLs that *exclude* the server's own subnet
    #: (server-farm configurations serving clients elsewhere).  This is
    #: what keeps the same-prefix category below other-prefix in
    #: Table 3, as the paper observed (63% vs 78%).
    acl_exclude_own_subnet_rate: float = 0.92
    #: of narrow ACLs, fraction that cover other corporate subnets but
    #: exclude the resolver's own (infrastructure segments serving
    #: client segments): rejects same-prefix and dst-as-src sources at
    #: the *resolver* level while other-prefix still lands, keeping the
    #: per-AS same-prefix coverage high (91% in Table 3's ASN column)
    #: while per-address coverage sits at 63%.
    acl_narrow_exclude_own_rate: float = 0.90
    #: forwarding rates per family (Section 5.4: 47% v4, 16% v6).
    forwarder_rate_v4: float = 0.42
    forwarder_rate_v6: float = 0.15
    #: of forwarders, fraction forwarding to an in-AS central resolver
    #: (the rest use a public DNS service).
    forward_to_central_rate: float = 0.70
    #: open probability for forwarding targets (CPE gear is routinely
    #: open; this is what pushes the overall open rate toward the
    #: paper's 40% while direct responders stay ~10% open, Table 4).
    forwarder_open_rate: float = 0.65
    #: QNAME minimization deployment (Section 3.6.4).
    qmin_rate: float = 0.10
    qmin_strict_fraction: float = 0.55
    #: fraction of resolvers that are dual-stack when their AS has IPv6.
    dual_stack_rate: float = 0.55
    #: of v6-capable resolvers, fraction with no IPv4 presence at all.
    v6_only_rate: float = 0.10
    #: fraction of live resolvers that never queried the roots during
    #: the collection window and hence are missing from the DITL-style
    #: candidate list.  A whole-address-space scan (Korczynski et al.)
    #: still finds them — the "sheer breadth" advantage of Section 2.
    not_in_ditl_rate: float = 0.08
    #: DITL trace pollution (Section 3.1 exclusions).
    special_purpose_candidates: int = 30
    unrouted_candidates: int = 12
    #: human-intervention modelling (Section 3.6.3).
    ids_as_fraction: float = 0.03
    analyst_probability: float = 0.02
    analyst_delay_min: float = 30.0
    analyst_delay_max: float = 600.0
    #: historical (2018-DITL-style) port trace shape (Section 5.2.2).
    history_stable_rate: float = 0.51
    history_regressed_rate: float = 0.25
    resolver_mix: tuple[ResolverKind, ...] = RESOLVER_MIX
    country_dsav_bias: dict[str, float] = field(
        default_factory=lambda: dict(COUNTRY_DSAV_BIAS)
    )
    country_exposure_bias: dict[str, float] = field(
        default_factory=lambda: dict(COUNTRY_EXPOSURE_BIAS)
    )
    #: policy-aware AS topology (see :mod:`repro.netsim.topology`).
    #: ``None`` keeps the legacy star wiring — every inter-AS packet
    #: crosses exactly the origin and destination borders — and stays
    #: byte-identical to scenarios built before the topology engine.
    topology: TopologySpec | None = None
    #: longitudinal evolution payload ``{"plan": <EvolutionPlan
    #: payload>, "epoch": N}`` (see :mod:`repro.campaigns.evolution`).
    #: ``None`` — the default for every non-campaign scan — is omitted
    #: from the content-key payload entirely, so legacy scenario keys
    #: (and the star pin of ``test_star_topology_results_match_pin``)
    #: are untouched.
    evolution: dict | None = None

    def __post_init__(self) -> None:
        if self.evolution is not None:
            from ..campaigns.evolution import validate_evolution_payload

            validate_evolution_payload(self.evolution)
        if self.topology is not None and not isinstance(
            self.topology, TopologySpec
        ):
            raise ValueError(
                f"topology must be a TopologySpec or None, "
                f"got {self.topology!r}"
            )
        if self.n_ases < 3:
            raise ValueError("need at least 3 ASes")
        if not 0 <= self.dsav_lacking_rate <= 1:
            raise ValueError("dsav_lacking_rate must be a probability")

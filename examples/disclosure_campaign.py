#!/usr/bin/env python3
"""The Section 6 disclosure workflow, end to end.

After the measurement, the paper's authors "initiated reach out to the
technical and administrative contacts at affected organizations,
beginning with those that show the most vulnerability (e.g., the
systems with little or no source port randomization)", finding contacts
via reverse DNS and SOA RNAME records (Section 5.2.1).

This example runs that whole pipeline inside the simulation:

1. scan a synthetic Internet,
2. rank the reached resolvers by exposure (fixed port > tiny pool >
   open > closed-but-reachable),
3. walk PTR -> SOA RNAME for each to find the operator mailbox,
4. print the notification work list, most urgent first.

Run:  python examples/disclosure_campaign.py [n_ases]
"""

import sys

from repro.attacks import expected_windows
from repro.core import Campaign, resolver_ranges
from repro.core.outreach import contact_summary


def exposure(item) -> tuple[int, str]:
    """Sort key: lower is more urgent."""
    if item.range == 0:
        return (0, "NO PORT RANDOMIZATION")
    if item.range <= 200:
        return (1, "tiny source-port pool")
    if item.observation.open_:
        return (2, "open resolver behind no-DSAV border")
    return (3, "closed resolver reachable via spoofing")


def main() -> None:
    n_ases = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    campaign = Campaign.run_default(seed=314, n_ases=n_ases, duration=150.0)
    print(campaign.summary())

    ranked = sorted(
        resolver_ranges(campaign.collector), key=exposure
    )
    print(f"\nExposure ranking ({len(ranked)} analyzable resolvers):")
    for item in ranked[:10]:
        urgency, label = exposure(item)
        extra = ""
        if item.range == 0:
            cost = expected_windows(1, 65536)
            extra = f" (poisoning cost: ~{cost:.0f} race window)"
        print(
            f"  [{urgency}] {item.observation.target}  "
            f"range={item.range:<6} {label}{extra}"
        )

    print("\nDiscovering operator contacts (PTR -> SOA RNAME) for the "
          "most exposed tier ...")
    urgent = [
        item.observation.target
        for item in ranked
        if exposure(item)[0] <= 1
    ]
    if not urgent:
        urgent = [item.observation.target for item in ranked[:5]]
    client = campaign.scenario.make_outreach_client()
    contacts = client.discover(urgent)
    print(contact_summary(contacts))

    uncontactable = [c for c in contacts if not c.contactable]
    if uncontactable:
        print(
            f"\n{len(uncontactable)} resolver(s) have no reverse-DNS "
            "contact chain; the paper fell back to WHOIS and RIR data "
            "for those."
        )


if __name__ == "__main__":
    main()

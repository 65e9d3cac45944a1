"""Causal reconstruction over the probe event journal.

Where :mod:`repro.obs.journal` records, this module answers: given a
probe id, a query name, or a target ASN, rebuild the complete causal
chain — emission, border verdicts with the matched filters, recursion,
authoritative observation, classification — and render it as either a
human narrative or machine JSON.  The ``audit`` mode closes the loop of
the paper's evidence argument: every classification in ``results.json``
must be backed by journal events, and the journal must account for every
headline number.
"""

from __future__ import annotations

from typing import Any

from .journal import load_events, validate_events

# Drop-reason / verdict strings, mirrored from netsim (string literals,
# not imports: obs stays a leaf package netsim never depends on, and the
# journal is a serialization boundary anyway).
_ACCEPT = "accept"
_DROPPED_BY_BORDER = {
    "drop-osav": "OSAV",
    "drop-dsav": "DSAV",
    "drop-martian": "martian filtering",
    "drop-subnet-sav": "subnet source-guard",
}


class JournalIndex:
    """In-memory indexes over one merged journal."""

    def __init__(self, events: list[dict[str, Any]]) -> None:
        self.events = events
        self.by_probe: dict[str, list[dict[str, Any]]] = {}
        self.meta: dict[str, dict[str, Any]] = {}
        self.by_flow: dict[tuple[str, str, int], list[dict[str, Any]]] = {}
        self.faults_by_flow: dict[
            tuple[str, str, int], list[dict[str, Any]]
        ] = {}
        self.qname_to_probe: dict[str, str] = {}
        self.classifications: list[dict[str, Any]] = []
        for event in events:
            kind = event["kind"]
            probe = event.get("probe")
            if probe is not None:
                self.by_probe.setdefault(probe, []).append(event)
            if kind in ("probe.sent", "probe.suppressed"):
                self.meta[event["probe"]] = event
                self.qname_to_probe[event["qname"]] = event["probe"]
            elif kind == "fabric.path":
                self.by_flow.setdefault(
                    (event["src"], event["dst"], event["sport"]), []
                ).append(event)
            elif kind == "fault.injected":
                self.faults_by_flow.setdefault(
                    (event["src"], event["dst"], event["sport"]), []
                ).append(event)
            elif kind.startswith("classify."):
                self.classifications.append(event)

    def probe_ids(self) -> list[str]:
        """Every emitted (or suppressed) probe id, in journal order."""
        return list(self.meta)

    def probe_for_qname(self, qname: str) -> str | None:
        return self.qname_to_probe.get(qname.rstrip(".") + ".")

    def probes_for_asn(self, asn: int) -> list[str]:
        return [
            pid for pid, meta in self.meta.items() if meta["asn"] == asn
        ]

    def classifications_citing(self, pid: str) -> list[dict[str, Any]]:
        return [c for c in self.classifications if pid in c["probes"]]

    # -- chain assembly --------------------------------------------------

    def chain(self, pid: str) -> dict[str, Any] | None:
        """The full causal chain of one probe, or None if unknown."""
        meta = self.meta.get(pid)
        if meta is None:
            return None
        events = self.by_probe.get(pid, [])
        fabric: list[dict[str, Any]] = []
        faults: list[dict[str, Any]] = []
        if meta["kind"] == "probe.sent":
            # The spoofed query's own traversal, joined by flow tuple
            # (the probe id never reaches the fabric layer).
            flow = (meta["src"], meta["dst"], meta["sport"])
            fabric = self.by_flow.get(flow, [])
            faults = self.faults_by_flow.get(flow, [])
        picked = {
            kind: [e for e in events if e["kind"] == kind]
            for kind in (
                "probe.retransmit",
                "resolver.recursion",
                "resolver.upstream",
                "resolver.response",
                "auth.query",
                "probe.penetration",
            )
        }
        return {
            "probe": pid,
            "sent": meta if meta["kind"] == "probe.sent" else None,
            "suppressed": (
                meta if meta["kind"] == "probe.suppressed" else None
            ),
            # Present when this probe is itself a retransmission; its
            # ``prev`` field links back to the earlier attempt's chain.
            "retransmit": (
                picked["probe.retransmit"][0]
                if picked["probe.retransmit"]
                else None
            ),
            "fabric": fabric,
            "faults": faults,
            "recursion": picked["resolver.recursion"],
            "upstream": picked["resolver.upstream"],
            "response": picked["resolver.response"],
            "auth": picked["auth.query"],
            "penetration": (
                picked["probe.penetration"][0]
                if picked["probe.penetration"]
                else None
            ),
            "classifications": self.classifications_citing(pid),
        }


def load_index(events_path) -> JournalIndex:
    """Build a :class:`JournalIndex` from an ``events.ndjson`` file.

    Raises ``ValueError`` if a line is not JSON or an event breaks the
    journal schema.
    """
    events = load_events(events_path)
    validate_events(events)
    return JournalIndex(events)


# ---------------------------------------------------------------------------
# narrative rendering
# ---------------------------------------------------------------------------


def _border_story(hop: dict[str, Any]) -> list[str]:
    """Narrate one fabric traversal's border decisions."""
    lines = []
    # Policy-aware traversals carry the compiled valley-free AS path;
    # narrate the hop chain with each inter-AS relationship label.
    path = hop.get("as_path")
    if path is not None:
        rels = hop.get("rels", ())
        segments = [f"AS{path[0]}"]
        for asn, rel in zip(path[1:], rels):
            segments.append(f"-[{rel}]-> AS{asn}")
        lines.append(
            f"valley-free path ({len(path) - 1} hops): "
            + " ".join(segments)
        )
    egress = hop.get("egress")
    if egress is not None:
        if egress["verdict"] == _ACCEPT:
            detail = (
                "no egress filtering" if not egress["osav"]
                else f"source inside announced {egress['filter']}"
            )
            lines.append(f"passed OSAV at AS{egress['asn']} ({detail})")
        else:
            lines.append(
                f"dropped by OSAV at AS{egress['asn']} border "
                f"(source outside the AS's announced space)"
            )
            return lines
    transit = hop.get("transit")
    if transit is not None:
        what = _DROPPED_BY_BORDER.get(
            transit["verdict"], transit["verdict"]
        )
        lines.append(
            f"dropped by {what} at transit AS{transit['asn']} "
            f"(mid-path border, before reaching the destination AS)"
        )
        return lines
    ingress = hop.get("ingress")
    if ingress is not None:
        asn = ingress["asn"]
        verdict = ingress["verdict"]
        if verdict == _ACCEPT:
            if not ingress["dsav"]:
                lines.append(
                    f"DSAV absent at AS{asn} border (no inbound filter)"
                )
            elif ingress["filter"] is None:
                lines.append(
                    f"DSAV at AS{asn} did not match "
                    f"(source outside the AS's own space)"
                )
            else:
                lines.append(f"accepted at AS{asn} border")
        else:
            what = _DROPPED_BY_BORDER.get(verdict, verdict)
            where = (
                f"matched inbound filter {ingress['filter']}"
                if verdict == "drop-dsav"
                else verdict
            )
            lines.append(
                f"dropped by {what} at AS{asn} border ({where})"
            )
            return lines
    outcome = hop["outcome"]
    if outcome == "delivered":
        lines.append(f"delivered to {hop['dst']}")
    elif outcome == "loss":
        lines.append("lost in flight (simulated congestion)")
    elif outcome == "fault-loss":
        lines.append("lost to an injected burst-loss fault")
    elif outcome == "fault-blackhole":
        lines.append("null-routed by an injected blackhole fault")
    elif outcome == "fault-outage":
        lines.append("destination down (injected resolver outage)")
    elif outcome == "fault-hijacked":
        lines.append(
            "swallowed by an injected prefix hijack "
            "(a bogus origin AS attracted the route)"
        )
    elif outcome == "fault-stuck-route":
        lines.append(
            "blackholed by a stale route an injected fault kept "
            "alive past its withdrawal"
        )
    elif outcome in ("no-route", "unrouted-asn", "no-host"):
        lines.append(f"discarded: {outcome}")
    return lines


def render_narrative(chain: dict[str, Any]) -> str:
    """Human-readable story of one probe's life."""
    pid = chain["probe"]
    if chain["suppressed"] is not None:
        meta = chain["suppressed"]
        return (
            f"probe {pid} toward {meta['dst']} (AS{meta['asn']}) was "
            f"suppressed at t={meta['t']:.4f}: {meta['reason']}"
        )
    meta = chain["sent"]
    steps = [
        f"probe {pid} spoofed {meta['src']}→{meta['dst']} "
        f"(AS{meta['asn']}) at t={meta['t']:.4f}, qname {meta['qname']}"
    ]
    retransmit = chain.get("retransmit")
    if retransmit is not None:
        steps.append(
            f"retransmission attempt {retransmit['attempt']} "
            f"(previous attempt: probe {retransmit['prev']})"
        )
    for hop in chain["fabric"]:
        steps.extend(_border_story(hop))
    for fault in chain.get("faults", ()):
        steps.append(
            f"fault injected in flight: {', '.join(fault['kinds'])}"
        )
    for rec in chain["recursion"]:
        if rec["forwarder"] is not None:
            steps.append(
                f"resolver {rec['resolver']} (AS{rec['asn']}) forwarded "
                f"to {rec['forwarder']}"
            )
        else:
            steps.append(
                f"resolver {rec['resolver']} (AS{rec['asn']}) recursed"
            )
    if chain["upstream"]:
        servers = {u["server"] for u in chain["upstream"]}
        steps.append(
            f"{len(chain['upstream'])} upstream quer"
            f"{'y' if len(chain['upstream']) == 1 else 'ies'} "
            f"to {len(servers)} server{'s' if len(servers) != 1 else ''}"
        )
    for obs in chain["auth"]:
        steps.append(
            f"auth {obs['server']} observed qname at t={obs['t']:.4f} "
            f"from {obs['src']}"
        )
    for resp in chain["response"]:
        steps.append(
            f"resolver {resp['resolver']} answered {resp['rcode']} "
            f"after {resp['duration']:.4f}s"
        )
    if chain["penetration"] is None and not chain["auth"]:
        steps.append("never observed at the authoritative servers")
    for verdict in chain["classifications"]:
        if verdict["kind"] == "classify.asn":
            steps.append(
                f"→ evidence for AS{verdict['asn']} "
                f"{verdict['verdict']} (IPv{verdict['family']})"
            )
        else:
            steps.append(
                f"→ evidence that {verdict['target']} is reachable "
                f"({', '.join(verdict['categories'])})"
            )
    return ",\n  ".join(steps)


def render_asn_summary(index: JournalIndex, asn: int) -> str:
    """One-line-per-probe overview of everything sent toward *asn*."""
    pids = index.probes_for_asn(asn)
    if not pids:
        return f"no probes toward AS{asn} in this journal"
    lines = [f"AS{asn}: {len(pids)} probes"]
    for pid in pids:
        chain = index.chain(pid)
        assert chain is not None
        if chain["suppressed"] is not None:
            outcome = "suppressed"
        elif chain["penetration"] is not None or chain["auth"]:
            outcome = "penetrated (auth observed qname)"
        elif chain["fabric"]:
            outcome = chain["fabric"][0]["outcome"]
        else:
            outcome = "no fabric record"
        meta = index.meta[pid]
        lines.append(
            f"  probe {pid} {meta['src']}→{meta['dst']}: {outcome}"
        )
    for verdict in index.classifications:
        if verdict["kind"] == "classify.asn" and verdict["asn"] == asn:
            lines.append(
                f"  → AS{asn} classified {verdict['verdict']} "
                f"(IPv{verdict['family']}, "
                f"{len(verdict['targets'])} targets, "
                f"{len(verdict['probes'])} probes cited)"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# audit: classifications must be backed by journal evidence
# ---------------------------------------------------------------------------


def audit(
    index: JournalIndex, results: dict[str, Any] | None = None
) -> list[str]:
    """Cross-check classifications against the journal; return problems.

    Two directions: every ``classify.*`` event must cite probes the
    journal actually recorded (with authoritative-side evidence for the
    reachability claims), and — when *results* is given — the headline
    counts in ``results.json`` must equal the journal's classification
    counts, so no classification exists outside the evidence trail.
    """
    problems: list[str] = []
    for verdict in index.classifications:
        label = (
            f"{verdict['kind']} {verdict.get('target', verdict['asn'])}"
            f" (IPv{verdict['family']})"
        )
        if not verdict["probes"]:
            problems.append(f"{label}: cites no probes")
            continue
        orphans = [p for p in verdict["probes"] if p not in index.meta]
        if orphans:
            problems.append(
                f"{label}: cites unknown probe(s) {', '.join(orphans)}"
            )
            continue
        observed = any(
            any(
                e["kind"] in ("auth.query", "probe.penetration")
                for e in index.by_probe.get(pid, [])
            )
            for pid in verdict["probes"]
        )
        if not observed:
            problems.append(
                f"{label}: no cited probe was observed at an "
                f"authoritative server"
            )

    if results is not None:
        for family in (4, 6):
            side = results["headline"][f"v{family}"]
            targets = sum(
                1
                for c in index.classifications
                if c["kind"] == "classify.target" and c["family"] == family
            )
            asns = sum(
                1
                for c in index.classifications
                if c["kind"] == "classify.asn" and c["family"] == family
            )
            if targets != side["reachable_addresses"]:
                problems.append(
                    f"IPv{family}: results.json claims "
                    f"{side['reachable_addresses']} reachable addresses, "
                    f"journal backs {targets}"
                )
            if asns != side["reachable_asns"]:
                problems.append(
                    f"IPv{family}: results.json claims "
                    f"{side['reachable_asns']} reachable ASNs, "
                    f"journal backs {asns}"
                )
    return problems

"""Structural diff between two campaign run directories.

``repro-dsav diff <run-a> <run-b>`` compares the report artifacts and
telemetry of two runs field-by-field:

* **comparability gating** — runs are compared only when their
  scenario content keys and topology modes match; otherwise the diff
  refuses (exit 2) or, with ``--advisory``, downgrades the whole
  envelope to advisory.  Fault-plan and measurement-spec differences
  are allowed but noted: "same scenario, different faults" is exactly
  the remediation experiment the paper's Section 6 outreach implies.
* **per-AS DSAV status flips** — derived from each run's
  ``observations.json`` (an AS with attributed spoofed-source hits
  lacks DSAV), with probe-id evidence pulled from ``events.ndjson``
  ``classify.asn`` entries when the runs were journaled.
* **penetration-rate, drop-reason and telemetry deltas** — headline
  family rates, per-reason ``fabric_drops_total`` totals, and
  per-metric-family sample deltas (deterministic families are exact;
  others are annotated as advisory).

Everything is a pure function of the files the two runs' manifests
commit, each read through :class:`~repro.rundir.RunDirectory` and
checked against its digest: the same inputs render byte-identical
output, ``diff(A, A)`` is empty, and
``mirror(run_diff(a, b)) == run_diff(b, a)`` (antisymmetry) — asserted
by ``test_self_diff_is_empty_and_deterministic`` and
``test_diff_is_antisymmetric``.
"""

from __future__ import annotations

import json

from ..rundir import RunDirectory
from .ledger import ObservatoryError, refusals, spec_key

#: Version of the diff --json envelope.
DIFF_SCHEMA_VERSION = 1

#: Flip directions and their mirror images.
_FLIP_MIRROR = {
    "remediated": "regressed",
    "regressed": "remediated",
    "partial": "partial",
}


# ---------------------------------------------------------------------------
# per-run fact extraction
# ---------------------------------------------------------------------------


def _load_facts(run_path) -> dict:
    """The run and its identity, as the diff compares them."""
    rd = RunDirectory.open(run_path)
    results = rd.results()
    provenance = results["provenance"]
    spec = rd.manifest["spec"]
    return {
        "run": rd,
        "spec": spec,
        "results": results,
        "scenario_key": provenance["scenario_content_key"],
        "topology": provenance["topology"],
        "fault_digest": provenance["fault_plan_digest"],
        "spec_key": spec_key(spec),
        "lineage": (provenance.get("evolution") or {}).get("lineage"),
    }


def _asn_table(rd: RunDirectory) -> dict | None:
    """``{(family, asn): [reached targets]}``, or None if unscanned.

    An entry means the run attributed at least one spoofed-source hit
    inside that AS — the paper's "AS lacks DSAV" verdict.
    """
    payload = rd.observations()
    if payload is None:
        return None
    table: dict = {}
    for obs in payload["collection"]["observations"]:
        if not obs.get("categories"):
            continue
        family = 6 if ":" in obs["target"] else 4
        table.setdefault((family, obs["asn"]), []).append(obs["target"])
    return table


def _asn_evidence(rd: RunDirectory) -> dict:
    """``{(family, asn): [probe ids]}`` from journal classifications."""
    path = rd.journal()
    if path is None:
        return {}
    evidence: dict = {}
    with path.open() as handle:
        for line in handle:
            if '"classify.asn"' not in line:
                continue
            event = json.loads(line)  # verified: every line parses
            if event.get("kind") != "classify.asn":
                continue
            evidence[(event["family"], event["asn"])] = event.get(
                "probes", []
            )
    return evidence


def _drop_totals(telemetry: dict) -> dict:
    """Per-reason ``fabric_drops_total`` totals, summed across ASes."""
    totals: dict = {}
    for family in telemetry["metrics"]["metrics"]:
        if family["name"] != "fabric_drops_total":
            continue
        try:
            index = family["label_names"].index("reason")
        except ValueError:
            continue
        for labels, value in family["samples"]:
            reason = labels[index]
            totals[reason] = totals.get(reason, 0) + value
    return totals


# ---------------------------------------------------------------------------
# section builders
# ---------------------------------------------------------------------------


def _identity(a: dict, b: dict) -> dict:
    out = {}
    for key in (
        "scenario_key", "topology", "fault_digest", "spec_key", "lineage",
    ):
        out[key] = {
            "a": a[key],
            "b": b[key],
            "equal": a[key] == b[key],
        }
    return out


def _comparability(a: dict, b: dict, identity: dict) -> dict:
    notes = []
    comparable = True
    same_lineage = a["lineage"] is not None and a["lineage"] == b["lineage"]
    if not identity["scenario_key"]["equal"]:
        if same_lineage:
            # Epochs of one evolved campaign: the worlds differ on
            # purpose, and that drift is exactly what the diff is for.
            notes.append(
                "scenario content keys differ but both runs are epochs "
                "of one evolution lineage — flips below reflect "
                "evolved-world drift"
            )
        else:
            comparable = False
            notes.append("scenario content keys differ")
    if not identity["topology"]["equal"]:
        comparable = False
        notes.append("topology modes differ")
    if comparable and not identity["fault_digest"]["equal"]:
        notes.append(
            "fault plans differ — flips below reflect seed-driven "
            "packet fates, not scenario changes"
        )
    if comparable and not identity["spec_key"]["equal"]:
        # Flag scan-parameter drift only when it goes beyond the fault
        # plan (which already has its own note above).
        faultless_a = spec_key({**a["spec"], "faults": None})
        faultless_b = spec_key({**b["spec"], "faults": None})
        if faultless_a != faultless_b:
            notes.append("measurement specs differ (scan parameters)")
    return {
        "verdict": "comparable" if comparable else "incomparable",
        "notes": notes,
    }


def _headline_delta(a: dict, b: dict) -> dict:
    out: dict = {}
    for fam in ("v4", "v6"):
        side_a = a.get("headline", {}).get(fam, {})
        side_b = b.get("headline", {}).get(fam, {})
        fam_out = {}
        for key in sorted(set(side_a) | set(side_b)):
            va, vb = side_a.get(key), side_b.get(key)
            entry: dict = {"a": va, "b": vb}
            if isinstance(va, (int, float)) and isinstance(
                vb, (int, float)
            ):
                entry["delta"] = vb - va
            fam_out[key] = entry
        out[fam] = fam_out
    return out


def _flips(
    table_a: dict | None,
    table_b: dict | None,
    evidence_a: dict,
    evidence_b: dict,
) -> list:
    if table_a is None or table_b is None:
        return []
    flips = []
    for key in sorted(set(table_a) | set(table_b)):
        family, asn = key
        targets_a = table_a.get(key, [])
        targets_b = table_b.get(key, [])
        if targets_a and targets_b:
            if targets_a == targets_b:
                continue
            direction = "partial"
            status_a = status_b = "no-dsav"
        elif targets_a:
            direction = "remediated"
            status_a, status_b = "no-dsav", "filtered"
        else:
            direction = "regressed"
            status_a, status_b = "filtered", "no-dsav"
        flips.append(
            {
                "family": family,
                "asn": asn,
                "a": status_a,
                "b": status_b,
                "direction": direction,
                "targets_a": targets_a,
                "targets_b": targets_b,
                "probes_a": evidence_a.get(key, []),
                "probes_b": evidence_b.get(key, []),
            }
        )
    return flips


def _drop_changes(tele_a: dict | None, tele_b: dict | None) -> list:
    if tele_a is None or tele_b is None:
        return []
    totals_a = _drop_totals(tele_a)
    totals_b = _drop_totals(tele_b)
    changes = []
    for reason in sorted(set(totals_a) | set(totals_b)):
        va = totals_a.get(reason, 0)
        vb = totals_b.get(reason, 0)
        if va != vb:
            changes.append(
                {"reason": reason, "a": va, "b": vb, "delta": vb - va}
            )
    return changes


def _results_changes(a: dict, b: dict) -> list:
    """Field-by-field walk of the results, minus ``provenance``."""
    changes: list = []

    def walk(va, vb, path: str) -> None:
        if isinstance(va, dict) and isinstance(vb, dict):
            for key in sorted(set(va) | set(vb)):
                walk(va.get(key), vb.get(key), f"{path}.{key}")
        elif isinstance(va, list) and isinstance(vb, list):
            if len(va) != len(vb):
                changes.append(
                    {"path": f"{path}.length", "a": len(va), "b": len(vb)}
                )
            for index, (xa, xb) in enumerate(zip(va, vb)):
                walk(xa, xb, f"{path}[{index}]")
        elif va != vb:
            changes.append({"path": path, "a": va, "b": vb})

    for key in sorted(set(a) | set(b)):
        if key == "provenance":
            continue
        walk(a.get(key), b.get(key), key)
    return changes


def _telemetry_changes(
    tele_a: dict | None, tele_b: dict | None
) -> dict:
    present = {"a": tele_a is not None, "b": tele_b is not None}
    if tele_a is None or tele_b is None:
        return {"present": present, "families": []}

    def by_name(telemetry: dict) -> dict:
        return {
            family["name"]: family
            for family in telemetry["metrics"]["metrics"]
        }

    fams_a, fams_b = by_name(tele_a), by_name(tele_b)
    out = []
    for name in sorted(set(fams_a) | set(fams_b)):
        fam_a, fam_b = fams_a.get(name), fams_b.get(name)
        meta = fam_a or fam_b
        exact = bool(meta.get("deterministic"))
        kind = meta.get("kind")

        def sample_map(family) -> dict:
            if family is None:
                return {}
            values = {}
            for labels, value in family["samples"]:
                if kind == "histogram":
                    # Bucket counts are deterministic; the float sum of
                    # a wall-time histogram is not.  Compare the counts.
                    values[tuple(labels)] = [
                        value["count"], list(value["counts"]),
                    ]
                else:
                    values[tuple(labels)] = value
            return values

        samples_a, samples_b = sample_map(fam_a), sample_map(fam_b)
        changes = []
        for labels in sorted(set(samples_a) | set(samples_b)):
            va = samples_a.get(labels)
            vb = samples_b.get(labels)
            if va != vb:
                changes.append({"labels": list(labels), "a": va, "b": vb})
        if changes:
            out.append(
                {
                    "name": name,
                    "kind": kind,
                    "exact": exact,
                    "changes": changes,
                }
            )
    return {"present": present, "families": out}


# ---------------------------------------------------------------------------
# the envelope
# ---------------------------------------------------------------------------


def run_diff(run_a, run_b, *, advisory: bool = False) -> dict:
    """The versioned diff envelope between two run directories.

    Raises :class:`ObservatoryError` when the runs are incomparable
    (different scenario / topology) unless *advisory* downgrades the
    comparison instead of refusing it.
    """
    with refusals():
        facts_a = _load_facts(run_a)
        facts_b = _load_facts(run_b)
    rd_a, rd_b = facts_a["run"], facts_b["run"]
    identity = _identity(facts_a, facts_b)
    comparability = _comparability(facts_a, facts_b, identity)
    if comparability["verdict"] == "incomparable":
        if not advisory:
            raise ObservatoryError(
                f"{rd_a.path} and {rd_b.path} are not "
                f"comparable ({'; '.join(comparability['notes'])}) — "
                "pass --advisory to diff them anyway"
            )
        comparability = {
            "verdict": "advisory",
            "notes": comparability["notes"],
        }

    with refusals():
        table_a, table_b = _asn_table(rd_a), _asn_table(rd_b)
        evidence_a, evidence_b = _asn_evidence(rd_a), _asn_evidence(rd_b)
        tele_a, tele_b = rd_a.telemetry(), rd_b.telemetry()

    flips = _flips(table_a, table_b, evidence_a, evidence_b)
    drop_changes = _drop_changes(tele_a, tele_b)
    results_changes = _results_changes(
        facts_a["results"], facts_b["results"]
    )
    telemetry = _telemetry_changes(tele_a, tele_b)
    identical_identity = all(
        entry["equal"] for entry in identity.values()
    )
    empty = (
        identical_identity
        and not flips
        and not drop_changes
        and not results_changes
        and not telemetry["families"]
    )
    return {
        "schema_version": DIFF_SCHEMA_VERSION,
        "kind": "run-diff",
        "a": str(rd_a.path),
        "b": str(rd_b.path),
        "comparability": comparability,
        "identity": identity,
        "headline": _headline_delta(
            facts_a["results"], facts_b["results"]
        ),
        "flips": flips,
        "drop_reasons": drop_changes,
        "results_changes": results_changes,
        "telemetry": telemetry,
        "empty": empty,
    }


def mirror(envelope: dict) -> dict:
    """The envelope of ``diff(B, A)`` given ``diff(A, B)``.

    ``test_diff_is_antisymmetric`` asserts
    ``mirror(run_diff(a, b)) == run_diff(b, a)`` — the antisymmetry
    contract that proves the diff has no hidden order-dependent state.
    """

    def swap(entry: dict) -> dict:
        out = dict(entry)
        out["a"], out["b"] = entry["b"], entry["a"]
        if isinstance(entry.get("delta"), (int, float)):
            out["delta"] = -entry["delta"]
        return out

    out = dict(envelope)
    out["a"], out["b"] = envelope["b"], envelope["a"]
    out["identity"] = {
        key: swap(entry) for key, entry in envelope["identity"].items()
    }
    out["headline"] = {
        fam: {key: swap(entry) for key, entry in side.items()}
        for fam, side in envelope["headline"].items()
    }
    flips = []
    for flip in envelope["flips"]:
        swapped = swap(flip)
        swapped["direction"] = _FLIP_MIRROR[flip["direction"]]
        swapped["targets_a"] = flip["targets_b"]
        swapped["targets_b"] = flip["targets_a"]
        swapped["probes_a"] = flip["probes_b"]
        swapped["probes_b"] = flip["probes_a"]
        flips.append(swapped)
    out["flips"] = flips
    out["drop_reasons"] = [swap(c) for c in envelope["drop_reasons"]]
    out["results_changes"] = [
        swap(c) for c in envelope["results_changes"]
    ]
    telemetry = dict(envelope["telemetry"])
    telemetry["present"] = {
        "a": envelope["telemetry"]["present"]["b"],
        "b": envelope["telemetry"]["present"]["a"],
    }
    telemetry["families"] = [
        {**family, "changes": [swap(c) for c in family["changes"]]}
        for family in envelope["telemetry"]["families"]
    ]
    out["telemetry"] = telemetry
    return out


# ---------------------------------------------------------------------------
# human rendering
# ---------------------------------------------------------------------------


def _short(value) -> str:
    if value is None:
        return "-"
    text = str(value)
    return text[:12] + "…" if len(text) > 12 else text


def render_diff(envelope: dict) -> str:
    """Git-style text rendering; empty string when nothing differs."""
    if envelope["empty"]:
        return ""
    lines = [f"run diff: {envelope['a']} → {envelope['b']}"]
    comparability = envelope["comparability"]
    line = f"comparability: {comparability['verdict']}"
    if comparability["notes"]:
        line += f" ({'; '.join(comparability['notes'])})"
    lines.append(line)
    identity = envelope["identity"]
    for key in ("scenario_key", "topology", "fault_digest"):
        entry = identity[key]
        if not entry["equal"]:
            lines.append(
                f"  {key}: {_short(entry['a'])} → {_short(entry['b'])}"
            )

    headline_lines = []
    for fam in ("v4", "v6"):
        for key in ("reachable_asns", "asn_rate",
                    "reachable_addresses", "address_rate"):
            entry = envelope["headline"][fam].get(key)
            if (
                entry is None
                or entry["a"] == entry["b"]
                or "delta" not in entry
            ):
                continue
            if "rate" in key:
                headline_lines.append(
                    f"  {fam} {key}: {entry['a']:.2%} → {entry['b']:.2%}"
                    f" ({entry['delta']:+.2%})"
                )
            else:
                headline_lines.append(
                    f"  {fam} {key}: {entry['a']} → {entry['b']}"
                    f" ({entry['delta']:+d})"
                )
    if headline_lines:
        lines.append("headline:")
        lines.extend(headline_lines)

    flips = envelope["flips"]
    if flips:
        counts = {"remediated": 0, "regressed": 0, "partial": 0}
        for flip in flips:
            counts[flip["direction"]] += 1
        lines.append(
            f"per-AS DSAV flips ({counts['remediated']} remediated, "
            f"{counts['regressed']} regressed, "
            f"{counts['partial']} partial):"
        )
        for flip in flips:
            line = (
                f"  AS{flip['asn']} v{flip['family']}: "
                f"{flip['a']} → {flip['b']} ({flip['direction']})"
            )
            targets = flip["targets_a"] or flip["targets_b"]
            line += f"; {len(targets)} target(s)"
            probes = flip["probes_a"] or flip["probes_b"]
            if probes:
                shown = ", ".join(probes[:4])
                more = len(probes) - 4
                line += f"; evidence probes {shown}"
                if more > 0:
                    line += f" (+{more} more)"
            lines.append(line)

    if envelope["drop_reasons"]:
        lines.append("drop reasons:")
        for change in envelope["drop_reasons"]:
            lines.append(
                f"  {change['reason']}: {change['a']} → "
                f"{change['b']} ({change['delta']:+d})"
            )

    other = [
        change
        for change in envelope["results_changes"]
        if not change["path"].startswith("headline.")
    ]
    if other:
        lines.append(f"results fields changed: {len(other)}")
        for change in other[:20]:
            lines.append(
                f"  {change['path']}: {change['a']} → {change['b']}"
            )
        if len(other) > 20:
            lines.append(f"  … and {len(other) - 20} more")

    telemetry = envelope["telemetry"]
    if telemetry["families"]:
        lines.append("telemetry families changed:")
        for family in telemetry["families"]:
            tag = "exact" if family["exact"] else "advisory"
            lines.append(
                f"  {family['name']} [{tag}]: "
                f"{len(family['changes'])} sample(s) differ"
            )
            if family["exact"]:
                for change in family["changes"][:8]:
                    labels = ",".join(change["labels"])
                    label_text = f"{{{labels}}}" if labels else ""
                    lines.append(
                        f"    {family['name']}{label_text}: "
                        f"{change['a']} → {change['b']}"
                    )
                if len(family["changes"]) > 8:
                    lines.append(
                        f"    … and {len(family['changes']) - 8} more"
                    )
    elif not (telemetry["present"]["a"] and telemetry["present"]["b"]):
        lines.append(
            "telemetry: not present in both runs (scan --metrics "
            "records it)"
        )
    return "\n".join(lines)

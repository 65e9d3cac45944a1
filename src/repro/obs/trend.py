"""Longitudinal trends over a cross-run ledger.

``repro-dsav trend <ledger-dir>`` reads ``ledger.json`` (see
:mod:`repro.obs.ledger`), groups its rows into **lineages** — runs of
the same scenario content key and topology, i.e. repeated measurements
of the same world, or epochs of one evolved campaign sharing an
explicit lineage key (see :mod:`repro.campaigns.evolution`) — and
reports, per lineage:

* the trajectory of a chosen headline metric (``--metric``),
* per-AS flip timelines derived from each run's ``observations.json``
  (``R`` = reached / no DSAV, ``.`` = filtered, ``?`` = run has no
  observations artifact), and
* remediation accounting: ASes that flipped closed and stayed closed
  vs. whac-a-mole ASes that keep reopening ("Whac-A-Mole: Six Years of
  DNS Spoofing" is the reference point for why this distinction is the
  interesting longitudinal signal).

The output is deterministic — same ledger and run artifacts, same
bytes — and the ``--json`` envelope is versioned so the future
campaign scheduler can consume it as a time-series store.
"""

from __future__ import annotations

from pathlib import Path

from ..rundir import RunDirectory
from .diff import _asn_table
from .ledger import Ledger, ObservatoryError, refusals

#: Version of the trend --json envelope.
TREND_SCHEMA_VERSION = 1

#: ``--metric`` choices → path into a ledger row.
METRIC_PATHS = {
    "asn-rate-v4": ("stats", "v4", "asn_rate"),
    "asn-rate-v6": ("stats", "v6", "asn_rate"),
    "address-rate-v4": ("stats", "v4", "address_rate"),
    "address-rate-v6": ("stats", "v6", "address_rate"),
    "reachable-asns-v4": ("stats", "v4", "reachable_asns"),
    "reachable-asns-v6": ("stats", "v6", "reachable_asns"),
    "probes-sent": ("stats", "probes_sent"),
    "wall-seconds": ("wall_seconds",),
}

#: Timeline glyphs per status.
_GLYPHS = {"reached": "R", "filtered": ".", "unknown": "?"}


def _metric_value(row: dict, metric: str):
    value = row
    for key in METRIC_PATHS[metric]:
        if not isinstance(value, dict):
            return None
        value = value.get(key)
    return value


def _verdict(statuses: list[str]) -> str:
    """Classify one AS's known-status sequence across a lineage."""
    known = [s for s in statuses if s != "unknown"]
    transitions = sum(
        1 for prev, cur in zip(known, known[1:]) if prev != cur
    )
    if transitions >= 2:
        return "whac-a-mole"
    if known[-1] == "filtered":
        return "remediated"
    if transitions == 1:
        # filtered earlier, reached at the end.
        return "regressed"
    return "stable-open"


def _run_table(run_path: Path) -> dict | None:
    """The run's per-AS table (see :func:`~repro.obs.diff._asn_table`),
    read once the run still commits the results its row came from."""
    with refusals():
        rd = RunDirectory.open(run_path)
        rd.results()
        return _asn_table(rd)


def _lineage_timeline(run_paths: list[Path]) -> dict:
    """Per-AS flip timelines over the lineage's runs, per family."""
    tables = [_run_table(path) for path in run_paths]
    timeline = []
    counts = {
        "remediated": 0,
        "regressed": 0,
        "whac-a-mole": 0,
        "stable-open": 0,
    }
    keys = sorted(
        {key for table in tables if table is not None for key in table}
    )
    for family, asn in keys:
        statuses = []
        for table in tables:
            if table is None:
                statuses.append("unknown")
            elif (family, asn) in table:
                statuses.append("reached")
            else:
                statuses.append("filtered")
        verdict = _verdict(statuses)
        counts[verdict] += 1
        timeline.append(
            {
                "family": family,
                "asn": asn,
                "statuses": statuses,
                "verdict": verdict,
            }
        )
    return {"timeline": timeline, "counts": counts}


def build_trend(ledger_dir, *, metric: str = "asn-rate-v4") -> dict:
    """The versioned trend envelope over *ledger_dir*'s ledger."""
    if metric not in METRIC_PATHS:
        raise ObservatoryError(
            f"unknown --metric {metric!r} "
            f"(choose from {', '.join(sorted(METRIC_PATHS))})"
        )
    ledger = Ledger(ledger_dir)
    payload = ledger.require()
    lineages: dict = {}
    order: list = []
    for row in payload["rows"]:
        # Evolved campaigns stamp an explicit lineage key into each
        # epoch's row: the scenario content key *changes* every epoch
        # (the world evolved), but the rows are still one longitudinal
        # series.  Rows without one group the classic way.
        key = (
            row.get("lineage") or row.get("scenario_key"),
            row.get("topology"),
        )
        if key not in lineages:
            lineages[key] = []
            order.append(key)
        lineages[key].append(row)

    out = []
    for key in order:
        rows = lineages[key]
        _, topology = key
        run_paths = [ledger.base / row["run"] for row in rows]
        lineage = _lineage_timeline(run_paths)
        entry = {
            "scenario_key": rows[0].get("scenario_key"),
            "topology": topology,
            "runs": [row["run"] for row in rows],
            "fault_digests": [row.get("fault_digest") for row in rows],
            "series": [_metric_value(row, metric) for row in rows],
            "timeline": lineage["timeline"],
            "counts": lineage["counts"],
        }
        if any("lineage" in row for row in rows):
            entry["lineage"] = rows[0].get("lineage")
            entry["epochs"] = [row.get("epoch") for row in rows]
        out.append(entry)
    return {
        "schema_version": TREND_SCHEMA_VERSION,
        "kind": "trend",
        "metric": metric,
        "lineages": out,
    }


def render_trend(envelope: dict) -> str:
    """Text tables of every lineage in the envelope."""
    metric = envelope["metric"]
    lines = []
    if not envelope["lineages"]:
        return "ledger is empty — nothing to trend"
    for lineage in envelope["lineages"]:
        scenario = lineage.get("lineage") or lineage["scenario_key"]
        label = scenario[:12] + "…" if scenario else "(legacy runs)"
        runs = lineage["runs"]
        lines.append(
            f"lineage {label} [{lineage['topology']}] — "
            f"{len(runs)} run(s): {', '.join(runs)}"
        )
        series = []
        for value in lineage["series"]:
            if value is None:
                series.append("-")
            elif "rate" in metric:
                series.append(f"{value:.2%}")
            elif isinstance(value, float):
                series.append(f"{value:.2f}")
            else:
                series.append(str(value))
        lines.append(f"  {metric}: {'  '.join(series)}")
        timeline = lineage["timeline"]
        if timeline:
            lines.append(
                "  per-AS timeline (R=reached/no-dsav, .=filtered, "
                "?=no observations artifact):"
            )
            for entry in timeline:
                glyphs = "".join(
                    _GLYPHS[status] for status in entry["statuses"]
                )
                lines.append(
                    f"    AS{entry['asn']:<6} v{entry['family']}  "
                    f"{glyphs}  {entry['verdict']}"
                )
            counts = lineage["counts"]
            lines.append(
                f"  remediation: {counts['remediated']} closed and "
                f"stayed closed; {counts['whac-a-mole']} whac-a-mole; "
                f"{counts['regressed']} regressed; "
                f"{counts['stable-open']} stayed open"
            )
        lines.append("")
    return "\n".join(lines).rstrip("\n")

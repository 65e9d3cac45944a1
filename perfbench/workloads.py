"""The benchmark's workloads, and the process that runs one iteration.

Every iteration of a workload runs in a fresh interpreter::

    python3 perfbench/workloads.py '<job json>'

so each one pays import, scenario build or cache load, and process
start-up exactly as a CLI invocation does.  The job names the
workload, the iteration's work directory and the mode:

``warm``
    import the product (and, for ``chaos-forensics``, fill the
    scenario cache); untimed set-up.
``timed``
    run the workload with only the stage clock installed.
``traced``
    run it with every layer entry point wrapped (see ``tracer.py``).
``profiled``
    run ``chaos-forensics`` with ``run_pipeline(..., profile=True)``,
    for the cProfile second opinion.

The process writes ``record.json`` into the work directory: clock
readings, output digests, probe counts and any error.  This module
imports nothing from ``src/`` at import time, so the benchmark process
that spawns the iterations stays free of the product.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

#: The clauses of ``examples/faultplans/campaign-weather.json`` without
#: its ``shard-crash`` clause: a scripted crash would re-execute a
#: shard on every run.
CHAOS_FAULTS = {
    "schema_version": 1,
    "seed": 7,
    "name": "six-week-campaign-weather",
    "clauses": [
        {"kind": "burst-loss", "rate": 0.3, "start": 20.0, "end": 60.0,
         "src_asn": 64496, "dst_asn": None},
        {"kind": "reorder", "rate": 0.1, "jitter": 0.4, "start": 0.0,
         "end": None},
        {"kind": "duplicate", "rate": 0.05, "delay": 0.08, "start": 0.0,
         "end": None},
        {"kind": "resolver-slowdown", "address": "30.0.0.1",
         "factor": 5.0, "start": 0.0, "end": 90.0},
        {"kind": "resolver-outage", "address": "30.0.1.1", "start": 30.0,
         "end": 45.0},
        {"kind": "blackhole", "prefix": "2001:db8:30::/48", "start": 10.0,
         "end": 25.0},
    ],
}


#: Shard worker processes of every workload.  Both fork their shards one
#: at a time on one worker: with two in parallel, a co-tenant busy on one
#: of two cores stretches whichever shard shares its core, and
#: ``scan_s``, the slower of the two, spread past its bound between runs.
WORKERS = 1


@dataclass(frozen=True)
class Workload:
    """One named workload: its scenario and sizes.

    Why each workload exists is recorded in ``BENCHMARK.json``.  The
    scenario seed is part of the workload, not of the run: worlds built
    from other seeds differ by 15-25% in probes sent and in scan time,
    far more than the run-to-run spread the bounds are set from.
    """

    name: str
    params: dict
    #: the same workload shrunk for the self-tests.
    smoke: dict
    seed: int = 2019

    def sizes(self, smoke: bool) -> dict:
        return self.smoke if smoke else self.params


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="chaos-forensics",
            params={
                "n_ases": 8, "duration": 180.0, "max_retries": 2,
                "shards": 2,
            },
            smoke={
                "n_ases": 4, "duration": 30.0, "max_retries": 2,
                "shards": 2,
            },
        ),
        Workload(
            name="longitudinal",
            params={
                "n_ases": 40, "duration": 60.0, "shards": 8, "epochs": 6,
            },
            smoke={
                "n_ases": 16, "duration": 20.0, "shards": 4, "epochs": 2,
            },
        ),
    )
}


def results_digest(path: Path) -> str:
    """sha256 of a ``results.json``'s canonical JSON form, without its
    ``provenance`` header."""
    results = json.loads(path.read_text())
    results.pop("provenance", None)
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _probe_counts(results_paths: list[Path]) -> tuple[int, int]:
    sent = retransmitted = 0
    for path in results_paths:
        provenance = json.loads(path.read_text())["provenance"]
        sent += provenance["probes_sent"]
        resilience = provenance.get("resilience") or {}
        retransmitted += resilience.get("probes_retransmitted", 0)
    return sent, retransmitted


# ---------------------------------------------------------------------------
# the workload process
# ---------------------------------------------------------------------------


def _scan_config(sizes: dict):
    from repro.core.scanner import ScanConfig

    return ScanConfig(
        duration=sizes["duration"],
        max_retries=sizes.get("max_retries", 0),
    )


def _chaos_spec(seed: int, sizes: dict):
    from repro.core.pipeline import CampaignSpec
    from repro.netsim.topology import TopologySpec

    return CampaignSpec.from_scan_config(
        seed=seed,
        n_ases=sizes["n_ases"],
        shards=sizes["shards"],
        config=_scan_config(sizes),
        metrics=True,
        journal=True,
        stream=True,
        faults=CHAOS_FAULTS,
        topology=TopologySpec().to_payload(),
    )


def _low_churn_plan():
    from repro.campaigns import (
        EvolutionPlan,
        ResolverChurn,
        SavRegression,
        SavRemediation,
    )

    return EvolutionPlan(
        seed=5,
        name="low-churn",
        clauses=(
            ResolverChurn(rate=0.02),
            SavRemediation(rate=0.03),
            SavRegression(rate=0.01),
        ),
    )


def _run_chaos(job: dict, sizes: dict, work: Path) -> dict:
    from repro.core.pipeline import run_pipeline

    spec = _chaos_spec(WORKLOADS[job["workload"]].seed, sizes)
    run_dir = work / "run"
    run_pipeline(
        spec,
        run_dir=run_dir,
        workers=WORKERS,
        scenario_cache=job["cache"],
        profile=job["mode"] == "profiled",
    )
    t_end = time.perf_counter()
    events = run_dir / "events.ndjson"
    return {
        "t_end": t_end,
        "spec": spec.to_payload(),
        "results": [run_dir / "results.json"],
        "events": events,
        "artifacts": run_dir,
    }


def _run_longitudinal(job: dict, sizes: dict, work: Path) -> dict:
    from repro.campaigns import CampaignPolicy, run_campaign
    from repro.core.pipeline import CampaignSpec

    base = CampaignSpec.from_scan_config(
        seed=WORKLOADS[job["workload"]].seed,
        n_ases=sizes["n_ases"],
        shards=sizes["shards"],
        partition="modulo",
        config=_scan_config(sizes),
    )
    campaign = work / "campaign"
    plan = _low_churn_plan()
    status = run_campaign(
        base,
        plan,
        sizes["epochs"],
        campaign,
        workers=WORKERS,
        policy=CampaignPolicy(incremental=True),
    )
    t_end = time.perf_counter()
    entries = status["schedule"]["epochs"]
    return {
        "t_end": t_end,
        "spec": {
            "base": base.to_payload(),
            "plan": plan.to_payload(),
            "epochs": sizes["epochs"],
            "incremental": True,
        },
        "results": [campaign / entry["run_dir"] / "results.json"
                    for entry in entries],
        "ledger": campaign / "ledger.json",
        "artifacts": campaign,
        "epochs": [
            {"status": entry["status"], "attempts": entry["attempts"]}
            for entry in entries
        ],
    }


RUNNERS = {
    "chaos-forensics": _run_chaos,
    "longitudinal": _run_longitudinal,
}


def _import_product(name: str) -> None:
    import repro.core.pipeline  # noqa: F401

    if name == "chaos-forensics":
        import repro.netsim.topology  # noqa: F401
    if name == "longitudinal":
        import repro.campaigns.supervisor  # noqa: F401


def _warm(job: dict, sizes: dict) -> None:
    if job["workload"] == "chaos-forensics":
        from repro.scenarios.compiled import ScenarioCache, build_or_load

        spec = _chaos_spec(WORKLOADS[job["workload"]].seed, sizes)
        build_or_load(
            spec.scenario_params(), cache=ScenarioCache(job["cache"])
        )


def _outputs(outputs: dict) -> dict:
    """Digests and sizes of what the run wrote, read back from disk."""
    results = outputs["results"]
    found: dict = {
        "spec": outputs["spec"],
        "digests": {"results": [results_digest(p) for p in results]},
    }
    found["probes_sent"], found["retransmits"] = _probe_counts(results)
    if "events" in outputs:
        data = outputs["events"].read_bytes()
        found["digests"]["events"] = hashlib.sha256(data).hexdigest()
        found["journal_bytes"] = len(data)
    if "ledger" in outputs:
        from repro.obs.ledger import ledger_digest

        found["digests"]["ledger"] = ledger_digest(
            json.loads(outputs["ledger"].read_text())
        )
        found["epochs"] = outputs["epochs"]
    if "artifacts" in outputs:
        found["artifact_bytes"] = _tree_bytes(outputs["artifacts"])
    return found


def main(argv: list[str]) -> int:
    t_start = time.perf_counter()
    job = json.loads(argv[1])
    work = Path(job["work"])
    record: dict = {"t_start": t_start, "mode": job["mode"], "error": None}
    tracer = None
    try:
        sizes = WORKLOADS[job["workload"]].sizes(job["smoke"])
        _import_product(job["workload"])
        record["t_imported"] = time.perf_counter()
        if job["mode"] == "warm":
            _warm(job, sizes)
        else:
            if job["mode"] in ("timed", "traced"):
                import tracer as tracing

                points = (
                    tracing.LAYER_POINTS
                    if job["mode"] == "traced"
                    else tracing.STAGE_POINTS
                )
                tracer = tracing.Tracer(points, work / "spans").install()
            try:
                outputs = RUNNERS[job["workload"]](job, sizes, work)
            finally:
                if tracer is not None:
                    tracer.finish()
            record["t_end"] = outputs["t_end"]
            record.update(_outputs(outputs))
    except Exception:
        record["error"] = traceback.format_exc()
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0 if record["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

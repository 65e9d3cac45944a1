"""Shared fixtures: the worlds that several test modules read.

Building and scanning a synthetic Internet takes seconds, so each world
here runs once per session and is shared read-only.  A test that
resumes, corrupts or extends a shared run directory works on a
``shutil.copytree`` copy; tests that need to mutate state build their
own scenario.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.campaigns import (
    EvolutionPlan,
    ResolverChurn,
    SavRemediation,
    run_campaign,
)
from repro.core import ScanConfig
from repro.core.pipeline import CampaignSpec, PipelineOutcome, run_pipeline
from repro.netsim.faults import BurstLoss, Duplicate, FaultPlan, Reorder
from repro.obs.export import deterministic_counters
from repro.obs.stream import RunHealth, RunStream
from repro.scenarios import MEASUREMENT_ASN, ScenarioParams, build_internet


def minus_provenance(results: dict) -> dict:
    """Results without ``provenance``, which records how a run was
    executed (shards, wall time, spec toggles), never what it found."""
    return {k: v for k, v in results.items() if k != "provenance"}


@pytest.fixture(scope="session")
def scan_params() -> ScenarioParams:
    return ScenarioParams(seed=11, n_ases=60)


@pytest.fixture(scope="session")
def scan_results(scan_params):
    """(scenario, targets, scanner, collector) for a completed campaign."""
    scenario = build_internet(scan_params)
    targets = scenario.target_set()
    scanner, collector = scenario.make_scanner(ScanConfig(duration=90.0))
    scanner.run()
    return scenario, targets, scanner, collector


# -- the clean star world -----------------------------------------------------

#: Seed, size and simulated seconds of the clean star world.
CLEAN_SEED = 7
CLEAN_N_ASES = 40
CLEAN_DURATION = 40.0


def clean_spec(shards: int) -> CampaignSpec:
    """The clean star world's spec: no faults, metrics on."""
    return CampaignSpec.from_scan_config(
        seed=CLEAN_SEED,
        n_ases=CLEAN_N_ASES,
        shards=shards,
        config=ScanConfig(duration=CLEAN_DURATION),
        metrics=True,
    )


@pytest.fixture(scope="session")
def clean_star_one(tmp_path_factory):
    """(run_dir, outcome) of the clean star world in one shard."""
    run_dir = tmp_path_factory.mktemp("clean-star-one")
    return run_dir, run_pipeline(clean_spec(1), run_dir=run_dir, workers=0)


@pytest.fixture(scope="session")
def clean_star_four(tmp_path_factory):
    """(run_dir, outcome) of the clean star world in four inline shards."""
    run_dir = tmp_path_factory.mktemp("clean-star-four")
    return run_dir, run_pipeline(clean_spec(4), run_dir=run_dir, workers=0)


# -- the reference campaign ---------------------------------------------------


def campaign_spec(**overrides) -> CampaignSpec:
    """The supervisor tests' base spec: 24 ASes, 2 modulo shards."""
    values = dict(
        seed=7,
        n_ases=24,
        shards=2,
        partition="modulo",
        config=ScanConfig(duration=10.0),
    )
    values.update(overrides)
    return CampaignSpec.from_scan_config(**values)


def campaign_plan(**overrides) -> EvolutionPlan:
    """A low-churn plan, so incremental epochs reuse some shards."""
    values = dict(
        seed=3,
        name="drill",
        clauses=(
            ResolverChurn(rate=0.05),
            SavRemediation(rate=0.1),
        ),
    )
    values.update(overrides)
    return EvolutionPlan(**values)


#: Epochs of the reference campaign.
CAMPAIGN_EPOCHS = 3


@pytest.fixture(scope="session")
def reference_campaign(tmp_path_factory):
    """(campaign_dir, status) of ``campaign_spec()`` under
    ``campaign_plan()`` for three epochs, incremental (the default
    policy), inline."""
    base = tmp_path_factory.mktemp("reference-campaign") / "camp"
    status = run_campaign(
        campaign_spec(), campaign_plan(), CAMPAIGN_EPOCHS, base, workers=0
    )
    return base, status


# -- the invariant matrix's world ---------------------------------------------
#
# One small star world with every observer and the chaos machinery on:
# burst loss on the measurement AS, reordering and duplication, one retry
# per probe, metrics, the journal and the stream.  Its reference cell runs
# 4 weighted shards inline with the skip-ahead event loop, and fills a
# fresh scenario cache.  Every other cell flips one toggle of the
# reference and runs at most once per session.  Only the warm cell reads
# that scenario cache; the others build their world without one, as a run
# without ``--scenario-cache`` does.  ``tests/invariants/test_matrix.py``
# compares every cell with the reference; the modules that own a toggle
# read the cells that hold their own guarantee.

MATRIX_PLAN = FaultPlan(
    seed=3,
    name="matrix",
    clauses=[
        BurstLoss(rate=0.5, src_asn=MEASUREMENT_ASN),
        Reorder(rate=0.2, jitter=0.3),
        Duplicate(rate=0.1, delay=0.05),
    ],
)

REFERENCE_TOGGLES = {
    "shards": 4,
    "partition": "weighted",
    "skip_ahead": True,
    "metrics": True,
    "journal": True,
    "stream": True,
    "workers": 0,
    "profile": False,
    "scenario_cache": True,
}

#: Each cell's one flipped toggle, by the cell's name.
CELLS = {
    "shards=1": {"shards": 1},
    "metrics=False": {"metrics": False},
    "journal=False": {"journal": False},
    "stream=False": {"stream": False},
    "skip_ahead=False": {"skip_ahead": False},
    "partition=modulo": {"partition": "modulo"},
    "workers=2,profile=True": {"workers": 2, "profile": True},
    "scenario_cache=warm": {"scenario_cache": True},
}


def shard_artifact(run_dir: Path, shard_id: int) -> dict:
    return json.loads((run_dir / f"shard-{shard_id:03d}.json").read_text())


def folded_stream_deltas(run_dir: Path) -> dict:
    """Fold a run's stream deltas and keep the deterministic slice:
    counters and histogram counts, which no sharding may move."""
    health = RunHealth()
    for event in RunStream(run_dir).poll():
        health.absorb(event)
    slice_ = {}
    for family in health.registry().to_payload()["metrics"]:
        if (
            family["name"].startswith("watch_")
            or not family.get("deterministic", True)
            or family["kind"] == "gauge"
        ):
            continue
        histogram = family["kind"] == "histogram"
        slice_[family["name"]] = [
            [labels, {"counts": v["counts"], "count": v["count"]}
             if histogram else v]
            for labels, v in family["samples"]
        ]
    return slice_


class Cell(NamedTuple):
    """One run of the matrix world, and what the matrix compares."""

    toggles: dict
    run_dir: Path
    outcome: PipelineOutcome

    def results(self) -> str:
        """``results.json`` minus provenance, in its saved layout."""
        saved = json.loads((self.run_dir / "results.json").read_text())
        return json.dumps(minus_provenance(saved), indent=2)

    def journal(self) -> bytes:
        return (self.run_dir / "events.ndjson").read_bytes()

    def counters(self) -> dict:
        return deterministic_counters(self.outcome.telemetry)

    def stream_deltas(self) -> dict:
        return folded_stream_deltas(self.run_dir)

    def planned(self) -> list[int]:
        """Probes each shard planned."""
        return [
            shard_artifact(self.run_dir, i)["metadata"]["probes_scheduled"]
            for i in range(self.toggles["shards"])
        ]


def matrix_spec(
    shards: int = 4,
    partition: str = "weighted",
    skip_ahead: bool = True,
    metrics: bool = True,
    journal: bool = True,
    stream: bool = True,
) -> CampaignSpec:
    """The matrix world's spec; its defaults are the reference's."""
    return CampaignSpec.from_scan_config(
        seed=7,
        n_ases=12,
        shards=shards,
        partition=partition,
        config=ScanConfig(
            duration=30.0, max_retries=1, skip_ahead=skip_ahead
        ),
        metrics=metrics,
        journal=journal,
        stream=stream,
        faults=MATRIX_PLAN.to_payload(),
    )


@pytest.fixture(scope="session")
def cell(tmp_path_factory):
    """``cell(name)``: the named cell's run, made once per session."""
    base = tmp_path_factory.mktemp("matrix")
    cells: dict[str, Cell] = {}

    def run(name: str) -> Cell:
        if name in cells:
            return cells[name]
        toggles = dict(REFERENCE_TOGGLES)
        if name != "reference":
            run("reference")  # fills the scenario cache first
            toggles.update({"scenario_cache": False, **CELLS[name]})
        spec = matrix_spec(
            **{
                name: toggles[name]
                for name in (
                    "shards", "partition", "skip_ahead",
                    "metrics", "journal", "stream",
                )
            }
        )
        run_dir = base / name.replace(",", "-")
        cells[name] = Cell(toggles, run_dir, run_pipeline(
            spec,
            run_dir=run_dir,
            workers=toggles["workers"],
            profile=toggles["profile"],
            scenario_cache=(
                base / "scenario-cache" if toggles["scenario_cache"] else None
            ),
        ))
        return cells[name]

    return run


@pytest.fixture(scope="session")
def reference(cell) -> Cell:
    """The matrix's reference cell."""
    return cell("reference")

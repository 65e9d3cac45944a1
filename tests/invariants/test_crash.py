"""Crash-anywhere: a kill at any durable write resumes to the same run.

Every file a run or a campaign persists is written through one
write-then-rename (``repro.durable``), and ``tests/test_durable.py``
holds that no other code renames or fsyncs a file.  So the renames are
the kill points that matter: between two of them the disk holds what
the last one published, plus at most a ``*.tmp<pid>`` file that no
reader opens.

A run with inline shards (``workers=0``) writes everything from one
process.  A copy of its directories taken just before or just after a
rename is what a SIGKILL at that instant leaves on disk, since a kill
loses only bytes the OS never received.  Each copy is resumed
in-process and must reproduce the uninterrupted run.  One real SIGKILL
of a child process, at a chosen rename, anchors that claim.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from repro.campaigns import (
    CampaignError,
    campaign_status,
    resume_campaign,
    run_campaign,
)
from repro.core.pipeline import resume_pipeline, run_pipeline
from repro.obs.export import deterministic_counters, load_telemetry
from repro.obs.ledger import ledger_digest

from ..conftest import (
    CAMPAIGN_EPOCHS,
    campaign_plan,
    campaign_spec,
    matrix_spec,
)

#: A temp file that a write left behind.
TMP = re.compile(r"\.tmp\d+$")

REPO = Path(__file__).resolve().parents[2]

#: Shard workers of every resume.  The copies are of inline runs, but
#: how a resume executes the shards it re-derives is no part of what
#: it must reproduce (the matrix's ``workers=2`` cell), and two forked
#: workers halve the cost of the copies that re-execute every shard.
RESUME_WORKERS = 2


class KillPoint(NamedTuple):
    """One side of one rename, and a copy of the directories as a kill
    there leaves them."""

    index: int
    side: str
    target: Path
    copy: Path

    @property
    def name(self) -> str:
        return f"{self.index}-{self.side}-{self.target.name}"


def _dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", ""])
    child.wait()
    return child.pid


def _state(roots: list[Path]) -> list[tuple[str, str]]:
    """Every file under *roots* but temp files, with its digest."""
    return [
        (str(path), hashlib.sha256(path.read_bytes()).hexdigest())
        for root in roots if root.exists()
        for path in sorted(root.rglob("*"))
        if path.is_file() and not TMP.search(path.name)
    ]


@contextmanager
def kill_points(
    roots: list[Path],
    out: Path,
    keep: Callable[[Path], bool] = lambda target: True,
):
    """Copy *roots* into *out* just before and just after each rename
    made inside the block whose target *keep* accepts; yields the
    list of :class:`KillPoint`, filled as the block runs.

    Just after one rename and just before the next, the directories
    usually hold the same files but for the next write's temp file.
    Such points share one copy, the one that holds the temp file, so
    each distinct state is resumed once.
    """
    points: list[KillPoint] = []
    last: list[tuple[str, str]] = []
    renames = 0
    real = os.replace
    dead = _dead_pid()

    def snapshot(side: str, target: Path) -> None:
        nonlocal last
        state = _state(roots)
        if points and state == last:
            copy = points[-1].copy
            shutil.rmtree(copy)
        else:
            copy = out / f"{len(points):03d}"
        last = state
        for root in roots:
            if root.exists():
                shutil.copytree(root, copy / root.name)
        # A killed run's ledger lock names a dead process, which the
        # resume takes over; the copy's names this live one.
        for lock in copy.rglob("ledger.lock"):
            held = json.loads(lock.read_text())
            lock.write_text(json.dumps(dict(held, pid=dead)))
        points.append(KillPoint(renames, side, target, copy))

    def replace(src, dst) -> None:
        nonlocal renames
        renames += 1
        target = Path(dst)
        wanted = keep(target)
        if wanted:
            snapshot("before", target)
        real(src, dst)
        if wanted:
            snapshot("after", target)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "replace", replace)
        yield points


def by_copy(points: list[KillPoint]) -> dict[Path, list[str]]:
    """The distinct copies, each with the names of the points it
    stands for."""
    copies: dict[Path, list[str]] = {}
    for point in points:
        copies.setdefault(point.copy, []).append(point.name)
    return copies


def _files(directory: Path) -> list[str]:
    return sorted(
        p.name for p in directory.iterdir() if not TMP.search(p.name)
    )


def _results(run_dir: Path) -> dict:
    results = json.loads((run_dir / "results.json").read_text())
    del results["provenance"]["wall_seconds"]
    return results


def _manifest(run_dir: Path) -> dict:
    manifest = json.loads((run_dir / "manifest.json").read_text())
    return {
        "spec": manifest["spec"],
        "stages": manifest["stages_completed"],
        "artifacts": sorted(manifest["artifacts"]),
    }


def _differences(got: dict, want: dict) -> list[str]:
    return sorted(key for key in want if got.get(key) != want[key])


# ---------------------------------------------------------------------------
# scan: the matrix world, every parent write
# ---------------------------------------------------------------------------

#: Each rename of one matrix-world run, in order: a stage's files,
#: then the one manifest write that commits them.
SCAN_WRITES = [
    "manifest.json",
    "faults.json", "manifest.json",
    "shard-000.json", "shard-001.json", "shard-002.json", "shard-003.json",
    "manifest.json",
    "events.ndjson", "observations.json", "manifest.json",
    "events.ndjson", "results.json", "manifest.json",
    "report.txt", "telemetry.json", "manifest.json",
    "ledger.json",
]


def scan_state(ledger: Path) -> dict:
    """What a resumed scan must reproduce.  The run directory sits in
    its ledger directory, so the ledger row names it the same way in
    every copy."""
    run_dir = ledger / "run"
    return {
        "results": _results(run_dir),
        "journal": (run_dir / "events.ndjson").read_bytes(),
        "counters": deterministic_counters(
            load_telemetry(run_dir / "telemetry.json")
        ),
        "manifest": _manifest(run_dir),
        "files": _files(run_dir),
        "ledger": ledger_digest(
            json.loads((ledger / "ledger.json").read_text())
        ),
    }


def _scan(ledger: Path) -> None:
    run_pipeline(
        matrix_spec(), run_dir=ledger / "run", workers=0, ledger=ledger
    )


@pytest.fixture(scope="module")
def scan_run(tmp_path_factory):
    """The matrix world run once, inline, into a ledger directory, and
    a copy of that directory at every kill point."""
    base = tmp_path_factory.mktemp("scan-kills")
    ledger = base / "ledger"
    with kill_points([ledger], base / "points") as points:
        _scan(ledger)
    return ledger, points


def test_scan_kill_at_every_write_resumes_to_the_run(scan_run, tmp_path):
    ledger, points = scan_run
    assert [p.target.name for p in points if p.side == "after"] == (
        SCAN_WRITES
    )
    want = scan_state(ledger)
    differ, unresumable = [], []
    for copy, names in by_copy(points).items():
        work = shutil.copytree(copy / "ledger", tmp_path / copy.name)
        if not (work / "run" / "manifest.json").exists():
            # Nothing to resume: the scan is rerun from scratch.
            with pytest.raises(FileNotFoundError):
                resume_pipeline(work / "run", workers=RESUME_WORKERS)
            unresumable += names
            continue
        resume_pipeline(work / "run", workers=RESUME_WORKERS, ledger=work)
        diff = _differences(scan_state(work), want)
        differ += [(name, diff) for name in names if diff]
    assert differ == []
    assert unresumable == ["1-before-manifest.json"]


#: Runs the matrix world as ``scan_run`` does, SIGKILLing itself at one
#: side of its N-th rename.
_SCAN_CHILD = """
import os, signal, sys
from pathlib import Path
from tests.invariants.test_crash import _scan

ledger, kill_at, side = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
renames = 0
real = os.replace

def replace(src, dst):
    global renames
    renames += 1
    if renames == kill_at and side == "before":
        os.kill(os.getpid(), signal.SIGKILL)
    real(src, dst)
    if renames == kill_at and side == "after":
        os.kill(os.getpid(), signal.SIGKILL)

os.replace = replace
_scan(ledger)
"""


def test_sigkill_leaves_what_the_copy_holds(scan_run, tmp_path):
    """SIGKILL a real run just before the report stage's manifest
    write: report.txt and telemetry.json are in place but uncommitted,
    with the manifest's temp file beside them.  The disk holds what
    the in-process copy of that point holds, and resumes to the run."""
    ledger, points = scan_run
    # Renames count from 1; the report commit's manifest write is the
    # one after telemetry.json's.
    (point,) = [
        p for p in points
        if p.side == "before"
        and p.index == SCAN_WRITES.index("telemetry.json") + 2
    ]
    assert point.target.name == "manifest.json"
    killed = tmp_path / "ledger"
    child = subprocess.Popen(
        [sys.executable, "-c", _SCAN_CHILD, str(killed), str(point.index),
         point.side],
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=REPO,
    )
    assert child.wait(timeout=120) == -signal.SIGKILL
    run_dir, copy = killed / "run", point.copy / "ledger" / "run"
    assert [p.name for p in run_dir.iterdir() if TMP.search(p.name)] == [
        f"manifest.json.tmp{child.pid}"
    ]
    assert _files(killed) == _files(point.copy / "ledger")
    assert _files(run_dir) == _files(copy)
    assert _manifest(run_dir) == _manifest(copy)
    assert {"report.txt", "telemetry.json"} <= set(_files(run_dir)) - set(
        _manifest(run_dir)["artifacts"]
    )

    resume_pipeline(run_dir, workers=0, ledger=killed)
    assert _differences(scan_state(killed), scan_state(ledger)) == []
    # The resume re-entered the run directory: the dead child's temp
    # file is gone.
    assert not (run_dir / f"manifest.json.tmp{child.pid}").exists()


# ---------------------------------------------------------------------------
# campaign: every supervisor write, each pipeline write in the cache epoch
# ---------------------------------------------------------------------------

#: The reference campaign's epoch whose incremental scan hits the shard
#: cache.
CACHE_EPOCH = "epoch-002"


def campaign_state(camp: Path) -> dict:
    """What a resumed campaign must reproduce.  Attempts and cache hits
    are left out: a resume legitimately changes both."""
    status = campaign_status(camp)
    state = {
        "ledger": status["ledger_digest"],
        "epochs": [
            (entry["status"], entry["results_digest"])
            for entry in status["schedule"]["epochs"]
        ],
        "files": _files(camp),
        "shardcache": _files(camp / "shardcache"),
    }
    for epoch in range(CAMPAIGN_EPOCHS):
        run_dir = camp / f"epoch-{epoch:03d}"
        state[f"{run_dir.name} results"] = _results(run_dir)
        state[f"{run_dir.name} manifest"] = _manifest(run_dir)
        state[f"{run_dir.name} files"] = _files(run_dir)
    return state


def _campaign(camp: Path) -> dict:
    return run_campaign(
        campaign_spec(), campaign_plan(), CAMPAIGN_EPOCHS, camp, workers=0
    )


def _supervisor_and_cache_epoch_writes() -> Callable[[Path], bool]:
    """Keep every supervisor write, and every write of the cache
    epoch's pipeline run: its stage commits, its shard-cache entry and
    its ledger row."""
    in_epoch = False

    def keep(target: Path) -> bool:
        nonlocal in_epoch
        if target.name in ("campaign.json", "schedule.json"):
            in_epoch = False
            return True
        in_epoch = in_epoch or target.parent.name == CACHE_EPOCH
        return in_epoch

    return keep


@pytest.fixture(scope="module")
def campaign_run(tmp_path_factory):
    """The reference campaign run once more, with a copy of its
    directory at each kept kill point."""
    base = tmp_path_factory.mktemp("campaign-kills")
    camp = base / "camp"
    with kill_points(
        [camp], base / "points", _supervisor_and_cache_epoch_writes()
    ) as points:
        status = _campaign(camp)
    return camp, status, points


def test_campaign_kill_at_every_write_resumes_to_the_campaign(
    campaign_run, reference_campaign, tmp_path
):
    camp, status, points = campaign_run
    want = campaign_state(camp)
    assert want == campaign_state(reference_campaign[0])
    assert status["schedule"]["epochs"][-1]["cache_hits"] > 0
    kinds = {
        (
            p.target.parent.name,
            re.sub(r"-\w+\.json$", "-N.json", p.target.name),
        )
        for p in points
    }
    assert kinds == {
        ("camp", "campaign.json"), ("camp", "schedule.json"),
        ("camp", "ledger.json"), ("shardcache", "shard-N.json"),
        *((CACHE_EPOCH, name) for name in (
            "manifest.json", "shard-N.json", "observations.json",
            "results.json", "report.txt",
        )),
    }

    differ, unresumable = [], []
    for copy, names in by_copy(points).items():
        work = shutil.copytree(copy / "camp", tmp_path / copy.name)
        if not (work / "campaign.json").exists():
            # Nothing to resume: the campaign is rerun from scratch.
            with pytest.raises(CampaignError):
                resume_campaign(work, workers=RESUME_WORKERS)
            unresumable += names
            continue
        resume_campaign(work, workers=RESUME_WORKERS)
        diff = _differences(campaign_state(work), want)
        differ += [(name, diff) for name in names if diff]
    assert differ == []
    assert unresumable == ["1-before-campaign.json"]

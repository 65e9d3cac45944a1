"""A campaign directory's records: one reader each, one refusal.

Each case corrupts one record of a copy of the session's reference
campaign (``tests/conftest.py``); ``campaign run`` with the campaign's
own identity, ``campaign resume`` and ``campaign status`` must each
refuse it with one ``error:`` line naming the file and exit 2, and
leave every file as it was.  No epoch runs.
"""

import contextlib
import io
import json
import shutil
from pathlib import Path
from unittest import mock

import pytest

from repro.campaigns import supervisor
from repro.cli import main

from ..conftest import CAMPAIGN_EPOCHS, campaign_plan, campaign_spec


def _rewrite(**changes):
    """A corruption that edits the record's JSON object."""

    def corrupt(path: Path) -> None:
        payload = json.loads(path.read_text())
        for key, value in changes.items():
            if value is None:
                del payload[key]
            else:
                payload[key] = value
        path.write_text(json.dumps(payload))

    return corrupt


#: The record each record's "another kind" case is overwritten with.
OTHER_RECORD = {
    "campaign.json": "schedule.json",
    "schedule.json": "ledger.json",
    "ledger.json": "campaign.json",
}

CORRUPTIONS = {
    "not-json": lambda path: path.write_text("{not json"),
    "not-an-object": lambda path: path.write_text("[]"),
    "another-version": _rewrite(schema_version=7),
    "another-kind": lambda path: shutil.copyfile(
        path.with_name(OTHER_RECORD[path.name]), path
    ),
}

CASES = [
    (record, name, corrupt)
    for record in OTHER_RECORD
    for name, corrupt in CORRUPTIONS.items()
] + [
    ("campaign.json", "field-missing", _rewrite(policy=None)),
    ("schedule.json", "field-missing", _rewrite(epochs=None)),
]


def _files(base: Path) -> dict:
    """Every file under *base*: its bytes, and its mtime, which a
    rewrite with the same bytes still moves."""
    return {
        path.relative_to(base): (path.read_bytes(), path.stat().st_mtime_ns)
        for path in sorted(base.rglob("*"))
        if path.is_file()
    }


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@pytest.fixture
def camp(reference_campaign, tmp_path) -> Path:
    return shutil.copytree(reference_campaign[0], tmp_path / "camp")


@pytest.mark.parametrize(
    "record, corrupt",
    [(record, corrupt) for record, _, corrupt in CASES],
    ids=[f"{record}-{name}" for record, name, _ in CASES],
)
def test_an_unreadable_record_is_refused_by_every_command(
    camp, tmp_path, record, corrupt
):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(campaign_plan().to_payload()))
    spec = campaign_spec()
    identity = [
        "--plan", str(plan), "--epochs", str(CAMPAIGN_EPOCHS),
        "--seed", str(spec.seed), "--n-ases", str(spec.n_ases),
        "--shards", str(spec.shards), "--partition", spec.partition,
        "--duration", str(spec.scan["duration"]),
    ]
    path = camp / record
    corrupt(path)
    before = _files(camp)
    refuse = AssertionError("an epoch ran")
    with mock.patch.object(supervisor, "run_pipeline", side_effect=refuse):
        for argv in (
            ["campaign", "run", str(camp), *identity, "--quiet"],
            ["campaign", "resume", str(camp), "--quiet"],
            ["campaign", "status", str(camp)],
        ):
            code, err = _run(argv)
            assert code == 2, argv
            assert err.startswith("error:") and len(err.splitlines()) == 1
            assert str(path) in err, argv
    assert _files(camp) == before


def test_a_directory_without_campaign_json_is_no_campaign(camp):
    (camp / "campaign.json").unlink()
    for command in ("resume", "status"):
        code, err = _run(["campaign", command, str(camp)])
        assert code == 1
        assert "not a campaign directory" in err


def test_status_before_the_first_schedule_write(reference_campaign, tmp_path):
    """A campaign killed before its first schedule write holds only
    ``campaign.json``: every epoch is pending and there is no ledger
    digest."""
    camp = tmp_path / "camp"
    camp.mkdir()
    shutil.copy(reference_campaign[0] / "campaign.json", camp)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["campaign", "status", str(camp), "--json"]) == 0
    status = json.loads(out.getvalue())
    assert status["counts"]["pending"] == CAMPAIGN_EPOCHS
    assert [entry["status"] for entry in status["schedule"]["epochs"]] == [
        "pending"
    ] * CAMPAIGN_EPOCHS
    assert status["ledger_digest"] is None
    assert status["campaign"] == json.loads(
        (camp / "campaign.json").read_text()
    )

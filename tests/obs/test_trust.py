"""The trust split: a command reads a run's file only if the manifest
commits it and its bytes match the recorded digest.

Two states, each on copies of the observatory's session world
(``observatory_runs``): a committed file edited so that it still
parses, and a ``results.json`` on disk that the manifest never
committed, as a kill just before the analyze commit leaves it.  Every
reader refuses the first with one ``error:`` line and treats the
second as absent; read-only commands move nothing, and only the
pipeline's resume sets a file aside.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main


def _raise_reachable_asns(text: str) -> str:
    value = json.loads(text)["headline"]["v4"]["reachable_asns"]
    edited = text.replace(
        f'"reachable_asns": {value},', f'"reachable_asns": {value + 5},', 1
    )
    assert edited != text
    return edited


def _drop_an_observation(text: str) -> str:
    payload = json.loads(text)
    payload["collection"]["observations"].pop()
    return json.dumps(payload, indent=2) + "\n"


def _relabel_a_metric(text: str) -> str:
    payload = json.loads(text)
    payload["metrics"]["metrics"][0]["help"] += " (edited)"
    return json.dumps(payload, indent=2) + "\n"


def _drop_the_last_event(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


#: Each committed file, a parseable edit of it, and the reads that
#: must refuse it: (argv with RUN for the edited run and BASE for its
#: ledger directory, exit code).
EDITED = {
    "results.json": (
        _raise_reachable_asns,
        [(["diff", "OTHER", "RUN"], 2), (["ledger", "BASE", "--rebuild"], 2),
         (["trend", "BASE"], 2), (["explain", "RUN", "--audit"], 2)],
    ),
    "observations.json": (
        _drop_an_observation,
        [(["diff", "OTHER", "RUN"], 2), (["trend", "BASE"], 2)],
    ),
    "telemetry.json": (
        _relabel_a_metric,
        [(["diff", "OTHER", "RUN"], 2), (["ledger", "BASE", "--rebuild"], 2),
         (["obs", "RUN"], 1)],
    ),
    "events.ndjson": (
        _drop_the_last_event,
        [(["diff", "OTHER", "RUN"], 2), (["explain", "RUN", "--audit"], 2)],
    ),
}


def _tree(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _argv(argv: list[str], base: Path, run: Path, other: Path) -> list[str]:
    names = {"BASE": str(base), "RUN": str(run), "OTHER": str(other)}
    return [names.get(arg, arg) for arg in argv]


@pytest.mark.parametrize("name", list(EDITED))
def test_an_edited_file_is_refused_and_only_a_resume_moves_it(
    capsys, observatory_runs, tmp_path, name
):
    edit, reads = EDITED[name]
    base = shutil.copytree(observatory_runs[0], tmp_path / "ledger")
    other, run = base / "epoch-000", base / "epoch-001"
    path = run / name
    path.write_text(edit(path.read_text()))
    before = _tree(base)
    capsys.readouterr()
    for argv, code in reads:
        argv = _argv(argv, base, run, other)
        assert main(argv) == code, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1, argv
        assert f"{path} does not match the digest" in err, argv
        assert f"scan --resume {run}" in err, argv
        assert _tree(base) == before, argv

    assert main(["scan", "--resume", str(run), "--quiet"]) == 4
    assert "failed its checksum" in capsys.readouterr().err
    assert not path.exists()
    assert path.with_name(name + ".quarantined").exists()
    assert main(["scan", "--resume", str(run), "--quiet"]) == 0
    capsys.readouterr()
    for argv, _ in reads:
        assert main(_argv(argv, base, run, other)) == 0, argv
    capsys.readouterr()


def test_an_uncommitted_results_file_counts_as_absent(
    capsys, observatory_runs, tmp_path
):
    """The analyze stage renamed results.json in but was killed before
    its manifest write: no reader sees the run as finished."""
    base = shutil.copytree(observatory_runs[0], tmp_path / "ledger")
    incremental = (base / "ledger.json").read_bytes()
    run = shutil.copytree(base / "epoch-000", base / "killed")
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["stages_completed"] = ["scan", "collect"]
    for name in ("results.json", "events.ndjson", "report.txt",
                 "telemetry.json"):
        del manifest["artifacts"][name]
    (run / "manifest.json").write_text(json.dumps(manifest, indent=2))
    (run / "report.txt").unlink()
    (run / "telemetry.json").unlink()
    assert (run / "results.json").exists()
    capsys.readouterr()

    assert main(["ledger", str(base), "--rebuild"]) == 0
    assert "ledger rebuilt: 2 run(s)" in capsys.readouterr().err
    assert (base / "ledger.json").read_bytes() == incremental

    assert main(["watch", str(run), "--once"]) == 0
    assert "[live]" in capsys.readouterr().out

    assert main(["diff", str(base / "epoch-000"), str(run)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "has not completed its analyze stage" in err

    assert main(["explain", str(run), "--audit"]) == 1
    err = capsys.readouterr().err
    assert "has no committed events.ndjson" in err
    assert f"scan --resume {run}" in err

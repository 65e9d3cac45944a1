"""The cross-run ledger: rows, rebuild identity, and error gating."""

import json

import pytest

from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    Ledger,
    ObservatoryError,
    render_ledger,
    run_row,
    spec_key,
)


def test_pipeline_appends_rows(observatory_runs):
    base, _, _ = observatory_runs
    payload = Ledger(base).load()
    assert payload["schema_version"] == LEDGER_SCHEMA_VERSION
    assert payload["kind"] == "ledger"
    assert [row["run"] for row in payload["rows"]] == [
        "epoch-000", "epoch-001",
    ]


def test_rebuild_is_byte_identical_to_incremental(observatory_runs):
    base, _, _ = observatory_runs
    ledger = Ledger(base)
    incremental = ledger.path.read_bytes()
    ledger.rebuild()
    assert ledger.path.read_bytes() == incremental


def test_record_is_idempotent(observatory_runs):
    base, run_a, _ = observatory_runs
    ledger = Ledger(base)
    before = ledger.path.read_bytes()
    ledger.record(run_a)
    assert ledger.path.read_bytes() == before


def test_row_carries_run_identity(observatory_runs):
    base, run_a, run_b = observatory_runs
    row_a = run_row(run_a, base=base)
    row_b = run_row(run_b, base=base)
    # Same scenario, same topology — only the fault plans (and hence
    # the measured outcomes) differ between the two epochs.
    assert row_a["scenario_key"] == row_b["scenario_key"]
    assert row_a["topology"] == row_b["topology"] == "star"
    assert row_a["fault_digest"] != row_b["fault_digest"]
    assert row_a["spec_key"] != row_b["spec_key"]
    assert row_a["schema_versions"] == {"manifest": 1, "results": 3}
    assert row_a["results_digest"] != row_b["results_digest"]
    assert row_a["telemetry_digest"] is not None
    assert row_a["shards"] == 2
    assert row_a["stats"]["v4"]["asn_rate"] is not None
    results = json.loads((run_a / "results.json").read_text())
    assert row_a["stats"]["probes"] == results["probes"]


def test_spec_key_ignores_execution_details():
    spec = {
        "seed": 1, "n_ases": 10, "scan": {"duration": 40.0},
        "faults": None, "topology": None,
        "shards": 1, "metrics": False, "journal": False,
    }
    variant = dict(
        spec, shards=8, metrics=True, journal=True, stream=True,
        partition="modulo",
    )
    assert spec_key(spec) == spec_key(variant)
    assert spec_key(spec) != spec_key(dict(spec, seed=2))
    assert spec_key(spec) != spec_key(
        dict(spec, faults={"seed": 9})
    )


def test_render_ledger_lists_runs(observatory_runs):
    base, _, _ = observatory_runs
    text = render_ledger(Ledger(base).load())
    assert "2 run(s) indexed" in text
    assert "epoch-000" in text and "epoch-001" in text


def test_require_missing_ledger_errors(tmp_path):
    with pytest.raises(ObservatoryError, match="ledger.json"):
        Ledger(tmp_path).require()


def test_incomplete_run_is_skipped_by_rebuild(observatory_runs, tmp_path):
    """A run without results.json is not indexed (and not an error)."""
    base, run_a, _ = observatory_runs
    partial = base / "epoch-partial"
    partial.mkdir(exist_ok=True)
    (partial / "manifest.json").write_text(
        (run_a / "manifest.json").read_text()
    )
    try:
        ledger = Ledger(base)
        before = ledger.path.read_bytes()
        ledger.rebuild()
        assert ledger.path.read_bytes() == before
        with pytest.raises(ObservatoryError, match="no results.json"):
            ledger.record(partial)
    finally:
        (partial / "manifest.json").unlink()
        partial.rmdir()


# ---------------------------------------------------------------------------
# concurrency: the ledger lock
# ---------------------------------------------------------------------------


def test_concurrent_records_lose_no_rows(observatory_runs, tmp_path):
    """Two writers sharing a ledger serialize instead of racing.

    Without the lock, interleaved load/insert/save cycles drop
    whichever row saved first; with it, every row survives an
    aggressive thread hammer.
    """
    import threading

    base, run_a, run_b = observatory_runs
    ledger = Ledger(tmp_path)
    errors = []

    def hammer(run_path):
        try:
            for _ in range(6):
                ledger.record(run_path)
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(path,))
        for path in (run_a, run_b) * 4
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    rows = ledger.load()["rows"]
    assert len(rows) == 2
    assert not (tmp_path / "ledger.lock").exists()


def test_stale_lock_from_dead_process_is_taken_over(
    observatory_runs, tmp_path
):
    import time as _time

    base, run_a, _ = observatory_runs
    # A plausible-but-dead pid: fork a child that exits immediately.
    import subprocess
    import sys

    dead = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True,
        text=True,
    )
    dead_pid = int(dead.stdout)
    (tmp_path / "ledger.lock").write_text(
        json.dumps({"pid": dead_pid, "time": _time.time()})
    )
    ledger = Ledger(tmp_path)
    ledger.record(run_a)
    assert len(ledger.load()["rows"]) == 1
    assert not (tmp_path / "ledger.lock").exists()


def test_aged_lock_is_taken_over_even_if_pid_lives(
    observatory_runs, tmp_path
):
    import os as _os
    import time as _time

    from repro.obs import ledger as ledger_mod

    base, run_a, _ = observatory_runs
    (tmp_path / "ledger.lock").write_text(
        json.dumps(
            {
                "pid": _os.getpid(),  # alive: only age can free it
                "time": _time.time() - ledger_mod._LOCK_STALE_SECONDS - 1,
            }
        )
    )
    Ledger(tmp_path).record(run_a)
    assert not (tmp_path / "ledger.lock").exists()


def test_live_lock_times_out_with_a_clear_error(
    observatory_runs, tmp_path, monkeypatch
):
    import os as _os
    import time as _time

    from repro.obs import ledger as ledger_mod

    base, run_a, _ = observatory_runs
    monkeypatch.setattr(ledger_mod, "_LOCK_WAIT_SECONDS", 0.2)
    (tmp_path / "ledger.lock").write_text(
        json.dumps({"pid": _os.getpid(), "time": _time.time()})
    )
    with pytest.raises(ObservatoryError, match="held by another run"):
        Ledger(tmp_path).record(run_a)
    # the foreign lock is left in place for its (live) holder
    assert (tmp_path / "ledger.lock").exists()


def test_require_empty_rows_is_an_error(tmp_path):
    ledger = Ledger(tmp_path)
    ledger.save(
        {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "kind": "ledger",
            "rows": [],
        }
    )
    with pytest.raises(ObservatoryError, match="no rows") as excinfo:
        ledger.require()
    assert excinfo.value.exit_code == 2

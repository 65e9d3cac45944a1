"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench``.  The
smoke runs use the shrunken workload sizes and their own reference
digests, so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return done, result


def test_self_time_subtracts_nested_and_sibling_children():
    # root [0, 10] holds siblings a [1, 4] and b [5, 9]; a holds c [2, 3].
    starts = [0.0, 1.0, 5.0, 2.0]
    ends = [10.0, 4.0, 9.0, 3.0]
    parents = [-1, 0, 0, 1]
    assert tracer.self_times(starts, ends, parents) == pytest.approx(
        [3.0, 2.0, 4.0, 1.0]
    )


def test_self_time_counts_overlapping_children_once():
    # Two workers run in parallel under one parent span; a third child
    # outlives the parent and is clipped to it.
    starts = [0.0, 1.0, 4.0, 9.0]
    ends = [10.0, 6.0, 8.0, 12.0]
    parents = [-1, 0, 0, 0]
    own = tracer.self_times(starts, ends, parents)
    assert own[0] == pytest.approx(10.0 - 7.0 - 1.0)
    assert own[1:] == pytest.approx([5.0, 4.0, 3.0])


def test_union_length_merges_overlaps():
    assert tracer.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4)


@pytest.mark.parametrize(
    "workload", [w["name"] for w in BENCHMARK["workloads"]]
)
def test_smoke_run_emits_every_metric_with_its_unit(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done, result = _run(workload, trace)
        assert done.returncode == 0, done.stderr
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 2
        want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), name
        if trace:
            # The scan runs in forked workers, so a non-zero count
            # proves their spans came back.
            assert result["metrics"]["fabric.sends"]["value"] > 0


def test_tampered_reference_digest_fails_the_run(
    tmp_path, monkeypatch, capsys
):
    reference = json.loads(run.REFERENCE.read_text())
    entry = reference["chaos-forensics"]["smoke"]
    entry["digests"]["results"] = ["0" * 64]
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", path)
    monkeypatch.chdir(ROOT)
    code = run.main([
        "--workload", "chaos-forensics", "--seed", "0", "--seconds", "1",
        "--trace", "0", "--smoke",
    ])
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert "digest mismatch" in err


def _current(points):
    found = {}
    for point in points:
        owner, attr = tracer._resolve(point.target)
        found[point.target] = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
    return found


def _wrappers_left(tracing) -> list[str]:
    """Every place a wrapper of *tracing* can still be called from."""
    def is_wrapper(obj):
        entry = tracing.wrappers.get(id(obj))
        return entry is not None and entry[0] is obj

    left = [
        target for target, obj in _current(tracing.points).items()
        if is_wrapper(obj)
    ]
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            left += [
                f"{module.__name__}:{attr}"
                for attr, obj in vars(module).items()
                if is_wrapper(obj)
            ]
    return left


def test_wrappers_are_removed_after_a_traced_run(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from repro.core.pipeline import CampaignSpec, run_pipeline
    from repro.core.scanner import ScanConfig

    before = _current(tracer.LAYER_POINTS)
    spec = CampaignSpec.from_scan_config(
        seed=2019, n_ases=4, shards=1, config=ScanConfig(duration=10.0)
    )
    tracing = tracer.Tracer(tracer.LAYER_POINTS, tmp_path / "spans")
    tracing.install()
    assert tracing.missing == []
    assert _wrappers_left(tracing)
    run_pipeline(spec, workers=0)
    recorded = len(tracing.kinds)
    assert recorded > 0
    tracing.finish()

    assert _wrappers_left(tracing) == []
    after = _current(tracer.LAYER_POINTS)
    assert all(after[target] is raw for target, raw in before.items())
    run_pipeline(spec, workers=0)
    assert len(tracing.kinds) == recorded
    trace = tracer.load_trace(tmp_path / "spans")
    assert len(trace.kinds) == recorded

"""Probe forensics: journal round-trip, deterministic shard merge, the
results-are-untouched guarantee, and causal reconstruction via explain.

One journaled 1-shard run and one journaled 4-shard run execute once
per module and are shared read-only.  The journal-off checks read the
matrix world's ``journal=False`` cell and reference
(``tests/conftest.py``).
"""

import json
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ScanConfig
from repro.core.pipeline import CampaignSpec, RunDirectory, run_pipeline
from repro.obs.explain import (
    JournalIndex,
    audit,
    load_index,
    render_asn_summary,
    render_narrative,
)
from repro.obs.journal import (
    EVENT_KINDS,
    Journal,
    append_classifications,
    event_line,
    load_events,
    merge_shard_journals,
    probe_id,
    validate_events,
)

SEED = 3
N_ASES = 15
DURATION = 40.0


def spec_for(shards: int) -> CampaignSpec:
    return CampaignSpec.from_scan_config(
        seed=SEED,
        n_ases=N_ASES,
        shards=shards,
        config=ScanConfig(duration=DURATION),
        journal=True,
    )


@pytest.fixture(scope="module")
def one_shard(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("journal-one")
    return run_dir, run_pipeline(spec_for(1), run_dir=run_dir, workers=0)


@pytest.fixture(scope="module")
def four_shard(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("journal-four")
    return run_dir, run_pipeline(spec_for(4), run_dir=run_dir, workers=0)


@pytest.fixture(scope="module")
def index(one_shard):
    run_dir, _ = one_shard
    return load_index(RunDirectory(run_dir).events_path)


# -- journal unit behaviour -------------------------------------------------


def test_flush_and_load_round_trip(tmp_path):
    path = tmp_path / "events.ndjson"
    journal = Journal(shard_id=0, path=path)
    journal.emit("probe.sent", 1.5, probe="a" * 16, src="10.0.0.1")
    journal.emit("fabric.path", 2.0, src="10.0.0.1", outcome="delivered")
    assert journal.flush() == 2
    events = load_events(path)
    assert [e["kind"] for e in events] == ["probe.sent", "fabric.path"]
    assert events[0]["seq"] == 0 and events[1]["seq"] == 1
    assert all(e["v"] == 1 for e in events)
    validate_events(events)


def test_first_flush_truncates_stale_file(tmp_path):
    path = tmp_path / "events.ndjson"
    path.write_text("stale line from a previous run\n")
    journal = Journal(shard_id=0, path=path)
    journal.emit("probe.sent", 0.0, probe="b" * 16)
    journal.flush()
    # A second flush appends rather than truncating again.
    journal.emit("auth.query", 1.0, probe="b" * 16)
    journal.flush()
    assert [e["kind"] for e in load_events(path)] == [
        "probe.sent",
        "auth.query",
    ]


def test_probe_id_is_stable_and_distinct():
    a = probe_id(b"t1.example.")
    assert a == probe_id(b"t1.example.")
    assert len(a) == 16
    assert a != probe_id(b"t2.example.")


def test_validate_events_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind"):
        validate_events(
            [{"kind": "probe.teleported", "t": 0.0, "seq": 0, "v": 1}]
        )


def test_event_line_is_canonical():
    line = event_line({"b": 1, "a": 2, "kind": "fabric.path"})
    assert line == '{"a":2,"b":1,"kind":"fabric.path"}'


# -- the deterministic shard-merge contract ---------------------------------


def test_four_shard_journal_byte_identical_to_one_shard(
    one_shard, four_shard
):
    dir1, _ = one_shard
    dir4, _ = four_shard
    merged1 = RunDirectory(dir1).events_path.read_bytes()
    merged4 = RunDirectory(dir4).events_path.read_bytes()
    assert merged1 == merged4


def test_merge_renumbers_seq_globally(four_shard):
    run_dir, _ = four_shard
    events = load_events(RunDirectory(run_dir).events_path)
    assert [e["seq"] for e in events] == list(range(len(events)))
    times = [e["t"] for e in events if e["t"] is not None]
    assert times == sorted(times)


def test_merge_is_idempotent(four_shard, tmp_path):
    """Re-merging the shard journals reproduces the scan-event prefix.

    ``events.ndjson`` additionally carries the ``classify.*`` events the
    analyze stage appended; those sort strictly after every timed scan
    event, so the re-merge must be a byte-exact prefix of the final file.
    """
    run_dir, _ = four_shard
    rd = RunDirectory(run_dir)
    again = tmp_path / "events.ndjson"
    merge_shard_journals(
        [rd.shard_events_path(i) for i in range(4)], again
    )
    final = rd.events_path.read_bytes()
    remerged = again.read_bytes()
    assert final.startswith(remerged)
    tail = final[len(remerged):].decode().splitlines()
    assert tail and all('"kind":"classify.' in line for line in tail)


def test_merged_journal_validates(one_shard):
    run_dir, _ = one_shard
    events = load_events(RunDirectory(run_dir).events_path)
    validate_events(events)
    kinds = {e["kind"] for e in events}
    assert "probe.sent" in kinds
    assert "fabric.path" in kinds
    assert "resolver.recursion" in kinds
    assert "auth.query" in kinds
    assert "classify.target" in kinds and "classify.asn" in kinds
    assert kinds <= set(EVENT_KINDS)


def test_classification_pass_is_idempotent(one_shard):
    run_dir, outcome = one_shard
    path = RunDirectory(run_dir).events_path
    before = path.read_bytes()
    append_classifications(path, outcome.campaign.collector)
    assert path.read_bytes() == before


# -- differential: the journal passes against the direct algorithm ---------


def reference_journal(events: list[dict]) -> bytes:
    """The merged journal computed the direct way.

    Every event's canonical body (minus ``seq``) is encoded for its sort
    key, ``seq`` is renumbered from 0, and each line is encoded again.
    """

    def canonical(event: dict) -> str:
        return json.dumps(
            event, sort_keys=True, separators=(",", ":"), allow_nan=False
        )

    def key(event: dict) -> tuple:
        t = event.get("t")
        return (
            t if t is not None else float("inf"),
            event.get("probe") or "",
            EVENT_KINDS[event["kind"]],
            canonical({k: v for k, v in event.items() if k != "seq"}),
        )

    ordered = sorted(events, key=key)
    return "".join(
        canonical({**event, "seq": seq}) + "\n"
        for seq, event in enumerate(ordered)
    ).encode()


PROBES = st.sampled_from(["a" * 16, "b" * 16, "0123456789abcdef"])
#: Few distinct values, so that (t, probe, kind rank) ties are common.
TIMES = st.sampled_from([0.0, 0.5, 2.25])
ADDRS = st.sampled_from(["10.0.0.1", "10.0.0.2", "2001:db8::1"])
BORDER = st.fixed_dictionaries(
    {
        "asn": st.integers(1, 3),
        "verdict": st.sampled_from(["accept", "drop-dsav"]),
        "filter": st.none() | st.just("10.0.0.0/8"),
    }
)


@st.composite
def probe_pair(draw):
    """A retransmission and the ``probe.sent`` it precedes: both rank 0
    at one timestamp and probe id, told apart only by their bodies."""
    t, probe = draw(TIMES), draw(PROBES)
    src, dst = draw(ADDRS), draw(ADDRS)
    return [
        {"kind": "probe.retransmit", "t": t, "probe": probe, "src": src,
         "dst": dst, "asn": 1, "attempt": draw(st.integers(2, 3)),
         "prev": draw(st.none() | PROBES)},
        {"kind": "probe.sent", "t": t, "probe": probe, "src": src,
         "dst": dst, "asn": 1, "sport": draw(st.integers(1024, 1026))},
    ]


@st.composite
def fabric_path(draw):
    """A probe-less fabric event, often with nested border verdicts."""
    event = {"kind": "fabric.path", "t": draw(TIMES), "src": draw(ADDRS),
             "dst": draw(ADDRS), "sport": draw(st.integers(1024, 1026)),
             "outcome": draw(st.sampled_from(["delivered", "drop-dsav"]))}
    if draw(st.booleans()):
        event["egress"] = draw(BORDER)
    if draw(st.booleans()):
        event["ingress"] = draw(BORDER)
    return [event]


@st.composite
def probe_event(draw):
    return [{"kind": draw(st.sampled_from(["auth.query", "probe.sent"])),
             "t": draw(TIMES | st.none()), "probe": draw(PROBES),
             "qtype": draw(st.integers(1, 2))}]


@st.composite
def shard_journals(draw):
    """Per-shard event lists: each numbered by its shard's own ``seq``."""
    groups = draw(
        st.lists(probe_pair() | fabric_path() | probe_event(), max_size=25)
    )
    shards = draw(st.integers(1, 4))
    journals: list[list[dict]] = [[] for _ in range(shards)]
    for event in (event for group in groups for event in group):
        journal = journals[draw(st.integers(0, shards - 1))]
        journal.append({**event, "v": 1, "seq": len(journal)})
    return journals


@settings(max_examples=60, deadline=None)
@given(journals=shard_journals())
def test_merge_matches_the_direct_algorithm(journals):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for shard_id, events in enumerate(journals):
            path = Path(tmp) / f"events-{shard_id:03d}.ndjson"
            # Shard files keep insertion order, as ``Journal.flush`` does.
            path.write_text("".join(json.dumps(e) + "\n" for e in events))
            paths.append(path)
        out = Path(tmp) / "events.ndjson"
        merged = merge_shard_journals(paths, out)
        events = [event for shard in journals for event in shard]
        assert merged == len(events)
        assert out.read_bytes() == reference_journal(events)


def assert_classified_like_reference(path: Path, before: bytes) -> None:
    """*path* holds *before*'s scan events byte for byte, then its
    classifications in the direct algorithm's order and numbering."""
    scan = [
        e for e in map(json.loads, before.decode().splitlines())
        if not e["kind"].startswith("classify.")
    ]
    classified = [
        {k: v for k, v in e.items() if k != "seq"}
        for e in load_events(path)
        if e["kind"].startswith("classify.")
    ]
    after = path.read_bytes()
    assert after == reference_journal(scan + classified)
    prefix = reference_journal(scan)
    assert after.startswith(prefix) and before.startswith(prefix)


@pytest.mark.parametrize(
    "run, shards", [("one_shard", 1), ("four_shard", 4)]
)
def test_classification_pass_matches_the_direct_algorithm(
    request, tmp_path, run, shards
):
    run_dir, outcome = request.getfixturevalue(run)
    rd = RunDirectory(run_dir)
    collector = outcome.campaign.collector

    # Fresh merge: no classify.* suffix yet.
    fresh = tmp_path / "fresh.ndjson"
    merge_shard_journals(
        [rd.shard_events_path(i) for i in range(shards)], fresh
    )
    merged = fresh.read_bytes()
    assert append_classifications(fresh, collector) > 0
    assert_classified_like_reference(fresh, merged)
    assert fresh.read_bytes() == rd.events_path.read_bytes()

    # Resume: the file already carries its classify.* suffix.
    resumed = tmp_path / "resumed.ndjson"
    shutil.copyfile(rd.events_path, resumed)
    before = resumed.read_bytes()
    append_classifications(resumed, collector)
    assert_classified_like_reference(resumed, before)

    # Nothing reachable: the classify.* suffix is dropped, nothing added.
    empty = tmp_path / "empty.ndjson"
    shutil.copyfile(rd.events_path, empty)
    assert append_classifications(empty, SimpleNamespace(observations={})) == 0
    assert_classified_like_reference(empty, before)
    assert empty.read_bytes() == merged


# -- results are never perturbed --------------------------------------------


def test_results_identical_with_journal_on_and_off(cell, reference):
    assert cell("journal=False").results() == reference.results()


def test_journal_off_writes_no_events(cell):
    off = cell("journal=False")
    assert not RunDirectory(off.run_dir).events_path.exists()


def test_journal_requires_run_dir():
    with pytest.raises(ValueError, match="run directory"):
        run_pipeline(spec_for(1), run_dir=None, workers=0)


# -- causal reconstruction ---------------------------------------------------


def _chains_by_outcome(index):
    penetrated = dropped = None
    for pid in index.probe_ids():
        chain = index.chain(pid)
        if chain["sent"] is None:
            continue
        if penetrated is None and chain["penetration"] is not None:
            penetrated = chain
        if (
            dropped is None
            and chain["fabric"]
            and chain["fabric"][0]["outcome"].startswith("drop")
        ):
            dropped = chain
        if penetrated and dropped:
            break
    return penetrated, dropped


def test_explain_reconstructs_a_penetrating_probe(index):
    penetrated, _ = _chains_by_outcome(index)
    assert penetrated is not None, "scenario produced no penetration"
    # The complete causal chain: emission, border verdicts, recursion,
    # authoritative observation, classification.
    assert penetrated["fabric"][0]["outcome"] == "delivered"
    assert penetrated["fabric"][0]["ingress"]["verdict"] == "accept"
    assert penetrated["recursion"]
    assert penetrated["auth"]
    assert penetrated["classifications"]
    story = render_narrative(penetrated)
    assert "spoofed" in story
    assert "passed OSAV" in story
    assert "DSAV absent" in story
    assert "observed qname" in story
    assert "evidence" in story


def test_explain_reconstructs_a_dropped_probe(index):
    _, dropped = _chains_by_outcome(index)
    assert dropped is not None, "scenario produced no filtered probe"
    hop = dropped["fabric"][0]
    assert hop["outcome"].startswith("drop")
    assert not dropped["auth"]
    assert dropped["penetration"] is None
    story = render_narrative(dropped)
    assert "dropped by" in story
    assert "never observed at the authoritative servers" in story


def test_qname_lookup_round_trips(index):
    pid = next(iter(index.meta))
    qname = index.meta[pid]["qname"]
    assert index.probe_for_qname(qname) == pid
    assert index.probe_for_qname(qname.rstrip(".")) == pid


def test_asn_summary_names_every_probe(index):
    meta = next(iter(index.meta.values()))
    asn = meta["asn"]
    summary = render_asn_summary(index, asn)
    assert f"AS{asn}:" in summary
    assert summary.count("probe ") == len(index.probes_for_asn(asn))


def test_audit_passes_on_a_full_pipeline_run(index, one_shard):
    _, outcome = one_shard
    assert audit(index, outcome.results) == []


def test_audit_flags_orphan_classifications(one_shard):
    run_dir, _ = one_shard
    events = load_events(RunDirectory(run_dir).events_path)
    for event in events:
        if event["kind"] == "classify.target":
            event["probes"] = ["f" * 16]
            break
    problems = audit(JournalIndex(events))
    assert any("unknown probe" in p for p in problems)


def test_audit_flags_headline_mismatch(index, one_shard):
    _, outcome = one_shard
    results = json.loads(json.dumps(outcome.results))
    results["headline"]["v4"]["reachable_addresses"] += 1
    problems = audit(index, results)
    assert any("reachable addresses" in p for p in problems)


def test_load_index_names_a_torn_line(one_shard, tmp_path):
    """A torn journal outside any run directory is diagnosed where it
    is torn."""
    run_dir, _ = one_shard
    lines = RunDirectory(run_dir).events_path.read_text().splitlines(
        keepends=True
    )
    lines[5] = lines[5][: len(lines[5]) // 2] + "\n"
    torn = tmp_path / "events.ndjson"
    torn.write_text("".join(lines))
    with pytest.raises(ValueError) as caught:
        load_index(torn)
    assert f"{torn}:6: not a journal event" in str(caught.value)

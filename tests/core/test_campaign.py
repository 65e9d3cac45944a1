"""Tests for the high-level Campaign API."""

import pytest

from repro.core.campaign import Campaign


@pytest.fixture(scope="module")
def campaign():
    return Campaign.run_default(seed=44, n_ases=25, duration=60.0)


def test_results_populated(campaign):
    results = campaign.results
    assert results.headline.v4.targeted_addresses > 50
    assert results.headline.v4.reachable_asns > 0
    assert len(results.table1) <= 10
    assert results.source_categories.all_reachable_v4.addresses > 0
    assert len(results.table4) == 8
    assert results.open_closed.closed + results.open_closed.open_ == len(
        campaign.collector.reachable_targets()
    )


def test_full_report_contains_every_section(campaign):
    report = campaign.full_report()
    for marker in (
        "Section 4: headline",
        "Table 1:",
        "Table 2:",
        "Table 3:",
        "Figure 2:",
        "Table 4:",
        "Section 5.1:",
        "Section 5.2.1:",
        "Section 5.2.2:",
        "Section 5.2.3:",
        "Section 5.4:",
        "Section 3.6.4:",
        "Section 5.5:",
    ):
        assert marker in report, marker


def test_summary_one_paragraph(campaign):
    summary = campaign.summary()
    assert "probes" in summary
    assert "lack DSAV" in summary
    assert "\n" not in summary


def test_run_default_shortcut():
    small = Campaign.run_default(seed=3, n_ases=10, duration=30.0)
    assert small.results.headline.v4.targeted_addresses > 0
    assert small.scenario.params.seed == 3


def test_results_dict_json_serializable(campaign, tmp_path):
    import json

    data = campaign.results_dict()
    encoded = json.dumps(data)
    decoded = json.loads(encoded)
    assert decoded["headline"]["v4"]["reachable_asns"] == (
        campaign.results.headline.v4.reachable_asns
    )
    assert set(decoded["table3"]) == {
        "other-prefix", "same-prefix", "private", "dst-as-src", "loopback",
    }
    assert len(decoded["table4"]) == 8

    path = tmp_path / "results.json"
    campaign.save_results(path)
    assert json.loads(path.read_text()) == decoded


def test_results_consistent_with_collector(campaign):
    reachable = campaign.collector.reachable_targets()
    assert campaign.results.headline.v4.reachable_addresses == sum(
        1 for o in reachable if o.target.version == 4
    )

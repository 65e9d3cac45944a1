"""Tests for the executable paper-vs-measured comparison."""

import pytest

from repro.core.campaign import Campaign
from repro.core.paper import PAPER, comparison_report, evaluate


@pytest.fixture(scope="module")
def campaign():
    return Campaign.run_default(seed=2718, n_ases=120, duration=150.0)


def test_every_claim_has_an_evaluator(campaign):
    verdicts = evaluate(campaign)
    assert {v.claim.key for v in verdicts} == set(PAPER)


def test_core_claims_hold_at_default_calibration(campaign):
    """The claims the calibration is built around must hold."""
    verdicts = {v.claim.key: v for v in evaluate(campaign)}
    must_hold = (
        "asn_rate_v4",
        "asn_rate_v6",
        "other_gt_same_v4",
        "same_asn_coverage_v4",
        "ds_v6_gt_v4",
        "median_sources",
        "closed_majority",
        "closed_in_lacking_asns",
        "zero_range_exists",
        "full_gt_linux",
        "windows_bucket_open",
        "v6_direct_gt_v4",
        "loopback_rare",
    )
    failing = [key for key in must_hold if not verdicts[key].holds]
    assert not failing, f"claims diverged: {failing}"


def test_overwhelming_majority_of_all_claims_hold(campaign):
    verdicts = evaluate(campaign)
    held = sum(1 for v in verdicts if v.holds)
    assert held >= len(verdicts) - 2  # small-sample tails may flicker


def test_report_renders(campaign):
    report = comparison_report(campaign)
    assert "HOLDS" in report
    assert "§4.1 Table 3" in report
    assert "shape claims hold" in report


def test_claims_metadata_complete():
    for claim in PAPER.values():
        assert claim.section.startswith("§")
        assert claim.paper_value
        assert claim.description

"""Plain-text renderers for the paper's tables and figures.

Each function takes analysis output and returns a string laid out like
the corresponding table in the paper, so benchmark runs can print
side-by-side comparable artifacts.
"""

from __future__ import annotations

from collections.abc import Sequence

from .analysis import (
    CountryRow,
    ForwardingStats,
    Headline,
    OpenClosedStats,
    QminStats,
    RangeHistogram,
    SmallRangeStats,
    SourceCategoryTable,
    Table4Row,
    ZeroRangeStats,
)


def _format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render a fixed-width text table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells), 1)
        if cells
        else len(headers[i])
        for i in range(len(headers))
    ]
    def line(row: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(row, widths))

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def _pct(value: float) -> str:
    return f"{100 * value:.1f}%"


def render_headline(result: Headline) -> str:
    """Section 4 headline reachability."""
    rows = [
        (
            "IPv4",
            result.v4.targeted_addresses,
            f"{result.v4.reachable_addresses} ({_pct(result.v4.address_rate)})",
            result.v4.targeted_asns,
            f"{result.v4.reachable_asns} ({_pct(result.v4.asn_rate)})",
        ),
        (
            "IPv6",
            result.v6.targeted_addresses,
            f"{result.v6.reachable_addresses} ({_pct(result.v6.address_rate)})",
            result.v6.targeted_asns,
            f"{result.v6.reachable_asns} ({_pct(result.v6.asn_rate)})",
        ),
    ]
    return _format_table(
        ("Family", "IP targets", "Reachable IPs", "ASes", "Reachable ASes"),
        rows,
    )


def render_country_table(rows: list[CountryRow], title: str) -> str:
    """Tables 1 and 2."""
    body = [
        (
            row.country,
            row.total_asns,
            f"{row.reachable_asns} ({_pct(row.asn_rate)})",
            row.total_addresses,
            f"{row.reachable_addresses} ({_pct(row.address_rate)})",
        )
        for row in rows
    ]
    table = _format_table(
        ("Country", "ASes", "Reachable", "IP targets", "Reachable"),
        body,
    )
    return f"{title}\n{table}"


def render_source_category_table(table: SourceCategoryTable) -> str:
    """Table 3."""
    def cell(c) -> str:
        return f"{c.addresses}/{c.asns}"

    rows = [
        (
            "All Reachable",
            cell(table.all_reachable_v4),
            cell(table.all_reachable_v6),
            "-",
            "-",
        )
    ]
    for row in table.rows:
        rows.append(
            (
                row.category.value,
                cell(row.inclusive_v4),
                cell(row.inclusive_v6),
                cell(row.exclusive_v4),
                cell(row.exclusive_v6),
            )
        )
    table_text = _format_table(
        (
            "Source Category",
            "Incl v4 (addr/ASN)",
            "Incl v6 (addr/ASN)",
            "Excl v4 (addr/ASN)",
            "Excl v6 (addr/ASN)",
        ),
        rows,
    )
    extra = (
        f"median working sources: v4={table.median_sources_v4:.0f} "
        f"v6={table.median_sources_v6:.0f}; "
        f"<=2 sources: v4={table.one_or_two_sources_v4} "
        f"v6={table.one_or_two_sources_v6}; "
        f">50 sources: v4={table.over_50_sources_v4} "
        f"v6={table.over_50_sources_v6}"
    )
    return f"{table_text}\n{extra}"


def render_table4(rows: list[Table4Row]) -> str:
    """Table 4."""
    body = [
        (
            row.bucket.label,
            row.total,
            row.open_,
            row.closed,
            row.p0f_windows,
            row.p0f_linux,
        )
        for row in rows
    ]
    return _format_table(
        ("Source Port Range (OS)", "Total", "Open", "Closed", "p0f Win", "p0f Lin"),
        body,
    )


def render_histogram(
    histogram: RangeHistogram, *, max_bins: int = 40, bar_width: int = 50
) -> str:
    """ASCII rendering of a Figure 2 / 3 style stacked histogram."""
    n_bins = min(len(histogram.bin_edges) - 1, max_bins)
    totals = [
        sum(series.counts[i] for series in histogram.series)
        for i in range(n_bins)
    ]
    peak = max(totals) if totals else 1
    lines = []
    for i in range(n_bins):
        if totals[i] == 0:
            continue
        low = histogram.bin_edges[i]
        high = histogram.bin_edges[i + 1] - 1
        bar = "#" * max(1, int(bar_width * totals[i] / max(peak, 1)))
        split = " ".join(
            f"{series.label}={series.counts[i]}"
            for series in histogram.series
            if series.counts[i]
        )
        lines.append(f"{low:>6}-{high:<6} {bar} {totals[i]} ({split})")
    return "\n".join(lines) if lines else "(empty histogram)"


def render_zero_range(stats: ZeroRangeStats) -> str:
    """Section 5.2.1 summary."""
    top_ports = ", ".join(
        f"port {port}: {count}" for port, count in stats.port_counts[:3]
    )
    return (
        f"zero-range resolvers: {stats.resolvers} in {stats.asns} ASes; "
        f"closed: {stats.closed} ({_pct(stats.closed_fraction)}); "
        f"top fixed ports: {top_ports or 'none'}; "
        f"ASes with >=1 closed zero-range resolver: {stats.asns_with_closed}"
    )


def render_small_range(stats: SmallRangeStats) -> str:
    """Section 5.2.3 summary."""
    return (
        f"range 1-200 resolvers: {stats.resolvers} in {stats.asns} ASes; "
        f"strictly increasing: {stats.strictly_increasing}; "
        f"of those wrapping: {stats.increasing_with_wrap}; "
        f"<=7 unique ports: {stats.few_unique}"
    )


def render_open_closed(stats: OpenClosedStats) -> str:
    """Section 5.1 summary."""
    return (
        f"closed: {stats.closed} ({_pct(stats.closed_fraction)}), "
        f"open: {stats.open_}; "
        f"ASes lacking DSAV with >=1 closed resolver: "
        f"{stats.asns_with_closed_resolver}/{stats.dsav_lacking_asns} "
        f"({_pct(stats.asns_with_closed_fraction)})"
    )


def render_forwarding(v4: ForwardingStats, v6: ForwardingStats) -> str:
    """Section 5.4 summary."""
    return (
        f"IPv4: {v4.resolved} resolved; direct {v4.direct} "
        f"({_pct(v4.direct_fraction)}), forwarded {v4.forwarded} "
        f"({_pct(v4.forwarded_fraction)}), both {v4.both}\n"
        f"IPv6: {v6.resolved} resolved; direct {v6.direct} "
        f"({_pct(v6.direct_fraction)}), forwarded {v6.forwarded} "
        f"({_pct(v6.forwarded_fraction)}), both {v6.both}"
    )


def render_qmin(stats: QminStats) -> str:
    """Section 3.6.4 summary."""
    return (
        f"QNAME-minimizing sources: {stats.minimizing_sources} in "
        f"{stats.minimizing_asns} ASes; with independent DSAV evidence: "
        f"{stats.minimizing_asns_with_dsav_evidence} "
        f"({_pct(stats.dsav_evidence_fraction)})"
    )

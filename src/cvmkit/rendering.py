"""Render analysis results as aligned text, records JSON or plot-data CSV.

Every renderer takes the result object, never raw samples, so rendering can
be re-run without recomputation, and every renderer is deterministic: the
same result yields byte-identical output.  Numbers go through the shared
rounding helpers — means to one decimal, impact weights and relative ratings
to integers — so a rendered table is exactly the "published" form of the
analysis.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from typing import TYPE_CHECKING, Iterable, Sequence

from .analytics import (
    CompetitiveReport,
    LoyaltyCurve,
    PriorityRanking,
    ProfileTable,
    ValueMapPoint,
)
from .rounding import format_percent, format_rating, format_score

if TYPE_CHECKING:
    from .nps import NpsResult, NpsVsCva

__all__ = [
    "render_profile_table",
    "render_priorities",
    "render_loyalty_curve",
    "render_value_map",
    "render_nps",
    "render_nps_vs_cva",
    "render_report",
    "report_records",
    "nps_records",
    "loyalty_plot_csv",
    "value_map_plot_csv",
]


def _text_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[str]],
    align_left: Sequence[int] = (0,),
) -> list[str]:
    """Column-aligned plain text; columns in ``align_left`` are left-aligned."""
    materialized = [list(headers)] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in materialized) for i in range(len(headers))]

    def fmt_row(row: Sequence[str]) -> str:
        cells = []
        for i, cell in enumerate(row):
            if i in align_left:
                cells.append(cell.ljust(widths[i]))
            else:
                cells.append(cell.rjust(widths[i]))
        return "  ".join(cells).rstrip()

    lines = [fmt_row(materialized[0])]
    lines.append("-" * len(lines[0]))
    lines.extend(fmt_row(row) for row in materialized[1:])
    return lines


def render_profile_table(table: ProfileTable) -> str:
    """One competitive profile table: children, weights, means, relatives.

    The footer row carries the parent's own means and relative rating; at
    the root that relative is labelled as the overall value score (CVA).
    """
    headers = ["component", "impact", "own", "competitors", "relative"]
    rows = []
    half_widths = [table.parent_own.half_width]
    for row in table.rows:
        half_widths.append(row.own_mean.half_width)
        if row.competitor_mean is not None:
            half_widths.append(row.competitor_mean.half_width)
        rows.append(
            [
                row.label,
                format_percent(row.impact_weight) + "%",
                format_rating(row.own_mean.mean),
                "-" if row.competitor_mean is None else format_rating(row.competitor_mean.mean),
                "-" if row.relative is None else format_percent(row.relative),
            ]
        )
    if table.parent_relative is None:
        footer_relative = "-"
    elif table.is_root:
        footer_relative = f"CVA = {format_percent(table.parent_relative)}"
    else:
        footer_relative = format_percent(table.parent_relative)
    if table.parent_competitor is not None:
        half_widths.append(table.parent_competitor.half_width)
    footer = [
        table.parent_label,
        "",
        format_rating(table.parent_own.mean),
        "-" if table.parent_competitor is None else format_rating(table.parent_competitor.mean),
        footer_relative,
    ]
    r2_line = f"R^2 = {format_percent(100 * table.r_squared)}%"
    margin_line = (
        f"means are +/-{format_score(max(half_widths), 2)} or tighter (95% confidence)"
    )

    # Render body and footer together so they share column widths, then
    # separate them with a rule.
    full = _text_table(headers, rows + [footer])
    lines = [table.parent_label, "=" * len(table.parent_label)]
    lines += full[:-1]
    lines.append("-" * len(full[1]))
    lines.append(full[-1])
    lines.append(r2_line)
    lines.append(margin_line)
    return "\n".join(lines) + "\n"


def render_priorities(ranking: PriorityRanking) -> str:
    """Improvement priorities, best first: score = path slope x rating gap."""
    headers = ["rank", "attribute", "score", "slope", "gap", "own", "competitors"]
    rows = []
    for rank, entry in enumerate(ranking, start=1):
        rows.append(
            [
                str(rank),
                entry.node,
                format_score(entry.score, 3),
                format_score(entry.path_slope, 3),
                format_rating(entry.gap),
                format_rating(entry.own_mean),
                format_rating(entry.competitor_mean),
            ]
        )
    title = "Improvement priorities"
    lines = [title, "=" * len(title)]
    lines += _text_table(headers, rows, align_left=(1,))
    if ranking.excluded:
        lines.append("")
        for node in sorted(ranking.excluded):
            lines.append(f"excluded: {node} ({ranking.excluded[node]})")
    return "\n".join(lines) + "\n"


def render_loyalty_curve(curve: LoyaltyCurve) -> str:
    """The smoothed loyalty curve at each observed overall-value score."""
    title = (
        f"Loyalty curve: share with {curve.outcome.value} >= {curve.threshold}"
    )
    headers = ["value score", "willing", "respondents"]
    rows = []
    for (score, proportion), count in zip(curve.points, curve.bin_counts):
        rows.append(
            [
                format_rating(score),
                format_score(100.0 * proportion, 1) + "%",
                str(count),
            ]
        )
    lines = [title, "=" * len(title)]
    lines += _text_table(headers, rows, align_left=())
    return "\n".join(lines) + "\n"


def render_value_map(points: Sequence[ValueMapPoint], band: float) -> str:
    """Suppliers positioned by relative quality vs relative price."""
    title = "Value map"
    headers = ["supplier", "rel. quality", "rel. price", "zone"]
    rows = [
        [
            p.supplier,
            format_percent(p.relative_quality),
            format_percent(p.relative_price),
            p.zone,
        ]
        for p in points
    ]
    note = (
        f"fair-value band: quality + price within +/-{format_score(band, 1)} "
        "of the break-even line"
    )
    lines = [title, "=" * len(title)]
    lines += _text_table(headers, rows)
    lines += ["", note]
    return "\n".join(lines) + "\n"


def render_nps(result: NpsResult) -> str:
    title = "Net promoter score"
    headers = ["segment", "share"]
    rows = [
        ["promoters (9-10)", format_score(result.pct_promoters, 1) + "%"],
        ["passives (7-8)", format_score(result.pct_passives, 1) + "%"],
        ["detractors (0-6)", format_score(result.pct_detractors, 1) + "%"],
    ]
    score_line = f"NPS = {format_score(result.nps, 1)}   (n = {result.n})"
    lines = [title, "=" * len(title)]
    lines += _text_table(headers, rows)
    lines += ["", score_line]
    return "\n".join(lines) + "\n"


def render_nps_vs_cva(report: NpsVsCva) -> str:
    """The score's segments, then NPS next to CVA with what each is based on."""
    text = render_nps(report.nps_result)
    if report.cva is None:
        return text
    title = "NPS vs CVA"
    headers = ["measure", "value", "based on"]
    rows = [
        ["NPS", format_score(report.nps_result.nps, 1),
         f"own customers' recommend answers, n={report.nps_result.n}"],
        ["CVA", format_percent(report.cva), "own vs competitor root-rating means"],
    ]
    drill = (
        "CVA decomposes into the fitted value tree ("
        + ", ".join(report.cva_drill_down)
        + "); NPS has no decomposition — the single question is its own basis."
    )
    lines = [title, "=" * len(title)]
    lines += _text_table(headers, rows, align_left=(0, 2))
    lines += ["", drill]
    return text + "\n" + "\n".join(lines) + "\n"


def nps_records(report: NpsVsCva) -> str:
    """The JSON records document of the score, with CVA or ``null``."""
    result = report.nps_result
    document = {
        "own_supplier": report.own_supplier,
        "nps": {
            "n": result.n,
            "pct_promoters": result.pct_promoters,
            "pct_passives": result.pct_passives,
            "pct_detractors": result.pct_detractors,
            "score": result.nps,
            "rating_histogram": list(result.rating_histogram),
        },
        "cva": report.cva,
    }
    return json.dumps(document, indent=2) + "\n"


def render_report(report: CompetitiveReport) -> str:
    """The text report: profile tables, priorities, loyalty curve, value map."""
    sections = [render_profile_table(t) for t in report.tables]
    sections.append(render_priorities(report.priorities))
    if report.curve is not None:
        loyalty_section = render_loyalty_curve(report.curve)
        if report.target is not None:
            shown = (
                "beyond the observed curve" if report.required is None
                else format_rating(report.required)
            )
            pct = format_score(100.0 * report.target, 1)
            loyalty_section += f"required value score for {pct}% willingness: {shown}\n"
        sections.append(loyalty_section)
    if report.value_map:
        sections.append(render_value_map(report.value_map, report.band))
    return "\n".join(sections)


def _table_records(table: ProfileTable) -> dict:
    def mean_records(m):
        return None if m is None else dataclasses.asdict(m)

    return {
        "parent": table.parent,
        "label": table.parent_label,
        "is_root": table.is_root,
        "r_squared": table.r_squared,
        "parent_own": mean_records(table.parent_own),
        "parent_competitor": mean_records(table.parent_competitor),
        "parent_relative": table.parent_relative,
        "rows": [
            {
                "node": row.node,
                "label": row.label,
                "impact_weight": row.impact_weight,
                "own": mean_records(row.own_mean),
                "competitor": mean_records(row.competitor_mean),
                "relative": row.relative,
            }
            for row in table.rows
        ],
    }


def report_records(report: CompetitiveReport) -> str:
    """The JSON records document of the report."""
    curve = report.curve
    document = {
        "own_supplier": report.own_supplier,
        "n_respondents": report.n_respondents,
        "tables": [_table_records(t) for t in report.tables],
        "cva": next((t.parent_relative for t in report.tables if t.is_root), None),
        "priorities": [dataclasses.asdict(e) for e in report.priorities],
        "priorities_excluded": dict(sorted(report.priorities.excluded.items())),
        "loyalty_curve": None if curve is None else {
            "outcome": curve.outcome.value,
            "threshold": curve.threshold,
            "points": [list(p) for p in curve.points],
            "raw_proportions": list(curve.raw_proportions),
            "bin_counts": list(curve.bin_counts),
        },
        "loyalty_target": None if report.target is None else {
            "target": report.target,
            "required_value_score": report.required,
        },
        "value_map": [dataclasses.asdict(p) for p in report.value_map],
    }
    return json.dumps(document, indent=2) + "\n"


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def loyalty_plot_csv(curve: LoyaltyCurve) -> str:
    """Plot-data CSV of a loyalty curve: score, smoothed and raw proportion."""
    return _csv_text(
        ["value_score", "proportion_willing", "raw_proportion"],
        (
            (format_rating(score), format_score(smoothed, 4), format_score(raw, 4))
            for (score, smoothed), raw in zip(curve.points, curve.raw_proportions)
        ),
    )


def value_map_plot_csv(points: Sequence[ValueMapPoint]) -> str:
    """Plot-data CSV of a value map: supplier, both relative ratings, zone."""
    return _csv_text(
        ["supplier", "relative_quality", "relative_price", "zone"],
        (
            (p.supplier, format_percent(p.relative_quality),
             format_percent(p.relative_price), p.zone)
            for p in points
        ),
    )

"""Render analysis results as aligned text, records JSON or plot-data CSV.

Every renderer takes the result object, never raw samples, so rendering can
be re-run without recomputation, and every renderer is deterministic: the
same result yields byte-identical output.  Numbers go through the shared
rounding helpers — means to one decimal, impact weights and relative ratings
to integers — so a rendered table is exactly the "published" form of the
analysis.

Every text renderer lays out its section the same way, through one helper:
the title over a rule of ``=``, the column-aligned table with its header
ruled off (and a footer row, such as a profile table's parent, ruled off
from the body in the body's column widths), then any note lines.  A table
cell with no value prints ``-``.  The plot-data CSVs go through the
package's one CSV writer, the one that writes survey files.
"""

from __future__ import annotations

import dataclasses
import json
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Sequence, TypeVar

from .analytics import (
    CompetitiveReport,
    LoyaltyCurve,
    PriorityRanking,
    ProfileTable,
    ValueMapPoint,
)
from .rounding import format_percent, format_rating, format_score
from .survey import MeanWithHalfWidth, _csv_text

if TYPE_CHECKING:
    from .nps import NpsResult, NpsVsCva

T = TypeVar("T")

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


def _section(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[str]],
    align_left: Collection[int] = (0,),
    notes: Sequence[str] = (),
    footer: Sequence[str] | None = None,
) -> str:
    """One text section: the title over ``=``, a column-aligned table, then ``notes``.

    Columns in ``align_left`` are left-aligned, the rest right-aligned, two
    spaces apart, with trailing spaces dropped.  A rule of ``-`` as wide as
    the header line rules off the header, and the ``footer`` row, which
    takes the body's column widths, from the body.
    """
    table = [headers, *rows] + ([footer] if footer is not None else [])
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = [
        "  ".join(
            cell.ljust(width) if i in align_left else cell.rjust(width)
            for i, (cell, width) in enumerate(zip(row, widths))
        ).rstrip()
        for row in table
    ]
    rule = "-" * len(lines[0])
    lines.insert(1, rule)
    if footer is not None:
        lines.insert(-1, rule)
    return "\n".join([title, "=" * len(title), *lines, *notes]) + "\n"


def _shown(value: T | None, format_value: Callable[[T], str], missing: str = "-") -> str:
    """``format_value(value)``, or ``missing`` for a missing value."""
    return missing if value is None else format_value(value)


def _mean_text(mean: MeanWithHalfWidth) -> str:
    return format_rating(mean.mean)


def render_profile_table(table: ProfileTable) -> str:
    """One competitive profile table: children, weights, means, relatives.

    The footer row carries the parent's own means and relative rating; at
    the root that relative is labelled as the overall value score (CVA).
    """
    rows = [
        [
            row.label,
            format_percent(row.impact_weight) + "%",
            _mean_text(row.own_mean),
            _shown(row.competitor_mean, _mean_text),
            _shown(row.relative, format_percent),
        ]
        for row in table.rows
    ]
    cva = "CVA = " if table.is_root else ""
    footer = [
        table.parent_label,
        "",
        _mean_text(table.parent_own),
        _shown(table.parent_competitor, _mean_text),
        _shown(table.parent_relative, lambda relative: cva + format_percent(relative)),
    ]
    means = [table.parent_own, table.parent_competitor]
    means += [m for row in table.rows for m in (row.own_mean, row.competitor_mean)]
    margin = max(m.half_width for m in means if m is not None)
    notes = [
        f"R^2 = {format_percent(100 * table.r_squared)}%",
        f"means are +/-{format_score(margin, 2)} or tighter (95% confidence)",
    ]
    headers = ["component", "impact", "own", "competitors", "relative"]
    return _section(table.parent_label, headers, rows, notes=notes, footer=footer)


def render_priorities(ranking: PriorityRanking) -> str:
    """Improvement priorities, best first: score = path slope x rating gap."""
    rows = [
        [
            str(rank),
            entry.node,
            format_score(entry.score, 3),
            format_score(entry.path_slope, 3),
            format_rating(entry.gap),
            format_rating(entry.own_mean),
            format_rating(entry.competitor_mean),
        ]
        for rank, entry in enumerate(ranking, start=1)
    ]
    excluded = [f"excluded: {node} ({ranking.excluded[node]})" for node in sorted(ranking.excluded)]
    headers = ["rank", "attribute", "score", "slope", "gap", "own", "competitors"]
    notes = [""] + excluded if excluded else []
    return _section("Improvement priorities", headers, rows, align_left=(1,), notes=notes)


def render_loyalty_curve(curve: LoyaltyCurve) -> str:
    """The smoothed loyalty curve at each observed overall-value score."""
    title = f"Loyalty curve: share with {curve.outcome.value} >= {curve.threshold}"
    rows = (
        [format_rating(score), format_score(100.0 * proportion, 1) + "%", str(count)]
        for (score, proportion), count in zip(curve.points, curve.bin_counts)
    )
    return _section(title, ["value score", "willing", "respondents"], rows, align_left=())


def render_value_map(points: Sequence[ValueMapPoint], band: float) -> str:
    """Suppliers positioned by relative quality vs relative price."""
    headers = ["supplier", "rel. quality", "rel. price", "zone"]
    rows = (
        [p.supplier, format_percent(p.relative_quality), format_percent(p.relative_price), p.zone]
        for p in points
    )
    note = (
        f"fair-value band: quality + price within +/-{format_score(band, 1)} "
        "of the break-even line"
    )
    return _section("Value map", headers, rows, notes=["", note])


def render_nps(result: NpsResult) -> str:
    rows = [
        ["promoters (9-10)", format_score(result.pct_promoters, 1) + "%"],
        ["passives (7-8)", format_score(result.pct_passives, 1) + "%"],
        ["detractors (0-6)", format_score(result.pct_detractors, 1) + "%"],
    ]
    score_line = f"NPS = {format_score(result.nps, 1)}   (n = {result.n})"
    return _section("Net promoter score", ["segment", "share"], rows, notes=["", score_line])


def render_nps_vs_cva(report: NpsVsCva) -> str:
    """The score's segments, then NPS next to CVA with what each is based on."""
    text = render_nps(report.nps_result)
    if report.cva is None:
        return text
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
    headers = ["measure", "value", "based on"]
    return text + "\n" + _section("NPS vs CVA", headers, rows, align_left=(0, 2), notes=["", drill])


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
            shown = _shown(report.required, format_rating, "beyond the observed curve")
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

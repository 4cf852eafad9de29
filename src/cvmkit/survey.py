"""Survey samples: ingest, validation, export, splitting, and node means.

A survey row is one respondent: who they are (id, role, supplier whose
product they rated) plus a 1-10 rating for each value-tree node they answered
and 0-10 willingness outcomes (would recommend / would repurchase).  Ratings
may be missing per node; every present value is range-checked on ingest and
rejects name the offending file row.

The on-disk form is CSV with a fixed header prefix followed by one column per
tree node (canonical preorder) and the two outcome columns::

    respondent_id,role,supplier,<node ids...>,outcome_recommend,outcome_repurchase

This module is the only reader of the per-respondent rating dicts: every
other module gets node means, supplier splits, outcome lists and complete
cases through the functions below.

Means come with a spreadsheet-style 95% half-width (1.96 * sd / sqrt(n)).
Survey *sourcing* — panel design, who counts as a decision maker, response
weighting — is out of scope; samples are taken as given.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Iterator, Mapping, Sequence

import numpy as np

from .errors import CvmError, decode_utf8
from .tree import ValueTree

__all__ = [
    "ROLES",
    "OutcomeKind",
    "Respondent",
    "SurveySample",
    "MeanWithHalfWidth",
    "SurveyFormatError",
    "NoRatingsError",
    "survey_columns",
    "ingest_responses",
    "survey_text",
    "write_survey",
    "split_by_supplier",
    "node_mean",
    "outcome_values",
    "root_outcome_pairs",
    "complete_cases",
]

ROLES = ("decision_maker", "user")

#: multiplier for the normal-approximation 95% confidence half-width
CONFIDENCE_MULTIPLIER = 1.96

RATING_MIN, RATING_MAX = 1, 10
OUTCOME_MIN, OUTCOME_MAX = 0, 10


class OutcomeKind(str, Enum):
    """Willingness outcomes collected alongside the tree ratings."""

    RECOMMEND = "recommend"
    REPURCHASE = "repurchase"

    @property
    def column(self) -> str:
        return f"outcome_{self.value}"


class SurveyFormatError(CvmError):
    """Malformed survey data; carries the 1-based file row when known."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class NoRatingsError(CvmError):
    """No respondent carries the rating(s) a computation needs."""


@dataclass(frozen=True)
class Respondent:
    id: str
    role: str
    supplier: str
    node_ratings: Mapping[str, int]
    outcome_ratings: Mapping[OutcomeKind, int]


@dataclass(frozen=True)
class SurveySample:
    """An immutable batch of respondents tied to one value tree."""

    tree: ValueTree
    respondents: tuple[Respondent, ...]
    own_supplier: str

    def __len__(self) -> int:
        return len(self.respondents)

    def suppliers(self) -> list[str]:
        """Distinct supplier labels in first-appearance order."""
        seen: dict[str, None] = {}
        for r in self.respondents:
            seen.setdefault(r.supplier, None)
        return list(seen)


@dataclass(frozen=True)
class MeanWithHalfWidth:
    """A mean plus its 95% half-width; ``n`` is the count behind it."""

    mean: float
    half_width: float
    n: int


def survey_columns(tree: ValueTree) -> list[str]:
    """The canonical CSV header for ``tree``."""
    return (
        ["respondent_id", "role", "supplier"]
        + list(tree.preorder())
        + [OutcomeKind.RECOMMEND.column, OutcomeKind.REPURCHASE.column]
    )


def _parse_int(token: str, lo: int, hi: int, what: str, row: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise SurveyFormatError(f"{what}: {token!r} is not an integer", row) from None
    if not lo <= value <= hi:
        raise SurveyFormatError(f"{what}: {value} outside [{lo}, {hi}]", row)
    return value


def ingest_responses(
    source: str | Path | IO[str], tree: ValueTree, own_supplier: str
) -> SurveySample:
    """Read a survey CSV into a validated :class:`SurveySample`.

    ``source`` is a path or an open text stream.  The header must start with
    ``respondent_id, role, supplier``; every further column must name a tree
    node or an outcome.  Node and outcome columns may be omitted (those
    ratings are then missing for everyone), but unknown names are an error —
    that is what catches a typo'd header.  Any bad cell aborts ingest with the
    offending row number; a header-only file yields an empty sample and a
    warning.  A path is read as UTF-8, with or without a byte-order mark.
    """
    if hasattr(source, "read"):
        return _ingest_stream(source, tree, own_supplier)  # type: ignore[arg-type]
    try:
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            return _ingest_stream(handle, tree, own_supplier)
    except UnicodeDecodeError:
        # The decoder reads ahead in blocks, so its error cannot name the
        # row; decoding the whole file again can.
        decode_utf8(Path(source).read_bytes(), SurveyFormatError)
        raise


def _csv_rows(stream: IO[str]) -> Iterator[list[str]]:
    reader = csv.reader(stream)
    try:
        yield from reader
    except csv.Error as exc:
        raise SurveyFormatError(f"malformed CSV: {exc}", reader.line_num) from None


def _ingest_stream(stream: IO[str], tree: ValueTree, own_supplier: str) -> SurveySample:
    reader = _csv_rows(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise SurveyFormatError("empty file: no header row") from None
    header = [h.strip() for h in header]

    fixed = ["respondent_id", "role", "supplier"]
    if header[: len(fixed)] != fixed:
        raise SurveyFormatError(
            f"header must start with {', '.join(fixed)}; got {header[:3]}", row=1
        )
    outcome_by_column = {kind.column: kind for kind in OutcomeKind}
    node_cols: dict[int, str] = {}
    outcome_cols: dict[int, OutcomeKind] = {}
    seen: set[str] = set()
    for idx, name in enumerate(header[len(fixed) :], start=len(fixed)):
        if name in seen:
            raise SurveyFormatError(f"duplicate column {name!r}", row=1)
        seen.add(name)
        if name in outcome_by_column:
            outcome_cols[idx] = outcome_by_column[name]
        elif name in tree.nodes:
            node_cols[idx] = name
        else:
            raise SurveyFormatError(
                f"unknown column {name!r}: not a node of tree {tree.name!r} "
                "and not an outcome column",
                row=1,
            )

    respondents: list[Respondent] = []
    for row_number, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise SurveyFormatError(
                f"expected {len(header)} fields, got {len(row)}", row_number
            )
        respondent_id = row[0].strip()
        role = row[1].strip()
        supplier = row[2].strip()
        if not respondent_id:
            raise SurveyFormatError("empty respondent_id", row_number)
        if role not in ROLES:
            raise SurveyFormatError(
                f"unknown role {role!r} (expected one of {', '.join(ROLES)})", row_number
            )
        if not supplier:
            raise SurveyFormatError("empty supplier", row_number)
        node_ratings: dict[str, int] = {}
        for idx, node_id in node_cols.items():
            token = row[idx].strip()
            if token:
                node_ratings[node_id] = _parse_int(
                    token, RATING_MIN, RATING_MAX, f"rating for {node_id!r}", row_number
                )
        outcome_ratings: dict[OutcomeKind, int] = {}
        for idx, kind in outcome_cols.items():
            token = row[idx].strip()
            if token:
                outcome_ratings[kind] = _parse_int(
                    token, OUTCOME_MIN, OUTCOME_MAX, f"{kind.column}", row_number
                )
        respondents.append(
            Respondent(respondent_id, role, supplier, node_ratings, outcome_ratings)
        )

    if not respondents:
        warnings.warn("survey has a header but no respondent rows", stacklevel=3)
    return SurveySample(tree=tree, respondents=tuple(respondents), own_supplier=own_supplier)


def survey_text(sample: SurveySample) -> str:
    """Canonical CSV text for ``sample`` (the exact ingest round-trip form)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    columns = survey_columns(sample.tree)
    writer.writerow(columns)
    node_order = list(sample.tree.preorder())
    for r in sample.respondents:
        row = [r.id, r.role, r.supplier]
        row += [str(r.node_ratings[n]) if n in r.node_ratings else "" for n in node_order]
        for kind in (OutcomeKind.RECOMMEND, OutcomeKind.REPURCHASE):
            row.append(str(r.outcome_ratings[kind]) if kind in r.outcome_ratings else "")
        writer.writerow(row)
    return buffer.getvalue()


def write_survey(sample: SurveySample, path: str | Path) -> None:
    Path(path).write_text(survey_text(sample), encoding="utf-8")


def split_by_supplier(sample: SurveySample) -> tuple[SurveySample, SurveySample]:
    """(own-supplier respondents, everyone else), both keeping the tree/label."""
    own = tuple(r for r in sample.respondents if r.supplier == sample.own_supplier)
    rest = tuple(r for r in sample.respondents if r.supplier != sample.own_supplier)
    return (
        SurveySample(sample.tree, own, sample.own_supplier),
        SurveySample(sample.tree, rest, sample.own_supplier),
    )


def node_mean(sample: SurveySample, node_id: str) -> MeanWithHalfWidth:
    """Mean rating for one node over the respondents who rated it.

    Half-width is ``1.96 * sd / sqrt(n)`` with the sample (n-1) standard
    deviation; a single rating or a constant column gives half-width 0.
    Raises :class:`NoRatingsError` when nobody rated the node.
    """
    sample.tree.node(node_id)  # raises UnknownNodeError for foreign ids
    values = [r.node_ratings[node_id] for r in sample.respondents if node_id in r.node_ratings]
    if not values:
        raise NoRatingsError(f"no ratings for node {node_id!r}")
    data = np.asarray(values, dtype=np.float64)
    mean = float(data.mean())
    if len(values) < 2:
        half = 0.0
    else:
        sd = float(data.std(ddof=1))
        half = CONFIDENCE_MULTIPLIER * sd / float(np.sqrt(len(values)))
    return MeanWithHalfWidth(mean=mean, half_width=half, n=len(values))


def outcome_values(sample: SurveySample, outcome: OutcomeKind) -> list[int]:
    """Every answer to ``outcome`` in respondent order; blank answers are skipped."""
    return [r.outcome_ratings[outcome] for r in sample.respondents if outcome in r.outcome_ratings]


def root_outcome_pairs(sample: SurveySample, outcome: OutcomeKind) -> list[tuple[int, int]]:
    """(root rating, ``outcome`` answer) for each respondent who gave both."""
    root = sample.tree.root
    return [
        (r.node_ratings[root], r.outcome_ratings[outcome])
        for r in sample.respondents
        if root in r.node_ratings and outcome in r.outcome_ratings
    ]


def complete_cases(
    sample: SurveySample, node_id: str, children: Sequence[str]
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Ratings of ``node_id`` and of each child, over the respondents who rated all.

    This is listwise deletion: the response vector and one regressor column
    per child, all of the same length.
    """
    wanted = (node_id, *children)
    rows = [
        [r.node_ratings[w] for w in wanted]
        for r in sample.respondents
        if all(w in r.node_ratings for w in wanted)
    ]
    if not rows:
        return np.empty(0), {c: np.empty(0) for c in children}
    data = np.asarray(rows, dtype=np.float64)
    return data[:, 0], {c: data[:, i + 1] for i, c in enumerate(children)}

"""Survey samples: ingest, validation, export, splitting, and node means.

A survey row is one respondent: who they are (id, role, supplier whose
product they rated) plus a 1-10 rating for each value-tree node they answered
and 0-10 willingness outcomes (would recommend / would repurchase).  Ratings
may be missing per node; every present value is range-checked on ingest and
rejects name the offending file row.  Each respondent id is unique: a repeated
id is an ingest error naming both rows, since it would count one respondent
twice in every mean and fit.

The on-disk form is CSV with a fixed header prefix followed by one column per
tree node (canonical preorder) and the two outcome columns::

    respondent_id,role,supplier,<node ids...>,outcome_recommend,outcome_repurchase

In memory a :class:`SurveySample` is one columnar store: an ``(n, 3)``
string array of (id, role, supplier), an ``(n, nodes)`` int8 rating matrix
in tree preorder with 0 for a missing rating, and an ``(n, 2)`` int8 outcome
matrix in :class:`OutcomeKind` order with -1 for a missing answer.  Supplier
splits are row masks; outcome lists, root/outcome pairs and complete cases
are column slices.  Other modules read the store only
through the functions below.  The class constructor takes the three columns
as given and checks no value; ingest is where a file's values are checked.

Ingest reads the file in chunks of a fixed number of rows, so its memory
does not grow with the file beyond the store itself.  A chunk whose rows all
have the header's width, whose labels pass their checks, whose ids are new,
and whose value cells are all canonical tokens (``""`` and ``"1"``-``"10"``
for ratings, ``""`` and ``"0"``-``"10"`` for outcomes) is converted a column
at a time through a token table.  Any other chunk goes through the row
loop, which strips cells, parses ASCII integers (digits after an optional
sign) and raises the first row-numbered diagnostic; it accepts and rejects
exactly what a row loop over the whole file would, so the table is only a
shortcut.

Every node mean and half-width is read from one histogram pass over the
rating matrix, made once per sample and kept on it, which gives each
column's exact count n, sum and sum of squares.  A mean is the sum over n;
the 95% half-width is ``1.96 * sqrt((n*sumsq - sum**2) / (n*(n-1))) / sqrt(n)``,
whose variance is an exact integer ratio rounded once and whose later steps
are each correctly rounded.  So no mean, half-width or supplier listing (own
first, the rest sorted) can depend on row order, BLAS or CPU.

Survey *sourcing* — panel design, who counts as a decision maker, response
weighting — is out of scope; samples are taken as given.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import re
import warnings
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from .errors import CvmError
from .tree import ValueTree

__all__ = [
    "ROLES",
    "OutcomeKind",
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
    "node_means",
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


_OUTCOMES = tuple(OutcomeKind)


class SurveyFormatError(CvmError):
    """Malformed survey data; carries the 1-based file row when known."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class NoRatingsError(CvmError):
    """No respondent carries the rating(s) a computation needs."""


@dataclass(frozen=True, eq=False)
class SurveySample:
    """An immutable batch of respondents tied to one value tree, held by column.

    ``labels`` is an ``(n, 3)`` string array of (id, role, supplier);
    ``ratings`` an ``(n, nodes)`` int8 matrix in tree preorder, 0 where a
    rating is missing; ``outcomes`` an ``(n, 2)`` int8 matrix in
    :class:`OutcomeKind` order, -1 where an answer is missing.  The
    constructor takes the columns as given and makes all three read-only.
    """

    tree: ValueTree
    own_supplier: str
    labels: np.ndarray
    ratings: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=str).reshape(-1, 3)
        for column in (labels, self.ratings, self.outcomes):
            column.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_position", _positions(self.tree))

    def _column(self, node_id: str) -> int:
        """Position of ``node_id`` in the rating matrix."""
        self.tree.node(node_id)  # raises UnknownNodeError for foreign ids
        return self._position[node_id]

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurveySample):
            return NotImplemented
        return (
            self.tree == other.tree
            and self.own_supplier == other.own_supplier
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.ratings, other.ratings)
            and np.array_equal(self.outcomes, other.outcomes)
        )

    def suppliers(self) -> list[str]:
        """Distinct supplier labels: the own supplier (when present) first, then sorted."""
        others = set(self.labels[:, 2].tolist())
        own = [self.own_supplier] if self.own_supplier in others else []
        return own + sorted(others - {self.own_supplier})

    @functools.cached_property
    def _moments(self) -> np.ndarray:
        """Rows (count, sum, sum of squares) of each rating column's present values."""
        return _column_moments(self.ratings)


def _positions(tree: ValueTree) -> dict[str, int]:
    """Node id -> rating-matrix column (tree preorder)."""
    return {node: j for j, node in enumerate(tree.preorder())}


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


_INTEGER = re.compile(r"[+-]?[0-9]+")  # int() alone also takes "1_0" and non-ASCII digits


def _parse_int(token: str, lo: int, hi: int, what: str, row: int) -> int:
    if not _INTEGER.fullmatch(token):
        raise SurveyFormatError(f"{what}: {token!r} is not an integer", row)
    value = int(token)
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
    warning.  A path is read as UTF-8, with or without a byte-order mark.  A
    byte that is not UTF-8 is an error naming its row when ``source`` is a
    path, and naming no row when it is a stream.
    """
    if hasattr(source, "read"):
        try:
            return _ingest_stream(source, tree, own_supplier)  # type: ignore[arg-type]
        except UnicodeDecodeError as exc:
            # A stream cannot be read again to find the row, and its decoder
            # reads ahead, so the rows parsed so far do not give it either.
            message = f"byte 0x{exc.object[exc.start]:02x} is not valid UTF-8"
            raise SurveyFormatError(message) from None
    try:
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            return _ingest_stream(handle, tree, own_supplier)
    except UnicodeDecodeError:
        # The decoder reads ahead in blocks, so its error cannot name the
        # row; decoding the whole file again finds the byte, and the CSV
        # records before it give the row, counted as every diagnostic counts.
        data = Path(source).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the sentinel makes a record-ending prefix count the next record
            prefix = io.StringIO(data[: exc.start].decode("utf-8") + "x")
            row = sum(1 for _ in _csv_rows(prefix))
            message = f"byte 0x{data[exc.start]:02x} is not valid UTF-8"
            raise SurveyFormatError(message, row) from None
        raise


def _csv_rows(stream: IO[str]) -> Iterator[list[str]]:
    reader = csv.reader(stream)
    try:
        yield from reader
    except csv.Error as exc:
        raise SurveyFormatError(f"malformed CSV: {exc}", reader.line_num) from None


#: Rows read and converted at a time.  A chunk's token lists are the largest
#: transient of ingest, so a bounded chunk keeps peak memory independent of the
#: file's length.
_CHUNK_ROWS = 8192

# The canonical tokens of the two value columns.  Any other token, even one
# the row loop accepts (" 7", "07", "+7"), is a miss that hands the chunk over.
_RATING_CODES = {"": 0, **{str(v): v for v in range(RATING_MIN, RATING_MAX + 1)}}
_OUTCOME_CODES = {"": -1, **{str(v): v for v in range(OUTCOME_MIN, OUTCOME_MAX + 1)}}


@dataclass
class _Layout:
    """Where a file's columns go: its width and the value columns' targets."""

    width: int
    n_nodes: int
    # file column -> (matrix column, name for diagnostics)
    node_cols: dict[int, tuple[int, str]] = field(default_factory=dict)
    outcome_cols: dict[int, tuple[int, str]] = field(default_factory=dict)


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
    outcome_by_column = {kind.column: k for k, kind in enumerate(_OUTCOMES)}
    position = _positions(tree)
    layout = _Layout(len(header), len(position))
    seen: set[str] = set()
    for idx, name in enumerate(header[len(fixed) :], start=len(fixed)):
        if name in seen:
            raise SurveyFormatError(f"duplicate column {name!r}", row=1)
        seen.add(name)
        if name in outcome_by_column:
            layout.outcome_cols[idx] = (outcome_by_column[name], name)
        elif name in position:
            layout.node_cols[idx] = (position[name], f"rating for {name!r}")
        else:
            raise SurveyFormatError(
                f"unknown column {name!r}: not a node of tree {tree.name!r} "
                "and not an outcome column",
                row=1,
            )

    # Rows go through in chunks of _CHUNK_ROWS.  A chunk is converted a
    # column at a time through the token tables (_table_chunk); a chunk the
    # tables cannot take goes through the row loop (_row_chunk), which
    # accepts and diagnoses exactly as a whole-file row loop would, because
    # both share ``first_row`` and absolute row numbers.  When reading a
    # chunk fails part-way (malformed CSV, undecodable bytes), the rows read
    # so far are checked first, so an earlier bad cell is still the one named.
    first_row: dict[str, int] = {}
    row_number = 2
    # the empty chunk gives a file without respondent rows its column shapes
    parts = [_row_chunk([], row_number, layout, first_row)]
    while True:
        chunk: list[list[str]] = []
        try:
            for row in itertools.islice(reader, _CHUNK_ROWS):
                chunk.append(row)
        except (SurveyFormatError, UnicodeDecodeError):
            _row_chunk(chunk, row_number, layout, first_row)
            raise
        if not chunk:
            break
        parts.append(
            _table_chunk(chunk, row_number, layout, first_row)
            or _row_chunk(chunk, row_number, layout, first_row)
        )
        row_number += len(chunk)

    labels, ratings, outcomes = (np.concatenate(column) for column in zip(*parts))
    if not len(labels):
        warnings.warn("survey has a header but no respondent rows", stacklevel=3)
    return SurveySample(tree, own_supplier, labels, ratings, outcomes)


def _table_chunk(
    chunk: list[list[str]], start: int, layout: _Layout, first_row: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Convert a chunk a column at a time, or return None if it needs the row loop.

    None means some row is short, long or blank, a label fails its check,
    an id repeats, or a value token is not canonical; ``first_row`` is then
    left as it was.
    """
    n = len(chunk)
    if set(map(len, chunk)) != {layout.width}:
        return None
    columns = list(zip(*chunk))
    ids, roles, suppliers = (list(map(str.strip, columns[k])) for k in range(3))
    if "" in ids or "" in suppliers or not set(roles).issubset(ROLES):
        return None
    if len(set(ids)) != n or not first_row.keys().isdisjoint(ids):
        return None
    ratings = np.zeros((n, layout.n_nodes), dtype=np.int8)
    outcomes = np.full((n, len(_OUTCOMES)), -1, dtype=np.int8)
    try:
        for idx, (j, _) in layout.node_cols.items():
            ratings[:, j] = np.fromiter(map(_RATING_CODES.__getitem__, columns[idx]), np.int8, n)
        for idx, (k, _) in layout.outcome_cols.items():
            outcomes[:, k] = np.fromiter(map(_OUTCOME_CODES.__getitem__, columns[idx]), np.int8, n)
    except KeyError:
        return None
    first_row.update(zip(ids, range(start, start + n)))
    return np.array((ids, roles, suppliers), dtype=str).T, ratings, outcomes


def _row_chunk(
    chunk: list[list[str]], start: int, layout: _Layout, first_row: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check and convert a chunk row by row; the first bad row raises, naming itself."""
    labels: list[tuple[str, str, str]] = []
    rating_rows: list[list[int]] = []
    outcome_rows: list[list[int]] = []
    for row_number, row in enumerate(chunk, start=start):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != layout.width:
            raise SurveyFormatError(
                f"expected {layout.width} fields, got {len(row)}", row_number
            )
        respondent_id = row[0].strip()
        role = row[1].strip()
        supplier = row[2].strip()
        if not respondent_id:
            raise SurveyFormatError("empty respondent_id", row_number)
        first = first_row.setdefault(respondent_id, row_number)
        if first != row_number:
            raise SurveyFormatError(
                f"duplicate respondent_id {respondent_id!r} (first on row {first})", row_number
            )
        if role not in ROLES:
            raise SurveyFormatError(
                f"unknown role {role!r} (expected one of {', '.join(ROLES)})", row_number
            )
        if not supplier:
            raise SurveyFormatError("empty supplier", row_number)
        ratings = [0] * layout.n_nodes
        for idx, (j, what) in layout.node_cols.items():
            token = row[idx].strip()
            if token:
                ratings[j] = _parse_int(token, RATING_MIN, RATING_MAX, what, row_number)
        outcomes = [-1] * len(_OUTCOMES)
        for idx, (k, what) in layout.outcome_cols.items():
            token = row[idx].strip()
            if token:
                outcomes[k] = _parse_int(token, OUTCOME_MIN, OUTCOME_MAX, what, row_number)
        labels.append((respondent_id, role, supplier))
        rating_rows.append(ratings)
        outcome_rows.append(outcomes)
    n = len(labels)
    return (
        np.array(labels, dtype=str).reshape(n, 3),
        np.array(rating_rows, dtype=np.int8).reshape(n, layout.n_nodes),
        np.array(outcome_rows, dtype=np.int8).reshape(n, len(_OUTCOMES)),
    )


# Cell text of each stored code: a rating code v is _RATING_TEXT[v] and an
# outcome code v is _OUTCOME_TEXT[v], so the missing outcome -1 reads the last
# entry, "".
_RATING_TEXT = ["", *map(str, range(RATING_MIN, RATING_MAX + 1))]
_OUTCOME_TEXT = [*map(str, range(OUTCOME_MIN, OUTCOME_MAX + 1)), ""]


def survey_text(sample: SurveySample) -> str:
    """Canonical CSV text for ``sample`` (the exact ingest round-trip form)."""
    columns = [sample.labels[:, k].tolist() for k in range(3)]
    columns += [list(map(_RATING_TEXT.__getitem__, c)) for c in sample.ratings.T.tolist()]
    columns += [list(map(_OUTCOME_TEXT.__getitem__, c)) for c in sample.outcomes.T.tolist()]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(survey_columns(sample.tree))
    writer.writerows(zip(*columns))
    return buffer.getvalue()


def write_survey(sample: SurveySample, path: str | Path) -> None:
    Path(path).write_text(survey_text(sample), encoding="utf-8")


def split_by_supplier(
    sample: SurveySample, supplier: str | None = None
) -> tuple[SurveySample, SurveySample]:
    """(``supplier``'s respondents, everyone else), both keeping the tree/label.

    ``supplier`` defaults to the sample's own supplier.
    """
    mine = sample.labels[:, 2] == (sample.own_supplier if supplier is None else supplier)

    def part(mask: np.ndarray) -> SurveySample:
        return SurveySample(
            sample.tree, sample.own_supplier,
            sample.labels[mask], sample.ratings[mask], sample.outcomes[mask],
        )

    return part(mine), part(~mine)


#: Rows histogrammed at a time by :func:`_column_moments`.  1024-row blocks
#: ran faster than 8192-row ones on calibration's 1-2k-row samples and at 100k.
_MOMENT_ROWS = 1024

_CODES = np.arange(RATING_MAX + 1)
# histogram bin of code v -> (present, v, v*v)
_MOMENT_WEIGHTS = np.stack([_CODES > 0, _CODES, _CODES * _CODES], axis=1)


def _column_moments(ratings: np.ndarray) -> np.ndarray:
    """``(3, nodes)`` int64: each column's count, sum and sum of squares of present codes.

    Codes are 0 (missing) to 10.  One ``bincount`` per block of rows, with
    column j's codes moved to bins ``11*j`` on, counts every code of every
    column; the moments are exact integer sums of that histogram, so no
    summation order enters.
    """
    nodes = ratings.shape[1]
    size = nodes * _CODES.size
    offsets = np.arange(0, size, _CODES.size, dtype=np.min_scalar_type(size))
    histogram = np.zeros(size, dtype=np.int64)
    for start in range(0, len(ratings), _MOMENT_ROWS):
        codes = ratings[start : start + _MOMENT_ROWS].view(np.uint8) + offsets
        histogram += np.bincount(codes.ravel(), minlength=size)
    return (histogram.reshape(nodes, _CODES.size) @ _MOMENT_WEIGHTS).T


def node_mean(sample: SurveySample, node_id: str) -> MeanWithHalfWidth:
    """Mean rating for one node over the respondents who rated it.

    Half-width is ``1.96 * sd / sqrt(n)`` with the sample (n-1) standard
    deviation, whose variance is an exact integer ratio rounded once; a
    single rating or a constant column gives half-width 0.  Raises
    :class:`NoRatingsError` when nobody rated the node.
    """
    n, total, squares = sample._moments[:, sample._column(node_id)].tolist()
    if not n:
        raise NoRatingsError(f"no ratings for node {node_id!r}")
    half = 0.0
    if n >= 2:
        sd = math.sqrt((n * squares - total * total) / (n * (n - 1)))
        half = CONFIDENCE_MULTIPLIER * sd / math.sqrt(n)
    return MeanWithHalfWidth(mean=total / n, half_width=half, n=n)


def node_means(sample: SurveySample) -> dict[str, float]:
    """Every node's mean rating, equal to ``node_mean(sample, node).mean`` bit for bit.

    Raises :class:`NoRatingsError` for the first node, in preorder, that
    nobody rated.
    """
    counts, sums, _ = sample._moments
    for node, n in zip(sample._position, counts):
        if not n:
            raise NoRatingsError(f"no ratings for node {node!r}")
    return dict(zip(sample._position, (sums / counts).tolist()))


def outcome_values(sample: SurveySample, outcome: OutcomeKind) -> list[int]:
    """Every answer to ``outcome`` in respondent order; blank answers are skipped."""
    column = sample.outcomes[:, _OUTCOMES.index(outcome)]
    return column[column >= 0].tolist()


def root_outcome_pairs(
    sample: SurveySample, outcome: OutcomeKind
) -> tuple[np.ndarray, np.ndarray]:
    """(root ratings, ``outcome`` answers) of the respondents who gave both, row-aligned."""
    root = sample.ratings[:, sample._column(sample.tree.root)]
    answers = sample.outcomes[:, _OUTCOMES.index(outcome)]
    both = (root > 0) & (answers >= 0)
    return root[both], answers[both]


def complete_cases(
    sample: SurveySample, node_id: str, children: Sequence[str]
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Ratings of ``node_id`` and of each child, over the respondents who rated all.

    This is listwise deletion: the response vector and one regressor column
    per child, all of the same length, as int8 views of one block.
    """
    block = sample.ratings[:, [sample._column(n) for n in (node_id, *children)]]
    complete = (block > 0).all(axis=1)
    if not complete.all():
        block = block[complete]
    return block[:, 0], {c: block[:, i + 1] for i, c in enumerate(children)}

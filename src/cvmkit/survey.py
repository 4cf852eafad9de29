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

In memory a :class:`SurveySample` is one columnar store: a string array of
ids, int8 role codes into :data:`ROLES`, unsigned supplier codes into a
per-sample table of names in canonical order (own first, the rest sorted),
an ``(n, nodes)`` int8 rating matrix in tree preorder with 0 for a missing
rating, and an ``(n, 2)`` int8 outcome matrix in :class:`OutcomeKind` order
with -1 for a missing answer.  Supplier splits compare codes and keep the
table; outcome lists and root/outcome pairs are column slices, and complete
cases one compressed copy of the gathered columns.  Other modules read the
store only through the functions below.  The class constructor takes the
columns as given and checks no value; ingest is where a file's values are
checked.

Ingest reads a path through one binary file handle, in chunks of a fixed
number of bytes each taken on to the end of its last line; a text stream is
read whole and encoded back to UTF-8 into an in-memory handle.  The line ends
left in the handle, counted first, bound the rows, so each column is made
once at that bound and filled in place, chunk after chunk, and the sample
keeps views of the filled rows.  Byte chunks keep their ids at one byte per
character until one string column is filled at the end.  Beyond the columns,
only those bytes and the string column's sorted copy grow with the file.
While the file is plain (ASCII, no quote, no CR but in CRLF, which reads as
LF), a chunk of whole lines in which every line has the header's comma count,
every label is non-empty and unpadded, every role is in :data:`ROLES` and
every value cell is canonical (blank or ``1``-``10``, and ``0`` for outcomes)
is parsed straight from its bytes, in work arrays made once per ingest that
grow only for a chunk larger than any before: delimiters found with one array
scan, each value cell decoded from its first two bytes, labels gathered as
fixed-width bytes.  Any other chunk goes through the row loop, which strips
cells, parses ASCII integers (digits after an optional sign) and raises the
first row-numbered diagnostic; from the first chunk that is not plain,
``csv.reader`` reads the rest of the file for it, with each byte that is not
UTF-8 read as one character U+DC80-U+DCFF (``surrogateescape``), which the
row loop names as its row's first fault.  The row loop accepts and rejects
exactly what a row loop over the whole file would, so the byte parser is
only a shortcut.  Repeated ids are looked for once, over the whole sample,
unless a row loop needs the earlier ids first.

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

import codecs
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

from .errors import CvmError, write_atomic
from .tree import ValueTree

__all__ = [
    "ROLES",
    "OutcomeKind",
    "SurveySample",
    "MeanWithHalfWidth",
    "SampleCounts",
    "SurveyFormatError",
    "NoRatingsError",
    "survey_columns",
    "ingest_responses",
    "survey_text",
    "write_survey",
    "split_by_supplier",
    "node_mean",
    "node_means",
    "supplier_sums",
    "sample_counts",
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

    ``ids`` is a string array; ``role_codes`` int8 codes into :data:`ROLES`;
    ``supplier_codes`` unsigned codes into ``supplier_names``, a table of
    distinct names in canonical order (the own supplier first, the rest
    sorted) that may name suppliers no row has; ``ratings`` an ``(n, nodes)``
    int8 matrix in tree preorder, 0 where a rating is missing; ``outcomes``
    an ``(n, 2)`` int8 matrix in :class:`OutcomeKind` order, -1 where an
    answer is missing.  The constructor takes the columns as given and makes
    them read-only.
    """

    tree: ValueTree
    own_supplier: str
    ids: np.ndarray
    role_codes: np.ndarray
    supplier_names: tuple[str, ...]
    supplier_codes: np.ndarray
    ratings: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=str)
        for column in (ids, self.role_codes, self.supplier_codes, self.ratings, self.outcomes):
            column.flags.writeable = False
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "supplier_names", tuple(self.supplier_names))
        object.__setattr__(self, "_position", _positions(self.tree))

    def _column(self, node_id: str) -> int:
        """Position of ``node_id`` in the rating matrix."""
        self.tree.node(node_id)  # raises UnknownNodeError for foreign ids
        return self._position[node_id]

    def _supplier_column(self) -> list[str]:
        """Each row's supplier name."""
        return list(map(self.supplier_names.__getitem__, self.supplier_codes.tolist()))

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurveySample):
            return NotImplemented
        return (
            self.tree == other.tree
            and self.own_supplier == other.own_supplier
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.role_codes, other.role_codes)
            and self._supplier_column() == other._supplier_column()
            and np.array_equal(self.ratings, other.ratings)
            and np.array_equal(self.outcomes, other.outcomes)
        )

    def suppliers(self) -> list[str]:
        """Distinct supplier labels: the own supplier (when present) first, then sorted."""
        counts = np.bincount(self.supplier_codes, minlength=len(self.supplier_names))
        return [self.supplier_names[k] for k in np.flatnonzero(counts)]

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
    warning.  A path is read as UTF-8 in chunks of a bounded number of bytes;
    a stream is read whole.  A leading byte-order mark is skipped in either
    source.  A byte that is not UTF-8, or a lone surrogate in a stream's
    text, is an error naming its row; only a stream whose own decoder fails
    gives an error naming no row.
    """
    if hasattr(source, "read"):
        try:
            text = source.read()  # type: ignore[union-attr]
        except UnicodeDecodeError as exc:
            message = f"byte 0x{exc.object[exc.start]:02x} is not valid UTF-8"
            raise SurveyFormatError(message) from None
        # surrogatepass lets any str make the round trip through bytes
        data = text.removeprefix("\ufeff").encode("utf-8", "surrogatepass")
        del text  # ingest holds one copy of the file
        return _ingest(io.BytesIO(data), tree, own_supplier)
    with open(source, "rb") as handle:
        if handle.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
            handle.seek(0)
        return _ingest(handle, tree, own_supplier)


#: Bytes read at a time, by the line count and by the parser.  A bounded chunk
#: keeps the parser's transients independent of the file's length: its reused
#: work arrays take about 13 bytes per chunk byte.  On the 200k-row
#: benchmark panel 256 KiB ingested fastest of 64 KiB-1 MiB, with 7,800 minor
#: page faults against 65,900 for fresh int64 index arrays per 1 MiB chunk.
_CHUNK_BYTES = 1 << 18
#: Rows read at a time once ``csv.reader`` reads the file.
_CHUNK_ROWS = 8192


@dataclass
class _Layout:
    """Where a file's columns go: its width and the value columns' targets."""

    width: int
    n_nodes: int
    # file column -> (matrix column, name for diagnostics)
    node_cols: dict[int, tuple[int, str]] = field(default_factory=dict)
    outcome_cols: dict[int, tuple[int, str]] = field(default_factory=dict)


def _ingest(handle: IO[bytes], tree: ValueTree, own_supplier: str) -> SurveySample:
    capacity = _line_ends(handle)  # no more respondent rows than this
    records = _records(handle)
    row_number = 1  # of the record being read, which a csv.Error names
    try:
        first = next(records, [])
        if isinstance(first, bytes):
            line, _, first = first.partition(b"\n")
            header = _split_lines(line.decode("ascii") + "\n")[0]
        elif first:
            header, first = first[0], first[1:]
        else:
            raise SurveyFormatError("empty file: no header row")
        _refuse_undecodable(header, 1)
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

        # Each chunk's rows go straight into the next rows of the columns,
        # made once at the bound; cells of columns the header omits keep
        # their missing codes.  A chunk of bytes is parsed straight from them
        # (_parse_bytes); any other chunk goes through the row loop
        # (_row_chunk), which accepts and diagnoses exactly as a whole-file
        # row loop would: it gets absolute row numbers, and ``first_row``
        # gets the id of every row before it.  Ids of byte chunks stay bytes
        # and wait in ``unnoted`` until a row loop needs them, or a repeat in
        # the whole sample is to be named.  Suppliers are coded in order of
        # first appearance (``supplier_code``); the canonical table comes last.
        columns = (
            np.empty(capacity, dtype=np.int8),
            np.empty(capacity, dtype=np.min_scalar_type(capacity)),
            np.zeros((capacity, layout.n_nodes), dtype=np.int8),
            np.full((capacity, len(_OUTCOMES)), -1, dtype=np.int8),
        )
        ids: list[np.ndarray] = []  # each chunk's ids
        filled = 0
        first_row: dict[str, int] = {}
        unnoted: list[tuple[np.ndarray, int]] = []
        supplier_code: dict[str, int] = {}
        row_number = 2
        scratch: dict[str, np.ndarray] = {}  # the byte parser's work arrays
        for piece in itertools.chain([first], records):
            if not piece:
                continue
            rest = [column[filled:] for column in columns]
            chunk_ids = None
            if isinstance(piece, bytes):
                chunk_ids = _parse_bytes(piece, layout, supplier_code, scratch, rest)
                if chunk_ids is None:
                    piece = _split_lines(piece.decode("ascii"))
                else:
                    unnoted.append((chunk_ids, row_number))
            if chunk_ids is None:
                _note_ids(first_row, unnoted)
                chunk_ids = _row_chunk(piece, row_number, layout, first_row, supplier_code, rest)
            ids.append(chunk_ids)
            filled += len(chunk_ids)
            row_number += len(chunk_ids) if isinstance(piece, bytes) else len(piece)
    except csv.Error as exc:
        raise SurveyFormatError(f"malformed CSV: {exc}", row_number) from None

    id_column = np.empty(filled, dtype=np.result_type("U1", *ids))
    if ids:
        np.concatenate(ids, out=id_column)
    del ids  # the row loop's string ids; the bytes of byte chunks stay in ``unnoted``
    ordered = np.sort(id_column, kind="stable")  # fast on ids that come in order
    if (ordered[1:] == ordered[:-1]).any():
        _note_ids(first_row, unnoted)  # raises, naming the first repeat
    if not filled:
        warnings.warn("survey has a header but no respondent rows", stacklevel=3)
    roles, suppliers, ratings, outcomes = (column[:filled] for column in columns)
    names, codes = _supplier_codes(list(supplier_code), own_supplier)
    return SurveySample(
        tree, own_supplier, id_column, roles, names, codes[suppliers], ratings, outcomes
    )


def _supplier_codes(names: Sequence[str], own_supplier: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The canonical table of the distinct ``names`` and the code of each of ``names`` in it.

    The table lists ``own_supplier`` first (when present), then the rest
    sorted; the codes take the smallest unsigned dtype that holds them all.
    """
    table = tuple(sorted(set(names), key=lambda name: (name != own_supplier, name)))
    code = {name: k for k, name in enumerate(table)}
    dtype = np.min_scalar_type(max(len(table) - 1, 0))
    return table, np.array([code[name] for name in names], dtype=dtype)


def _note_ids(first_row: dict[str, int], unnoted: list[tuple[np.ndarray, int]]) -> None:
    """Move the ids of byte chunks, each with its chunk's first row, into ``first_row``."""
    for ids, start in unnoted:
        for row, respondent_id in enumerate(ids.astype(str).tolist(), start):
            _note_id(first_row, respondent_id, row)
    unnoted.clear()


def _note_id(first_row: dict[str, int], respondent_id: str, row: int) -> None:
    first = first_row.setdefault(respondent_id, row)
    if first != row:
        raise SurveyFormatError(
            f"duplicate respondent_id {respondent_id!r} (first on row {first})", row
        )


def _line_ends(handle: IO[bytes]) -> int:
    """The line ends (LF, CR or CRLF) in the rest of ``handle``, at most one too many per read.

    Each record after the header starts after a line end of its own, so this
    bounds the respondent rows whether the byte parser or ``csv.reader`` reads
    them.  The handle is left where it was.
    """
    start, count = handle.tell(), 0
    while block := handle.read(_CHUNK_BYTES):
        count += block.count(b"\n")
        if b"\r" in block:  # a CRLF split between two reads counts twice
            count += block.count(b"\r") - block.count(b"\r\n")
    handle.seek(start)
    return count


def _records(handle: IO[bytes]) -> Iterator[bytes | list[list[str]]]:
    """The records of ``handle`` from its position on, in chunks of whole lines.

    While the file is plain (ASCII, no quote, no CR but in CRLF, which reads
    as LF), a chunk comes as its bytes, and each line is a record whose
    fields are split at every comma.  From the first chunk that is not
    plain, ``csv.reader`` reads the rest of the file in lists of rows.
    """
    while True:
        start = handle.tell()
        chunk = handle.read(_CHUNK_BYTES) + handle.readline()
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r\n", b"\n")
        if b'"' in chunk or b"\r" in chunk or not chunk.isascii():
            handle.seek(start)
            yield from _csv_records(handle)
            return
        if not chunk:
            return
        yield chunk if chunk.endswith(b"\n") else chunk + b"\n"


def _csv_records(handle: IO[bytes]) -> Iterator[list[list[str]]]:
    """Rows of ``csv.reader`` over the rest of ``handle``, in lists.

    Each byte that is not UTF-8 becomes one character U+DC80-U+DCFF
    (``surrogateescape``), which the row loop names.  A malformed record
    raises ``csv.Error`` after the rows before it come.
    """
    reader = csv.reader(io.TextIOWrapper(handle, "utf-8", "surrogateescape", newline=""))
    while True:
        rows: list[list[str]] = []
        try:
            for record in itertools.islice(reader, _CHUNK_ROWS):
                rows.append(record)
        except csv.Error:
            if rows:
                yield rows
            raise
        if not rows:
            return
        yield rows


def _split_lines(text: str) -> list[list[str]]:
    """The CSV rows of whole lines that hold no quote and no CR."""
    return [line.split(",") if line else [] for line in text.split("\n")[:-1]]


_COMMA, _NEWLINE, _BAD = ord(","), ord("\n"), -128
#: bytes that ``str.strip`` removes, which no label of a parsed chunk may start or end with
_STRIPPED = np.array([chr(b).isspace() for b in range(256)])


def _cell_codes(low: int, missing: int) -> np.ndarray:
    """Each value cell's code by its first two bytes, ``first + 256 * second``.

    An empty cell starts with its delimiter and a one-byte cell is followed
    by one, so two bytes tell every cell of at most two bytes apart.  Text
    other than blank, ``low``-``9`` and ``10`` maps to ``_BAD``.
    """
    table = np.full((256, 256), _BAD, dtype=np.int8)  # [second, first]
    table[:, [_COMMA, _NEWLINE]] = missing
    for value in range(low, 10):
        table[[_COMMA, _NEWLINE], ord("0") + value] = value
    table[ord("0"), ord("1")] = 10
    return table.ravel()


# the rating table, then the outcome table
_CELL_CODES = np.concatenate([_cell_codes(RATING_MIN, 0), _cell_codes(OUTCOME_MIN, -1)])


def _work(scratch: dict, name: str, shape, dtype, make=np.empty) -> np.ndarray:
    """The front of the work array ``name`` in ``shape``, remade by ``make`` when too short."""
    array, size = scratch.get(name), np.prod(shape)
    if array is None or len(array) < size or array.dtype != dtype:
        array = scratch[name] = make(size, dtype=dtype)
    return array[:size].reshape(shape)


def _parse_bytes(
    chunk: bytes, layout: _Layout, supplier_code: dict[str, int], scratch: dict[str, np.ndarray],
    out: Sequence[np.ndarray],
) -> np.ndarray | None:
    """Parse whole ASCII lines into the front of ``out``, or return None if the row loop must.

    ``out`` is the role, supplier, rating and outcome columns from the
    chunk's first row on; the ids come back as fixed-width bytes.  None means
    some line has another field count than the header, a label is empty or
    starts or ends with whitespace, a role is not in :data:`ROLES`, or a
    value cell is not canonical (blank or ``1``-``10``, and ``0`` for
    outcomes); ``supplier_code`` is then left as it was, and only the role
    column may have been written.  The ids share no memory with the work
    arrays in ``scratch``.
    """
    size, width = len(chunk), layout.width
    index = np.int32 if size < 2**31 else np.intp
    # the extra byte completes the two bytes of an empty last cell
    buf = np.frombuffer(chunk + b"\n", dtype=np.uint8)
    newline = np.equal(buf[:-1], _NEWLINE, out=_work(scratch, "newline", size, bool))
    delimiter = np.equal(buf[:-1], _COMMA, out=_work(scratch, "delimiter", size, bool))
    np.logical_or(delimiter, newline, out=delimiter)
    n, cells = np.count_nonzero(newline), np.count_nonzero(delimiter)
    positions = _work(scratch, "positions", size, index, np.arange)
    ends = np.compress(delimiter, positions, out=_work(scratch, "ends", cells, index))
    if cells != n * width or (buf[ends[width - 1 :: width]] != _NEWLINE).any():
        return None
    starts = _work(scratch, "starts", cells, index)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    lengths = np.subtract(ends, starts, out=_work(scratch, "lengths", cells, index))
    starts, ends, lengths = (a.reshape(n, width) for a in (starts, ends, lengths))
    labels = np.s_[:, :3]
    if not lengths[labels].all() or (lengths[:, 3:] > 2).any():
        return None
    if _STRIPPED[buf.take(starts[labels])].any() or _STRIPPED[buf.take(ends[labels] - 1)].any():
        return None
    pairs = np.ndarray((size,), dtype="<u2", buffer=buf, strides=(1,))
    gathered = _work(scratch, "pairs", starts[:, 3:].shape, pairs.dtype)
    pairs.take(starts[:, 3:], out=gathered, mode="clip")  # every start is in range
    outcome = np.array([c in layout.outcome_cols for c in range(3, width)], dtype=bool)
    table = outcome * (len(_CELL_CODES) // 2)  # an int array even for a header of labels only
    keys = np.add(gathered, table, out=_work(scratch, "keys", gathered.shape, index), dtype=index)
    codes = _CELL_CODES.take(keys, out=_work(scratch, "codes", keys.shape, np.int8), mode="clip")
    if (codes == _BAD).any():
        return None

    ids, roles, suppliers = (_fixed_width(buf, starts[:, k], lengths[:, k]) for k in range(3))
    role_codes, supplier_codes, ratings, outcomes = (column[:n] for column in out)
    role_codes.fill(-1)
    for code, role in enumerate(ROLES):
        role_codes[roles == role.encode()] = code
    if (role_codes < 0).any():
        return None
    names, suppliers = np.unique(suppliers, return_inverse=True)
    codes_of = [supplier_code.setdefault(s, len(supplier_code)) for s in names.astype(str).tolist()]
    supplier_codes[:] = np.array(codes_of)[suppliers]
    for matrix, columns in ((ratings, layout.node_cols), (outcomes, layout.outcome_cols)):
        matrix[:, [j for j, _ in columns.values()]] = codes[:, [idx - 3 for idx in columns]]
    return ids


def _fixed_width(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The bytes at ``starts`` of ``lengths``, as one zero-padded fixed-width bytes array."""
    offsets = np.arange(lengths.max(), dtype=starts.dtype)
    chars = buf.take(starts[:, None] + offsets, mode="clip")
    chars *= offsets < lengths[:, None]
    return chars.view(f"S{len(offsets)}").ravel()


#: a byte that is not UTF-8, as ``surrogateescape`` reads it
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _refuse_undecodable(cells: list[str], row: int) -> None:
    text = "".join(cells)
    if not text.isascii() and (byte := _UNDECODABLE.search(text)):
        raise SurveyFormatError(f"byte 0x{ord(byte[0]) - 0xDC00:02x} is not valid UTF-8", row)


def _row_chunk(
    chunk: list[list[str]], start: int, layout: _Layout, first_row: dict[str, int],
    supplier_code: dict[str, int], out: Sequence[np.ndarray],
) -> np.ndarray:
    """Check and convert a chunk row by row into the front of ``out``, as :func:`_parse_bytes`.

    Blank rows are skipped; the first bad row raises, naming itself.  Returns
    the ids of the rows written.
    """
    labels: list[tuple[str, int, int]] = []
    rating_rows: list[list[int]] = []
    outcome_rows: list[list[int]] = []
    for row_number, row in enumerate(chunk, start=start):
        _refuse_undecodable(row, row_number)
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
        _note_id(first_row, respondent_id, row_number)
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
        code = supplier_code.setdefault(supplier, len(supplier_code))
        labels.append((respondent_id, ROLES.index(role), code))
        rating_rows.append(ratings)
        outcome_rows.append(outcomes)
    if not labels:
        return np.array([], dtype=str)
    ids, roles, suppliers = zip(*labels)
    for column, values in zip(out, (roles, suppliers, rating_rows, outcome_rows)):
        column[: len(labels)] = values
    return np.array(ids, dtype=str)


# Cell text of each stored code: a rating code v is _RATING_TEXT[v] and an
# outcome code v is _OUTCOME_TEXT[v], so the missing outcome -1 reads the last
# entry, "".
_RATING_TEXT = ["", *map(str, range(RATING_MIN, RATING_MAX + 1))]
_OUTCOME_TEXT = [*map(str, range(OUTCOME_MIN, OUTCOME_MAX + 1)), ""]


def survey_text(sample: SurveySample) -> str:
    """Canonical CSV text for ``sample`` (the exact ingest round-trip form)."""
    columns = [
        sample.ids.tolist(),
        list(map(ROLES.__getitem__, sample.role_codes.tolist())),
        sample._supplier_column(),
    ]
    columns += [list(map(_RATING_TEXT.__getitem__, c)) for c in sample.ratings.T.tolist()]
    columns += [list(map(_OUTCOME_TEXT.__getitem__, c)) for c in sample.outcomes.T.tolist()]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(survey_columns(sample.tree))
    writer.writerows(zip(*columns))
    return buffer.getvalue()


def write_survey(sample: SurveySample, path: str | Path) -> None:
    write_atomic(path, survey_text(sample))


def split_by_supplier(
    sample: SurveySample, supplier: str | None = None
) -> tuple[SurveySample, SurveySample]:
    """(``supplier``'s respondents, everyone else), both keeping the tree/label.

    ``supplier`` defaults to the sample's own supplier.
    """
    name = sample.own_supplier if supplier is None else supplier
    names = sample.supplier_names
    if name in names:
        mine = sample.supplier_codes == names.index(name)
    else:
        mine = np.zeros(len(sample), dtype=bool)

    def part(mask: np.ndarray) -> SurveySample:
        return SurveySample(
            sample.tree, sample.own_supplier, sample.ids[mask], sample.role_codes[mask],
            names, sample.supplier_codes[mask], sample.ratings[mask], sample.outcomes[mask],
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


def supplier_sums(sample: SurveySample, node_id: str) -> dict[str, tuple[int, int]]:
    """Each present supplier's exact (count, sum) of ``node_id`` ratings, in canonical order.

    From one ``bincount``; ``sum / count`` equals ``node_mean`` of the supplier's split
    part bit for bit, and a supplier whose rows hold no rating of the node has (0, 0).
    """
    keys = sample.supplier_codes * np.intp(_CODES.size) + sample.ratings[:, sample._column(node_id)]
    size = len(sample.supplier_names) * _CODES.size
    histogram = np.bincount(keys, minlength=size).reshape(-1, _CODES.size)
    sums = (histogram @ _MOMENT_WEIGHTS[:, :2]).tolist()
    present = histogram.any(axis=1).tolist()
    return {name: tuple(s) for name, s, p in zip(sample.supplier_names, sums, present) if p}


@dataclass(frozen=True)
class SampleCounts:
    """What a sample holds: respondents per supplier (canonical order, present
    suppliers only) and per role (:data:`ROLES` order), and blank cells per
    rating and outcome column (CSV order)."""

    suppliers: dict[str, int]
    roles: dict[str, int]
    missing: dict[str, int]


def sample_counts(sample: SurveySample) -> SampleCounts:
    """Count ``sample``'s respondents and blank cells from its codes."""
    per_supplier = np.bincount(sample.supplier_codes, minlength=len(sample.supplier_names))
    per_role = np.bincount(sample.role_codes, minlength=len(ROLES))
    blank = np.concatenate([len(sample) - sample._moments[0], (sample.outcomes < 0).sum(axis=0)])
    columns = [*sample._position, *(kind.column for kind in _OUTCOMES)]
    return SampleCounts(
        suppliers={s: n for s, n in zip(sample.supplier_names, per_supplier.tolist()) if n},
        roles=dict(zip(ROLES, per_role.tolist())),
        missing=dict(zip(columns, blank.tolist())),
    )


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


def complete_cases(sample: SurveySample, node_id: str, children: Sequence[str]) -> np.ndarray:
    """The int8 matrix ``[1, children..., node_id]`` over the respondents who rated all.

    This is listwise deletion, and the matrix is a least-squares design with
    its intercept column first.  The columns are gathered once, and the
    incomplete rows are dropped by one ``np.compress`` of that block.
    """
    block = sample.ratings[:, [sample._column(n) for n in (node_id, *children, node_id)]]
    complete = (block[:, 1:] > 0).all(axis=1)
    if not complete.all():
        block = np.compress(complete, block, axis=0)
    block[:, 0] = 1
    return block
